"""Opportunistic scheduling toolkit.

Finite-space measurability and factorization, exact rate regions with
oracle-driven projection, causal randomized policies built from one seeded
randomization variable, seeded slot simulations with convergence verifiers,
and a single-hop queue-stability overlay.
"""

from .errors import ConvergenceError, InputError, MeasurabilityError, MembershipError
from .geometry import (
    ConvexBody,
    HalfSpace,
    outer_halfspaces,
    support,
)
from .model import (
    Model,
    StateSpace,
    build_model,
    from_resources,
    model_from_dict,
    model_from_json,
    sample_state,
)
from .policy import (
    CustomPolicy,
    DeterministicPolicy,
    MaxWeightPolicy,
    Policy,
    RandomizedStationaryPolicy,
    TargetPolicy,
    deterministic_policy,
    target_policy,
)
from .queueing import (
    BernoulliArrivals,
    DeterministicArrivals,
    StabilityReport,
    run_maxweight,
)
from .randomize import RandSource, slot_uniform, slot_uniforms
from .region import (
    RateRegion,
    TargetDecomposition,
    decompose,
    dominance,
    enumerate_generators,
    lmo,
    membership,
    rate_region,
)
from .sigma import (
    FactorTable,
    FiniteRV,
    FiniteSpace,
    Partition,
    canonical_y,
    factorize,
    generate,
    is_measurable,
    join,
)
from .sim import (
    Trace,
    martingale_check,
    run,
    verify_avg_convergence,
    verify_conditional_membership,
    verify_mean_membership,
    write_trace_csv,
)

__version__ = "0.1.0"
