"""Exception types shared across the package, and the one reader that turns
numbers arriving from outside the program into arrays."""

import numpy as np


class InputError(ValueError):
    """Malformed or out-of-contract input (bad schema, bad index, bad weights)."""


# Document numbers stay far enough inside float range that their squares and
# sums of squares (norms, gaps, certificates) cannot overflow.
MAX_MAGNITUDE = 1e150

_SHAPES = {0: "a finite number", 1: "a list of finite numbers",
           2: "a list of equal-length lists of finite numbers"}


def as_floats(value, what: str, ndim: int | None = None) -> np.ndarray:
    """``value`` as a float64 array of finite numbers no larger than
    ``MAX_MAGNITUDE``, with ``ndim`` axes when given; otherwise InputError
    naming ``what``.

    Only ints and floats count as numbers: None (which ``np.asarray`` would
    read as nan), strings, booleans and ragged lists are refused.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "iuf"
            or not np.all(np.abs(arr) <= MAX_MAGNITUDE)
            or (ndim is not None and arr.ndim != ndim)):
        shape = _SHAPES.get(ndim, "finite numbers")
        raise InputError(f"{what} must be {shape} of magnitude at most {MAX_MAGNITUDE:g}")
    return arr.astype(np.float64, copy=False)


def as_ints(value, what: str, ndim: int | None = None):
    """``value`` read by ``as_floats`` with every entry integral, as a
    Python int or nested lists of them; ``2.0`` reads as 2.  Entries past
    2**53, where float64 no longer holds every integer, are refused."""
    arr = as_floats(value, what, ndim)
    if not np.all((arr == np.round(arr)) & (np.abs(arr) <= 2**53)):
        raise InputError(f"{what} must be integers")
    return arr.astype(np.int64).tolist()


class MeasurabilityError(InputError):
    """A random variable is not measurable with respect to the required partition.

    Carries the index of the offending variable and a witness pair of sample
    points that share a block but take different values.
    """

    def __init__(self, k: int, witness: tuple[int, int], values: tuple[float, float]):
        self.k = k
        self.witness = witness
        self.values = values
        a, b = witness
        va, vb = values
        super().__init__(
            f"variable {k} is not measurable: points {a} and {b} share a block "
            f"but take values {va} and {vb}"
        )


class ConvergenceError(RuntimeError):
    """Iterative solver hit its iteration cap; carries the last duality gap."""

    def __init__(self, message: str, gap: float):
        self.gap = gap
        super().__init__(f"{message} (last duality gap {gap:.3e})")


class MembershipError(InputError):
    """A target point lies outside the rate region; carries the separating certificate."""

    def __init__(self, point, certificate):
        self.point = point
        self.certificate = certificate
        super().__init__(
            f"point {point} is outside the region; separating half-space {certificate}"
        )
