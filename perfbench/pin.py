#!/usr/bin/env python3
"""Rewrite pinned_sha256.json: the trace CSV digests of the first
simulate-target ops at the default seed.

    python3 perfbench/pin.py

The benchmark fails any default-seed op whose trace no longer matches its
pinned digest, because replay must stay bit-exact.  Re-pin only for a change
that is meant to alter trace bytes, and say so in that change.
"""

import json

from run import load_library, workdir

PINNED_OPS = 64


def main() -> None:
    workloads = load_library()
    cls = workloads.SimulateTarget
    with workdir() as d:
        wl = cls(workloads.DEFAULT_SEED, d)
        wl.pinned = []  # check everything except the digests being replaced
        digests = []
        for i in range(PINNED_OPS):
            inp = wl.inputs(i)
            out = wl.op(inp)
            problems = wl.check(inp, out)
            if problems:
                raise SystemExit(f"op {i} failed its checks: {problems}")
            digests.append(wl.digest(out))
    with open(workloads.PINNED_PATH, "w") as fh:
        json.dump({cls.name: digests}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
