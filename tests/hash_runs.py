"""Print one sha256 over the exit code, standard output and standard error of
a fixed corpus of command lines, so that "the output is byte-identical" is
one command to run on two trees:

    PYTHONPATH=src python tests/hash_runs.py

The corpus is built from perfbench/workloads.py's inputs at seeds 1 to 4:

- on each plane of build_tangency: `tangency --grid 256`, as JSON and as
  CSV, and `conic --type generic|orbit|special` (a family that does not
  exist on the plane exits with its error, which is hashed too);
- `tangency --grid 256` (JSON) on the f > 0 side of lam = -1, 0 and b/a, at
  1e-7 and 1e-9 from each, for each reference draw: planes whose orbit sweeps
  mix ContainedInB and Orbit and reach both branches;
- `report` on the three reference draws and on each set of build_sweep;
- `critical` (JSON and CSV), `classify`, `psi` and `validate` on each
  reference draw.

Prints the number of runs and the digest.  Nothing is written.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from workloads import cli_call, params_arg  # noqa: E402

from touching_conics.surface import f_value  # noqa: E402

SEEDS = (1, 2, 3, 4)


def corpus():
    """The command lines to hash, in a fixed order."""
    draws = [p for _, p in workloads.reference_draws()]
    for seed in SEEDS:
        for case in workloads.build_tangency(random.Random(seed)).cases:
            p, lam = case.data
            plane = ["--params", params_arg(p), "--lambda", repr(lam)]
            yield [*plane, "--grid", str(workloads.TANGENCY_GRID), "tangency"]
            yield [*plane, "--grid", str(workloads.TANGENCY_GRID), "--format", "csv", "tangency"]
            for family in ("generic", "orbit", "special"):
                yield [*plane, "conic", "--type", family]
    for p in draws:
        for end in (-1.0, 0.0, p.b / p.a):
            for d in (1e-7, 1e-9):
                lam = next(lam for lam in (end - d, end + d) if f_value(p, lam) > 0.0)
                yield ["--params", params_arg(p), "--lambda", repr(lam), "--grid", "256", "tangency"]
    sets = draws + [case.data for seed in SEEDS for case in workloads.build_sweep(random.Random(seed)).cases]
    for p in sets:
        yield ["--params", params_arg(p), "report"]
    for p in draws:
        pa = ["--params", params_arg(p)]
        yield [*pa, "critical"]
        yield [*pa, "--format", "csv", "critical"]
        for command in ("classify", "psi", "validate"):
            yield [*pa, command]


def main() -> int:
    digest = hashlib.sha256()
    runs = 0
    for argv in corpus():
        code, out, err = cli_call(argv)
        digest.update(repr((code, out, err)).encode())
        runs += 1
    print(f"{runs} runs, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
