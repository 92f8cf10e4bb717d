"""Benchmark of the touching-conics lab: report, sweep, search and tangency.

    python3 perfbench/run.py --workload report --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from `src/` of that
checkout, in-process, through `touching_conics.cli.run` and the public module
functions.  One client runs a closed loop: the next op starts when the last
one has ended, for `--seconds` seconds (the op in flight at the deadline
completes).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it, each
starting with `#`, explain the run.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` every
op runs twice on the same input, untraced and then traced, and the metrics are
the per-layer ones; the paired difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Metric names and units: "end_to_end" with --trace 0, "per_layer" with 1.
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPS = 3
PROBE_EVERY_S = 0.5
PROBE_LOOP = 200_000
PROBE_GRID = 100_000
PROBE_GRID_PASSES = 8
# The two parts' times on an idle vCPU of a 2.1 GHz Xeon under Python 3.11
# and numpy 2.4: latencies are reported as if measured there.
PROBE_LOOP_REF_S = 0.025
PROBE_GRID_REF_S = 0.012

# Counts shown per input in a traced run; on params_star ("star") the seed
# makes 220,174 / 58 / 116 / 63 / 2 of the first five per report.
CASE_COUNTS = (
    "resolution.h_function.calls",
    "analysis.critical_points.calls",
    "analysis.grid_passes",
    "analysis.endpoint_limit.calls",
    "analysis.cache.instances",
    "analysis.cache.lookups",
    "analysis.cache.misses",
    "surface.validate.calls",
    "conics.verify_touching.calls",
)


def _import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "touching_conics" / "cli.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import touching_conics

    if Path(touching_conics.__file__).resolve().parent != SRC / "touching_conics":
        raise SystemExit(f"error: touching_conics imported from {touching_conics.__file__}, not {SRC}")


class Ledger:
    """Outcome of every op, and the digest of each input's first output so a
    rerun that differs is caught."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.outcomes = []
        self.digests: dict[str, str] = {}

    def judge(self, case, raw, error):
        from workloads import Outcome

        if error is not None:
            return Outcome(False, f"{type(error).__name__}: {error}")
        try:
            outcome = self.workload.check(raw)
        except Exception as exc:  # a malformed output is a wrong output
            return Outcome(False, f"unreadable output: {type(exc).__name__}: {exc}", silent=True)
        first = self.digests.setdefault(case.key, outcome.digest)
        if first != outcome.digest:
            return Outcome(False, "output differs from an earlier run of the same input", silent=True)
        return outcome

    def timed(self, case):
        t0 = perf_counter()
        try:
            raw, error = self.workload.op(case.data), None
        except Exception as exc:  # the op failed explicitly; count it and go on
            raw, error = None, exc
        dt = perf_counter() - t0
        return dt, self.judge(case, raw, error)

    def record(self, dt, outcome):
        self.latencies.append(dt)
        self.outcomes.append(outcome)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def declined(self) -> int:
        return sum(o.ok and o.declined for o in self.outcomes)

    @property
    def certified(self) -> list[bool]:
        return [o.ok and not o.declined for o in self.outcomes]

    @property
    def correct(self) -> bool:
        return any(self.certified) and not any(o.silent for o in self.outcomes)

    def report_failures(self) -> None:
        reasons = defaultdict(int)
        for o in self.outcomes:
            if not o.ok:
                reasons["failed", ("silent " if o.silent else "") + o.reason] += 1
            elif o.declined:
                reasons["declined", o.reason] += 1
        for (kind, reason), n in sorted(reasons.items(), key=lambda kv: -kv[1])[:8]:
            print(f"# {kind} x{n}: {reason}")


def probe() -> float:
    """How much slower than on the reference machine, idle, a fixed piece of
    work runs now.  The work has both kinds the package does, weighted
    equally: a pure-Python float loop (like the radius functions and the
    conic checks) and numpy arithmetic on 100k-point arrays (like the
    admissibility grids)."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(1, PROBE_LOOP):
        x = i * 1e-3
        acc += math.sqrt(x * x + 1.0) / (1.0 + x)
    t1 = perf_counter()
    grid = np.linspace(-10.0, 10.0, PROBE_GRID)
    for _ in range(PROBE_GRID_PASSES):
        disc = ((0.6 * grid - 0.3) * grid + 0.5) ** 2 - grid * (grid + 1.0) * (grid - 1.0)
        bool(np.any(disc < -1e-9 * np.abs(grid) ** 4))
    t2 = perf_counter()
    return 0.5 * ((t1 - t0) / PROBE_LOOP_REF_S + (t2 - t1) / PROBE_GRID_REF_S)


class Speed:
    """Machine-speed probes, taken between ops at most PROBE_EVERY_S apart.

    On a shared 2-vCPU VM (Xeon, 2.1 GHz) the same `report` on the same input
    took anywhere from 0.57 to 1.05 s, in phases of several seconds, and the
    median of a 30 s run moved by about 20% with them.  So each timed span is
    divided by the mean slowdown of the probes taken just before and just
    after it: the time it would take on the reference machine, idle."""

    def __init__(self):
        probe()  # the first call pays for numpy's first allocations
        self.times = [probe()]
        self._last = perf_counter()

    @property
    def index(self) -> int:
        """The index of the probe taken before the next timed span."""
        return len(self.times) - 1

    def take(self) -> None:
        self.times.append(probe())
        self._last = perf_counter()

    def after_op(self) -> None:
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.take()

    def scale(self, k: int) -> float:
        return 2.0 / (self.times[k] + self.times[k + 1])


def tail(xs: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the maximum when there are ten samples or fewer."""
    xs = sorted(xs)
    k = len(xs) - 11
    if k < 0:
        return xs[-1], 100.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def run_untraced(ledger: Ledger, seconds: float, speed: Speed) -> list[float]:
    """The closed loop; returns each op's latency at the reference speed."""
    cases = ledger.workload.cases
    probes = []
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        probes.append(speed.index)
        ledger.record(*ledger.timed(cases[i % len(cases)]))
        speed.after_op()
        i += 1
    speed.take()
    print(f"# probe: {len(speed.times)} taken, median slowdown {statistics.median(speed.times):.3f} "
          "against the reference machine")
    return [dt * speed.scale(k) for dt, k in zip(ledger.latencies, probes)]


def run_traced(ledger: Ledger, seconds: float) -> dict[str, float]:
    """Each op untraced, then traced on the same input; per-layer figures are
    per-op means for each input, then averaged over inputs, so a run's mix of
    inputs does not change them."""
    from tracing import Tracer, derived

    tracer = Tracer()
    cases = ledger.workload.cases
    per_case: dict[str, list[dict]] = defaultdict(list)
    plain, overheads = [], []
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        case = cases[i % len(cases)]
        i += 1
        dt0, first = ledger.timed(case)
        tracer.reset()
        with tracer.installed():
            dt1, second = ledger.timed(case)
        ledger.record(dt1, first if not first.ok else second)
        per_case[case.key].append(tracer.snapshot())
        plain.append(dt0)
        overheads.append(dt1 - dt0)

    means = {}
    for key, snaps in per_case.items():
        means[key] = {name: statistics.fmean(s[name] for s in snaps) for name in snaps[0]}
        print(f"# trace {key} (x{len(snaps)}): " + " ".join(f"{n}={means[key][n]:g}" for n in CASE_COUNTS))
    metrics = derived({name: statistics.fmean(m[name] for m in means.values()) for name in next(iter(means.values()))})
    metrics["ops.declined_share"] = ledger.declined / len(ledger.outcomes)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / statistics.median(plain)
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("report", "sweep", "search", "tangency"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    speed = Speed()
    t0 = perf_counter()
    _import_package()
    import workloads

    import_s = perf_counter() - t0
    speed.take()
    import_s *= speed.scale(0)
    builds = []
    for _ in range(SETUP_REPS):
        k = speed.index
        t0 = perf_counter()
        workload = workloads.BUILDERS[args.workload](random.Random(args.seed))
        dt = perf_counter() - t0
        speed.take()
        builds.append(dt * speed.scale(k))
    setup_s = import_s + statistics.median(builds)

    ledger = Ledger(workload)
    if args.trace:
        values = run_traced(ledger, args.seconds)
    else:
        scaled = run_untraced(ledger, args.seconds, speed)
        cert = [x for x, c in zip(scaled, ledger.certified) if c] or scaled
        wall = [x for x, c in zip(ledger.latencies, ledger.certified) if c] or ledger.latencies
        tail_s, pct = tail(cert)
        certified = sum(ledger.certified)
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "p50_s": statistics.median(cert),
            "tail_s": tail_s,
            "certified_per_s": certified / sum(scaled),
        }
        conics = sum(o.conics for o in ledger.outcomes)
        print(
            f"# {args.workload}: {certified} of {len(ledger.outcomes)} ops certified, "
            f"{ledger.declined} declined by the program, {ledger.failed} failed; "
            f"tail_s is p{pct:.0f} of n={len(cert)}; wall clock: p50 {statistics.median(wall):.4f} s, "
            f"{sum(ledger.latencies):.2f} s of ops"
            + (f"; {conics / sum(scaled):.1f} conics certified per s" if conics else "")
        )
    ledger.report_failures()
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {
        "correct": ledger.correct,
        "attempted": len(ledger.outcomes),
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
