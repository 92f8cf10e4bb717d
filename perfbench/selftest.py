"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Smoke-runs every workload for one second, untraced and traced, and checks
   that the last line names every metric of BENCHMARK.json with its unit.
2. Feeds forced bad outputs through the checks and the runner, and checks
   that each counts as a failed op (and, where the program claimed success,
   makes the run incorrect), while an answer where the program declines to
   certify, in its documented form, counts as declined and not as failed.
3. Runs the benchmark in a directory holding only BENCHMARK.json and this
   directory, where it must exit non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / HERE.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke() -> None:
    for workload in SPEC["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _run(ROOT, "--workload", workload["name"], "--seed", "7", "--seconds", "1", "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload["name"], trace, got, want)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"smoke {workload['name']} trace={trace}: {result['attempted']} op(s), "
                  f"{result['failed']} failed, correct={result['correct']}")


def forced_failures() -> None:
    sys.path.insert(0, str(HERE))
    import run

    run._import_package()
    import workloads as wl

    survivors = [{"resolution": r, "hypothesis": h} for r, h in sorted(wl.EXPECTED_SURVIVORS)]
    good = json.dumps({"classification": {"survivors": survivors}, "h_tables": {"passed": True}})
    wrong = json.dumps({"classification": {"survivors": survivors[:1]}, "h_tables": {"passed": True}})
    tables = json.dumps({"classification": {"survivors": survivors}, "h_tables": {"passed": False}})
    assert wl.check_report((0, good, "")).ok
    inconclusive = (2, "", "inconclusive: x")
    for raw, silent in (((0, wrong, ""), True), ((0, tables, ""), True), (inconclusive, False)):
        out = wl.check_report(raw)
        assert not out.ok and out.silent is silent, (raw, out)

    def doc(h_passed=True, inconclusive=False, kept=survivors):
        row = {"function": "h1", "choice": "X0", "check": "count on I3", "computed": "2", "passed": h_passed}
        return json.dumps({"classification": {"survivors": kept, "inconclusive": inconclusive},
                           "h_tables": {"rows": [row], "passed": h_passed},
                           "validation": {"passed": True}, "psi": {"passed": True}})

    for raw in (inconclusive, (1, doc(h_passed=False), ""), (1, doc(kept=survivors[:1]), ""),
                (2, doc(inconclusive=True), "")):
        out = wl.check_sweep(raw)
        assert out.ok and out.declined, (raw, out)
    for raw, silent in (((0, wrong, ""), True), ((2, "", "boom"), False), ((1, "", "error: x"), False),
                        ((1, doc(), ""), False), ((2, doc(h_passed=False), ""), False),
                        ((1, doc(inconclusive=True), ""), False)):
        out = wl.check_sweep(raw)
        assert not out.ok and out.silent is silent, (raw, out)

    row = {"family": "special", "knob": 0.5, "type": "NotTouching", "passed": False}
    good_row = {"family": "special", "knob": 0.7, "type": "Special", "passed": True}
    out = wl.check_tangency((0.5, (1, json.dumps({"rows": [good_row, row], "passed": False}), ""), []))
    assert out.ok and out.declined and out.conics == 1, out
    for raw, silent in (((0, json.dumps({"rows": [row], "passed": False}), ""), True),
                        ((0, json.dumps({"rows": [row], "passed": True}), ""), True),
                        ((1, json.dumps({"rows": [good_row], "passed": True}), ""), False),
                        ((1, "", "error: x"), False)):
        out = wl.check_tangency((0.5, raw, []))
        assert not out.ok and out.silent is silent, (raw, out)
    export = (1, "", "error: degenerate")
    out = wl.check_tangency((0.5, (0, json.dumps({"rows": [good_row], "passed": True}), ""), [("special", export)]))
    assert not out.ok and not out.silent, out

    class Rep:
        passed, lambda0 = False, 2.0

    out = wl.check_search(({"lambda0": 2.0}, "params", Rep()))
    assert not out.ok and out.silent, out

    # Through the runner: a tampered output fails every op and makes the run
    # incorrect; outputs that change between reruns of one input fail too.
    outputs = iter([(0, good, ""), (0, wrong, ""), (0, good, ""), (0, good + " ", "")] * 1000)
    fake = wl.Workload([wl.Case("a", None), wl.Case("b", None)], lambda _: next(outputs), wl.check_report)
    ledger = run.Ledger(fake)
    for _ in range(4):
        ledger.record(*ledger.timed(fake.cases[_ % 2]))
    assert [o.ok for o in ledger.outcomes] == [True, False, True, False], ledger.outcomes
    assert ledger.failed == 2 and not ledger.correct
    assert "differs" in ledger.outcomes[3].reason

    def boom(_):
        raise RuntimeError("forced")

    ledger = run.Ledger(wl.Workload([wl.Case("a", None)], boom, wl.check_report))
    run.run_untraced(ledger, 0.0, run.Speed())
    assert ledger.failed == 1 and not ledger.outcomes[0].silent and "forced" in ledger.outcomes[0].reason
    # A declined op is neither failed nor certified; a run where no op
    # certified is incorrect.
    ledger = run.Ledger(wl.Workload([wl.Case("a", None)], lambda _: inconclusive, wl.check_sweep))
    ledger.record(*ledger.timed(ledger.workload.cases[0]))
    assert ledger.failed == 0 and ledger.declined == 1 and ledger.certified == [False] and not ledger.correct
    print("forced bad outputs: each counted as a failed op; declined answers as declined")


def bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(Path(tmp), "--workload", "report", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"bare directory: exit {proc.returncode}, nothing printed")


if __name__ == "__main__":
    smoke()
    forced_failures()
    bare_directory()
    print("selftest passed")
