"""Command-line interface: subcommands, exit codes, report shape, determinism."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from touching_conics.analysis import RadiusAnalysis
from touching_conics.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, run
from touching_conics.surface import SearchConfig, lambda0, params_for_q0

SURVIVOR_NAMES = {"(X1, X0plusX1, X0)", "(AX0minusBX1, X0, X0plusX1)"}


@pytest.fixture(scope="module")
def star_arg(params_star):
    p = params_star
    return f"{p.q0!r},{p.q1!r},{p.q2!r},{p.a!r},{p.b!r}"


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_psi_exit_zero(tmp_path):
    out = tmp_path / "psi.json"
    assert run(["--out", str(out), "psi"]) == EXIT_OK
    doc = _load(out)
    assert doc["psi"]["passed"]
    assert doc["version"]["schema"] == "report-v1"


def test_validate_pass_and_fail(star_arg, tmp_path):
    out = tmp_path / "v.json"
    assert run(["--params", star_arg, "--out", str(out), "validate"]) == EXIT_OK
    doc = _load(out)
    assert doc["validation"]["passed"]
    assert len(doc["singular_locus"]) == 3
    assert run(["--params", "0,0,0,1,1", "--out", str(out), "validate"]) == EXIT_FAIL
    doc = _load(out)
    assert not doc["validation"]["condition_i"]["passed"]


def test_classify_survivors(star_arg, tmp_path):
    out = tmp_path / "c.json"
    assert run(["--params", star_arg, "classify", "--out", str(out)]) == EXIT_OK
    doc = _load(out)
    cls = doc["classification"]
    assert len(cls["survivors"]) == 2
    names = {s["resolution"] for s in cls["survivors"]}
    assert names == {"(X1, X0plusX1, X0)", "(AX0minusBX1, X0, X0plusX1)"}
    assert len(cls["traces"]) == 48
    assert len(cls["component_schedules"]) == 2
    assert cls["broken_pairing"]["samples"]


def test_usage_errors():
    assert run(["frobnicate"]) == EXIT_USAGE
    assert run(["--params", "1,2,3", "validate"]) == EXIT_USAGE  # wrong arity
    assert run(["--grid", "4", "psi"]) == EXIT_USAGE
    assert run(["--tol", "-1", "psi"]) == EXIT_USAGE
    assert run(["validate"]) == EXIT_USAGE  # params required


def test_parser_is_reused_across_runs(star_arg, capsys):
    argv = ["--params", star_arg, "--lambda", "-0.5", "tangency"]
    assert run(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    assert run(["frobnicate"]) == EXIT_USAGE
    assert run(["--params", star_arg, "tangency"]) == EXIT_USAGE  # --lambda required
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == first


def test_search_params(tmp_path):
    out = tmp_path / "s.json"
    assert run(["--out", str(out), "search-params", "--lambda0", "2.0"]) == EXIT_OK
    doc = _load(out)
    assert doc["search"]["found"]
    assert doc["validation"]["passed"]


def test_conic_record(star_arg, tmp_path):
    out = tmp_path / "conic.json"
    code = run(
        ["--params", star_arg, "--lambda", "-0.5", "--theta", "0.4", "--out", str(out), "conic", "--type", "generic"]
    )
    assert code == EXIT_OK
    doc = _load(out)
    record = doc["conic"]
    assert record["type"] == "generic"
    assert record["tangency"] == "Generic"
    assert record["min_real_form"] > 0.0
    assert len(record["matrix"]) == 3 and len(record["matrix"][0][0]) == 2


def test_tangency_sweep(star_arg, tmp_path):
    out = tmp_path / "t.json"
    assert run(["--params", star_arg, "--lambda", "-2.0", "--out", str(out), "tangency"]) == EXIT_OK
    doc = _load(out)
    assert doc["passed"] and len(doc["rows"]) >= 16


def test_hscan_csv(star_arg, tmp_path):
    out = tmp_path / "h.csv"
    code = run(
        [
            "--params", star_arg,
            "--resolution", "X1,X0plusX1,X0",
            "--grid", "20",
            "--format", "csv",
            "--out", str(out),
            "hscan",
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,ell1,ell2,ell3,lambda,value"
    assert len(lines) > 40


def test_critical_table(star_arg, tmp_path):
    out = tmp_path / "crit.json"
    assert run(["--params", star_arg, "--out", str(out), "critical"]) == EXIT_OK
    doc = _load(out)
    assert doc["passed"] and len(doc["rows"]) >= 60


def test_params_file(star_arg, params_star, tmp_path):
    cfgfile = tmp_path / "params.cfg"
    cfgfile.write_text(
        "\n".join(
            f"{k} = {v!r}" for k, v in params_star.as_dict().items()
        )
        + "\n# trailing comment\n"
    )
    out = tmp_path / "v.json"
    assert run(["--params-file", str(cfgfile), "--out", str(out), "validate"]) == EXIT_OK


def test_report_bundle_and_determinism(star_arg, tmp_path):
    out1 = tmp_path / "r.json"
    assert run(["--params", star_arg, "--out", str(out1), "report"]) == EXIT_OK
    doc = _load(out1)
    for key in ("version", "config", "validation", "singular_locus", "h_tables", "classification", "psi"):
        assert key in doc
    assert "timings" not in doc  # byte-identical reruns by default
    first = out1.read_bytes()
    assert run(["--params", star_arg, "--out", str(out1), "report"]) == EXIT_OK
    assert out1.read_bytes() == first


def test_report_timings_opt_in(star_arg, tmp_path):
    out = tmp_path / "rt.json"
    assert run(["--params", star_arg, "--timings", "--out", str(out), "report"]) == EXIT_OK
    timings = _load(out)["timings"]
    assert set(timings) == {"validate_s", "h_tables_s", "classify_s"}
    # to the microsecond: every stage takes more than one, none reads 0
    assert all(0.0 < v == round(v, 6) for v in timings.values())


def test_tangency_timings_opt_in(star_arg, tmp_path):
    argv = ["--params", star_arg, "--lambda", "-0.5", "--grid", "32"]
    plain = tmp_path / "t.json"
    assert run(argv + ["--out", str(plain), "tangency"]) == EXIT_OK
    first = plain.read_bytes()
    assert "timings" not in _load(plain)
    assert run(argv + ["--out", str(plain), "tangency"]) == EXIT_OK
    assert plain.read_bytes() == first
    untimed = _load(plain)
    assert run(argv + ["--timings", "--out", str(plain), "tangency"]) == EXIT_OK
    doc = _load(plain)
    # 32 generic and 31 orbit conics on an f > 0 plane
    assert doc["timings"]["conics"] == len(doc["rows"]) == 63
    assert 0.0 < doc["timings"]["tangency_s"] == round(doc["timings"]["tangency_s"], 6)
    del doc["timings"]
    assert doc == untimed


def test_malformed_numbers_are_usage_errors(tmp_path):
    assert run(["--params", "1,2,x,4,5", "validate"]) == EXIT_USAGE
    cfgfile = tmp_path / "params.cfg"
    cfgfile.write_text("q0 = 1\nq1 = abc\nq2 = 3\na = 1\nb = 1\n")
    assert run(["--params-file", str(cfgfile), "validate"]) == EXIT_USAGE


def test_params_file_line_without_value(tmp_path):
    cfgfile = tmp_path / "params.cfg"
    cfgfile.write_text("q0\n")
    assert run(["--params-file", str(cfgfile), "validate"]) == EXIT_USAGE


def test_report_builds_one_analysis(star_arg, tmp_path, monkeypatch):
    built = []
    init = RadiusAnalysis.__init__

    def counting(self, params):
        built.append(params)
        init(self, params)

    monkeypatch.setattr(RadiusAnalysis, "__init__", counting)
    assert run(["--params", star_arg, "--out", str(tmp_path / "r.json"), "report"]) == EXIT_OK
    assert len(built) == 1


def _q0_set(a, b, lambda0, q0):
    p = params_for_q0(SearchConfig(a=a, b=b, lambda0=lambda0), q0)
    return f"{p.q0!r},{p.q1!r},{p.q2!r},{p.a!r},{p.b!r}"


def test_report_large_q2_set_is_certified(tmp_path):
    # large q2: h1 (l1 = X0) grows like |lam|^(-1/2) at 0+, yet is only
    # about 9e3 at lam = 1e-10, below a sampled "Infinity" threshold of 1e4
    out = tmp_path / "r.json"
    assert run(["--params", _q0_set(0.5, 0.5, 6.0, 1.85), "--out", str(out), "report"]) == EXIT_OK
    doc = _load(out)
    assert doc["h_tables"]["passed"]
    assert not doc["classification"]["inconclusive"]
    assert {s["resolution"] for s in doc["classification"]["survivors"]} == SURVIVOR_NAMES


def test_report_two_critical_points_on_i3(tmp_path):
    # h1 with l1 = X0 has a local minimum and a local maximum on I3 here, off
    # the paper's table; no survivor's constraint reads that row
    out = tmp_path / "r.json"
    assert run(["--params", _q0_set(0.5, 3.0, 7.5, 0.95), "--out", str(out), "report"]) == EXIT_FAIL
    doc = _load(out)
    failing = {(r["function"], r["choice"], r["check"], r["computed"]) for r in doc["h_tables"]["rows"] if not r["passed"]}
    assert failing == {("h1", "X0", "count on I3", "2"), ("h3", "{AX0minusBX1,X0plusX1,X1}", "count on I3", "2")}
    assert {s["resolution"] for s in doc["classification"]["survivors"]} == SURVIVOR_NAMES
    assert doc["validation"]["passed"]


def test_python_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "touching_conics", "psi"], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["psi"]["passed"]


def test_tangency_plane_with_double_contact_passes(params_draws, tmp_path):
    p = params_draws[2]
    arg = f"{p.q0!r},{p.q1!r},{p.q2!r},{p.a!r},{p.b!r}"
    out = tmp_path / "t.json"
    assert run(["--params", arg, "--lambda", "-5.75", "--grid", "256", "--out", str(out), "tangency"]) == EXIT_OK
    assert all(r["passed"] for r in _load(out)["rows"])


def test_tangency_near_plane_boundaries(params_draws, capsys):
    # the generic conics here are smooth (det = -2 (Q^2 - f)^2) and every
    # contact is double, however thin the margin to lambda0, -1, 0 or b/a
    for p in params_draws:
        arg = f"{p.q0!r},{p.q1!r},{p.q2!r},{p.a!r},{p.b!r}"
        lam0 = lambda0(p)
        planes = [lam0 + s * 10.0**-k for k in (3, 4, 5) for s in (1.0, -1.0)]
        planes += [e + s * 10.0**-k for e in (-1.0, 0.0, p.b / p.a) for k in range(3, 10) for s in (1.0, -1.0)]
        for lam in planes:
            assert run(["--params", arg, f"--lambda={lam!r}", "tangency"]) == EXIT_OK, lam
            doc = json.loads(capsys.readouterr().out)
            assert doc["passed"] and all(r["passed"] for r in doc["rows"]), lam


def test_tangency_a_thousandth_off_lambda0(star_arg, tmp_path):
    out = tmp_path / "t.json"
    assert run(["--params", star_arg, "--lambda", "2.001", "--out", str(out), "tangency"]) == EXIT_OK
    doc = _load(out)
    assert doc["passed"] and all(r["type"] in ("Generic", "Orbit", "ContainedInB") for r in doc["rows"])


def _readme_commands() -> list[list[str]]:
    """The concrete command lines of the README's examples block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:", 1)[1].split("```")[1]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("touching-conics ") and "..." not in line
    ]


def test_readme_examples_run(tmp_path):
    commands = _readme_commands()
    assert sorted(w for c in commands for w in c if w in ("search-params", "report")) == ["report", "search-params"]
    for argv in commands:
        out = tmp_path / "out.json"
        argv[argv.index("--out") + 1] = str(out)
        assert run(argv) == EXIT_OK, argv
        assert _load(out)["validation"]["passed"]


def test_readme_example_rounded_to_8_digits_fails_condition_i(tmp_path):
    # rounding splits the double root into a complex pair 2 +- 1.26e-4 i
    arg = "0.65,-0.3546344,0.55875855,1,1"
    out = tmp_path / "r.json"
    assert run(["--params", arg, "--out", str(out), "validate"]) == EXIT_FAIL
    cond = _load(out)["validation"]["condition_i"]
    assert not cond["passed"] and "no real double root" in cond["detail"]
    assert run(["--params", arg, "--out", str(out), "report"]) == EXIT_FAIL
    doc = _load(out)
    assert doc["validation"]["condition_i"]["detail"] == cond["detail"]
    for part in ("h_tables", "classification"):
        assert "condition (i)" in doc[part]["error"]
    assert not doc["h_tables"]["passed"] and doc["h_tables"]["rows"] == []


def test_report_on_a_set_with_q_negative_at_minus_one_writes_a_document(tmp_path):
    # vanishing order 0 at -1: the h-tables are not computed, and say why
    out = tmp_path / "r.json"
    assert run(["--params", _q0_set(1.0, 1.0, 2.0, 0.3), "--out", str(out), "report"]) == EXIT_FAIL
    doc = _load(out)
    star = doc["validation"]["condition_star"]
    assert not star["passed"] and star["witness"] == -1.0
    assert len(doc["singular_locus"]) == 3 and doc["psi"]["passed"]
    assert "condition (*)" in doc["h_tables"]["error"] and not doc["h_tables"]["passed"]
    assert "condition (*)" in doc["classification"]["error"]
    assert doc["classification"]["survivors"] == [] and not doc["classification"]["inconclusive"]


@pytest.mark.parametrize(
    "flag, key, value, tail",
    [
        ("--lambda", "lambda", "-1e-08", ["tangency"]),
        ("--theta", "theta", "-1e-3", ["--lambda", "-0.5", "conic", "--type", "generic"]),
        ("--alpha", "alpha", "-2.5E-1", ["--lambda", "-0.5", "conic", "--type", "orbit"]),
    ],
)
def test_negative_exponent_values_parse_like_the_equals_form(star_arg, capsys, flag, key, value, tail):
    # argparse alone reads "-1e-08" as an option and stops with a usage error
    assert run(["--params", star_arg, f"{flag}={value}"] + tail) == EXIT_OK
    joined = capsys.readouterr()
    assert run(["--params", star_arg, flag, value] + tail) == EXIT_OK
    assert capsys.readouterr() == joined
    assert json.loads(joined.out)["config"][key] == float(value)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--params", "nan,0,1,1,1", "report"], EXIT_USAGE, "error: --params: 'nan' is not a finite number"),
        (["--params", "1,-inf,1,1,1", "validate"], EXIT_USAGE, "error: --params: '-inf' is not a finite number"),
        (["--params", "1e400,0,1,1,1", "validate"], EXIT_USAGE, "error: --params: '1e400' is not a finite number"),
        (["--params-file", "FILE", "validate"], EXIT_USAGE, "error: params file key q1: 'inf' is not a finite number"),
        (["search-params", "--q0-min", "nan"], EXIT_USAGE, "argument --q0-min: 'nan' is not a finite number"),
        (["--params", "STAR", "--lambda", "3", "--alpha", "inf", "conic", "--type", "orbit"], EXIT_USAGE,
         "argument --alpha: 'inf' is not a finite number"),
        (["--params", "STAR", "--lambda", "nan", "tangency"], EXIT_USAGE, "argument --lambda: 'nan' is not a finite number"),
        (["--params", "STAR", "--theta=-inf", "--lambda", "1", "conic", "--type", "generic"], EXIT_USAGE,
         "argument --theta: '-inf' is not a finite number"),
        # finite, but D's coefficients overflow once divided by the leading one
        (["--params", "1e-160,0,1,1,1", "validate"], EXIT_FAIL, "error: roots need finite coefficients"),
        (["--params", "1,1e200,1,1,1", "validate"], EXIT_FAIL, "error: roots need finite coefficients"),
    ],
    ids=["params-nan", "params-inf", "params-overflow", "params-file-inf", "q0-min-nan", "alpha-inf", "lambda-nan",
         "theta-inf", "leading-underflow", "coefficient-overflow"],
)
def test_numbers_the_program_cannot_use_end_in_an_error_line(star_arg, tmp_path, capsys, argv, code, message):
    cfgfile = tmp_path / "params.cfg"
    cfgfile.write_text("q0 = 1\nq1 = inf\nq2 = 1\na = 1\nb = 1\n")
    argv = [{"STAR": star_arg, "FILE": str(cfgfile)}.get(a, a) for a in argv]
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err.splitlines()[0]


def test_report_is_built_from_the_subcommands_sections(params_draws, capsys):
    for p in params_draws:
        docs = {}
        for command in ("report", "validate", "critical", "classify", "psi"):
            run(["--params", f"{p.q0!r},{p.q1!r},{p.q2!r},{p.a!r},{p.b!r}", command])
            docs[command] = json.loads(capsys.readouterr().out)
        report = docs["report"]
        assert report["validation"] == docs["validate"]["validation"]
        assert report["singular_locus"] == docs["validate"]["singular_locus"]
        assert report["h_tables"] == {key: docs["critical"][key] for key in ("rows", "passed")}
        assert report["classification"] == docs["classify"]["classification"]
        assert report["psi"] == docs["psi"]["psi"]
