"""Command-line interface: subcommands, exit codes, report shape, determinism."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from touching_conics import analysis, cli, surface
from touching_conics.analysis import RadiusAnalysis
from touching_conics.classifier import _COUNT_ROWS, _plans, _trace
from touching_conics.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, run
from touching_conics.conics import ConicType, Plane
from touching_conics.surface import SearchConfig, lambda0, params_for_q0
from oracles import LazyAnalysis, classification_by_trace, verify_h_tables_by_row

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
    assert doc["version"]["schema"] == "report-v2"


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
    assert run(["--grid", "4", "tangency"]) == EXIT_USAGE
    assert run(["--tol", "-1", "psi"]) == EXIT_USAGE
    assert run(["validate"]) == EXIT_USAGE  # params required


def test_grid_is_checked_only_by_tangency(star_arg, capsys):
    # report never reads the grid, and records it in its config as given
    assert run(["--params", star_arg, "--grid", "8", "report"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["config"]["grid"] == 8
    assert run(["--params", star_arg, "--lambda=-0.5", "--grid", "8", "tangency"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: grid density must be at least 16\n")


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


def test_search_params_validates_each_candidate_once(tmp_path, monkeypatch):
    # the default sweep passes its 13th candidate, and the document prints
    # the report the sweep passed it with
    validated = []
    validate = surface.validate
    for module in (surface, cli):
        monkeypatch.setattr(module, "validate", lambda params: validated.append(params) or validate(params))
    out = tmp_path / "s.json"
    assert run(["--out", str(out), "search-params"]) == EXIT_OK
    assert len(validated) == len(set(validated)) == 13
    doc = _load(out)
    assert doc["search"]["params"] == validated[-1].as_dict()
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
    assert run(["--params", star_arg, "--out", str(out), "report"]) == EXIT_OK
    untimed = out.read_text(encoding="utf-8")
    assert run(["--params", star_arg, "--timings", "--out", str(out), "report"]) == EXIT_OK
    timed = out.read_text(encoding="utf-8")
    # the body is byte-identical: cutting the flat timings object out of the
    # timed document leaves the untimed one
    start = timed.index('\n  "timings": {')
    end = timed.index("\n  }", start) + len("\n  },")
    assert timed[:start] + timed[end:] == untimed
    timings = json.loads(timed)["timings"]
    stages = {key: timings.pop(key) for key in ("validate_s", "h_tables_s", "classify_s")}
    # to the microsecond: every stage takes more than one, none reads 0
    assert all(0.0 < v == round(v, 6) for v in stages.values())
    # 1 + 4 + 6 radius functions (h3 is h1 of the missing form), solved by one
    # eigenvalue call per degree (2, 3 and 5), over 3 + 8 + 12 spans (h1 and
    # h3 share theirs); the elimination reads 6 + 8 of those count rows
    assert timings == {"critical_polynomials": 11, "root_solves": 3, "critical_spans": 23, "count_rows": 14}


def test_tangency_timings_opt_in(star_arg, tmp_path):
    argv = ["--params", star_arg, "--lambda", "-0.5", "--grid", "256"]
    plain = tmp_path / "t.json"
    assert run(argv + ["--out", str(plain), "tangency"]) == EXIT_OK
    first = plain.read_bytes()
    assert "timings" not in _load(plain)
    assert run(argv + ["--out", str(plain), "tangency"]) == EXIT_OK
    assert plain.read_bytes() == first
    untimed = _load(plain)
    assert run(argv + ["--timings", "--out", str(plain), "tangency"]) == EXIT_OK
    doc = _load(plain)
    # 256 generic and 255 orbit conics on an f > 0 plane, every one settled
    # by the filter: none left to the exact decision
    assert doc["timings"]["conics"] == len(doc["rows"]) == 511
    assert doc["timings"]["exact_conics"] == 0
    assert 0.0 < doc["timings"]["tangency_s"] == round(doc["timings"]["tangency_s"], 6)
    # the two batched decisions, one per family, are part of the sweep
    assert 0.0 < doc["timings"]["decide_s"] == round(doc["timings"]["decide_s"], 6)
    assert doc["timings"]["decide_s"] <= doc["timings"]["tangency_s"]
    assert sorted(doc["timings"]) == ["conics", "decide_s", "exact_conics", "tangency_s"]
    del doc["timings"]
    assert doc == untimed
    # a conic export times its one decision, the exact one
    for family in ("generic", "orbit"):
        assert run(argv + ["--out", str(plain), "conic", "--type", family]) == EXIT_OK
        untimed = plain.read_text(encoding="utf-8")
        assert "timings" not in json.loads(untimed)
        assert run(argv + ["--timings", "--out", str(plain), "conic", "--type", family]) == EXIT_OK
        timed = plain.read_text(encoding="utf-8")
        start = timed.index('\n  "timings": {')
        end = timed.index("\n  }", start) + len("\n  },")
        assert timed[:start] + timed[end:] == untimed
        timings = json.loads(timed)["timings"]
        assert list(timings) == ["decide_s", "exact_conics"] and timings["exact_conics"] == 1
        assert 0.0 < timings["decide_s"] == round(timings["decide_s"], 6)


# accepted types per family, stated apart from the program's own table
_ACCEPTED = {"generic": ("Generic",), "orbit": ("Orbit", "ContainedInB"), "special": ("Special",)}


@pytest.mark.parametrize("lam", ["-0.5", "-2.5"], ids=["f-positive", "f-negative"])
def test_tangency_rows_of_every_type_equal_the_dict_rows(star_arg, capsys, monkeypatch, lam):
    # the goldens hold only passed rows typed Generic, Orbit or Special; here
    # each family's sweep reads every ConicType in turn, and the document and
    # the CSV must be what json.dumps and csv.DictWriter make of dict rows
    swept = []

    def types(knobs):
        return [list(ConicType)[k % len(ConicType)] for k in range(len(knobs))]

    def every_type(plane, family, knobs):
        swept.append((family, list(knobs)))
        return types(knobs)

    monkeypatch.setattr(Plane, "conic_types", every_type)
    argv = ["--params", star_arg, f"--lambda={lam}", "--grid", "16", "tangency"]
    code = run(argv)
    out = capsys.readouterr().out
    rows = [
        {"family": family, "knob": knob, "type": kind.value, "passed": kind.value in _ACCEPTED[family]}
        for family, knobs in swept
        for knob, kind in zip(knobs, types(knobs))
    ]
    assert {row["type"] for row in rows} == {kind.value for kind in ConicType}
    passed = all(row["passed"] for row in rows)
    assert not passed and code == EXIT_FAIL
    doc = json.loads(out)
    assert doc["passed"] is passed
    assert out == json.dumps(doc | {"rows": rows}, indent=2, sort_keys=True) + "\n"

    swept.clear()
    assert run(argv[:-1] + ["--format", "csv", "tangency"]) == EXIT_FAIL
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["family", "knob", "type", "passed"])
    writer.writeheader()
    writer.writerows(rows)
    assert capsys.readouterr().out == buf.getvalue()


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["psi"], ["report"], ["classify"], ["--lambda=-0.5", "conic", "--type", "generic"], ["search-params"]],
    ids=["validate", "psi", "report", "classify", "conic", "search-params"],
)
def test_csv_is_refused_where_there_are_no_rows(star_arg, capsys, argv):
    assert run(["--params", star_arg, "--format", "csv"] + argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: --format csv")


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

    def counting(self, params, partition):
        built.append(params)
        init(self, params, partition)

    monkeypatch.setattr(RadiusAnalysis, "__init__", counting)
    assert run(["--params", star_arg, "--out", str(tmp_path / "r.json"), "report"]) == EXIT_OK
    assert len(built) == 1


def test_report_solves_each_radius_function_once(params_draws, capsys, monkeypatch):
    # one stacked solve of the 11 critical polynomials, one per distinct
    # (kind, key) with h3 read as h1 of the missing form, one stacked solve
    # of the broken-pairing samples' quartics, and one validation, in every
    # report
    stacked = []
    solve = analysis.stacked_companion_roots
    monkeypatch.setattr(analysis, "stacked_companion_roots", lambda polys: stacked.append(polys) or solve(polys))
    validated = []
    validate = surface.validate
    for module in (surface, cli):
        monkeypatch.setattr(module, "validate", lambda params: validated.append(params) or validate(params))
    for p in params_draws * 2:
        stacked.clear()
        validated.clear()
        assert run(["--params", f"{p.q0!r},{p.q1!r},{p.q2!r},{p.a!r},{p.b!r}", "report"]) == EXIT_OK
        samples = json.loads(capsys.readouterr().out)["classification"]["broken_pairing"]["samples"]
        assert len(samples) == 4
        assert [len(set(polys)) for polys in stacked] == [11, len(samples)]
        assert validated == [p]


def test_report_documents_equal_the_one_at_a_time_path(region_sets, capsys, monkeypatch):
    # the whole document, byte for byte, against the analysis solved one
    # radius function at a time, the h tables read row by row and the
    # classification section built trace by trace, on the reference draws,
    # 32 sets across the region and a set whose h1 (l1 = X0) has two
    # critical points on I3
    argvs = [["--params", f"{p.q0!r},{p.q1!r},{p.q2!r},{p.a!r},{p.b!r}", "report"] for p in region_sets]
    argvs.append(["--params", _q0_set(0.5, 3.0, 7.5, 0.95), "report"])
    produced = []
    for argv in argvs:
        code = run(argv)
        produced.append((code, capsys.readouterr()))
    monkeypatch.setattr(cli, "RadiusAnalysis", LazyAnalysis)
    monkeypatch.setattr(cli, "verify_h_tables", verify_h_tables_by_row)
    monkeypatch.setattr(cli, "_classification", classification_by_trace)
    for argv, (code, out) in zip(argvs, produced):
        assert (run(argv), capsys.readouterr()) == (code, out), argv


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
        # the last --params wins; psi passes whatever the set
        ("--params", "params", "-0.5,0.1,1,1,1", ["psi"]),
    ],
)
def test_negative_exponent_values_parse_like_the_equals_form(star_arg, capsys, flag, key, value, tail):
    # argparse alone reads "-1e-08", or a comma list led by "-0.5", as an
    # option and stops with a usage error
    assert run(["--params", star_arg, f"{flag}={value}"] + tail) == EXIT_OK
    joined = capsys.readouterr()
    assert run(["--params", star_arg, flag, value] + tail) == EXIT_OK
    assert capsys.readouterr() == joined
    numbers = [float(v) for v in value.split(",")]
    expected = dict(zip(("q0", "q1", "q2", "a", "b"), numbers)) if key == "params" else numbers[0]
    assert json.loads(joined.out)["config"][key] == expected


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
        # finite, but the terms built from them overflow: never a singular
        # point or a conic at an overflowed location
        (["--params", "1,0,1,1e300,1", "validate"], EXIT_FAIL,
         "error: the terms of Q^2 - f overflow the float range at lam=2.500e+299"),
        (["--params", "1e-84,0,1,1,1", "validate"], EXIT_FAIL,
         "error: the terms of Q^2 - f overflow the float range at lam=5.000e+167"),
        (["--params", "STAR", "--lambda", "1", "--alpha", "1e160", "conic", "--type", "orbit"], EXIT_FAIL,
         "error: (alpha + Q)^2 at alpha=1e+160 overflows the float range"),
        (["--params", "STAR", "--lambda", "1", "--alpha", "1e300", "conic", "--type", "orbit"], EXIT_FAIL,
         "error: (alpha + Q)^2 at alpha=1e+300 overflows the float range"),
        (["--params", "STAR", "--lambda", "1e200", "tangency"], EXIT_FAIL,
         "error: Q^2 + |f| at lambda=1e+200 overflows the float range"),
        (["--params", "STAR", "--lambda", "1e300", "conic", "--type", "generic"], EXIT_FAIL,
         "error: Q^2 + |f| at lambda=1e+300 overflows the float range"),
        # finite, but so far out that sqrt|f| is lost beside Q: the contact
        # tests of both families would read rounding
        (["--params", "STAR", "--lambda=-1e13", "conic", "--type", "special"], EXIT_FAIL,
         "error: lost precision at lam=-10000000000000.0: the x1^2 coefficient of the branch g- restriction keeps"),
        (["--params", "STAR", "--lambda=-1e13", "tangency"], EXIT_FAIL, "error: lost precision at lam=-10000000000000.0"),
        (["--params", "STAR", "--lambda", "1e50", "conic", "--type", "generic"], EXIT_FAIL,
         "error: lost precision at lam=1e+50: the x1^2 coefficient of the branch g- restriction keeps 0.0e+00"),
        (["--params", "STAR", "--lambda", "1e50", "tangency"], EXIT_FAIL, "error: lost precision at lam=1e+50"),
        # the removed radius-function sampler and its flag are usage errors;
        # critical gives the exact counts it sampled
        (["--params", "STAR", "hscan"], EXIT_USAGE, "error: argument command: invalid choice: 'hscan'"),
        (["--params", "STAR", "critical", "--resolution", "X1,X0plusX1,X0"], EXIT_USAGE,
         "error: unrecognized arguments: --resolution X1,X0plusX1,X0"),
        # unusable paths are usage errors, not tracebacks
        (["--params-file", "DIR", "validate"], EXIT_USAGE, "Is a directory"),
        (["--params-file", "LATIN1", "validate"], EXIT_USAGE, "is not UTF-8 text: invalid continuation byte at byte 6"),
        (["--params", "STAR", "--out", "DIR", "validate"], EXIT_USAGE, "Is a directory"),
    ],
    ids=["params-nan", "params-inf", "params-overflow", "params-file-inf", "q0-min-nan", "alpha-inf", "lambda-nan",
         "theta-inf", "leading-underflow", "coefficient-overflow", "double-root-terms-overflow",
         "vertex-terms-overflow", "orbit-residual-overflow", "orbit-residual-far-overflow", "tangency-plane-overflow",
         "conic-plane-overflow", "special-far-plane", "tangency-far-negative-plane", "generic-far-plane",
         "tangency-far-plane", "hscan-removed", "resolution-removed", "params-file-directory",
         "params-file-not-utf8", "out-directory"],
)
def test_numbers_the_program_cannot_use_end_in_an_error_line(star_arg, tmp_path, capsys, argv, code, message):
    cfgfile = tmp_path / "params.cfg"
    cfgfile.write_text("q0 = 1\nq1 = inf\nq2 = 1\na = 1\nb = 1\n")
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("q0 = 1\u00e9\n".encode("latin-1"))
    paths = {"STAR": star_arg, "FILE": str(cfgfile), "DIR": str(tmp_path), "LATIN1": str(latin1)}
    argv = [paths.get(a, a) for a in argv]
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err.splitlines()[0]


# per golden document: the command line, with DRAW0..DRAW2 standing for the
# reference draws and INADMISSIBLE for params_star with the q2 that makes
# Q(-1) = 0, and its exit code
_GOLDEN_RUNS = {
    0: ("report_0.json", ["--params", "DRAW0", "report"], EXIT_OK),
    1: ("report_1.json", ["--params", "DRAW1", "report"], EXIT_OK),
    2: ("report_2.json", ["--params", "DRAW2", "report"], EXIT_OK),
    "validate": ("validate.json", ["--params", "DRAW0", "validate"], EXIT_OK),
    "critical": ("critical.json", ["--params", "DRAW0", "critical"], EXIT_OK),
    "critical_csv": ("critical.csv", ["--params", "DRAW0", "--format", "csv", "critical"], EXIT_OK),
    "tangency_I2_csv": (
        "tangency_I2.csv", ["--params", "DRAW0", "--lambda=-0.5", "--grid", "64", "--format", "csv", "tangency"], EXIT_OK
    ),
    "tangency_I1_csv": (
        "tangency_I1.csv", ["--params", "DRAW0", "--lambda=-2.5", "--grid", "64", "--format", "csv", "tangency"], EXIT_OK
    ),
    "classify": ("classify.json", ["--params", "DRAW0", "classify"], EXIT_OK),
    "search_params": ("search_params.json", ["search-params"], EXIT_OK),
    "report_inadmissible": ("report_inadmissible.json", ["--params", "INADMISSIBLE", "report"], EXIT_FAIL),
}


@pytest.mark.parametrize("which", list(_GOLDEN_RUNS))
def test_report_bytes_equal_the_golden_documents(params_draws, capsys, which):
    # tests/golden holds the stdout of the report of each reference draw and
    # of the other subcommands; a deliberate change of a document regenerates
    # it.  The inadmissible report pins the "not computed" error
    name, argv, code = _GOLDEN_RUNS[which]
    star = params_draws[0]
    sets = {f"DRAW{i}": p for i, p in enumerate(params_draws)}
    sets["INADMISSIBLE"] = dataclasses.replace(star, q2=star.q1 - star.q0)
    values = {key: f"{p.q0!r},{p.q1!r},{p.q2!r},{p.a!r},{p.b!r}" for key, p in sets.items()}
    argv = [values.get(a, a) for a in argv]
    assert run(argv) == code
    golden = Path(__file__).parent / "golden" / name
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


# planes of params_star in I1, I2, I3, I4minus and I4plus, one f > 0 and one
# f < 0 plane at the benchmark's --grid 256, the two planes 1e-5 either side
# of lambda0 = 2, where the generic family's degeneracy ratio
# (Q^2 - f) / (f + Q^2) is smallest, and one conic of each family; the flags
# after --params of each golden document
_GOLDEN_PLANES = {
    "tangency_I1": ["--lambda=-2.5", "--grid", "64", "tangency"],
    "tangency_I2": ["--lambda=-0.5", "--grid", "64", "tangency"],
    "tangency_I3": ["--lambda", "0.5", "--grid", "64", "tangency"],
    "tangency_I4minus": ["--lambda", "1.5", "--grid", "64", "tangency"],
    "tangency_I4plus": ["--lambda", "3.0", "--grid", "64", "tangency"],
    "tangency_I2_grid256": ["--lambda=-0.5", "--grid", "256", "tangency"],
    "tangency_I1_grid256": ["--lambda=-2.5", "--grid", "256", "tangency"],
    "tangency_I4minus_grid256": ["--lambda", "1.99999", "--grid", "256", "tangency"],
    "tangency_I4plus_grid256": ["--lambda", "2.00001", "--grid", "256", "tangency"],
    "conic_generic": ["--lambda=-0.5", "--theta", "0.4", "conic", "--type", "generic"],
    "conic_special": ["--lambda=-2.0", "--theta", "0.7", "conic", "--type", "special"],
    "conic_orbit": ["--lambda", "3.0", "--alpha", "0.7", "conic", "--type", "orbit"],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_PLANES))
def test_tangency_and_conic_bytes_equal_the_golden_documents(star_arg, capsys, name):
    # tests/golden holds the stdout of a tangency sweep on one plane per
    # interval and of one conic export per family: every row's type, every
    # matrix entry, det and min_real_form to the last bit
    assert run(["--params", star_arg] + _GOLDEN_PLANES[name]) == EXIT_OK
    golden = Path(__file__).parent / "golden" / f"{name}.json"
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


def test_readme_lists_exactly_the_subcommands_and_common_flags():
    # README's "Subcommands:" and "Flags" sentences name each subcommand and
    # each flag accepted before or after it, and nothing else
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Subcommands: (.*?)\.\s+Flags \(accepted before or after\s+the subcommand\): (.*?`)\.", readme, re.S)
    commands, flags = (re.findall(r"`([^`]+)`", part) for part in listed.groups())
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert commands == list(subparsers.choices)
    common = [opt for action in cli._common_flags()._actions for opt in action.option_strings]
    assert [flag.split()[0] for flag in flags] == common


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


# ---------------------------------------------------------------------------
# the document writer: json.dumps(indent=2, sort_keys=True,
# default=_json_safe) and a newline, from a plain recursive writer


@dataclasses.dataclass(frozen=True)
class _Leaf:
    name: str
    value: float
    count: int | None


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    _FLOATS,
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    st.builds(_Leaf, st.text(), _FLOATS, st.none() | st.integers()),
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=40,
)


def _paths(x, path=()):
    """The paths of x's subtrees, x's own first."""
    yield path
    if isinstance(x, dict):
        for key, value in x.items():
            yield from _paths(value, path + (key,))
    elif isinstance(x, (list, tuple)):
        for i, item in enumerate(x):
            yield from _paths(item, path + (i,))


def _replaced(x, path, new):
    """x with its subtree at path replaced by new."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(x, dict):
        return {**x, head: _replaced(x[head], rest, new)}
    items = [_replaced(item, rest, new) if i == head else item for i, item in enumerate(x)]
    return items if isinstance(x, list) else tuple(items)


def _at(x, path):
    for step in path:
        x = x[step]
    return x


@given(_DOCUMENTS, st.data())
def test_writer_writes_what_json_dumps_writes(doc, data):
    expected = json.dumps(doc, indent=2, sort_keys=True, default=cli._json_safe) + "\n"
    assert cli._json_text(doc) == expected
    # a subtree at any depth, pre-rendered as a fragment, writes as itself
    path = data.draw(st.sampled_from(list(_paths(doc))))
    assert cli._json_text(_replaced(doc, path, cli._fragment(_at(doc, path)))) == expected


def test_a_fragment_writes_its_source_at_any_depth():
    # the source's strings hold a newline and a quote, which are escaped, so
    # the re-indenting replace meets only the layout's newlines
    source = {"b": [1.5, {"c": None, "d": []}, {}], "a": 'x\n  "y"', "e": [float("nan"), -0.0]}
    fragment = cli._fragment(source)
    assert not fragment.text.endswith("\n")
    for depth in (0, 1, 4):
        doc, nested = fragment, source
        for level in range(depth):
            doc, nested = ({"k": doc}, {"k": nested}) if level % 2 else ([7, doc], [7, nested])
        assert cli._json_text(doc) == json.dumps(nested, indent=2, sort_keys=True) + "\n"


# a count row's first critical point, or None: finite floats of every kind,
# with subnormals, negatives and 17-digit values among them
_WITNESSES = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -2.225073858507201e-308, 0.30000000000000004, -1.2345678901234567e-05]),
)


@given(st.lists(_WITNESSES, min_size=len(_COUNT_ROWS), max_size=len(_COUNT_ROWS)))
def test_trace_templates_write_what_the_trace_records_write(firsts):
    # every plan, with each of its A and B rows measured or not
    records = [
        {
            "resolution": t.choice.label(),
            "hypothesis": t.hypothesis.value,
            "verdict": t.verdict.value,
            "reasons": [{"code": r.code, "description": r.description, "witness": r.witness} for r in t.reasons],
        }
        for t in (_trace(plan, firsts) for plan in _plans())
    ]
    assert cli._traces(tuple(firsts)).text == json.dumps(records, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{1: "x"}, {None: 0}, {1.5: 0}, {("a",): 0}, {"a": [{"b": {2: 0}}]}, {"a": 0, 3: 0}])
def test_writer_refuses_keys_that_are_not_str(doc):
    with pytest.raises(TypeError):
        cli._json_text(doc)


def test_writer_refuses_what_json_safe_leaves_as_it_is():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        cli._json_text({"a": {1, 2}})
