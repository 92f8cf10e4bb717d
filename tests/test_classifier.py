"""Elimination over the 24 resolutions: survivors, traces, schedules."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from touching_conics.analysis import _order, domain_side, limit, verify_h_tables
from touching_conics.classifier import (
    _COUNT_ROWS,
    EXPECTED_SURVIVORS,
    ComponentChoice,
    Hypothesis,
    Verdict,
    assign_types,
    classify,
    eliminate,
)
from touching_conics.cli import EXIT_FAIL, run
from touching_conics.conics import ConicType
from touching_conics.errors import NotFoundError, PreconditionError
from touching_conics.poly import evaluate, poly_derivative
from touching_conics.resolution import Edge, HKind, LinearForm, ResolutionChoice
from touching_conics.surface import Interval, SearchConfig, f_poly, find_valid_params, q_value
from oracles import analysis_of, central_difference, component_schedule, eliminate_by_lookup, h_handle


SURVIVOR_PLUS = ResolutionChoice(LinearForm.X1, LinearForm.X0_PLUS_X1, LinearForm.X0)
SURVIVOR_MINUS = ResolutionChoice(LinearForm.AX0_MINUS_BX1, LinearForm.X0, LinearForm.X0_PLUS_X1)


def test_assign_types():
    ta = assign_types()
    assert ta.label("I1") is ConicType.SPECIAL
    assert ta.label("I2") is ConicType.ORBIT
    assert ta.label("I3") is ConicType.SPECIAL
    assert ta.label("I4minus") is ConicType.GENERIC
    assert ta.label("I4plus") is ConicType.GENERIC
    assert ta.label("lambda0") is ConicType.LINE_IMAGE
    assert all(why for _, _, why in ta.by_interval)


def test_eliminate_exactly_two_survivors(params_star):
    out = eliminate(analysis_of(params_star))
    assert set(out.survivors) == set(EXPECTED_SURVIVORS)
    assert len(out.traces) == 48
    eliminated = [t for t in out.traces if t.verdict is Verdict.ELIMINATED]
    assert len(eliminated) == 46
    assert all(t.reasons for t in eliminated)


def test_eliminate_reason_a_for_bad_pairs(params_star):
    out = eliminate(analysis_of(params_star))
    bad_pairs = (
        {LinearForm.X0, LinearForm.X0_PLUS_X1},
        {LinearForm.X1, LinearForm.AX0_MINUS_BX1},
    )
    for tr in out.traces:
        if {tr.choice.ell1, tr.choice.ell2} in bad_pairs:
            assert tr.verdict is Verdict.ELIMINATED
            assert any(r.code == "A" for r in tr.reasons)


def test_middle_form_cannot_lead_under_plus(params_star):
    # the boundary gluing at lambda = -1 fails for every completion when the
    # sum form comes first under the plus hypothesis
    out = eliminate(analysis_of(params_star))
    for tr in out.traces:
        if tr.hypothesis is Hypothesis.PLUS_OVER_I1 and tr.choice.ell1 is LinearForm.X0_PLUS_X1:
            assert tr.verdict is Verdict.ELIMINATED
            assert any(r.code == "C" and "lambda = -1" in r.description for r in tr.reasons)


def test_eliminated_witnesses_reverify(params_star):
    out = eliminate(analysis_of(params_star))
    for tr in out.traces:
        if tr.verdict is not Verdict.ELIMINATED:
            continue
        reason = tr.reasons[0]
        if reason.code in ("A", "B"):
            lam = reason.witness
            if "h2" in reason.description:
                h = h_handle(HKind.H2, tr.choice, params_star)
            elif "h1" in reason.description:
                h = h_handle(HKind.H1, tr.choice, params_star)
            else:
                h = h_handle(HKind.H3, tr.choice, params_star)
            assert abs(central_difference(h, lam, 1e-6)) < 1e-4
        else:
            assert "/" in str(reason.witness)


def test_elimination_deterministic_replay(params_star):
    first = eliminate(analysis_of(params_star))
    second = eliminate(analysis_of(params_star))
    assert first.survivors == second.survivors
    assert [t.verdict for t in first.traces] == [t.verdict for t in second.traces]


def test_survivors_stable_across_draws(params_draws):
    for params in params_draws:
        out = eliminate(analysis_of(params))
        assert set(out.survivors) == set(EXPECTED_SURVIVORS)


def test_component_schedules(params_star):
    s1 = component_schedule(SURVIVOR_PLUS, analysis_of(params_star))
    assert (s1.i1, s1.i2, s1.i3) == (ComponentChoice.PLUS, ComponentChoice.BOTH, ComponentChoice.MINUS)
    s2 = component_schedule(SURVIVOR_MINUS, analysis_of(params_star))
    assert (s2.i1, s2.i3) == (ComponentChoice.MINUS, ComponentChoice.PLUS)
    assert s1.i4minus is not s1.i4plus
    assert s2.i4minus is not s2.i4plus
    assert s1.i4minus is not s2.i4minus  # the survivors choose opposite sides


def test_component_schedule_rejects_non_survivor(params_star):
    with pytest.raises(PreconditionError):
        component_schedule(
            ResolutionChoice(LinearForm.X0, LinearForm.X1, LinearForm.X0_PLUS_X1), analysis_of(params_star)
        )


def test_gamma_progressions_opposite(params_star):
    s1 = component_schedule(SURVIVOR_PLUS, analysis_of(params_star))
    s2 = component_schedule(SURVIVOR_MINUS, analysis_of(params_star))
    assert s1.gamma_progression() == (1, 2, 3)
    assert s2.gamma_progression() == (3, 2, 1)


def test_classify_bundle(params_star):
    rep = classify(analysis_of(params_star))
    assert len(rep.schedules) == 2
    assert {hyp for _, hyp, _ in rep.schedules} == {Hypothesis.PLUS_OVER_I1, Hypothesis.MINUS_OVER_I1}
    assert rep.assignment.label("I2") is ConicType.ORBIT


# ---------------------------------------------------------------------------
# no limit is ever finite and nonzero: every vanishing order is +-1/2 on the
# admissible region, and a set with Q = 0 at a root of f is not admissible


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _keys(kind: HKind):
    if kind is HKind.H0:
        return [None]
    if kind is HKind.H1:
        return list(LinearForm)
    size = 2 if kind is HKind.H2 else 3
    return [frozenset(c) for c in itertools.combinations(LinearForm, size)]


@given(
    a=_log_uniform(0.1, 10.0),
    b=_log_uniform(0.1, 10.0),
    gap=_log_uniform(0.02, 20.0),
    q0_min=st.floats(0.01, 5.0),
)
def test_every_vanishing_order_is_half_on_the_admissible_region(a, b, gap, q0_min):
    target = SearchConfig(a=a, b=b, lambda0=b / a + gap, q0_min=q0_min, q0_max=50.0 * q0_min)
    try:
        params = find_valid_params(target)
    except NotFoundError:
        reject()
    cache = analysis_of(params)
    roots = (-1.0, 0.0, params.b / params.a)
    # what the orders rest on: u = -f / (Q + s) vanishes to order 1 at each
    # root of f and grows like |lam| at infinity
    assert params.q0 > 0.0 and all(q_value(params, e) > 0.0 for e in roots)
    # what the side of each limit rests on: f is a cubic with a positive
    # leading coefficient, so f < 0 toward -inf and f > 0 toward +inf, and at
    # each root f > 0 on the side the table gives for h0 and h2
    f = f_poly(params)
    assert len(f) == 4 and f[-1] > 0.0
    assert domain_side(HKind.H1, Edge.MINUS_INF) == domain_side(HKind.H3, Edge.MINUS_INF) == "left"
    assert domain_side(HKind.H0, Edge.PLUS_INF) == domain_side(HKind.H2, Edge.PLUS_INF) == "right"
    for edge, x in zip((Edge.MINUS_ONE, Edge.ZERO, Edge.B_OVER_A), roots):
        positive = "right" if evaluate(poly_derivative(f), x) > 0.0 else "left"
        assert domain_side(HKind.H0, edge) == domain_side(HKind.H2, edge) == positive, edge
        assert domain_side(HKind.H1, edge) == domain_side(HKind.H3, edge) != positive, edge
    for kind in HKind:
        for key in _keys(kind):
            for edge in Edge:
                assert abs(_order(kind, key, edge)) == 0.5, (kind, key, edge)
    assert set(classify(cache).outcome.survivors) == set(EXPECTED_SURVIVORS)


@pytest.mark.parametrize("root", ["-1", "0", "b/a"])
def test_q_vanishing_at_a_root_of_f_fails_condition_i(params_star, tmp_path, root):
    e = params_star.b / params_star.a if root == "b/a" else float(root)
    # q2 cancels the rest of q_value's Horner sum exactly
    q2 = -((params_star.q0 * e + params_star.q1) * e)
    params = dataclasses.replace(params_star, q2=q2)
    assert q_value(params, e) == 0.0
    with pytest.raises(PreconditionError, match=r"condition \(i\)"):
        analysis_of(params)
    out = tmp_path / "r.json"
    arg = ",".join(repr(x) for x in (params.q0, params.q1, params.q2, params.a, params.b))
    assert run(["--params", arg, "--out", str(out), "report"]) == EXIT_FAIL
    doc = json.loads(out.read_text())
    assert not doc["validation"]["condition_i"]["passed"]
    assert doc["h_tables"] == {"rows": [], "passed": False, "error": doc["classification"]["error"]}
    assert "condition (i)" in doc["classification"]["error"]
    assert doc["classification"]["survivors"] == [] and doc["classification"]["inconclusive"] is False


# ---------------------------------------------------------------------------
# the elimination reads each of its 14 count rows once and fills in a plan
# per trace; its reference in tests/oracles.py looks up each trace's rows


@given(a=_log_uniform(0.25, 4.0), b=_log_uniform(0.25, 4.0), gap=st.floats(0.25, 6.25), q0_min=st.floats(0.05, 3.0))
def test_keyed_elimination_equals_the_per_trace_oracle(a, b, gap, q0_min):
    # the box of the benchmark's sweep: a, b log-uniform in [1/4, 4],
    # lambda0 - b/a in [0.25, 6.25], q0_min in [0.05, 3]
    try:
        params = find_valid_params(SearchConfig(a=a, b=b, lambda0=b / a + gap, q0_min=q0_min))
    except NotFoundError:
        reject()
    expected = eliminate_by_lookup(analysis_of(params))
    # every reason compared, witnesses included: A and B carry critical points
    assert any(r.code in ("A", "B") for t in expected.traces for r in t.reasons)
    out = eliminate(analysis_of(params))
    assert (out.survivors, out.traces) == expected


def test_elimination_reads_14_count_rows(params_draws):
    for params in params_draws:
        cache = analysis_of(params)
        verify_h_tables(cache)
        assert cache.work_counts()["count_rows"] == 0
        classify(cache)
        # h2 of 6 pairs on I2, h1 of 4 forms on I1 and on I3
        assert cache.work_counts() == {"critical_polynomials": 11, "root_solves": 3, "critical_spans": 23, "count_rows": 14}


# ---------------------------------------------------------------------------
# the parity of a count follows from the limits at the interval's ends: a
# radius function tending to the same class at both ends has a derivative of
# opposite signs near them, so it changes sign an odd number of times; with
# different classes, an even number


_ENDS = {
    Interval.I1: (Edge.MINUS_INF, Edge.MINUS_ONE),
    Interval.I2: (Edge.MINUS_ONE, Edge.ZERO),
    Interval.I3: (Edge.ZERO, Edge.B_OVER_A),
    # h2 is smooth through the double root: I4 is one interval up to +inf
    Interval.I4MINUS: (Edge.B_OVER_A, Edge.PLUS_INF),
}


@given(a=_log_uniform(0.25, 4.0), b=_log_uniform(0.25, 4.0), gap=st.floats(0.25, 6.25), q0_min=st.floats(0.05, 3.0))
def test_every_count_has_the_parity_of_its_end_limits(a, b, gap, q0_min):
    # the 14 count rows of the elimination, and h2 of each pair on I4, over
    # the box of the benchmark's sweep
    try:
        params = find_valid_params(SearchConfig(a=a, b=b, lambda0=b / a + gap, q0_min=q0_min))
    except NotFoundError:
        reject()
    cache = analysis_of(params)
    rows = [*_COUNT_ROWS, *((HKind.H2, key, Interval.I4MINUS) for key in _keys(HKind.H2))]
    for kind, key, which in rows:
        count = len(cache.critical(kind, key, cache.span(which, kind)))
        start, end = (limit(kind, key, edge) for edge in _ENDS[which])
        assert count % 2 == (1 if start is end else 0), (params, kind, key, which, count)
