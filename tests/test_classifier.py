"""Elimination over the 24 resolutions: survivors, traces, schedules."""

from __future__ import annotations

import pytest

from touching_conics.analysis import h_handle
from touching_conics.classifier import (
    EXPECTED_SURVIVORS,
    ComponentChoice,
    Hypothesis,
    Verdict,
    assign_types,
    classify,
    component_schedule,
    eliminate,
)
from touching_conics.conics import ConicType
from touching_conics.errors import PreconditionError
from touching_conics.resolution import HKind, LinearForm, ResolutionChoice
from oracles import central_difference


SURVIVOR_PLUS = ResolutionChoice(LinearForm.X1, LinearForm.X0_PLUS_X1, LinearForm.X0)
SURVIVOR_MINUS = ResolutionChoice(LinearForm.AX0_MINUS_BX1, LinearForm.X0, LinearForm.X0_PLUS_X1)


def test_assign_types(params_star):
    ta = assign_types(params_star)
    assert ta.label("I1") is ConicType.SPECIAL
    assert ta.label("I2") is ConicType.ORBIT
    assert ta.label("I3") is ConicType.SPECIAL
    assert ta.label("I4minus") is ConicType.GENERIC
    assert ta.label("I4plus") is ConicType.GENERIC
    assert ta.label("lambda0") is ConicType.LINE_IMAGE
    assert all(why for _, _, why in ta.by_interval)


def test_eliminate_exactly_two_survivors(params_star):
    out = eliminate(params_star)
    assert not out.inconclusive
    assert set(out.survivors) == set(EXPECTED_SURVIVORS)
    assert len(out.traces) == 48
    eliminated = [t for t in out.traces if t.verdict is Verdict.ELIMINATED]
    assert len(eliminated) == 46
    assert all(t.reasons for t in eliminated)


def test_eliminate_reason_a_for_bad_pairs(params_star):
    out = eliminate(params_star)
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
    out = eliminate(params_star)
    for tr in out.traces:
        if tr.hypothesis is Hypothesis.PLUS_OVER_I1 and tr.choice.ell1 is LinearForm.X0_PLUS_X1:
            assert tr.verdict is Verdict.ELIMINATED
            assert any(r.code == "C" and "lambda = -1" in r.description for r in tr.reasons)


def test_eliminated_witnesses_reverify(params_star):
    out = eliminate(params_star)
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
    first = eliminate(params_star)
    second = eliminate(params_star)
    assert first.survivors == second.survivors
    assert [t.verdict for t in first.traces] == [t.verdict for t in second.traces]


def test_survivors_stable_across_draws(params_draws):
    for params in params_draws:
        out = eliminate(params)
        assert not out.inconclusive
        assert set(out.survivors) == set(EXPECTED_SURVIVORS)


def test_component_schedules(params_star):
    s1 = component_schedule(SURVIVOR_PLUS, params_star)
    assert (s1.i1, s1.i2, s1.i3) == (ComponentChoice.PLUS, ComponentChoice.BOTH, ComponentChoice.MINUS)
    s2 = component_schedule(SURVIVOR_MINUS, params_star)
    assert (s2.i1, s2.i3) == (ComponentChoice.MINUS, ComponentChoice.PLUS)
    assert s1.i4minus is not s1.i4plus
    assert s2.i4minus is not s2.i4plus
    assert s1.i4minus is not s2.i4minus  # the survivors choose opposite sides


def test_component_schedule_rejects_non_survivor(params_star):
    with pytest.raises(PreconditionError):
        component_schedule(
            ResolutionChoice(LinearForm.X0, LinearForm.X1, LinearForm.X0_PLUS_X1), params_star
        )


def test_gamma_progressions_opposite(params_star):
    s1 = component_schedule(SURVIVOR_PLUS, params_star)
    s2 = component_schedule(SURVIVOR_MINUS, params_star)
    assert s1.gamma_progression() == (1, 2, 3)
    assert s2.gamma_progression() == (3, 2, 1)


def test_classify_bundle(params_star):
    rep = classify(params_star)
    assert len(rep.schedules) == 2
    assert {hyp for _, hyp, _ in rep.schedules} == {Hypothesis.PLUS_OVER_I1, Hypothesis.MINUS_OVER_I1}
    assert rep.assignment.label("I2") is ConicType.ORBIT
