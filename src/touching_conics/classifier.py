"""Constraint-propagation elimination over the 24 small resolutions.

For each resolution and each of the two ways of distributing the special
components over the f < 0 intervals, three constraint groups apply:

  A  the orbit-family radius h2 of {l1, l2} must be critical-point free on
     I2, since only orbit conics project from candidate fibers there;
  B  the radius governing the component chosen over I1 (h1 for the plus
     component, h3 for the minus one) must be critical-point free on I1, and
     the complementary radius must be critical-point free on I3;
  C  crossing lambda = -1 and lambda = 0 the candidate fibers move between
     exceptional curves whose affine coordinates are glued reciprocally, so
     class-level limits must pair Zero with Infinity across each crossing.

A choice survives under a hypothesis only if no constraint fires; exactly
two of the 48 pairs do.
"""

from __future__ import annotations

import enum
import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .analysis import LimitKind, RadiusAnalysis, _pair_key, _triple_key, cell_number, limit
from .resolution import ConicType, Edge, HKind, LinearForm, ResolutionChoice, all_resolutions
from .surface import Interval


@dataclass(frozen=True)
class TypeAssignment:
    """Which touching-conic family carries the candidate fibers per interval."""

    by_interval: tuple[tuple[str, ConicType, str], ...]

    def label(self, interval: str) -> ConicType:
        for name, kind, _ in self.by_interval:
            if name == interval:
                return kind
        raise KeyError(interval)


class Hypothesis(enum.Enum):
    PLUS_OVER_I1 = "L+ over I1"
    MINUS_OVER_I1 = "L- over I1"


class Verdict(enum.Enum):
    SURVIVES = "Survives"
    ELIMINATED = "Eliminated"


@dataclass(frozen=True)
class Reason:
    code: str
    description: str
    witness: float | str | None


@dataclass(frozen=True)
class EliminationTrace:
    choice: ResolutionChoice
    hypothesis: Hypothesis
    verdict: Verdict
    reasons: tuple[Reason, ...]


@dataclass(frozen=True)
class EliminationOutcome:
    """The 48 checks on one analysis: the first critical point, or None, of
    each count row in _COUNT_ROWS, and the (choice, hypothesis) pairs that
    survive.  The traces are built from those on first read."""

    firsts: tuple[float | None, ...]
    survivors: tuple[tuple[ResolutionChoice, Hypothesis], ...]

    @functools.cached_property
    def traces(self) -> tuple[EliminationTrace, ...]:
        return tuple(_trace(plan, self.firsts) for plan in _plans())


class ComponentChoice(enum.Enum):
    PLUS = "Plus"
    MINUS = "Minus"
    BOTH = "Both"


@dataclass(frozen=True)
class ComponentSchedule:
    i1: ComponentChoice
    i2: ComponentChoice
    i3: ComponentChoice
    i4minus: ComponentChoice
    i4plus: ComponentChoice

    def gamma_progression(self) -> tuple[int, int, int]:
        """Which exceptional curve the chosen component touches as the plane
        parameter sweeps I1 -> I2 -> I3 (plus components touch the first
        curve of the chain, minus components the third, orbit components the
        middle one)."""
        first = 1 if self.i1 is ComponentChoice.PLUS else 3
        third = 1 if self.i3 is ComponentChoice.PLUS else 3
        return (first, 2, third)


@functools.cache
def assign_types() -> TypeAssignment:
    """The interval-to-family table for candidate fiber images.

    Fixed for every admissible parameter set: the special families exist only
    where f < 0; over I2 the generic family is excluded because its radius
    function always degenerates somewhere inside; over I4 the orbit family is
    excluded because its exceptional-curve circles already sweep the middle
    curve from I2.
    """
    return TypeAssignment(
        by_interval=(
            ("I1", ConicType.SPECIAL, "f < 0 on I1: only special and orbit conics exist, and orbit circles on the middle exceptional curve are claimed by I2"),
            ("I2", ConicType.ORBIT, "the generic-family radius has a critical point inside I2, so its components degenerate there and cannot all be fibers"),
            ("I3", ConicType.SPECIAL, "f < 0 on I3: same dichotomy as I1"),
            ("I4minus", ConicType.GENERIC, "f > 0 right of b/a and the generic radius is critical-point free off the double root"),
            ("I4plus", ConicType.GENERIC, "same as I4minus, on the far side of the double root"),
            ("lambda0", ConicType.LINE_IMAGE, "on the double-root plane the conic family degenerates to a line through the surface node"),
        )
    )


def _match_reason(
    code: str,
    crossing: str,
    inner: LimitKind,
    outer: LimitKind,
    inner_name: str,
    outer_name: str,
) -> Reason | None:
    """The reason one boundary-matching constraint fires, if it does."""
    if outer is inner.reciprocal:
        return None
    return Reason(
        code,
        f"limit mismatch at {crossing}: {inner_name} -> {inner.value} "
        f"needs {outer_name} -> {inner.reciprocal.value}, got {outer.value}",
        f"{inner.value}/{outer.value}",
    )


# The count rows the 48 traces read: h2 of each pair on I2, and h1 of each
# form on I1 and on I3, since h3 of a triple is h1 of its missing form.
_COUNT_ROWS: tuple[tuple[HKind, object, Interval], ...] = (
    *((HKind.H2, frozenset(pair), Interval.I2) for pair in itertools.combinations(LinearForm, 2)),
    *((HKind.H1, form, which) for which in (Interval.I1, Interval.I3) for form in LinearForm),
)


@dataclass(frozen=True)
class _Plan:
    """One trace before it meets a parameter set: per A or B constraint the
    index of its row in _COUNT_ROWS with the reason's code and description,
    and the C reasons, which rest on the limits alone."""

    choice: ResolutionChoice
    hypothesis: Hypothesis
    reads: tuple[tuple[int, str, str], ...]
    matches: tuple[Reason, ...]


@functools.cache
def _plan(choice: ResolutionChoice, hyp: Hypothesis) -> _Plan:
    """The trace of (choice, hyp) apart from its rows' critical points; like
    limit, a constant of the admissible region, worked out once per process."""
    pair = _pair_key(choice)
    triple = _triple_key(choice)
    ell1 = choice.ell1

    # A: orbit-family degeneration inside I2
    reads = [((HKind.H2, pair, Interval.I2), "A", f"h2 of {sorted(f.value for f in pair)} has a critical point on I2")]

    # B: degeneration of the chosen special components; h3 reads the row of
    # h1 of the missing form
    h1 = (ell1, f"h1 (l1={ell1.value})")
    h3 = (choice.missing_form(), "h3")
    govern_i1, govern_i3 = (h1, h3) if hyp is Hypothesis.PLUS_OVER_I1 else (h3, h1)
    for (form, name), which in ((govern_i1, Interval.I1), (govern_i3, Interval.I3)):
        reads.append(((HKind.H1, form, which), "B", f"{name} has a critical point on {which.value}"))

    # C: reciprocal gluing of the limits across lambda = -1 and lambda = 0
    h2_at_m1 = limit(HKind.H2, pair, Edge.MINUS_ONE)
    h2_at_0 = limit(HKind.H2, pair, Edge.ZERO)
    if hyp is Hypothesis.PLUS_OVER_I1:
        inner_m1 = limit(HKind.H1, ell1, Edge.MINUS_ONE)
        inner_m1_name = f"h1 (l1={ell1.value}) at -1-"
        outer_0 = limit(HKind.H3, triple, Edge.ZERO)
        outer_0_name = "h3 at 0+"
    else:
        inner_m1 = limit(HKind.H3, triple, Edge.MINUS_ONE)
        inner_m1_name = "h3 at -1-"
        outer_0 = limit(HKind.H1, ell1, Edge.ZERO)
        outer_0_name = f"h1 (l1={ell1.value}) at 0+"
    matches = (
        _match_reason("C", "lambda = -1", inner_m1, h2_at_m1, inner_m1_name, "h2 at -1+"),
        _match_reason("C", "lambda = 0", h2_at_0, outer_0, "h2 at 0-", outer_0_name),
    )
    return _Plan(
        choice=choice,
        hypothesis=hyp,
        reads=tuple((_COUNT_ROWS.index(row), code, description) for row, code, description in reads),
        matches=tuple(reason for reason in matches if reason),
    )


@functools.cache
def _plans() -> tuple[_Plan, ...]:
    """The 48 plans, in the order of the traces."""
    return tuple(_plan(choice, hyp) for choice in all_resolutions() for hyp in Hypothesis)


@functools.cache
def _count_cells() -> tuple[int, ...]:
    """The number of each count row's cell in the analysis' table."""
    return tuple(cell_number(*row) for row in _COUNT_ROWS)


def _firsts(analysis: RadiusAnalysis) -> tuple[float | None, ...]:
    """The first critical point, or None, of each count row."""
    return analysis.firsts(_count_cells())


def _trace(plan: _Plan, firsts: Sequence[float | None]) -> EliminationTrace:
    reasons = [
        Reason(code, description, firsts[row]) for row, code, description in plan.reads if firsts[row] is not None
    ]
    reasons.extend(plan.matches)
    verdict = Verdict.ELIMINATED if reasons else Verdict.SURVIVES
    return EliminationTrace(choice=plan.choice, hypothesis=plan.hypothesis, verdict=verdict, reasons=tuple(reasons))


def eliminate(analysis: RadiusAnalysis) -> EliminationOutcome:
    """Run all 24 x 2 hypothesis checks.

    Every verdict is decided: the analysis holds an admissible set's
    partition, and on those sets every endpoint limit is Zero or Infinity, so
    each hypothesis either survives or is eliminated with its reasons.  Each
    of the 14 count rows is read once.  A plan survives when no C reason
    fires and none of its rows has a critical point; its trace is the plan
    filled in, built when the outcome's traces are read.
    """
    firsts = _firsts(analysis)
    survivors = tuple(
        (plan.choice, plan.hypothesis)
        for plan in _plans()
        if not plan.matches and all(firsts[row] is None for row, _, _ in plan.reads)
    )
    return EliminationOutcome(firsts=firsts, survivors=survivors)


EXPECTED_SURVIVORS = (
    (
        ResolutionChoice(LinearForm.X1, LinearForm.X0_PLUS_X1, LinearForm.X0),
        Hypothesis.PLUS_OVER_I1,
    ),
    (
        ResolutionChoice(LinearForm.AX0_MINUS_BX1, LinearForm.X0, LinearForm.X0_PLUS_X1),
        Hypothesis.MINUS_OVER_I1,
    ),
)


def _schedule(choice: ResolutionChoice, hyp: Hypothesis) -> ComponentSchedule:
    """Which irreducible component carries the candidate fibers per interval,
    for a choice surviving under hyp: a function of the limits alone.

    I1 follows the surviving hypothesis and I3 is its opposite; over I2 both
    components of each orbit preimage must be taken together.  Over I4 the
    selection is pinned by continuity at b/a: the circle traced by the chosen
    component on the exceptional chain shrinks to a point (limit Zero) or
    escapes to the far fixed point (limit Infinity), and the fixed-line
    circle of the generic component over I4minus must do the same, which
    singles out the reciprocal-radius side.  By convention Plus over I4 names
    the component meeting the fixed line in the larger circle.
    """
    if hyp is Hypothesis.PLUS_OVER_I1:
        i1, i3 = ComponentChoice.PLUS, ComponentChoice.MINUS
        govern = (HKind.H3, _triple_key(choice))
    else:
        i1, i3 = ComponentChoice.MINUS, ComponentChoice.PLUS
        govern = (HKind.H1, choice.ell1)
    lim = limit(govern[0], govern[1], Edge.B_OVER_A)
    i4minus = ComponentChoice.MINUS if lim is LimitKind.ZERO else ComponentChoice.PLUS
    i4plus = ComponentChoice.PLUS if i4minus is ComponentChoice.MINUS else ComponentChoice.MINUS
    return ComponentSchedule(i1=i1, i2=ComponentChoice.BOTH, i3=i3, i4minus=i4minus, i4plus=i4plus)


@dataclass(frozen=True)
class ClassificationReport:
    assignment: TypeAssignment
    outcome: EliminationOutcome
    schedules: tuple[tuple[ResolutionChoice, Hypothesis, ComponentSchedule], ...]


def classify(analysis: RadiusAnalysis) -> ClassificationReport:
    """Full pipeline: type table, elimination with traces, and the component
    schedules of the survivors."""
    outcome = eliminate(analysis)
    # each survivor's schedule under the first hypothesis its choice
    # survives, in the order of the traces
    schedules = tuple(
        (choice, hyp, _schedule(choice, next(h for c, h in outcome.survivors if c == choice)))
        for choice, hyp in outcome.survivors
    )
    return ClassificationReport(assignment=assign_types(), outcome=outcome, schedules=schedules)
