"""Critical points and endpoint limits of the radius functions.

A critical point of the governing radius function is exactly where the
normal bundle of the corresponding rational curve degenerates from
O(1)+O(1) to O+O(2), so the counting done here carries all the geometric
content consumed by the classifier.

Both are exact.  With D = Q^2 - f, s = sqrt(D) and u = s - Q (so that
(Q + s) u = -f, and u > 0 where f < 0), the radius functions read

    h0 = |f|^(1/2) / |u|            h1 = sqrt(2) |u|^(1/2) / |L1|
    h2 = |f|^(1/2) / |L1 L2|        h3 = 1 / h1 with l1 = m,

m being the form missing from the triple (the four forms multiply to f).
Critical points are roots of polynomials in lam built from f, Q and the
forms; an endpoint limit is Zero or Infinity by the sign of the function's
vanishing order there, read off the valuations of f, u and the forms.  On
admissible input those valuations depend only on which forms vanish at the
edge, so a limit is a function of (kind, key, edge) alone.

The module also holds the broken pairing of the generic family inside I2,
and PSI: the claims about the radial profile of the line correspondence,
each stated exactly, with the identity it follows from.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, PreconditionError
from .poly import (
    _last_column,
    evaluate,
    poly_add,
    poly_deflate,
    poly_derivative,
    poly_mul,
    poly_scale,
    poly_sub,
    stacked_companion_roots,
)
from .resolution import Edge, HKind, LinearForm, ResolutionChoice
from .surface import Interval, IntervalPartition, Q_restricted, SurfaceParams, f_poly, f_value, q_value, s_minus_q


class LimitKind(enum.Enum):
    ZERO = "Zero"
    INFINITY = "Infinity"

    @property
    def reciprocal(self) -> "LimitKind":
        """The class of 1/h: the exceptional-curve coordinates on either side
        of a crossing are glued reciprocally, so Zero pairs with Infinity."""
        return LimitKind.INFINITY if self is LimitKind.ZERO else LimitKind.ZERO


def _pair_key(choice: ResolutionChoice) -> frozenset:
    return frozenset((choice.ell1, choice.ell2))


def _triple_key(choice: ResolutionChoice) -> frozenset:
    return frozenset(choice.forms())


def _product(polys) -> tuple[float, ...]:
    out = (1.0,)
    for p in polys:
        out = poly_mul(out, p)
    return out


def _sign_changes(
    candidates, lo: float, hi: float, g: Callable[[float], float]
) -> tuple[float, ...]:
    """The candidates in (lo, hi) across which g changes sign.

    Every zero of g in the interval must be a candidate.  g is sampled once
    between consecutive candidates and once beyond each outermost one, so a
    candidate that is no zero of g, or a zero of even order, shows no change
    whatever its distance from the real axis was."""
    xs = sorted({c for c in candidates if lo < c < hi})
    if not xs:
        return ()
    first = 0.5 * (lo + xs[0]) if math.isfinite(lo) else xs[0] - 1.0 - abs(xs[0])
    last = 0.5 * (xs[-1] + hi) if math.isfinite(hi) else xs[-1] + 1.0 + abs(xs[-1])
    samples = [first] + [0.5 * (a + b) for a, b in zip(xs, xs[1:])] + [last]
    found = []
    prev = 0
    for i, x in enumerate(samples):
        v = g(x)
        sign = (v > 0.0) - (v < 0.0)
        if sign and prev and sign != prev:
            found.append(xs[i - 1])
        prev = sign or prev
    return tuple(found)


class RadiusAnalysis:
    """Exact critical points of the radius functions of one admissible set and its partition.

    A radius function is keyed by the data it depends on (h1: first form;
    h2: unordered pair; h3: unordered triple, read as h1 of the missing
    form, since h3 = 1/h1 there), and numbered by its place in
    _radius_functions().  The first call for critical points builds all 11
    critical polynomials and solves them together, one eigenvalue call per
    degree; the roots and the derivative's sign function are kept per
    function.  Two memos, keyed by function number and span, serve every
    stage of a run: the critical points per span, read off those roots,
    and the first of them alone, all the elimination reads of a count
    row."""

    def __init__(self, params: SurfaceParams, partition: IntervalPartition):
        self.params = params
        self.partition = partition
        self.f = f_poly(params)
        self.q = Q_restricted(params)
        self._solved: list | None = None
        self._root_solves = 0
        self._critical: dict = {}
        self._first: dict = {}

    def work_counts(self) -> dict[str, int]:
        """Radius functions whose critical polynomial was solved, eigenvalue
        calls that solved them, distinct spans whose critical points were
        served, and distinct count rows whose first critical point was read,
        so far."""
        return {
            "critical_polynomials": len(self._solved or ()),
            "root_solves": self._root_solves,
            "critical_spans": len(self._critical),
            "count_rows": len(self._first),
        }

    def span(self, which: Interval, kind: HKind | None = None) -> tuple[float, float]:
        """Bounds of the interval; h2 is smooth through the double root, so
        for h2 the two halves of I4 are one interval."""
        if kind is HKind.H2 and which in (Interval.I4MINUS, Interval.I4PLUS):
            return (self.partition.i4minus[0], math.inf)
        return self.partition.bounds(which)

    def critical(self, kind: HKind, key, span: tuple[float, float]) -> tuple[float, ...]:
        """Critical points of the radius function on the open span, ascending."""
        return self._critical_at(_function_index()[kind, key], span)

    def first_critical(self, kind: HKind, key, which: Interval) -> float | None:
        """The least critical point of the radius function on the interval,
        or None when it has none."""
        row = (_function_index()[kind, key], self.span(which, kind))
        if row not in self._first:
            locs = self._critical_at(*row)
            self._first[row] = locs[0] if locs else None
        return self._first[row]

    def _critical_at(self, index: int, span: tuple[float, float]) -> tuple[float, ...]:
        found = self._critical.get((index, span))
        if found is None:
            if self._solved is None:
                self._solve()
            roots, sign = self._solved[index]
            found = self._critical[index, span] = _sign_changes(roots, span[0], span[1], sign)
        return found

    def _solve(self) -> None:
        """Build the 11 critical polynomials and solve them at once.  They
        are checked in the order of _radius_functions(), the order in which
        verify_h_tables first reads them, so the first that cannot be solved
        raises its DomainError on the first call, whichever it was."""
        forms = [form.polynomial(self.params) for form in LinearForm]
        data = [self._derivative_data(kind, own, forms) for kind, _, own in _radius_functions()]
        polys = [poly for poly, _ in data]
        roots = stacked_companion_roots(polys)
        self._root_solves = len({len(poly) for poly in polys if len(poly) > 1})
        self._solved = [([float(r.real) for r in rs], sign) for rs, (_, sign) in zip(roots, data)]

    def _derivative_data(
        self, kind: HKind, own: tuple[int, ...], forms: list[tuple[float, ...]]
    ) -> tuple[tuple[float, ...], Callable[[float], float]]:
        """A polynomial whose real roots include every critical point, and a
        function with the sign of the derivative up to a factor of constant
        sign on each interval of the partition.  own holds the places, in
        forms, of the forms in the key."""
        f, q = self.f, self.q
        dq = poly_derivative(q)
        if kind is HKind.H0:
            # h0 increases with Q / sqrt(f), whose derivative has the sign of
            # 2 f Q' - f' Q; that vanishes at the double root, an interval
            # end, so the factor is divided out
            num = poly_sub(poly_mul(f, poly_scale(dq, 2.0)), poly_mul(poly_derivative(f), q))
            poly = poly_deflate(num, self.partition.lambda0)
            return poly, functools.partial(evaluate, poly)
        r = _product(form for place, form in enumerate(forms) if place not in own)
        if kind is HKind.H2:
            # h2^2 = R / P with P = L1 L2 and R the product of the other
            # forms; P's bits do not depend on the order of the pair, as
            # each of its coefficients sums at most two products from 0.0
            p = _product(forms[place] for place in own)
            poly = poly_sub(poly_mul(poly_derivative(r), p), poly_mul(r, poly_derivative(p)))
            return poly, functools.partial(evaluate, poly)
        # h1^2 = 2 u / L1^2.  Its derivative has the sign of A + s C, where
        # A = L1 D' - 4 L1' D and C = 4 L1' Q - 2 L1 Q'; with f = L1 R this is
        # L1 E + u C, E = 3 L1' R - L1 R'.  A^2 - D C^2 = L1 (L1 E^2 - 2 Q C E
        # + R C^2); the factor L1 is left out, as its root is an interval end
        # where h1 blows up rather than turns.
        (place,) = own
        ell = forms[place]
        dell = poly_derivative(ell)
        e = poly_sub(poly_scale(poly_mul(dell, r), 3.0), poly_mul(ell, poly_derivative(r)))
        c = poly_sub(poly_scale(poly_mul(dell, q), 4.0), poly_scale(poly_mul(ell, dq), 2.0))
        poly = poly_add(
            poly_sub(poly_mul(poly_mul(ell, e), e), poly_scale(poly_mul(poly_mul(q, c), e), 2.0)),
            poly_mul(poly_mul(r, c), c),
        )
        params = self.params
        return poly, lambda x: evaluate(ell, x) * evaluate(e, x) + s_minus_q(params, x) * evaluate(c, x)


@functools.cache
def _radius_functions() -> tuple[tuple[HKind, object, tuple[int, ...]], ...]:
    """The 11 radius functions an analysis solves, as (kind, key, places in
    LinearForm of the key's forms), in the order verify_h_tables first
    reads them: h0, h1 of each form (h3 of a triple is h1 of its missing
    form), h2 of each pair.  A constant of the region, built on first use."""
    order = list(LinearForm)
    return (
        (HKind.H0, None, ()),
        *((HKind.H1, form, (order.index(form),)) for form in _H1_TABLE),
        *((HKind.H2, pair, tuple(order.index(form) for form in pair)) for pair, *_ in _H2_TABLE),
    )


@functools.cache
def _function_index() -> dict:
    """The number of each (kind, key) in _radius_functions(); h3 of a triple
    has the number of h1 of its missing form."""
    index = {(kind, key): i for i, (kind, key, _) in enumerate(_radius_functions())}
    for form in LinearForm:
        index[HKind.H3, frozenset(f for f in LinearForm if f is not form)] = index[HKind.H1, form]
    return index


def _missing(triple: frozenset) -> LinearForm:
    return next(form for form in LinearForm if form not in triple)


# per edge, the side on which f > 0 and the side on which f < 0; at an
# infinity the side names that end of the line, and None marks the sign f
# does not take there.  f = lam (lam + 1) (a lam - b) with a, b > 0 has a
# positive leading coefficient and simple roots -1 < 0 < b/a.
_SIDES = {
    Edge.MINUS_INF: (None, "left"),
    Edge.MINUS_ONE: ("right", "left"),
    Edge.ZERO: ("left", "right"),
    Edge.B_OVER_A: ("right", "left"),
    Edge.PLUS_INF: ("right", None),
}


def domain_side(kind: HKind, edge: Edge) -> str:
    """The side of the edge on which the radius function lives: h0 and h2
    where f > 0, h1 and h3 where f < 0.  Raises DomainError at the infinity
    next to which it is not defined: -inf for h0 and h2, +inf for h1 and h3."""
    positive, negative = _SIDES[edge]
    side = positive if kind in (HKind.H0, HKind.H2) else negative
    if side is None:
        raise DomainError(f"{kind.value} is not defined next to {edge.value}")
    return side


@functools.cache
def limit(kind: HKind, key, edge: Edge) -> LimitKind:
    """Limit of the radius function at the edge, from the side it lives on.

    The class follows the sign of the vanishing order of the function there,
    which is +-1/2, so the limit is never finite and nonzero.  It depends on
    enums and frozensets only, so it is worked out once per process; an
    undefined pair raises on every call, as exceptions are not cached."""
    domain_side(kind, edge)
    return LimitKind.ZERO if _order(kind, key, edge) > 0.0 else LimitKind.INFINITY


def _order(kind: HKind, key, edge: Edge) -> float:
    """Vanishing order of the radius function at the edge, where a growth like
    |lam|^d at infinity counts as order -d.

    u = -f / (Q + s) vanishes to order 1 at each root of f and grows like
    |lam| at infinity on admissible parameters, the only ones
    surface.partition accepts: Q > 0 at -1, 0 and b/a, and q0 > 0."""
    if kind is HKind.H3:
        return -_order(HKind.H1, _missing(key), edge)
    if edge in (Edge.MINUS_INF, Edge.PLUS_INF):
        forms = {form: 0.0 if form is LinearForm.X1 else -1.0 for form in LinearForm}
        ord_u = -1.0
    else:
        forms = {form: float(form.zero is edge) for form in LinearForm}
        ord_u = 1.0
    ord_f = sum(forms.values())
    if kind is HKind.H0:
        return 0.5 * ord_f - ord_u
    if kind is HKind.H1:
        return 0.5 * ord_u - forms[key]
    return 0.5 * ord_f - sum(forms[form] for form in key)


@dataclass(frozen=True)
class TableRow:
    function: str
    choice: str
    check: str
    expected: str
    computed: str
    passed: bool


@dataclass(frozen=True)
class HTableReport:
    rows: tuple[TableRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


# expected critical-point counts (interval I1, I3) per first form, and the
# stated endpoint behavior of h1
_H1_TABLE: dict[LinearForm, tuple[int, int, tuple]] = {
    LinearForm.X1: (0, 1, ((Edge.MINUS_INF, LimitKind.INFINITY), (Edge.MINUS_ONE, LimitKind.ZERO))),
    LinearForm.X0: (1, 0, ((Edge.ZERO, LimitKind.INFINITY), (Edge.B_OVER_A, LimitKind.ZERO))),
    LinearForm.X0_PLUS_X1: (0, 1, ((Edge.MINUS_INF, LimitKind.ZERO), (Edge.MINUS_ONE, LimitKind.INFINITY))),
    LinearForm.AX0_MINUS_BX1: (1, 0, ((Edge.ZERO, LimitKind.ZERO), (Edge.B_OVER_A, LimitKind.INFINITY))),
}

# per unordered triple {l1, l2, l3}, keyed by the missing form
_H3_TABLE: dict[LinearForm, tuple[int, int, tuple]] = {
    LinearForm.X1: (0, 1, ((Edge.MINUS_INF, LimitKind.ZERO), (Edge.MINUS_ONE, LimitKind.INFINITY))),
    LinearForm.X0: (1, 0, ((Edge.ZERO, LimitKind.ZERO), (Edge.B_OVER_A, LimitKind.INFINITY))),
    LinearForm.X0_PLUS_X1: (0, 1, ((Edge.MINUS_INF, LimitKind.INFINITY), (Edge.MINUS_ONE, LimitKind.ZERO))),
    LinearForm.AX0_MINUS_BX1: (1, 0, ((Edge.ZERO, LimitKind.INFINITY), (Edge.B_OVER_A, LimitKind.ZERO))),
}

# per unordered pair {l1, l2}: counts on (I2, I4) and the stated limits
_H2_TABLE: list[tuple[frozenset, int, int, tuple]] = [
    (
        frozenset((LinearForm.X0, LinearForm.X1)),
        0,
        0,
        ((Edge.MINUS_ONE, LimitKind.ZERO), (Edge.ZERO, LimitKind.INFINITY), (Edge.B_OVER_A, LimitKind.ZERO), (Edge.PLUS_INF, LimitKind.INFINITY)),
    ),
    (
        frozenset((LinearForm.X0_PLUS_X1, LinearForm.AX0_MINUS_BX1)),
        0,
        0,
        ((Edge.MINUS_ONE, LimitKind.INFINITY), (Edge.ZERO, LimitKind.ZERO), (Edge.B_OVER_A, LimitKind.INFINITY), (Edge.PLUS_INF, LimitKind.ZERO)),
    ),
    (
        frozenset((LinearForm.X1, LinearForm.X0_PLUS_X1)),
        0,
        0,
        ((Edge.MINUS_ONE, LimitKind.INFINITY), (Edge.ZERO, LimitKind.ZERO), (Edge.B_OVER_A, LimitKind.ZERO), (Edge.PLUS_INF, LimitKind.INFINITY)),
    ),
    (
        frozenset((LinearForm.X0, LinearForm.AX0_MINUS_BX1)),
        0,
        0,
        ((Edge.MINUS_ONE, LimitKind.ZERO), (Edge.ZERO, LimitKind.INFINITY), (Edge.B_OVER_A, LimitKind.INFINITY)),
    ),
    (frozenset((LinearForm.X0, LinearForm.X0_PLUS_X1)), 1, 1, ()),
    (frozenset((LinearForm.X1, LinearForm.AX0_MINUS_BX1)), 1, 1, ()),
]


def _pair_label(key: frozenset) -> str:
    return "{" + ",".join(sorted(f.value for f in key)) + "}"


def verify_h_tables(analysis: RadiusAnalysis) -> HTableReport:
    """Recompute every critical-point count and endpoint limit the
    classification relies on, and compare with the expected tables."""
    rows = []
    for row in _table_rows():
        if isinstance(row, TableRow):
            rows.append(row)
            continue
        fn, label, check, expected, index, which, kind = row
        count = len(analysis._critical_at(index, analysis.span(which, kind)))
        rows.append(TableRow(fn, label, check, str(expected), str(count), count == expected))
    return HTableReport(rows=tuple(rows))


@functools.cache
def _table_rows() -> tuple:
    """The rows of verify_h_tables in their order, as constants of the
    region: a limit row is its TableRow, since the limits depend on no
    parameter; a count row is (function, choice, check, expected count,
    function number, interval, kind)."""
    index = _function_index()
    rows: list = []

    def count_row(fn: str, label: str, kind: HKind, key, which: Interval, expected: int, name: str = ""):
        rows.append((fn, label, f"count on {name or which.value}", expected, index[kind, key], which, kind))

    def limit_row(fn: str, label: str, kind: HKind, key, edge: Edge, expected: LimitKind):
        got = limit(kind, key, edge)
        check = f"limit at {edge.value} ({domain_side(kind, edge)})"
        rows.append(TableRow(fn, label, check, expected.value, got.value, got is expected))

    count_row("h0", "-", HKind.H0, None, Interval.I2, 1)
    count_row("h0", "-", HKind.H0, None, Interval.I4MINUS, 0)
    count_row("h0", "-", HKind.H0, None, Interval.I4PLUS, 0)
    limit_row("h0", "-", HKind.H0, None, Edge.MINUS_ONE, LimitKind.INFINITY)
    limit_row("h0", "-", HKind.H0, None, Edge.ZERO, LimitKind.INFINITY)

    for ell1, (c1, c3, limits) in _H1_TABLE.items():
        label = ell1.value
        count_row("h1", label, HKind.H1, ell1, Interval.I1, c1)
        count_row("h1", label, HKind.H1, ell1, Interval.I3, c3)
        for edge, expected in limits:
            limit_row("h1", label, HKind.H1, ell1, edge, expected)

    for missing, (c1, c3, limits) in _H3_TABLE.items():
        triple = frozenset(f for f in LinearForm if f is not missing)
        label = _pair_label(triple)
        count_row("h3", label, HKind.H3, triple, Interval.I1, c1)
        count_row("h3", label, HKind.H3, triple, Interval.I3, c3)
        for edge, expected in limits:
            limit_row("h3", label, HKind.H3, triple, edge, expected)

    for pair, c2, c4, limits in _H2_TABLE:
        label = _pair_label(pair)
        count_row("h2", label, HKind.H2, pair, Interval.I2, c2)
        count_row("h2", label, HKind.H2, pair, Interval.I4MINUS, c4, name="I4")
        for edge, expected in limits:
            limit_row("h2", label, HKind.H2, pair, edge, expected)

    return tuple(rows)


# ---------------------------------------------------------------------------
# the broken pairing of the generic family inside I2

# A plane this close to the critical one counts as it.  There g = Q / sqrt(f)
# is within rounding of its minimum: g - g_min grows like g'' d^2 / 2 at a
# distance d, below the rounding of g out to d = sqrt(2 eps g / g''), at most
# about 1e-8 on the admissible sets tried.  The pairing quartic's roots lam
# and the partner are not told apart there: they merge, or fall on one side.
CRITICAL_PLANE_TOL = math.sqrt(sys.float_info.epsilon)


def h0_critical_on_i2(analysis: RadiusAnalysis) -> float:
    """The unique degeneration location of the generic family inside I2."""
    locs = analysis.critical(HKind.H0, None, analysis.span(Interval.I2))
    if len(locs) != 1:
        raise PreconditionError(f"expected a unique critical point on I2, found {len(locs)}")
    return locs[0]


def h0_pairing(analysis: RadiusAnalysis, lam: float) -> float:
    """The partner plane of a broken fibration: for non-critical lam in I2,
    the unique mu on the other side of the critical point with equal h0.

    On I2, h0 = g + sqrt(g^2 - 1) with g = Q / sqrt(f), so h0(mu) = h0(lam)
    exactly where Q(mu)^2 - c f(mu) = 0, c = Q(lam)^2 / f(lam).  g falls to
    its minimum at the critical point and grows without bound toward both
    ends of I2, so this quartic has one root on each side of the critical
    point inside I2: lam and the partner.  Of the roots whose real part lies
    on the far side, the partner is the one nearest the real axis.  The
    stack of one of h0_pairings."""
    return h0_pairings(analysis, [lam], h0_critical_on_i2(analysis))[0]


def h0_pairings(analysis: RadiusAnalysis, lams: list[float], crit: float) -> list[float]:
    """h0_pairing of each plane in lams, crit being h0_critical_on_i2 of the
    analysis, with the pairing quartics solved in one stacked call.  Errors
    come in the order of the planes, as if each were paired alone: the first
    plane that cannot be set up, or whose quartic the solver would refuse,
    ends the stack, and its error is raised only after the planes before it
    have found their partners."""
    params = analysis.params
    q_squared = poly_mul(analysis.q, analysis.q)
    quartics, windows = [], []
    failure = None
    for lam in lams:
        try:
            if not -1.0 < lam < 0.0:
                raise DomainError(f"pairing is defined for lam in I2, got {lam}")
            if abs(lam - crit) <= CRITICAL_PLANE_TOL:
                raise DomainError("lam is the critical plane; no partner exists")
            c = q_value(params, lam) ** 2 / f_value(params, lam)
            quartic = poly_sub(q_squared, poly_scale(analysis.f, c))
            # the solver's own refusal, made here so that it keeps its place
            _last_column(quartic)
        except (DomainError, ArithmeticError) as exc:
            failure = exc
            break
        quartics.append(quartic)
        windows.append((crit, 0.0) if lam < crit else (-1.0, crit))
    mus = []
    for lam, (lo, hi), roots in zip(lams, windows, stacked_companion_roots(quartics)):
        inside = [r for r in roots if lo < r.real < hi]
        if not inside:
            raise PreconditionError(f"no partner of {lam} in ({lo}, {hi})")
        mus.append(float(min(inside, key=lambda r: abs(r.imag)).real))
    if failure is not None:
        raise failure
    return mus


# ---------------------------------------------------------------------------
# the radial profile of the line correspondence at the ordinary double point


@dataclass(frozen=True)
class PsiReport:
    """The claims about the radial profile k(r) = r / (1 + sqrt(1 + r^2)),
    which relates real lines through the double point to the exceptional
    curve, and the identity they rest on."""

    k_at_zero: float
    monotone: bool
    sup_value: float
    sup_below_one: bool
    limit_ok: bool
    boundary_derivative: float
    identity: str

    @property
    def passed(self) -> bool:
        return (
            self.k_at_zero == 0.0
            and self.monotone
            and self.sup_below_one
            and self.limit_ok
            and abs(self.boundary_derivative) > 0.1
        )


# Every claim holds in closed form.  k = tan(arctan(r) / 2), so k(0) = 0, k
# increases, k < 1 and k -> 1: the supremum 1 is not attained.  k(1/s) =
# sqrt(1 + s^2) - s, whose derivative at s = 0 is exactly -1.
PSI = PsiReport(
    k_at_zero=0.0,
    monotone=True,
    sup_value=1.0,
    sup_below_one=True,
    limit_ok=True,
    boundary_derivative=-1.0,
    identity="k(r) = tan(arctan(r) / 2); k(1/s) = sqrt(1 + s^2) - s",
)
