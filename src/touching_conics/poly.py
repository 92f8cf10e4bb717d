"""Univariate polynomial arithmetic, companion-matrix roots and the exact
square tests.

A real polynomial is a tuple of float coefficients in ascending degree order,
stripped of trailing zeros ((0.0,) for the zero polynomial); degree <= 8 is
all this project ever needs.  Evaluation, companion roots, the
two-double-roots criterion and the square test also accept complex
coefficient sequences because branch restrictions of conics are genuinely
complex.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import DomainError

# Relative tolerance of the exact-algebra identities of the square tests.  A
# coefficient computed in floats carries a relative error of a few ulps (1e-16)
# per operation; 1e-9 leaves seven orders of magnitude for the few dozen
# operations behind each coefficient of a branch restriction.
EQUALITY_REL = 1e-9


# Arithmetic on ascending coefficient tuples of floats, each result stripped
# of trailing zeros ((0.0,) when nothing is left).  The order of the float
# operations is part of the contract: the critical polynomials' bits, and so
# every critical point a report prints, follow from it.


def _stripped(cs: list[float]) -> tuple[float, ...]:
    n = len(cs)
    while n > 1 and cs[n - 1] == 0.0:
        n -= 1
    return tuple(cs[:n]) if n else (0.0,)


def poly_add(p: tuple[float, ...], q: tuple[float, ...]) -> tuple[float, ...]:
    """p + q, the shorter padded with 0.0 and added term by term."""
    n = max(len(p), len(q))
    a = list(p) + [0.0] * (n - len(p))
    b = list(q) + [0.0] * (n - len(q))
    return _stripped([x + y for x, y in zip(a, b)])


def poly_sub(p: tuple[float, ...], q: tuple[float, ...]) -> tuple[float, ...]:
    """p + (-1.0) q."""
    return poly_add(p, poly_scale(q, -1.0))


def poly_mul(p: tuple[float, ...], q: tuple[float, ...]) -> tuple[float, ...]:
    """p q, each term accumulated from 0.0 in the order of p's index, then
    q's."""
    if p == (0.0,) or q == (0.0,):
        return (0.0,)
    out = [0.0] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        for j, cj in enumerate(q):
            out[i + j] += ci * cj
    return _stripped(out)


def poly_scale(p: tuple[float, ...], k: float) -> tuple[float, ...]:
    return _stripped([k * c for c in p])


def poly_derivative(p: tuple[float, ...]) -> tuple[float, ...]:
    if len(p) == 1:
        return (0.0,)
    return _stripped([k * c for k, c in enumerate(p) if k > 0])


def poly_deflate(p: tuple[float, ...], root: float) -> tuple[float, ...]:
    """Quotient of p by (x - root), by synthetic division; the remainder,
    which vanishes when root is a root of p, is dropped.

    This is the quotient of division with remainder whatever root is, so it
    serves a divisor that need not be a root: surface divides D by its
    double-root candidates before it knows whether they are double roots.
    poly_deflate_composite's low coefficients hold only at an exact root.
    In validate and singular_locus it flipped 168 of 20,574 scanned
    verdicts, 150 of them to a false pass, all at q0 <= 1.7e-5 and
    lambda0 >= 1.7e8, where the absolute double-root tolerances decide."""
    out = [0.0] * (len(p) - 1)
    acc = 0.0
    for k in range(len(p) - 1, 0, -1):
        acc = acc * root + p[k]
        out[k - 1] = acc
    return _stripped(out)


def poly_deflate_composite(p: tuple[float, ...], root: float) -> tuple[float, ...]:
    """Quotient of p by (x - root), each coefficient from the recurrence
    whose terms weigh less: composite deflation (Peters and Wilkinson,
    1971).  Coefficient k is sum_{i > k} p_i root^(i-k-1), accumulated from
    the top as in poly_deflate, and at an exact root also
    -sum_{i <= k} p_i root^(i-k-1), accumulated from the bottom.  The top
    sum is kept where its weights |p_i| |root|^i add up to no more than the
    bottom sum's, which holds from some k on.  Forward deflation alone loses
    the roots much smaller than the one divided out, as its low
    coefficients cancel; where the top sum is kept throughout, the quotient
    is poly_deflate's, bit for bit."""
    n = len(p) - 1
    weights, power = [], 1.0
    for c in p:
        weights.append(abs(c) * power)
        power *= abs(root)
    split = 0
    while split < n and sum(weights[split + 1 :]) > sum(weights[: split + 1]):
        split += 1
    out = [0.0] * n
    acc = 0.0
    for k in range(n, split, -1):
        acc = acc * root + p[k]
        out[k - 1] = acc
    acc = 0.0
    for k in range(split):
        acc = (acc - p[k]) / root
        out[k] = acc
    return _stripped(out)


def evaluate(p, x):
    """Horner evaluation of an ascending coefficient sequence at a real or
    complex point; exact for degree 0."""
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def companion_roots(coeffs) -> list[complex]:
    """All complex roots of a polynomial given by ascending coefficients:
    the stack of one."""
    return stacked_companion_roots([coeffs])[0]


def stacked_companion_roots(polys) -> list[list[complex]]:
    """All complex roots of each polynomial given by ascending coefficients,
    in order: the eigenvalues of its companion matrix, _polished.  One
    eigenvalue call per degree solves the stacked matrices of that degree;
    LAPACK factors each matrix of a stack on its own, so a root does not
    depend on the polynomials stacked with it.  The polynomials are checked
    in order before any is solved: the first whose monic form is not finite
    raises DomainError."""
    built = [_last_column(coeffs) for coeffs in polys]
    by_degree: dict[int, list[int]] = {}
    for i, (_, column) in enumerate(built):
        if column:
            by_degree.setdefault(len(column), []).append(i)
    eigenvalues: list[list] = [[] for _ in built]
    for members in by_degree.values():
        for i, values in zip(members, np.linalg.eigvals(_companions([built[i][1] for i in members]))):
            eigenvalues[i] = list(values)
    with np.errstate(over="ignore", invalid="ignore"):
        return [_polished(cs, values) if values else [] for (cs, _), values in zip(built, eigenvalues)]


def _last_column(coeffs) -> tuple[list[complex], list[complex]]:
    """The coefficients as complex numbers with trailing zeros dropped, and
    the last column of their companion matrix: minus the lower ones over the
    leading one, empty below degree 1."""
    cs = [complex(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    if len(cs) < 2:
        return cs, []
    lead = cs[-1]
    monic = [c / lead for c in cs]
    if not all(cmath.isfinite(c) for c in monic):
        raise DomainError(f"roots need finite coefficients over the leading one, of size {abs(lead):.3e}")
    return cs, [-c for c in monic[:-1]]


def _companions(columns: list[list[complex]]) -> np.ndarray:
    """The companion matrices of one degree n, stacked (k, n, n): ones below
    the diagonal and each last column given."""
    k, n = len(columns), len(columns[0])
    comp = np.zeros((k, n * n), dtype=complex)
    comp[:, n :: n + 1] = 1.0
    comp[:, n - 1 :: n] = columns
    return comp.reshape(k, n, n)


def _polished(cs: list[complex], roots: list) -> list[complex]:
    """One Newton step from each eigenvalue, kept only when it reduces |p|
    and lands nearer its own eigenvalue than any other: near a multiple root
    p' almost vanishes and an unguarded step can jump onto a different root.
    Where evaluating p overflows, the comparison fails on inf or NaN and the
    eigenvalue is kept as it is; the caller sees the overflow in its own
    arithmetic.  The caller ignores numpy's overflow and invalid warnings
    around it, once per stack."""
    dcs = [k * cs[k] for k in range(1, len(cs))]
    polished = []
    for r in roots:
        pr = evaluate(cs, r)
        dpr = evaluate(dcs, r)
        if abs(dpr) > 0:
            cand = r - pr / dpr
            if abs(evaluate(cs, cand)) < abs(pr):
                step = abs(cand - r)
                for other in roots:
                    if other is not r and abs(cand - other) <= step:
                        break
                else:
                    r = cand
        polished.append(r)
    return polished


def _close(lhs: complex, rhs: complex, floor: float) -> bool:
    return abs(lhs - rhs) <= EQUALITY_REL * max(abs(lhs), abs(rhs), floor)


def two_double_roots_criterion(a1, a2, a3, a4) -> bool:
    """Whether x^4 + a1 x^3 + a2 x^2 + a3 x + a4 factors as (x-u)^2 (x-v)^2.

    Exact algebra: with a1 != 0 the conditions are 4*a1*a2 = a1^3 + 8*a3 and
    a1^2*a4 = a3^2; with a1 = 0 they are a3 = 0 and 4*a4 = a2^2.  Works over
    the complex numbers; equalities are tested to EQUALITY_REL with an
    absolute floor scaled by the coefficient magnitudes.
    """
    a1, a2, a3, a4 = complex(a1), complex(a2), complex(a3), complex(a4)
    s = 1.0 + max(abs(a1), abs(a2) ** 0.5, abs(a3) ** (1.0 / 3.0), abs(a4) ** 0.25)
    if abs(a1) <= EQUALITY_REL * s:
        return _close(a3, 0.0, s**3) and _close(4.0 * a4, a2 * a2, s**4)
    return _close(4.0 * a1 * a2, a1**3 + 8.0 * a3, s**3) and _close(a1 * a1 * a4, a3 * a3, s**6)


def square_root_roots(coeffs) -> list[complex] | None:
    """Roots of the square root when the polynomial (ascending, nonzero
    leading coefficient, and for degree 4 a nonzero constant term) is a
    constant times a square, else None.  Degree 2 needs b^2 = 4ac and degree
    4 two double roots, both to the equality tolerance; degree 0 is the empty
    square and odd degrees never are squares."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    if deg == 2:
        c, b, a = coeffs
        if abs(b * b - 4.0 * a * c) > EQUALITY_REL * max(abs(b * b), abs(4.0 * a * c)):
            return None
        return [-b / (2.0 * a)]
    if deg == 4:
        a4, a3, a2, a1 = (c / coeffs[4] for c in coeffs[:4])
        if not two_double_roots_criterion(a1, a2, a3, a4):
            return None
        # x^4 + a1 x^3 + ... = (x^2 + p x + r)^2; roots of the quadratic
        # without cancellation, the second one from the product r
        p = 0.5 * a1
        r = 0.5 * (a2 - p * p)
        s = cmath.sqrt(p * p - 4.0 * r)
        if abs(p - s) > abs(p + s):
            s = -s
        z = -0.5 * (p + s)
        return [z, r / z]
    return None

