"""Univariate polynomial arithmetic, companion-matrix roots and the exact
square tests.

Real-coefficient polynomials are the primary citizens (degree <= 8 is all this
project ever needs); evaluation, companion roots, the two-double-roots
criterion and the square test also accept complex coefficient sequences
because branch restrictions of conics are genuinely complex.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Relative tolerance of the exact-algebra identities of the square tests.  A
# coefficient computed in floats carries a relative error of a few ulps (1e-16)
# per operation; 1e-9 leaves seven orders of magnitude for the few dozen
# operations behind each coefficient of a branch restriction.
EQUALITY_REL = 1e-9


@dataclass(frozen=True)
class RealPolynomial:
    """Coefficients in ascending degree order.

    Trailing zeros are stripped on construction so the leading coefficient is
    nonzero unless the polynomial is identically zero.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0.0,)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (0.0,)

    def __call__(self, x: float) -> float:
        return evaluate(self, x)

    def __add__(self, other: "RealPolynomial") -> "RealPolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        a = list(self.coefficients) + [0.0] * (n - len(self.coefficients))
        b = list(other.coefficients) + [0.0] * (n - len(other.coefficients))
        return RealPolynomial(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "RealPolynomial") -> "RealPolynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "RealPolynomial") -> "RealPolynomial":
        if self.is_zero or other.is_zero:
            return RealPolynomial((0.0,))
        out = [0.0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, ci in enumerate(self.coefficients):
            for j, cj in enumerate(other.coefficients):
                out[i + j] += ci * cj
        return RealPolynomial(tuple(out))

    def scale(self, k: float) -> "RealPolynomial":
        return RealPolynomial(tuple(k * c for c in self.coefficients))


def evaluate(p, x):
    """Horner evaluation of a RealPolynomial or of an ascending coefficient
    sequence, at a real or complex point; exact for degree 0."""
    coeffs = p.coefficients if isinstance(p, RealPolynomial) else p
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def derivative(p: RealPolynomial) -> RealPolynomial:
    if p.degree == 0:
        return RealPolynomial((0.0,))
    return RealPolynomial(tuple(k * c for k, c in enumerate(p.coefficients) if k > 0))


def companion_roots(coeffs) -> list[complex]:
    """All complex roots of a polynomial given by ascending coefficients.

    Eigenvalues of the companion matrix, each polished by one Newton step.
    The step is kept only when it reduces |p| and lands nearer its own
    eigenvalue than any other: near a multiple root p' almost vanishes and
    an unguarded step can jump onto a different root.
    """
    cs = [complex(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    n = len(cs) - 1
    if n < 1:
        return []
    lead = cs[-1]
    monic = [c / lead for c in cs]
    if not all(cmath.isfinite(c) for c in monic):
        raise DomainError(f"roots need finite coefficients over the leading one, of size {abs(lead):.3e}")
    comp = np.zeros((n, n), dtype=complex)
    if n > 1:
        comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = [-monic[k] for k in range(n)]
    roots = list(np.linalg.eigvals(comp))
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


def _close(lhs: complex, rhs: complex, tol: float, floor: float) -> bool:
    return abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs), floor)


def two_double_roots_criterion(a1, a2, a3, a4, tol: float = EQUALITY_REL) -> bool:
    """Whether x^4 + a1 x^3 + a2 x^2 + a3 x + a4 factors as (x-u)^2 (x-v)^2.

    Exact algebra: with a1 != 0 the conditions are 4*a1*a2 = a1^3 + 8*a3 and
    a1^2*a4 = a3^2; with a1 = 0 they are a3 = 0 and 4*a4 = a2^2.  Works over
    the complex numbers; equalities are tested to a relative tolerance with an
    absolute floor scaled by the coefficient magnitudes.
    """
    a1, a2, a3, a4 = complex(a1), complex(a2), complex(a3), complex(a4)
    s = 1.0 + max(abs(a1), abs(a2) ** 0.5, abs(a3) ** (1.0 / 3.0), abs(a4) ** 0.25)
    if abs(a1) <= tol * s:
        return _close(a3, 0.0, tol, s**3) and _close(4.0 * a4, a2 * a2, tol, s**4)
    return _close(4.0 * a1 * a2, a1**3 + 8.0 * a3, tol, s**3) and _close(
        a1 * a1 * a4, a3 * a3, tol, s**6
    )


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


def deflate(p: RealPolynomial, root: float) -> RealPolynomial:
    """Quotient of p by (x - root), by synthetic division; the remainder,
    which vanishes when root is a root of p, is dropped."""
    out = [0.0] * p.degree
    acc = 0.0
    for k in range(p.degree, 0, -1):
        acc = acc * root + p.coefficients[k]
        out[k - 1] = acc
    return RealPolynomial(tuple(out))
