"""Univariate polynomial arithmetic and multiplicity-aware root finding.

Real-coefficient polynomials are the primary citizens (degree <= 8 is all this
project ever needs); the root clustering helpers also accept complex
coefficient sequences because branch restrictions of conics are genuinely
complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import InputError


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


@dataclass(frozen=True)
class RootCluster:
    """A group of numerically coincident roots.

    value         cluster centroid
    multiplicity  number of roots in the cluster
    residual      max |p| over the cluster members
    """

    value: complex
    multiplicity: int
    residual: float


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


def cluster_roots(roots, tol: float) -> list[list[complex]]:
    """Single-linkage clustering with radius tol * (1 + |root|)."""
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        placed = False
        for cl in clusters:
            if any(abs(r - m) <= tol * (1.0 + abs(m)) for m in cl):
                cl.append(r)
                placed = True
                break
        if not placed:
            clusters.append([r])
    return clusters


def _centroid(members) -> complex:
    return sum(members) / len(members)


def root_clusters(coeffs, tol: float) -> list[RootCluster]:
    """All roots of the (complex) polynomial, grouped into clusters."""
    roots = companion_roots(coeffs)
    cs = [complex(c) for c in coeffs]
    out = []
    for members in cluster_roots(roots, tol):
        center = _centroid(members)
        res = max(abs(evaluate(cs, m)) for m in members)
        out.append(RootCluster(value=center, multiplicity=len(members), residual=res))
    out.sort(key=lambda c: (c.value.real, c.value.imag))
    return out


def real_roots_with_multiplicity(
    p: RealPolynomial, tol: float | None = None, cfg: Tolerances = DEFAULT_TOL
) -> list[RootCluster]:
    """Real roots of p grouped by multiplicity.

    A cluster counts as real when its centroid sits on the real axis within
    the clustering radius; its value is reported with the imaginary part
    dropped.  Raises InputError for constant input.
    """
    if p.degree < 1:
        raise InputError("root finding needs degree >= 1")
    tol = cfg.root_cluster_rel if tol is None else tol
    clusters = root_clusters(p.coefficients, tol)
    out = []
    for cl in clusters:
        if abs(cl.value.imag) <= tol * (1.0 + abs(cl.value)):
            out.append(
                RootCluster(
                    value=complex(cl.value.real, 0.0),
                    multiplicity=cl.multiplicity,
                    residual=cl.residual,
                )
            )
    return out


def _close(lhs: complex, rhs: complex, tol: float, floor: float) -> bool:
    return abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs), floor)


def two_double_roots_criterion(a1, a2, a3, a4, tol: float = DEFAULT_TOL.equality_rel) -> bool:
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


def deflate(p: RealPolynomial, root: float) -> RealPolynomial:
    """Quotient of p by (x - root), by synthetic division; the remainder,
    which vanishes when root is a root of p, is dropped."""
    out = [0.0] * p.degree
    acc = 0.0
    for k in range(p.degree, 0, -1):
        acc = acc * root + p.coefficients[k]
        out[k - 1] = acc
    return RealPolynomial(tuple(out))


def poly_from_roots(roots) -> RealPolynomial:
    """Monic real polynomial with the given (conjugation-closed) roots."""
    coeffs = [1.0 + 0.0j]
    for r in roots:
        nxt = [0.0 + 0.0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= complex(r) * c
        coeffs = nxt
    imag = max(abs(c.imag) for c in coeffs)
    if imag > 1e-9 * max(1.0, max(abs(c) for c in coeffs)):
        raise InputError("root set is not closed under conjugation")
    return RealPolynomial(tuple(c.real for c in coeffs))
