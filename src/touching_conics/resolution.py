"""Small resolutions of the compound A3 point, and the names of the radius
functions and of the conic types.

The double cover near the worse fixed point is xi*eta = x0*x1*(x0+x1)*(a*x0-b*x1).
A small resolution is an ordered choice of three of the four linear factors;
three blow-ups produce a chain of exceptional curves G1, G2, G3 carrying the
affine coordinates u = xi/l1, v = xi/(l1*l2), w = xi/(l1*l2*l3).  On the
plane x0 = lam*x1 each form reduces to L(lam)*x1 with L in
{lam, 1, lam+1, a*lam-b}, so every radius below is a scalar function of
lam.

The radius functions:

    h0 = (Q + sqrt(Q^2 - f)) / sqrt(f)          (f > 0; fixed-line circles)
    h1 = 2 B / |L1|                             (f < 0; circles on G1)
    h2 = sqrt(f) / |L1 L2|                      (f > 0; circles on G2)
    h3 = (-f) / (2 B |L1 L2 L3|)                (f < 0; circles on G3)

with B = sqrt((sqrt(Q^2 - f) - Q)/2), and h2 taken with its absolute value
(radius semantics).  This module names them (HKind) and the data they are
built from: the resolutions, each form's value as a polynomial in lam and
the edge where it vanishes.  `analysis` works with them exactly, as roots
of polynomials and signs of vanishing orders; nothing here samples them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import DomainError
from .poly import _stripped
from .surface import SurfaceParams


class Edge(enum.Enum):
    """An end of the intervals on which f keeps its sign: a root of f or an
    infinity.  Each value is the edge's label in the h tables."""

    MINUS_INF = "-inf"
    MINUS_ONE = "-1.0"
    ZERO = "0.0"
    B_OVER_A = "b/a"
    PLUS_INF = "+inf"


class LinearForm(enum.Enum):
    X0 = "X0"
    X1 = "X1"
    X0_PLUS_X1 = "X0plusX1"
    AX0_MINUS_BX1 = "AX0minusBX1"

    def polynomial(self, params: SurfaceParams) -> tuple[float, ...]:
        """The restricted value as a polynomial in lam."""
        if self is LinearForm.X0:
            return (0.0, 1.0)
        if self is LinearForm.X1:
            return (1.0,)
        if self is LinearForm.X0_PLUS_X1:
            return (1.0, 1.0)
        return _stripped([float(c) for c in (-params.b, params.a)])

    @property
    def zero(self) -> Edge | None:
        """The edge where the restricted value vanishes (None for X1)."""
        if self is LinearForm.X0:
            return Edge.ZERO
        if self is LinearForm.X1:
            return None
        if self is LinearForm.X0_PLUS_X1:
            return Edge.MINUS_ONE
        return Edge.B_OVER_A


@dataclass(frozen=True, order=True)
class ResolutionChoice:
    ell1: LinearForm
    ell2: LinearForm
    ell3: LinearForm

    def __post_init__(self):
        if len({self.ell1, self.ell2, self.ell3}) != 3:
            raise DomainError("resolution choice needs three distinct forms")

    def forms(self) -> tuple[LinearForm, LinearForm, LinearForm]:
        return (self.ell1, self.ell2, self.ell3)

    def missing_form(self) -> LinearForm:
        return next(f for f in LinearForm if f not in self.forms())

    def label(self) -> str:
        return f"({self.ell1.value}, {self.ell2.value}, {self.ell3.value})"


def all_resolutions() -> list[ResolutionChoice]:
    """All 24 ordered triples of distinct forms, in a fixed deterministic order."""
    return [
        ResolutionChoice(*triple)
        for triple in itertools.permutations(list(LinearForm), 3)
    ]


class HKind(enum.Enum):
    H0 = "h0"
    H1 = "h1"
    H2 = "h2"
    H3 = "h3"


class ConicType(enum.Enum):
    """The touching-conic families, and what a conic of a plane turns out to
    be: named here, beside the radius functions, so that the classifier's
    type table needs no part of the conic machinery."""

    GENERIC = "Generic"
    SPECIAL = "Special"
    ORBIT = "Orbit"
    NOT_TOUCHING = "NotTouching"
    CONTAINED_IN_B = "ContainedInB"
    LINE_IMAGE = "Line-image"
