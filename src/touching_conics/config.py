"""Tolerance and resolution knobs, plumbed explicitly (no hidden global state)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances used across the pipeline.

    equality_rel       relative tolerance for exact-algebra identities
    polish_tol         target for |p| and |p'| after polishing a double root
    """

    equality_rel: float = 1e-9
    polish_tol: float = 1e-10


DEFAULT_TOL = Tolerances()
