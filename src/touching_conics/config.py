"""Tolerance and resolution knobs, plumbed explicitly (no hidden global state)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances used across the pipeline.

    root_cluster_rel   clustering radius scale: radius = root_cluster_rel * (1 + |root|)
    equality_rel       relative tolerance for exact-algebra identities
    polish_tol         target for |p| and |p'| after polishing a double root
    degenerate_det     |det| threshold for a reducible conic, after normalization
    grid_floor         floor spacing of the admissibility scan grid
    lambda0_exclusion  radius excluded around the double-root plane when scanning
    """

    root_cluster_rel: float = 1e-7
    equality_rel: float = 1e-9
    polish_tol: float = 1e-10
    degenerate_det: float = 1e-10
    grid_floor: float = 1e-4
    lambda0_exclusion: float = 1e-3


DEFAULT_TOL = Tolerances()
