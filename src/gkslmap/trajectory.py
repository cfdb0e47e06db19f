"""Containers for propagated dynamical maps on a uniform time grid."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import frobenius
from .serialize import (
    FormatError,
    _header,
    _integer,
    _object,
    complex_from_doc,
    complex_to_doc,
    csv_table,
    is_finite_number,
)

__all__ = ["TimeGrid", "MapTrajectory", "OrderedExponential", "FAMILY_TAGS"]

# The local solvers tabulate 4 * steps + 1 complex (16-byte) entries, the h/4
# lattice; steps below this bound keep that table's byte size within an intp.
_STEPS_LIMIT = (np.iinfo(np.intp).max // 16 - 1) // 4 + 1

# Closed set of solver-family tags used in serialized outputs.
FAMILY_TAGS = (
    "local-full",
    "local-jump",
    "local-drift",
    "nonlocal-full",
    "nonlocal-jump",
    "nonlocal-drift",
    "series-local-jump",
    "series-nonlocal-jump",
    "series-local-full",
    "weak-local-drift",
    "weak-nonlocal-full",
)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_M = T with step h = T / steps."""

    T: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"horizon T must be finite and positive, got {self.T}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.steps >= _STEPS_LIMIT:
            raise ValueError(f"steps must be below {_STEPS_LIMIT}")

    @property
    def h(self) -> float:
        return self.T / self.steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

@dataclass(frozen=True)
class MapTrajectory:
    """A dynamical map Lambda(t_m) at every node of a time grid.

    ``maps`` has shape (M + 1, d^2, d^2) in the column-stacking convention;
    ``maps[0]`` is the identity.  ``family`` is one of :data:`FAMILY_TAGS`.
    """

    grid: TimeGrid
    dim: int
    family: str
    maps: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.family not in FAMILY_TAGS:
            raise ValueError(f"unknown solver family tag {self.family!r}")
        expect = (self.grid.steps + 1, self.dim**2, self.dim**2)
        if self.maps.shape != expect:
            raise ValueError(f"maps shape {self.maps.shape}, expected {expect}")

    def __len__(self) -> int:
        return self.grid.steps + 1

    def final_map(self) -> np.ndarray:
        return self.maps[-1]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evolve one initial state through every node; returns (M+1, d, d)."""
        d = self.dim
        vec = np.asarray(rho, dtype=complex).reshape(-1, order="F")
        out = self.maps @ vec
        return out.reshape(-1, d, d).transpose(0, 2, 1)

    def to_doc(self) -> dict:
        return {
            "kind": "map-trajectory",
            "family": self.family,
            "dim": int(self.dim),
            "grid": {"T": float(self.grid.T), "steps": int(self.grid.steps)},
            "maps": complex_to_doc(self.maps.reshape(len(self.maps), -1)),
            "meta": dict(self.meta),
        }

    @staticmethod
    def from_doc(doc) -> "MapTrajectory":
        if not isinstance(doc, dict) or doc.get("kind") != "map-trajectory":
            raise FormatError("document: expected kind 'map-trajectory'")
        dim = _header(doc, ("family", "grid", "maps"))
        if doc["family"] not in FAMILY_TAGS:
            raise FormatError(f"family: unknown solver family tag {doc['family']!r}")
        g = _object(doc["grid"], "grid", ("T", "steps"))
        steps = _integer(g, "steps", 1, field="grid")
        if not (is_finite_number(g["T"]) and g["T"] > 0):
            raise FormatError(f"grid.T: expected a finite number > 0, got {g['T']!r}")
        meta = _object(doc.get("meta", {}), "meta")
        grid = TimeGrid(float(g["T"]), steps)
        D = dim * dim
        maps = complex_from_doc(doc["maps"], (grid.steps + 1, D * D), "maps").reshape(-1, D, D)
        return MapTrajectory(
            grid=grid,
            dim=dim,
            family=doc["family"],
            maps=maps,
            meta=dict(meta),
        )


@dataclass(frozen=True)
class OrderedExponential:
    """Time-ordered exponential V(t) and its inverse on grid nodes.

    V solves dV/dt = -Omega(t) V with V(0) = 1, and ``vinv`` carries the
    exactly co-propagated inverse (d Vinv/dt = +Vinv Omega), so that
    ``v[m] @ vinv[m]`` stays near the identity without any matrix inversion.
    """

    grid: TimeGrid
    dim: int
    v: np.ndarray = field(repr=False)
    vinv: np.ndarray = field(repr=False)

    def __post_init__(self):
        expect = (self.grid.steps + 1, self.dim, self.dim)
        if self.v.shape != expect or self.vinv.shape != expect:
            raise ValueError(
                f"V/Vinv shapes {self.v.shape}/{self.vinv.shape}, expected {expect}"
            )

    def inversion_defect(self) -> float:
        eye = np.eye(self.dim)
        return float(np.max(frobenius(self.v @ self.vinv - eye)))


def trajectory_csv(traj: MapTrajectory, rows) -> str:
    """Render per-node diagnostic rows as CSV with a provenance comment line.

    ``rows`` maps column name -> array of length M + 1; the time column is
    always first.
    """
    header = f"# gkslmap trajectory diagnostics family={traj.family} dim={traj.dim}\n"
    return header + csv_table({"t": traj.grid.nodes(), **rows})
