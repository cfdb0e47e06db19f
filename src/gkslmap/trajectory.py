"""Containers for propagated dynamical maps on a uniform time grid."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .serialize import FormatError

__all__ = ["TimeGrid", "MapTrajectory", "OrderedExponential", "FAMILY_TAGS"]

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
        flat = []
        for m in self.maps:
            flat.append([[float(z.real), float(z.imag)] for z in m.reshape(-1)])
        return {
            "kind": "map-trajectory",
            "family": self.family,
            "dim": int(self.dim),
            "grid": {"T": float(self.grid.T), "steps": int(self.grid.steps)},
            "maps": flat,
            "meta": dict(self.meta),
        }

    @staticmethod
    def from_doc(doc) -> "MapTrajectory":
        if not isinstance(doc, dict) or doc.get("kind") != "map-trajectory":
            raise FormatError("document: expected kind 'map-trajectory'")
        for key in ("family", "dim", "grid", "maps"):
            if key not in doc:
                raise FormatError(f"{key}: missing")
        g = doc["grid"]
        if not isinstance(g, dict) or "T" not in g or "steps" not in g:
            raise FormatError("grid: expected an object with 'T' and 'steps'")
        try:
            grid = TimeGrid(float(g["T"]), int(g["steps"]))
            dim = int(doc["dim"])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"grid/dim: {exc}") from exc
        D = dim * dim
        shape = (grid.steps + 1, D * D, 2)
        try:
            raw = np.asarray(doc["maps"])
        except ValueError:  # ragged
            raw = np.empty(0)
        if raw.shape != shape or raw.dtype.kind not in "biuf" or not np.isfinite(raw).all():
            raise FormatError(
                f"maps: expected {shape[0]} nodes x {D * D} entries x [re, im] finite numbers"
            )
        # the pairs viewed as complex keep every bit, signed zeros included
        maps = np.ascontiguousarray(raw, dtype=float).view(complex).reshape(-1, D, D)
        return MapTrajectory(
            grid=grid,
            dim=dim,
            family=doc["family"],
            maps=maps,
            meta=dict(doc.get("meta", {})),
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
        return max(
            float(np.linalg.norm(self.v[m] @ self.vinv[m] - eye))
            for m in range(self.grid.steps + 1)
        )


def trajectory_csv(traj: MapTrajectory, rows) -> str:
    """Render per-node diagnostic rows as CSV with a provenance comment line.

    ``rows`` maps column name -> array of length M + 1; the time column is
    always first.
    """
    names = ["t"] + list(rows.keys())
    buf = io.StringIO()
    buf.write(f"# gkslmap trajectory diagnostics family={traj.family} dim={traj.dim}\n")
    buf.write(",".join(names) + "\n")
    ts = traj.grid.nodes()
    cols = [ts] + [np.asarray(rows[k]) for k in rows]
    for i in range(len(ts)):
        buf.write(",".join(repr(float(c[i])) for c in cols) + "\n")
    return buf.getvalue()
