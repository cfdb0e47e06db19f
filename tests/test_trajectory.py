"""Time grids, map trajectories, serialization round trips."""

import json

import numpy as np
import pytest

from gkslmap.linalg import sandwich_superop, vectorize
from gkslmap.serialize import FormatError, canonical_dumps
from gkslmap.trajectory import FAMILY_TAGS, MapTrajectory, TimeGrid, trajectory_csv
from oracles import unvectorize


def test_time_grid_nodes_and_step():
    grid = TimeGrid(2.0, 8)
    assert grid.h == 0.25
    nodes = grid.nodes()
    assert nodes.shape == (9,)
    assert nodes[0] == 0.0 and nodes[-1] == 2.0


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    for horizon in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(horizon, 10)


def test_time_grid_steps_must_size_the_refined_lattice():
    # 16 bytes times the 4 * steps + 1 points of the h/4 lattice must fit an array's size
    top = 2**57 - 1
    assert 16 * (4 * top + 1) <= np.iinfo(np.intp).max < 16 * (4 * (top + 1) + 1)
    assert TimeGrid(1.0, top).steps == top
    for steps in (top + 1, 10**18):
        with pytest.raises(ValueError, match=f"^steps must be below {top + 1}$"):
            TimeGrid(1.0, steps)


def make_trajectory(rng, dim=2, steps=3, family="local-full"):
    D = dim * dim
    maps = np.empty((steps + 1, D, D), dtype=complex)
    maps[0] = np.eye(D)
    for m in range(1, steps + 1):
        a = np.eye(dim) + 0.1 * m * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        maps[m] = sandwich_superop(a, a.conj().T)
    return MapTrajectory(grid=TimeGrid(1.5, steps), dim=dim, family=family, maps=maps)


def test_family_tag_is_validated(rng):
    with pytest.raises(ValueError):
        make_trajectory(rng, family="totally-bogus")
    for tag in FAMILY_TAGS:
        make_trajectory(rng, family=tag)


def test_maps_shape_is_validated(rng):
    traj = make_trajectory(rng)
    with pytest.raises(ValueError):
        MapTrajectory(grid=TimeGrid(1.5, 7), dim=2, family="local-full", maps=traj.maps)


def test_apply_matches_vectorized_action(rng):
    traj = make_trajectory(rng, dim=3, steps=4)
    rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    states = traj.apply(rho)
    assert states.shape == (5, 3, 3)
    for m in range(5):
        expected = unvectorize(traj.maps[m] @ vectorize(rho), 3)
        assert np.allclose(states[m], expected, atol=1e-14)


def test_doc_round_trip(rng):
    traj = make_trajectory(rng, dim=2, steps=5, family="nonlocal-jump")
    traj.maps[1, 0, 1], traj.maps[2, 3, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
    doc = json.loads(canonical_dumps(traj.to_doc()))
    back = MapTrajectory.from_doc(doc)
    assert back.family == "nonlocal-jump"
    assert back.grid == traj.grid
    assert back.maps.tobytes() == traj.maps.tobytes()  # every bit, signed zeros included


def test_from_doc_tolerates_extra_keys(rng):
    doc = make_trajectory(rng).to_doc()
    doc["provenance"] = {"tool": "gkslmap"}
    MapTrajectory.from_doc(doc)


def test_from_doc_rejects_malformed(rng):
    doc = make_trajectory(rng).to_doc()
    with pytest.raises(FormatError):
        MapTrajectory.from_doc({**doc, "kind": "something-else"})
    short = dict(doc)
    short["maps"] = doc["maps"][:-1]
    with pytest.raises(FormatError):
        MapTrajectory.from_doc(short)
    missing = dict(doc)
    del missing["family"]
    with pytest.raises(FormatError, match="family"):
        MapTrajectory.from_doc(missing)


def test_trajectory_csv_layout(rng):
    traj = make_trajectory(rng, steps=2)
    text = trajectory_csv(traj, {"trace_dev": np.array([0.0, 1e-16, 2e-16])})
    lines = text.strip().split("\n")
    assert lines[0].startswith("# gkslmap trajectory diagnostics family=local-full")
    assert lines[1] == "t,trace_dev"
    assert len(lines) == 2 + 3
    assert lines[2].split(",")[0] == "0.0"
