"""nonlocal-full against the exact maps of two exponential-memory models.

Both models reduce to second-order scalar equations with closed-form
solutions (:mod:`oracles`), so the Volterra march's error, its order and the
CP verdicts read from its maps are checked against exact answers, not against
another discretization.
"""

import functools
import math

import numpy as np
import pytest

from gkslmap.cpanalysis import (
    DEFAULT_EPS_CP,
    certify_trajectory,
    choi,
    cp_check,
    divisibility_check,
)
from gkslmap.experiments import dephasing_kernel
from gkslmap.propagate import solve_family
from gkslmap.trajectory import TimeGrid
from oracles import barnett_stenholm_kernel, barnett_stenholm_maps, dephasing_maps

# The march is second order: its max entry error against the closed form
# stays below C h^2.  Measured: 0.1075 h^2 for dephasing at kappa = g = 1 and
# 0.2271 h^2 for Barnett-Stenholm at gamma = 2, kappa = 1, at every M tried.
DEPHASING_C = 0.12
BARNETT_STENHOLM_C = 0.25
T = 4.0


@functools.lru_cache(maxsize=None)
def solved(model: str, steps: int):
    """(grid, nonlocal-full maps, exact maps) of one model on TimeGrid(T, steps)."""
    grid = TimeGrid(T, steps)
    if model == "dephasing":
        kernel, exact = dephasing_kernel(1.0, 1.0), dephasing_maps(1.0, 1.0, grid.nodes())
    else:
        kernel, exact = barnett_stenholm_kernel(2.0, 1.0), barnett_stenholm_maps(2.0, 1.0, grid.nodes())
    return grid, solve_family(kernel, grid, "nonlocal-full"), exact


@pytest.mark.parametrize("model, c, steps", [
    ("dephasing", DEPHASING_C, (200, 400)),
    ("barnett-stenholm", BARNETT_STENHOLM_C, (400, 1600)),
])
def test_nonlocal_maps_meet_the_closed_form_at_order_two(model, c, steps):
    errors, hs = [], []
    for m in steps:
        grid, traj, exact = solved(model, m)
        errors.append(float(np.max(np.abs(traj.maps - exact))))
        hs.append(grid.h)
        assert errors[-1] <= c * grid.h**2, (m, errors[-1] / grid.h**2)
    order = math.log(errors[0] / errors[1]) / math.log(hs[0] / hs[1])
    assert 1.9 <= order <= 2.1, order


@pytest.mark.parametrize("steps, node", [(400, 3), (1600, 9)])
def test_barnett_stenholm_first_not_cp_node_is_the_closed_forms(steps, node):
    # p - c^2 = -(gamma kappa)^2 t^4 / 24 + O(t^5): not CP from the first nodes on
    _, traj, exact = solved("barnett-stenholm", steps)
    ok, lam = cp_check(choi(exact), DEFAULT_EPS_CP)
    assert int(np.argmin(ok)) == node and lam.min() < -0.3
    assert certify_trajectory(traj).first_violation == node


def test_dephasing_interval_verdicts_are_the_closed_forms_away_from_ties():
    # at kappa = g = 1, x = e^{-t} (cos t + sin t): |x| falls to 0 at t = 3 pi / 4,
    # grows back until t = pi, then falls, so the intervals between are not CP.
    # Each solved x lies within C h^2 of the closed form, so an interval whose
    # |x| changes by more than twice that (plus the CP tolerance) is no tie.
    grid, traj, exact = solved("dephasing", 400)
    assert np.max(np.abs(traj.maps - exact)) <= DEPHASING_C * grid.h**2
    x = np.abs(exact[:, 1, 1])
    cp = x[1:] <= x[:-1]
    tie = np.abs(x[1:] - x[:-1]) <= 2.0 * DEPHASING_C * grid.h**2 + 2 * DEFAULT_EPS_CP
    statuses = np.array(divisibility_check(traj).statuses)
    assert np.array_equal(statuses[~tie], np.where(cp, "CP", "not-CP")[~tie])
    assert (~cp[~tie]).sum() >= 60 and tie.sum() <= 0.05 * grid.steps, (~cp).sum()
