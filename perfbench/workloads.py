"""The three benchmark workloads: seeded inputs, one op, and its output checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned.  A workload object is built from a seed
and a scratch directory; ``inputs`` is the cycle of op inputs, ``run_op``
performs one op and ``check`` returns a list of problems with its output
(empty when the output is correct).  Checks never time anything.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import gkslmap
from gkslmap import cli, cpanalysis, experiments, propagate
from gkslmap.kernel import GKSLKernel, TwoTimeOperatorFunction, save_kernel_spec
from gkslmap.linalg import random_hermitian, random_operator
from gkslmap.profiles import (
    ConstantProfile,
    ExpProfile,
    GaussianProfile,
    SeparableProfile,
    SingleVarFactor,
)
from gkslmap.serialize import canonical_dumps
from gkslmap.trajectory import MapTrajectory, TimeGrid

# ---------------------------------------------------------------------------
# the seeded corpus
#
# The corpus draws every continuous value the way ``gkslmap.random_kernel``
# does (profile rates and widths, operator norms, the Hermitian part), but
# its structure is a fixed stratified template instead of a per-kernel draw.
# The cost of an op is set almost entirely by the structure (dimension, jump
# operators, terms per operator, profile kinds), and random_kernel's
# structure draws spread per-op cost tenfold, so a per-seed structure draw
# moved a 16-kernel pass's throughput and median by 10-20% from seed to
# seed.  The template gives each (d, term layout) class of random_kernel its
# expected share of 16 kernels; profile kinds cycle through random_kernel's
# five kinds over the term slots.

_KINDS = ("constant", "decay", "oscillatory", "gaussian", "separable")

# terms per jump operator; per dimension these 8 layouts hold random_kernel's
# layout frequencies (1: 1/4, 1+1: 1/8, 2: 1/4, 1+2: 1/4, 2+2: 1/8)
_LAYOUTS = ((1,), (2,), (1, 2), (1, 1), (1,), (2,), (1, 2), (2, 2))


def _profile(kind: str, rng: np.random.Generator):
    if kind == "constant":
        return ConstantProfile(0.8 * np.exp(2j * np.pi * rng.uniform()))
    if kind == "decay":
        return ExpProfile(-rng.uniform(0.5, 1.5))
    if kind == "oscillatory":
        return ExpProfile(1j * rng.uniform(0.5, 1.5))
    if kind == "gaussian":
        return GaussianProfile(rng.uniform(0.8, 1.6))
    return SeparableProfile(
        SingleVarFactor("exp", rate=-rng.uniform(0.2, 0.8)),
        SingleVarFactor("gaussian", tau=rng.uniform(1.0, 2.0)),
    )


def corpus(seed: int) -> list:
    """16 seeded kernels, alternating d = 2 and d = 3 over the layout template."""
    rng = np.random.default_rng(seed)
    kernels = []
    slot = {2: 0, 3: 0}
    for layout in _LAYOUTS:
        for d in (2, 3):
            ops = []
            for n_terms in layout:
                terms = []
                for _ in range(n_terms):
                    prof = _profile(_KINDS[slot[d] % len(_KINDS)], rng)
                    slot[d] += 1
                    terms.append((prof, random_operator(rng, d, norm=rng.uniform(0.4, 0.6))))
                ops.append(TwoTimeOperatorFunction.build(d, terms))
            h = random_hermitian(rng, d, norm=rng.uniform(0.2, 0.4))
            herm = TwoTimeOperatorFunction.build(d, [(ConstantProfile(1.0), h)])
            kernels.append(GKSLKernel.build(d, hermitian=herm, jump_ops=tuple(ops), coupling=1.0))
    return kernels


# ---------------------------------------------------------------------------
# independent checks


def _choi_min_eig(superop: np.ndarray) -> float:
    """Smallest Choi eigenvalue, with the Choi matrix built from its definition
    C[(a,i),(b,j)] = S[a + d*b, i + d*j] rather than through gkslmap."""
    D = superop.shape[0]
    d = math.isqrt(D)
    c = np.empty((D, D), dtype=complex)
    for a in range(d):
        for i in range(d):
            for b in range(d):
                for j in range(d):
                    c[a * d + i, b * d + j] = superop[a + d * b, i + d * j]
    return float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])


def _trace_defect(maps: np.ndarray) -> float:
    d = math.isqrt(maps.shape[1])
    row = np.eye(d, dtype=complex).reshape(-1, order="F")
    return float(np.max(np.abs(np.einsum("mij,i->mj", maps, row) - row)))


def map_problems(maps: np.ndarray, steps: int, dim: int) -> list:
    """Invariants every trajectory satisfies whatever the seed."""
    D = dim * dim
    if maps.shape != (steps + 1, D, D):
        return [f"maps shape {maps.shape}, expected {(steps + 1, D, D)}"]
    out = []
    if not np.all(np.isfinite(maps)):
        out.append("non-finite map entries")
    elif not np.array_equal(maps[0], np.eye(D)):
        out.append("maps[0] is not the identity")
    elif _trace_defect(maps) > 1e-8:
        out.append(f"trace defect {_trace_defect(maps):.2e} > 1e-8")
    return out


def _sample_nodes(steps: int) -> list:
    return sorted({0, 1, steps // 3, steps // 2, steps})


def report_problems(maps, lambda_mins, verdicts, statuses, steps: int, divisibility: bool) -> list:
    """Node/interval counts and lambda_min against an independent eigvalsh."""
    out = []
    if len(verdicts) != steps + 1 or len(lambda_mins) != steps + 1:
        out.append(f"{len(verdicts)} node verdicts, expected {steps + 1}")
        return out
    if divisibility and (statuses is None or len(statuses) != steps):
        out.append(f"{len(statuses or ())} interval statuses, expected {steps}")
    for m in _sample_nodes(steps):
        ref = _choi_min_eig(maps[m])
        scale = max(1.0, float(np.linalg.norm(maps[m])))
        if not abs(ref - lambda_mins[m]) <= 1e-9 * scale:
            out.append(f"node {m}: lambda_min {lambda_mins[m]!r} vs eigvalsh {ref!r}")
    return out


# ---------------------------------------------------------------------------
# running one op


class Tally:
    """Attempts and failures of every checked op (warm-up, timed, reference)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems, what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"# FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def run_checked(workload, inp, tally: Tally, what: str):
    """One op, timed, then checked outside the timing; returns (seconds, ok)."""
    t0 = time.perf_counter()
    try:
        out = workload.run_op(inp)
        problems = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        problems = [f"{type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    if problems is None:
        try:
            problems = workload.check(inp, out)
        except Exception as exc:  # unreadable output fails the op
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return dt, tally.record(problems, what)


# ---------------------------------------------------------------------------
# workloads


class CorpusLocal:
    """solve_family(k, T=2 M=400, "local-full") then certify_trajectory, no divisibility."""

    grid = TimeGrid(2.0, 400)
    family = "local-full"

    def __init__(self, seed: int, workdir: Path):
        self.inputs = corpus(seed)

    def run_op(self, k):
        traj = propagate.solve_family(k, self.grid, self.family)
        report = cpanalysis.certify_trajectory(traj)
        return traj, report

    def check(self, k, out) -> list:
        traj, report = out
        steps = self.grid.steps
        problems = map_problems(traj.maps, steps, k.dim)
        if problems:
            return problems
        return report_problems(
            traj.maps, report.lambda_mins, report.verdicts, None, steps, divisibility=False
        )

    def reference_problems(self) -> list:
        """Direct route against the drift-frame transform route (criterion 3)."""
        out = []
        for k in self.inputs[:2]:
            direct = propagate.solve_local(k, self.grid)
            framed = propagate.solve_local_full_via_transform(k, self.grid)
            gap = float(np.max(np.linalg.norm(direct.maps - framed.maps, axis=(1, 2))))
            if not gap <= 1e-6:
                out.append(f"d={k.dim}: direct vs transform distance {gap:.2e} > 1e-6")
        return out


class GscanNonlocal:
    """g_scan(k, T=2 M=200) over configs/gscan.json's couplings and family pair."""

    grid = TimeGrid(2.0, 200)
    g_list = (0.05, 0.08, 0.13, 0.2, 0.3, 0.4)
    pair = ("nonlocal-full", "weak-nonlocal-full")

    def __init__(self, seed: int, workdir: Path):
        self.inputs = corpus(seed)[:8]  # every layout but 2+2, both dimensions

    def run_op(self, k):
        return experiments.g_scan(k, self.grid, self.g_list, pair=self.pair)

    def check(self, k, result) -> list:
        out = []
        if result.failures:
            out.append(f"{len(result.failures)} failed scan points: {result.failures[0][1]}")
        if tuple(result.g_values) != self.g_list:
            out.append(f"scan points {result.g_values}, expected {self.g_list}")
        dist = np.asarray(result.distances, dtype=float)
        if not (np.all(np.isfinite(dist)) and np.all(dist > 0)):
            out.append(f"distances not finite and positive: {result.distances}")
        if not math.isfinite(result.slope):
            out.append(f"slope {result.slope!r}")
        return out


class CliPipeline:
    """cli.main solve (nonlocal-full, 800 steps) then certify --divisibility.

    Inputs alternate seeded d = 2 and d = 3 kernel documents and end the
    cycle with the shipped tabulated revival kernel at T = 4.
    """

    steps = 800
    family = "nonlocal-full"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.out = None  # the output directory of the latest op
        self.ops = 0
        kernels = corpus(seed)
        self.inputs = []
        for i, k in enumerate(kernels[2:6]):  # layouts 2 and 1+2, d = 2, 3, 2, 3
            path = workdir / f"kernel-{i}-d{k.dim}.json"
            path.write_text(canonical_dumps(save_kernel_spec(k)) + "\n")
            self.inputs.append((str(path), 2.0, k.dim))
        revival = Path(gkslmap.__file__).resolve().parents[2] / "configs" / "coherence_revival.json"
        self.inputs.append((str(revival), 4.0, 2))

    def run_op(self, inp):
        path, horizon, _dim = inp
        self.out = self.workdir / f"out-{self.ops}"
        self.ops += 1
        out = str(self.out)
        solve = cli.main([
            "solve", "--kernel", path, "--T", repr(horizon), "--steps", str(self.steps),
            "--family", self.family, "--out", out,
        ])
        if solve != 0:
            return solve, None
        certify = cli.main([
            "certify", "--trajectory", str(self.out / "trajectory.json"),
            "--divisibility", "--out", out,
        ])
        return solve, certify

    def check(self, inp, codes) -> list:
        try:
            return self._problems(inp, codes)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _problems(self, inp, codes) -> list:
        solve, certify = codes
        if solve != 0:
            return [f"solve exited {solve}"]
        if certify not in (0, 1):
            return [f"certify exited {certify}"]
        _path, horizon, dim = inp
        traj_doc = json.loads((self.out / "trajectory.json").read_text())
        rep = json.loads((self.out / "cp_report.json").read_text())
        traj = MapTrajectory.from_doc(traj_doc)
        out = []
        if (traj.dim, traj.family, traj.grid.steps, traj.grid.T) != (
            dim, self.family, self.steps, horizon
        ):
            out.append(f"trajectory header {traj.dim}, {traj.family}, {traj.grid}")
            return out
        for m in (0, self.steps):
            flat = [[z.real, z.imag] for z in traj.maps[m].reshape(-1)]
            if flat != traj_doc["maps"][m]:
                out.append(f"maps[{m}] does not round-trip through from_doc")
        out += map_problems(traj.maps, self.steps, dim)
        if out:
            return out
        div = rep.get("divisibility") or {}
        out += report_problems(
            traj.maps, rep["lambda_min"], rep["verdict"], div.get("status"),
            self.steps, divisibility=True,
        )
        violation = (not rep["all_cp"]) or (not div.get("all_cp", False))
        if certify != int(violation):
            out.append(f"certify exited {certify} but the report says violation={violation}")
        out += _csv_problems(self.out / "trajectory.csv", self.steps + 1, 3)
        out += _csv_problems(self.out / "cp_report.csv", self.steps + 1, 5)
        return out


def _csv_problems(path: Path, rows: int, cols: int) -> list:
    with path.open(newline="") as fh:
        body = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if len(body) != rows + 1 or any(len(r) != cols for r in body):
        return [f"{path.name}: {len(body) - 1} rows, expected {rows} of {cols} columns"]
    return []


WORKLOADS = {
    "corpus-local": CorpusLocal,
    "gscan-nonlocal": GscanNonlocal,
    "cli-pipeline": CliPipeline,
}
