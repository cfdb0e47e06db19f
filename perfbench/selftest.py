"""Self-test of the output checks: corrupted outputs must count as failed ops.

Runs each workload's op on a small grid, confirms the clean output passes,
then corrupts it (a NaN in a map, a missing node, a failed scan point, a
truncated CLI report) and confirms the op is tallied as failed.  Run it with
``python3 perfbench/run.py --self-test``; it exits non-zero on the first
corruption that slips through.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads
from gkslmap.trajectory import TimeGrid


class Corrupted:
    """A workload whose op output is passed through ``corrupt`` before the check."""

    def __init__(self, inner, corrupt):
        self.inner = inner
        self.inputs = inner.inputs
        self.corrupt = corrupt

    def run_op(self, inp):
        return self.corrupt(self.inner.run_op(inp))

    def check(self, inp, out):
        return self.inner.check(inp, out)


def _nan_map(out):
    traj, report = out
    maps = traj.maps.copy()
    maps[3, 0, 1] = np.nan
    return dataclasses.replace(traj, maps=maps), report


def _missing_node(out):
    traj, report = out
    return traj, dataclasses.replace(
        report, verdicts=report.verdicts[:-1], lambda_mins=report.lambda_mins[:-1]
    )


def _failed_point(result):
    return dataclasses.replace(result, failures=((0.4, "injected"),))


def _cli_missing_interval(workload):
    def corrupt(codes):
        path = workload.out / "cp_report.json"
        doc = json.loads(path.read_text())
        doc["divisibility"]["status"].pop()
        path.write_text(json.dumps(doc))
        return codes

    return corrupt


def _cli_nan_map(workload):
    def corrupt(codes):
        path = workload.out / "trajectory.json"
        doc = json.loads(path.read_text())
        doc["maps"][5][0] = [float("nan"), 0.0]
        path.write_text(json.dumps(doc))
        return codes

    return corrupt


def main() -> int:
    scratch_root = Path(__file__).resolve().parent.parent / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch_root))
    try:
        local = workloads.CorpusLocal(5, scratch)
        local.grid = TimeGrid(2.0, 40)
        scan = workloads.GscanNonlocal(5, scratch)
        scan.grid = TimeGrid(2.0, 40)
        shell = workloads.CliPipeline(5, scratch)
        shell.steps = 40
        cases = [
            ("corpus-local clean", local, True),
            ("corpus-local NaN in a map", Corrupted(local, _nan_map), False),
            ("corpus-local missing node", Corrupted(local, _missing_node), False),
            ("gscan-nonlocal clean", scan, True),
            ("gscan-nonlocal failed point", Corrupted(scan, _failed_point), False),
            ("cli-pipeline clean", shell, True),
            ("cli-pipeline missing interval", Corrupted(shell, _cli_missing_interval(shell)), False),
            ("cli-pipeline NaN in a map", Corrupted(shell, _cli_nan_map(shell)), False),
        ]
        status = 0
        for what, workload, expect_ok in cases:
            tally = workloads.Tally()
            workloads.run_checked(workload, workload.inputs[1], tally, what)
            counted_ok = tally.failed == 0
            verdict = "ok" if counted_ok == expect_ok else "WRONG"
            print(f"{verdict:5s} {what}: attempted {tally.attempted}, failed {tally.failed}")
            if counted_ok != expect_ok:
                status = 1
        return status
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
