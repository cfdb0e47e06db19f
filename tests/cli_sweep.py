"""Command-line sweep for comparing two checkouts byte for byte.

Runs every subcommand of the ``gkslmap`` in this checkout's ``src`` on the
shipped configs and on single-fault inputs.  Each case's artifacts land in
``OUTDIR/runs/<case>/`` and its exit code, stdout and stderr in
``OUTDIR/logs/<case>.txt``.  Every path handed to the command line is
relative to OUTDIR (the configs are copied there first), so provenance
blocks do not depend on where the checkout lives.  Compare two checkouts
with::

    python tests/cli_sweep.py /tmp/sweep-a      # in checkout A
    python tests/cli_sweep.py /tmp/sweep-b      # in checkout B
    diff -r /tmp/sweep-a /tmp/sweep-b

A change that reorders floating-point sums leaves the artifacts close but not
byte-identical.  For it, ``python tests/cli_sweep.py --compare A B`` requires,
for the cases both sweeps ran, identical logs (exit codes, stdout, stderr),
the same set of JSON and CSV artifacts, certify verdicts (``all_cp``,
per-node verdicts, divisibility statuses), g-scan couplings and trajectory
``meta`` keys and non-numeric entries, and byte-identical CSV artifacts
wherever their JSON twin is byte-identical.  It prints the worst relative
map difference and the worst relative difference of the numeric ``meta``
entries (with its key) per trajectory family and, per g-scan, the worst
absolute distance difference, the scan's largest distance and their ratio (a
scan whose distances are all at rounding level can show a large ratio for a
tiny absolute change).  A case only one sweep ran (its log, and the run
directory holding its artifacts) is listed as added (only in B) or removed
(only in A), not as a difference.  It exits 1 when anything required differs.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import copy
import io
import json
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gkslmap.cli import main  # noqa: E402

# spelled out, not imported, so that both checkouts run the same cases
FAMILIES = (
    "local-full", "local-jump", "local-drift", "nonlocal-full", "nonlocal-jump",
    "nonlocal-drift", "series-local-jump", "series-nonlocal-jump", "series-local-full",
    "weak-local-drift", "weak-nonlocal-full", "series", "weak",
)
KERNELS = ("dephasing_kernel", "coherence_revival", "convolution_dephasing", "gscan_kernel")
DRIFTS = ("diagonal_drift", "sigma_plus_drift", "sigma_x_drift")


def run(case: str, *argv: str) -> None:
    """Run ``gkslmap argv`` in-process and log its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help, --version and argparse errors
            code = exc.code
    log = f"argv: {' '.join(argv)}\nexit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n"
    Path("logs", f"{case}.txt").write_text(log + err.getvalue())


def write_fault(name: str, doc) -> str:
    path = Path("faults", f"{name}.json")
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def edited(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


def main_sweep(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=False)
    shutil.copytree(ROOT / "configs", outdir / "configs")
    os.chdir(outdir)
    os.environ["COLUMNS"] = "100"  # fixes argparse's help layout
    for d in ("logs", "runs", "faults"):
        Path(d).mkdir()

    run("help", "--help")
    run("version", "--version")
    for cmd in ("solve", "certify", "gscan", "counterexample", "convolution", "validate"):
        run(f"help-{cmd}", cmd, "--help")

    solved = (("dephasing_kernel", ()), ("coherence_revival", ("--T", "4")), ("gscan_kernel", ()))
    for config, extra in solved:
        for fam in FAMILIES:
            case = f"{config}-{fam}"
            run(f"solve-{case}", "solve", "--kernel", f"configs/{config}.json", *extra,
                "--family", fam, "--out", f"runs/{case}")
            run(f"certify-{case}", "certify", "--trajectory", f"runs/{case}/trajectory.json",
                "--divisibility", "--out", f"runs/{case}")
    run("gscan", "gscan", "--config", "configs/gscan.json", "--out", "runs/gscan")
    for case, pair, extra in (
        ("gscan-weak-local", "local-drift,weak-local-drift", ()),
        ("gscan-series", "local-full,series-local-full", ("--g-list", "0.2,0.4,0.8,1.6")),
        ("gscan-order-0", "local-full,series-local-full", ("--order", "0")),
        ("gscan-map", "nonlocal-full,local-full", ()),
        ("gscan-series-nonlocal", "nonlocal-jump,series-nonlocal-jump", ()),
    ):
        run(case, "gscan", "--config", "configs/gscan.json", "--pair", pair, *extra,
            "--out", f"runs/{case}")
    for config in DRIFTS + ("dephasing_kernel",):
        run(f"counterexample-{config}", "counterexample", "--kernel", f"configs/{config}.json",
            "--out", f"runs/counterexample-{config}")
    run("convolution", "convolution", "--kernel", "configs/convolution_dephasing.json",
        "--out", "runs/convolution")
    for path in sorted(Path("configs").glob("*.json")):
        run(f"validate-{path.stem}", "validate", "--kernel", str(path))
    traj_path = "runs/dephasing_kernel-local-full/trajectory.json"
    run("validate-trajectory", "validate", "--kernel", traj_path)

    # documents of a kind the command does not take
    for cmd in ("solve", "gscan", "convolution"):
        extra = ("--g-list", "0.1,0.2,0.4,0.8") if cmd == "gscan" else ()
        for kind, path in (("drift", "configs/sigma_x_drift.json"), ("trajectory", traj_path)):
            case = f"wrong-kind-{cmd}-{kind}"
            run(case, cmd, "--kernel", path, *extra, "--out", f"runs/{case}")
    run("wrong-kind-counterexample-trajectory", "counterexample", "--kernel", traj_path,
        "--out", "runs/wrong-kind-counterexample-trajectory")
    run("wrong-kind-certify-kernel", "certify", "--trajectory", "configs/dephasing_kernel.json",
        "--out", "runs/wrong-kind-certify-kernel")

    # single-fault kernel, drift and trajectory documents
    kernel = json.loads(Path("configs/dephasing_kernel.json").read_text())
    drift = json.loads(Path("configs/sigma_x_drift.json").read_text())
    traj = json.loads(Path(traj_path).read_text())
    term = ("lindblad", 0, 0)

    def at(doc, path):
        for key in path:
            doc = doc[key]
        return doc

    faults = {
        "kernel-not-an-object": [kernel],
        "kernel-dim-float": edited(kernel, lambda d: d.update(dim=2.0)),
        "kernel-dim-missing": edited(kernel, lambda d: d.pop("dim")),
        "kernel-coupling-bool": edited(kernel, lambda d: d.update(coupling_g=True)),
        "kernel-coupling-nan": edited(kernel, lambda d: d.update(coupling_g=float("nan"))),
        "kernel-kappa-bool": edited(kernel, lambda d: at(d, term)["profile"].update(kappa=True)),
        "kernel-entry-bool": edited(
            kernel, lambda d: at(d, term)["operator"]["entries"].__setitem__(1, [True, False])),
        "kernel-entries-all-bool": edited(
            kernel, lambda d: at(d, term)["operator"].update(entries=[[True, False]] * 4)),
        "kernel-entry-nan": edited(
            kernel, lambda d: at(d, term)["operator"]["entries"][3].__setitem__(1, float("nan"))),
        "kernel-operator-dim-bool": edited(
            kernel, lambda d: at(d, term)["operator"].update(dim=True)),
        "kernel-unknown-key": edited(kernel, lambda d: d.update(lindbald=d.pop("lindblad"))),
        "term-unknown-key": edited(kernel, lambda d: at(d, term).update(weight=1.0)),
        "profile-unknown-key": edited(kernel, lambda d: at(d, term)["profile"].update(omgea=2.0)),
        "factor-unknown-key": edited(kernel, lambda d: at(d, term).update(profile={
            "kind": "product-separable",
            "f": {"kind": "exponential-decay", "kappa": 1.0, "tau": 1.0},
            "g": {"kind": "constant"},
        })),
        "drift-unknown-key": edited(drift, lambda d: d.update(coupling_g=1.0)),
        "drift-value-bool": edited(drift, lambda d: d["drift"][0]["profile"].update(value=True)),
        "trajectory-dim-float": edited(traj, lambda d: d.update(dim=2.7)),
        "trajectory-dim-string": edited(traj, lambda d: d.update(dim="2")),
        "trajectory-steps-float": edited(traj, lambda d: d["grid"].update(steps=400.9)),
        "trajectory-steps-bool": edited(traj, lambda d: d["grid"].update(steps=True)),
        "trajectory-T-bool": edited(traj, lambda d: d["grid"].update(T=True)),
        "trajectory-T-string": edited(traj, lambda d: d["grid"].update(T="2.0")),
        "trajectory-entry-bool": edited(traj, lambda d: d["maps"][1].__setitem__(0, [True, False])),
        "trajectory-entry-nan": edited(
            traj, lambda d: d["maps"][2].__setitem__(5, [0.0, float("nan")])),
        "trajectory-grid-list": edited(traj, lambda d: d.update(grid=[2.0, 400])),
        "trajectory-meta-list": edited(traj, lambda d: d.update(meta=[])),
    }
    for name, doc in faults.items():
        path = write_fault(name, doc)
        run(f"fault-validate-{name}", "validate", "--kernel", path)
        if name.startswith("trajectory"):
            run(f"fault-certify-{name}", "certify", "--trajectory", path,
                "--out", f"runs/fault-{name}")
        else:
            cmd = "counterexample" if name.startswith("drift") else "solve"
            run(f"fault-{cmd}-{name}", cmd, "--kernel", path, "--steps", "20",
                "--out", f"runs/fault-{name}")
    Path("faults", "not-json.json").write_text("{\"dim\": 2,\n")
    run("fault-validate-not-json", "validate", "--kernel", "faults/not-json.json")
    run("fault-solve-missing-file", "solve", "--kernel", "faults/nope.json", "--out", "runs/x")
    run("fault-solve-no-kernel", "solve", "--out", "runs/x")
    run("fault-solve-horizon", "solve", "--kernel", "configs/coherence_revival.json",
        "--T", "5", "--out", "runs/x")
    run("fault-convolution-general", "convolution", "--kernel", "configs/gscan_kernel.json",
        "--out", "runs/x")

    # single-fault run configs
    base = {"kernel": "../configs/dephasing_kernel.json", "T": 0.5, "steps": 10,
            "g_list": [0.1, 0.2, 0.4, 0.8]}
    configs = {
        "g-list-bool": {"g_list": [True, 2, 4, 8]},
        "g-list-object": {"g_list": [{}]},
        "g-list-string-nan": {"g_list": "nan,0.1,0.2"},
        "steps-bool": {"steps": True},
        "T-bool": {"T": True},
        "order-list": {"order": [1]},
        "eps-cp-negative": {"eps_cp": -1},
        "unknown-key": {"bogus": 1},
        "pair-one": {"pair": "local-full"},
        "family-unknown": {"family": "sideways"},
    }
    for name, change in configs.items():
        path = write_fault(f"config-{name}", {**base, **change})
        for cmd in ("solve", "gscan"):
            run(f"config-{cmd}-{name}", cmd, "--config", path, "--out", f"runs/config-{name}")
    for name in KERNELS:  # the shipped kernels solve with config-file defaults too
        path = write_fault(f"config-ok-{name}", {"kernel": f"../configs/{name}.json",
                                                 "steps": 40, "family": "nonlocal-full"})
        run(f"config-solve-ok-{name}", "solve", "--config", path, "--out", f"runs/config-ok-{name}")

    # a coupling strong enough on a coarse grid that the Volterra step
    # matrices leave their series bounds and are inverted
    strong = write_fault("strong-coupling", edited(kernel, lambda d: d.update(coupling_g=5.0)))
    for fam in ("nonlocal-full", "weak-nonlocal-full"):
        run(f"solve-strong-coupling-{fam}", "solve", "--kernel", strong, "--steps", "20",
            "--family", fam, "--out", f"runs/strong-coupling-{fam}")

    # a coupling at which the drift frame overflows: each solve exits 3 with
    # one JSON error line, and a scan fails only its singular coupling
    diverging = write_fault("diverging-coupling",
                            edited(kernel, lambda d: d.update(coupling_g=30.0)))
    for fam in ("weak-local-drift", "weak-nonlocal-full"):
        run(f"solve-diverging-coupling-{fam}", "solve", "--kernel", diverging, "--steps", "20",
            "--family", fam, "--out", f"runs/diverging-coupling-{fam}")
    run("gscan-singular-coupling", "gscan", "--kernel", "configs/dephasing_kernel.json",
        "--steps", "40", "--g-list", "1,2,5,10,100", "--out", "runs/gscan-singular-coupling")


# the JSON artifact a CSV artifact is written from, where its stem differs
CSV_TWINS = {"convolution_full.csv": "convolution.json"}


def meta_gap(x: dict, y: dict):
    """(worst relative difference, its key) over the numeric entries of two meta blocks,
    or None when their keys or non-numeric entries differ."""
    if x.keys() != y.keys():
        return None
    worst = (0.0, None)
    for key in x:
        if isinstance(x[key], (str, bool)) or isinstance(y[key], (str, bool)):
            if x[key] != y[key]:
                return None
            continue
        vx, vy = np.array(x[key], dtype=float), np.array(y[key], dtype=float)
        if vx.shape != vy.shape:
            return None
        scale = np.maximum(np.abs(vx), np.abs(vy))
        rel = float(np.max(np.abs(vx - vy) / np.where(scale > 0.0, scale, 1.0), initial=0.0))
        if rel > worst[0]:
            worst = (rel, key)
    return worst


def compare(a: Path, b: Path) -> int:
    """Compare two sweeps: logs, certify verdicts and g lists must match; report gaps."""
    bad, changed = [], []
    logs = [{p.name for p in (root / "logs").iterdir()} for root in (a, b)]
    for log in sorted(logs[0] & logs[1]):
        if (a / "logs" / log).read_text() != (b / "logs" / log).read_text():
            bad.append(f"log {log}")
    runs = [{p.relative_to(root) for ext in ("json", "csv") for p in root.glob(f"runs/*/*.{ext}")}
            for root in (a, b)]
    dirs = [{p.parts[1] for p in side} for side in runs]
    for word, side, mine, other in (("removed", a, 0, 1), ("added", b, 1, 0)):
        changed.extend(f"{word} case {Path(log).stem}" for log in sorted(logs[mine] - logs[other]))
        for path in sorted(runs[mine] - runs[other]):
            if path.parts[1] in dirs[other]:  # a run both sweeps made, short of a file
                bad.append(f"only in {side}: {path}")
            else:
                changed.append(f"{word} artifact {path}")
    for path in sorted(a / p for p in runs[0] & runs[1] if p.suffix == ".csv"):
        twin = path.with_name(CSV_TWINS.get(path.name, path.stem + ".json"))
        if (b / path.relative_to(a)).read_bytes() != path.read_bytes() and (
                not twin.exists() or (b / twin.relative_to(a)).read_bytes() == twin.read_bytes()):
            bad.append(f"csv {path.relative_to(a)} (its JSON twin is identical)")
    gaps, meta_gaps, scan_gaps = {}, {}, {}
    for path in sorted(a / p for p in runs[0] & runs[1] if p.suffix == ".json"):
        x, y = (json.loads(p.read_text()) for p in (path, b / path.relative_to(a)))
        if path.name == "cp_report.json":
            div = (x.get("divisibility") or {}, y.get("divisibility") or {})
            if (x["all_cp"], x["verdict"], div[0].get("all_cp"), div[0].get("status")) != (
                    y["all_cp"], y["verdict"], div[1].get("all_cp"), div[1].get("status")):
                bad.append(f"verdicts {path.parent.name}")
        elif path.name == "trajectory.json":
            mx, my = (np.array(d["maps"], dtype=float) for d in (x, y))
            gap = float(np.max(np.abs(mx - my)) / np.max(np.abs(mx)))
            gaps[x["family"]] = max(gaps.get(x["family"], 0.0), gap)
            meta = meta_gap(x["meta"], y["meta"])
            if meta is None:
                bad.append(f"meta {path.parent.name}")
            else:
                meta_gaps[x["family"]] = max(meta_gaps.get(x["family"], meta), meta,
                                             key=lambda g: g[0])
        elif path.name == "gscan.json":
            if x["g"] != y["g"]:
                bad.append(f"g list {path.parent.name}")
                continue
            dx, dy = (np.array(d["distance"], dtype=float) for d in (x, y))
            gap, top = float(np.max(np.abs(dx - dy))), float(np.max(dx))
            scan_gaps[path.parent.name] = (gap, top, gap / top if top > 0.0 else gap)
    for family, gap in sorted(gaps.items()):
        rel, key = meta_gaps.get(family, (0.0, None))
        print(f"{family:22s} worst relative map difference {gap:.2e}, "
              f"meta {rel:.2e}" + (f" ({key})" if key else ""))
    for case, (gap, top, rel) in sorted(scan_gaps.items()):
        print(f"{case:22s} worst distance difference {gap:.2e}, largest distance {top:.2e}, "
              f"ratio {rel:.2e}")
    for item in changed:
        print(item)
    for item in bad:
        print(f"DIFFERS: {item}")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_sweep.py OUTDIR | --compare OUTDIR_A OUTDIR_B")
    main_sweep(Path(sys.argv[1]).resolve())
