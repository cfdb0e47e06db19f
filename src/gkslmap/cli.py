"""Command-line surface: solve, certify, gscan, counterexample, convolution, validate.

Exit codes separate science from plumbing: 0 means success (and, for the
certification-style commands, "no CP violation"); 1 means a violation was
found — a result, not a crash; 2 is a configuration error; 3 is a solver
failure.  Machine-readable error JSON goes to standard error, result files
are written atomically, and every output embeds the tool version plus a hash
of the resolved configuration, so identical configs reproduce byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cpanalysis import certify_trajectory, find_drift_cp_witness, trace_deviation
from .experiments import convolution_case, g_scan
from .kernel import (
    GKSLKernel,
    load_drift_spec,
    load_kernel_spec,
    split_kernel,
)
from .propagate import solve_family
from .serialize import (
    atomic_write_text,
    canonical_dumps,
    complex_to_doc,
    config_hash,
    is_finite_number,
)
from .trajectory import FAMILY_TAGS, MapTrajectory, TimeGrid, trajectory_csv

__all__ = ["main"]

_FAMILY_ALIASES = {"series": "series-local-jump", "weak": "weak-nonlocal-full"}
_FAMILY_CHOICES = tuple(sorted(FAMILY_TAGS + tuple(_FAMILY_ALIASES)))

_DEFAULTS = {
    "T": 2.0,
    "steps": 400,
    "family": "local-full",
    "order": 8,
    "eps_cp": 1e-8,
    "seed": 7,
    "out": ".",
    "pair": "nonlocal-full,weak-nonlocal-full",
    "divisibility": False,
}

# config-file keys and the JSON types each accepts
_CONFIG_KEYS = {
    "kernel": (str,),
    "trajectory": (str,),
    "T": (int, float),
    "steps": (int,),
    "family": (str,),
    "order": (int,),
    "eps_cp": (int, float),
    "seed": (int,),
    "out": (str,),
    "g_list": (str, list),
    "pair": (str, list),
    "divisibility": (bool,),
}


class ConfigError(Exception):
    """Anything wrong with inputs before solving starts (exit 2)."""


class SolverError(Exception):
    """Numerical failure while solving (exit 3)."""


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(canonical_dumps({"error": {"type": kind, "message": message}}) + "\n")


def _read_json(path: str):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _merge_config(args: argparse.Namespace, keys) -> dict:
    """Resolve option values: command line beats config file beats defaults."""
    file_conf = {}
    if getattr(args, "config", None):
        doc = _read_json(args.config)
        if not isinstance(doc, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        unknown = set(doc) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys {sorted(unknown)}")
        base = Path(args.config).parent
        for key, val in doc.items():
            if type(val) not in _CONFIG_KEYS[key]:  # bool is an int to isinstance
                names = " or ".join(t.__name__ for t in _CONFIG_KEYS[key])
                raise ConfigError(f"{args.config}: {key}: expected {names}, got {val!r}")
            if key in ("kernel", "trajectory", "out") and not Path(val).is_absolute():
                val = str(base / val)
            file_conf[key] = val
    resolved = {}
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_conf:
            resolved[key] = file_conf[key]
        elif key in _DEFAULTS:
            resolved[key] = _DEFAULTS[key]
        else:
            resolved[key] = None
    eps = resolved.get("eps_cp")
    if eps is not None and not (is_finite_number(eps) and eps >= 0):
        raise ConfigError(f"eps_cp: expected a finite number >= 0, got {eps!r}")
    return resolved


def _grid_of(conf: dict) -> TimeGrid:
    try:
        return TimeGrid(float(conf["T"]), int(conf["steps"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grid parameters: {exc}") from exc


def _resolve_family(name) -> str:
    """Family tag for a tag or an alias; anything else is a config error."""
    fam = _FAMILY_ALIASES.get(name, name) if isinstance(name, str) else None
    if fam not in FAMILY_TAGS:
        raise ConfigError(f"unknown family {name!r}")
    return fam


def _load_kernel(conf: dict, grid: TimeGrid) -> GKSLKernel:
    """The kernel file of ``conf``, checked to cover the grid's horizon."""
    if not conf.get("kernel"):
        raise ConfigError("a kernel file is required (--kernel)")
    doc = _read_json(conf["kernel"])
    try:
        k = load_kernel_spec(doc)
    except ValueError as exc:
        raise ConfigError(f"{conf['kernel']}: {exc}") from exc
    try:
        k.check_horizon(grid.T)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return k


def _load_kernel_or_drift(conf: dict):
    """Kernel documents and raw drift documents are both accepted where only
    the drift operator matters; kernels contribute their derived W."""
    if not conf.get("kernel"):
        raise ConfigError("a kernel or drift file is required (--kernel)")
    doc = _read_json(conf["kernel"])
    if isinstance(doc, dict) and "drift" in doc:
        try:
            return load_drift_spec(doc)
        except ValueError as exc:
            raise ConfigError(f"{conf['kernel']}: {exc}") from exc
    try:
        k = load_kernel_spec(doc)
    except ValueError as exc:
        raise ConfigError(f"{conf['kernel']}: {exc}") from exc
    return split_kernel(k).drift_op


def _provenance(conf: dict) -> dict:
    # The output directory is plumbing, not configuration: identical runs
    # into different directories must produce byte-identical files.
    clean = {k: v for k, v in conf.items() if v is not None and k != "out"}
    return {
        "tool": "gkslmap",
        "version": __version__,
        "config_hash": config_hash(clean),
        "config": clean,
    }


def _write_json(out_dir: str, name: str, doc: dict) -> None:
    atomic_write_text(Path(out_dir) / name, canonical_dumps(doc) + "\n")


def _write_csv(out_dir: str, name: str, text: str, prov: dict) -> None:
    header = f"# gkslmap {prov['version']} config_hash={prov['config_hash']}\n"
    atomic_write_text(Path(out_dir) / name, header + text)


def _run_solver(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        raise SolverError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args) -> int:
    conf = _merge_config(args, ["kernel", "T", "steps", "family", "order", "eps_cp", "seed", "out"])
    grid = _grid_of(conf)
    family = _resolve_family(conf["family"])
    conf["family"] = family
    k = _load_kernel(conf, grid)
    traj = _run_solver(solve_family, k, grid, family, order=int(conf["order"]))
    finite = np.isfinite(traj.maps).all(axis=(1, 2))
    if not finite.all():
        first = float(traj.grid.nodes()[np.argmin(finite)])
        raise SolverError(f"{family} solve produced non-finite map entries (first at t = {first!r})")
    prov = _provenance(conf)
    doc = traj.to_doc()
    doc["provenance"] = prov
    _write_json(conf["out"], "trajectory.json", doc)
    norms = np.linalg.norm(traj.maps, axis=(1, 2))
    csv = trajectory_csv(traj, {"map_norm": norms, "trace_dev": trace_deviation(traj.maps)})
    _write_csv(conf["out"], "trajectory.csv", csv, prov)
    return 0


def _cmd_certify(args) -> int:
    conf = _merge_config(args, ["trajectory", "eps_cp", "divisibility", "seed", "out"])
    if not conf.get("trajectory"):
        raise ConfigError("a trajectory file is required (--trajectory)")
    doc = _read_json(conf["trajectory"])
    try:
        traj = MapTrajectory.from_doc(doc)
    except ValueError as exc:
        raise ConfigError(f"{conf['trajectory']}: {exc}") from exc
    report = _run_solver(
        certify_trajectory,
        traj,
        eps_cp=float(conf["eps_cp"]),
        divisibility=bool(conf["divisibility"]),
    )
    prov = _provenance(conf)
    rdoc = report.to_doc()
    rdoc["provenance"] = prov
    violation = not report.all_cp
    if report.first_violation is not None:
        i = report.first_violation
        rdoc["witness"] = {"node": i, "t": report.times[i], "lambda_min": report.lambda_mins[i]}
    if report.divisibility is not None and not report.divisibility.all_cp:
        violation = True
        viols = report.divisibility.violations
        if viols:
            i = viols[0]
            rdoc["divisibility_witness"] = {
                "interval": [i, i + 1],
                "t": list(report.times[i : i + 2]),
                "lambda_min": report.divisibility.lambda_mins[i],
            }
    _write_json(conf["out"], "cp_report.json", rdoc)
    _write_csv(conf["out"], "cp_report.csv", report.csv_text(), prov)
    return 1 if violation else 0


def _cmd_gscan(args) -> int:
    conf = _merge_config(args, ["kernel", "T", "steps", "g_list", "pair", "order", "seed", "out"])
    grid = _grid_of(conf)
    k = _load_kernel(conf, grid)
    raw = conf.get("g_list")
    if isinstance(raw, str):
        try:
            gs = [float(x) for x in raw.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"--g-list: {exc}") from exc
    elif isinstance(raw, list):
        try:
            gs = [float(x) for x in raw]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"g_list: {exc}") from exc
    else:
        raise ConfigError("a g list is required (--g-list)")
    pair = conf["pair"].split(",") if isinstance(conf["pair"], str) else list(conf["pair"])
    if len(pair) != 2:
        raise ConfigError(f"pair must name two families, got {pair!r}")
    pair = [_resolve_family(p) for p in pair]
    result = _run_solver(g_scan, k, grid, gs, pair=tuple(pair), order=int(conf["order"]))
    prov = _provenance(conf)
    doc = result.to_doc()
    doc["provenance"] = prov
    _write_json(conf["out"], "gscan.json", doc)
    _write_csv(conf["out"], "gscan.csv", result.csv_text(), prov)
    return 0


def _cmd_counterexample(args) -> int:
    conf = _merge_config(args, ["kernel", "T", "steps", "eps_cp", "seed", "out"])
    grid = _grid_of(conf)
    w = _load_kernel_or_drift(conf)
    witness = _run_solver(find_drift_cp_witness, w, grid, eps_cp=float(conf["eps_cp"]))
    prov = _provenance(conf)
    doc = {"kind": "cp-witness", "witness": None, "provenance": prov}
    if witness is not None:
        psi, phi = complex_to_doc(witness.psi), complex_to_doc(witness.phi)
        doc["witness"] = {**vars(witness), "psi": psi, "phi": phi}
    _write_json(conf["out"], "witness.json", doc)
    return 0 if witness is None else 1


def _cmd_convolution(args) -> int:
    conf = _merge_config(args, ["kernel", "T", "steps", "eps_cp", "seed", "out"])
    grid = _grid_of(conf)
    k = _load_kernel(conf, grid)
    if not k.is_convolution:
        raise ConfigError("kernel profiles are not all convolution-type")
    result = _run_solver(convolution_case, k, grid, eps_cp=float(conf["eps_cp"]))
    prov = _provenance(conf)
    doc = result.to_doc()
    doc["provenance"] = prov
    _write_json(conf["out"], "convolution.json", doc)
    _write_csv(conf["out"], "convolution_full.csv", result.full_report.csv_text(), prov)
    return 0 if result.full_cp else 1


def _cmd_validate(args) -> int:
    conf = _merge_config(args, ["kernel"])
    if not conf.get("kernel"):
        raise ConfigError("a file to validate is required (--kernel)")
    doc = _read_json(conf["kernel"])
    try:
        if isinstance(doc, dict) and doc.get("kind") == "map-trajectory":
            traj = MapTrajectory.from_doc(doc)
            summary = {
                "valid": True,
                "kind": "map-trajectory",
                "dim": traj.dim,
                "family": traj.family,
                "steps": traj.grid.steps,
            }
        elif isinstance(doc, dict) and "drift" in doc:
            w = load_drift_spec(doc)
            summary = {"valid": True, "kind": "drift", "dim": w.dim, "terms": len(w.terms)}
        else:
            k = load_kernel_spec(doc)
            summary = {
                "valid": True,
                "kind": "kernel",
                "dim": k.dim,
                "coupling_g": k.coupling,
                "jump_operators": len(k.jump_ops),
                "convolution": bool(k.is_convolution),
            }
    except ValueError as exc:
        raise ConfigError(f"{conf['kernel']}: {exc}") from exc
    sys.stdout.write(canonical_dumps(summary) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, *names) -> None:
    if "kernel" in names:
        p.add_argument("--kernel", help="kernel (or drift) JSON file")
    if "trajectory" in names:
        p.add_argument("--trajectory", help="trajectory JSON file")
    if "grid" in names:
        p.add_argument("--T", type=float, default=None, help="horizon (default 2.0)")
        p.add_argument("--steps", type=int, default=None, help="grid steps (default 400)")
    if "eps" in names:
        p.add_argument("--eps-cp", dest="eps_cp", type=float, default=None,
                       help="CP tolerance (default 1e-8)")
    if "order" in names:
        p.add_argument("--order", type=int, default=None, help="series order (default 8)")
    p.add_argument("--seed", type=int, default=None, help="seed recorded in provenance")
    p.add_argument("--out", default=None, help="output directory (default .)")
    p.add_argument("--config", default=None, help="JSON config file (flags override)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkslmap",
        description="Solve two-time GKSL-like master equations and certify complete positivity.",
    )
    parser.add_argument("--version", action="version", version=f"gkslmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a kernel and write the trajectory")
    _add_common(p, "kernel", "grid", "eps", "order")
    p.add_argument("--family", choices=_FAMILY_CHOICES, default=None,
                   help="trajectory family (default local-full)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="CP-certify a trajectory file")
    _add_common(p, "trajectory", "eps")
    p.add_argument("--divisibility", action="store_true", default=None,
                   help="also certify the intermediate maps")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("gscan", help="distance-vs-coupling scan")
    _add_common(p, "kernel", "grid", "order")
    p.add_argument("--g-list", dest="g_list", default=None,
                   help="comma-separated couplings, e.g. 0.05,0.1,0.2,0.4")
    p.add_argument("--pair", default=None,
                   help="two families, comma-separated (default nonlocal-full,weak-nonlocal-full)")
    p.set_defaults(func=_cmd_gscan)

    p = sub.add_parser("counterexample", help="search for a drift CP violation witness")
    _add_common(p, "kernel", "grid", "eps")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("convolution", help="convolution-case hypothesis audit")
    _add_common(p, "kernel", "grid", "eps")
    p.set_defaults(func=_cmd_convolution)

    p = sub.add_parser("validate", help="validate a kernel/drift/trajectory file")
    p.add_argument("--kernel", help="file to validate")
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return 2
    except SolverError as exc:
        _emit_error("solver", str(exc))
        return 3
    except ValueError as exc:
        # validation raised past the config stage still counts as bad input
        _emit_error("config", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
