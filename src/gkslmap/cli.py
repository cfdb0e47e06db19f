"""Command-line surface: solve, certify, gscan, counterexample, convolution, validate.

Exit codes separate science from plumbing: 0 means success (and, for the
certification-style commands, "no CP violation"); 1 means a violation was
found — a result, not a crash; 2 is a configuration error; 3 is a solver
failure.  Machine-readable error JSON goes to standard error, result files
are written atomically, and every output embeds the tool version plus a hash
of the resolved configuration, so identical configs reproduce byte-identical
files.

Two tables define the surface.  ``_OPTIONS`` declares each option once: its
argparse keywords, the JSON types a config file may give it, its default,
its help text and, where a value of the right type can still be wrong, its
value check.  ``_COMMANDS`` gives each subcommand its function, help text
and options in ``--help`` order; the parser is built from it, and
:func:`main` resolves the chosen command's options (flag, else config file,
else default) into one dict that the command receives; every key of a
config file is checked, type and value, whatever the command.  Input
documents are read by :func:`_load`, which tells a trajectory, a drift
document and a kernel apart and rejects a kind the command does not take.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .cpanalysis import DEFAULT_EPS_CP, certify_trajectory, find_drift_cp_witness, trace_deviation
from .experiments import convolution_case, g_scan, scan_couplings, scan_pair
from .kernel import GKSLKernel, load_drift_spec, load_kernel_spec, split_kernel
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


class _Option(NamedTuple):
    kwargs: dict  # argparse keywords besides the flag, dest, default and help
    types: tuple  # JSON types a config file may give; () keeps the key out of config files
    default: object
    help: str
    check: object = None  # raises ConfigError on a bad value of a good type


def _check_eps_cp(eps) -> None:
    if not (is_finite_number(eps) and eps >= 0):
        raise ConfigError(f"eps_cp: expected a finite number >= 0, got {eps!r}")


def _resolve_family(name) -> str:
    """Family tag for a tag or an alias; anything else is a config error."""
    fam = _FAMILY_ALIASES.get(name, name) if isinstance(name, str) else None
    if fam not in FAMILY_TAGS:
        raise ConfigError(f"unknown family {name!r}")
    return fam


def _g_list(raw) -> list:
    """The couplings of a comma-separated str or a list of numbers, by g_scan's rules."""
    field = "--g-list" if isinstance(raw, str) else "g_list"
    items = [x for x in raw.split(",") if x.strip()] if isinstance(raw, str) else raw
    if field == "g_list" and any(isinstance(x, (bool, str)) for x in items):
        raise ConfigError(f"g_list: expected numbers, got {raw!r}")
    try:
        gs = [float(x) for x in items]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    return scan_couplings(gs)


def _pair(raw) -> tuple:
    """The two family tags of a comma-separated str or a list, by g_scan's rules."""
    pair = raw.split(",") if isinstance(raw, str) else list(raw)
    if len(pair) != 2:
        raise ConfigError(f"pair must name two families, got {pair!r}")
    return scan_pair([_resolve_family(p) for p in pair])


# each option's flag is "--" + its key with "_" as "-"
_OPTIONS = {
    "kernel": _Option({}, (str,), None, "kernel (or drift) JSON file"),
    "trajectory": _Option({}, (str,), None, "trajectory JSON file"),
    "T": _Option({"type": float}, (int, float), 2.0, "horizon (default 2.0)"),
    "steps": _Option({"type": int}, (int,), 400, "grid steps (default 400)"),
    "eps_cp": _Option({"type": float}, (int, float), DEFAULT_EPS_CP,
                      "CP tolerance (default 1e-8)", _check_eps_cp),
    "order": _Option({"type": int}, (int,), 8, "series order (default 8)"),
    "seed": _Option({"type": int}, (int,), 7, "seed recorded in provenance"),
    "out": _Option({}, (str,), ".", "output directory (default .)"),
    "config": _Option({}, (), None, "JSON config file (flags override)"),
    "family": _Option({"choices": _FAMILY_CHOICES}, (str,), "local-full",
                      "trajectory family (default local-full)", _resolve_family),
    "divisibility": _Option({"action": "store_true"}, (bool,), False,
                            "also certify the intermediate maps"),
    "g_list": _Option({}, (str, list), None, "comma-separated couplings, e.g. 0.05,0.1,0.2,0.4",
                      _g_list),
    "pair": _Option({}, (str, list), "nonlocal-full,weak-nonlocal-full",
                    "two families, comma-separated (default nonlocal-full,weak-nonlocal-full)",
                    _pair),
}
_PATH_OPTIONS = ("kernel", "trajectory", "out")  # resolved against a config file's directory


class ConfigError(ValueError):
    """Anything wrong with inputs before solving starts (exit 2)."""


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
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _resolve(args: argparse.Namespace, keys) -> dict:
    """The value of each option in ``keys``: its flag, else the config file, else its default.

    Every key of the config file is checked, type and value, whether or not
    the command reads it; so is every flag given.
    """
    file_conf = {}
    if args.config:
        doc = _read_json(args.config)
        if not isinstance(doc, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        unknown = [key for key in doc if key not in _OPTIONS or not _OPTIONS[key].types]
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys {sorted(unknown)}")
        base = Path(args.config).parent
        for key, val in doc.items():
            types = _OPTIONS[key].types
            if type(val) not in types:  # bool is an int to isinstance
                names = " or ".join(t.__name__ for t in types)
                raise ConfigError(f"{args.config}: {key}: expected {names}, got {val!r}")
            if _OPTIONS[key].check:
                _OPTIONS[key].check(val)
            if key in _PATH_OPTIONS and not Path(val).is_absolute():
                val = str(base / val)
            file_conf[key] = val
    conf = {}
    for key in keys:
        if key != "config":
            flag = getattr(args, key)
            if flag is not None and _OPTIONS[key].check:
                _OPTIONS[key].check(flag)
            conf[key] = flag if flag is not None else file_conf.get(key, _OPTIONS[key].default)
    return conf


def _grid_of(conf: dict) -> TimeGrid:
    try:
        return TimeGrid(float(conf["T"]), int(conf["steps"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid grid parameters: {exc}") from exc


_KINDS = {  # document kind: its parser
    "map-trajectory": MapTrajectory.from_doc,
    "drift": load_drift_spec,
    "kernel": load_kernel_spec,
}


def _load(conf: dict, key: str, kinds: tuple, what: str):
    """The document that option ``key`` names, parsed by its kind.

    A document with ``"kind": "map-trajectory"`` is a trajectory, one with a
    ``drift`` key a drift document, and anything else a kernel.  A kind
    outside ``kinds`` is a config error; ``what`` names the file expected.
    """
    path = conf.get(key)
    if not path:
        raise ConfigError(f"{what} is required (--{key})")
    doc = _read_json(path)
    if isinstance(doc, dict) and doc.get("kind") == "map-trajectory":
        kind = "map-trajectory"
    elif isinstance(doc, dict) and "drift" in doc:
        kind = "drift"
    else:
        kind = "kernel"
    if kind not in kinds:
        raise ConfigError(f"{path}: expected {what}, got a {kind} document")
    try:
        return _KINDS[kind](doc)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _write(conf: dict, files: dict) -> None:
    """Write each ``.json`` document with a provenance block, and each CSV
    table under a header line with the version and the config hash."""
    # The output directory is plumbing, not configuration: identical runs
    # into different directories must produce byte-identical files.
    clean = {k: v for k, v in conf.items() if v is not None and k != "out"}
    digest = config_hash(clean)
    prov = {"tool": "gkslmap", "version": __version__, "config_hash": digest, "config": clean}
    for name, body in files.items():
        if name.endswith(".json"):
            text = canonical_dumps({**body, "provenance": prov}) + "\n"
        else:
            text = f"# gkslmap {__version__} config_hash={digest}\n" + body
        path = Path(conf["out"]) / name
        try:
            atomic_write_text(path, text)
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(conf: dict) -> int:
    grid = _grid_of(conf)
    family = _resolve_family(conf["family"])
    conf["family"] = family
    k = _load(conf, "kernel", ("kernel",), "a kernel file")
    traj = solve_family(k, grid, family, order=int(conf["order"]))
    norms = np.linalg.norm(traj.maps, axis=(1, 2))
    csv = trajectory_csv(traj, {"map_norm": norms, "trace_dev": trace_deviation(traj.maps)})
    _write(conf, {"trajectory.json": traj.to_doc(), "trajectory.csv": csv})
    return 0


def _cmd_certify(conf: dict) -> int:
    traj = _load(conf, "trajectory", ("map-trajectory",), "a trajectory file")
    report = certify_trajectory(traj, eps_cp=float(conf["eps_cp"]),
                                divisibility=bool(conf["divisibility"]))
    rdoc = report.to_doc()
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
    _write(conf, {"cp_report.json": rdoc, "cp_report.csv": report.csv_text()})
    return 1 if violation else 0


def _cmd_gscan(conf: dict) -> int:
    grid = _grid_of(conf)
    k = _load(conf, "kernel", ("kernel",), "a kernel file")
    if conf["g_list"] is None:  # a str from the flag or a config file, or a config file's list
        raise ConfigError("a g list is required (--g-list)")
    gs, pair = _g_list(conf["g_list"]), _pair(conf["pair"])
    result = g_scan(k, grid, gs, pair=pair, order=int(conf["order"]))
    _write(conf, {"gscan.json": result.to_doc(), "gscan.csv": result.csv_text()})
    return 0


def _cmd_counterexample(conf: dict) -> int:
    grid = _grid_of(conf)
    w = _load(conf, "kernel", ("kernel", "drift"), "a kernel or drift file")
    if isinstance(w, GKSLKernel):  # only the drift operator matters here
        w = split_kernel(w).drift_op
    witness = find_drift_cp_witness(w, grid, eps_cp=float(conf["eps_cp"]))
    doc = {"kind": "cp-witness", "witness": None}
    if witness is not None:
        psi, phi = complex_to_doc(witness.psi), complex_to_doc(witness.phi)
        fields = {k: v for k, v in vars(witness).items() if v is not None}  # see DriftCPWitness
        doc["witness"] = {**fields, "psi": psi, "phi": phi}
    _write(conf, {"witness.json": doc})
    return 0 if witness is None else 1


def _cmd_convolution(conf: dict) -> int:
    grid = _grid_of(conf)
    k = _load(conf, "kernel", ("kernel",), "a kernel file")
    result = convolution_case(k, grid, eps_cp=float(conf["eps_cp"]))
    csv = result.full_report.csv_text()
    _write(conf, {"convolution.json": result.to_doc(), "convolution_full.csv": csv})
    return 0 if result.full_cp else 1


def _cmd_validate(conf: dict) -> int:
    doc = _load(conf, "kernel", tuple(_KINDS), "a file to validate")
    summary = {"valid": True, "dim": doc.dim}
    if isinstance(doc, MapTrajectory):
        summary.update(kind="map-trajectory", family=doc.family, steps=doc.grid.steps)
    elif isinstance(doc, GKSLKernel):
        summary.update(kind="kernel", coupling_g=doc.coupling, jump_operators=len(doc.jump_ops),
                       convolution=bool(doc.is_convolution))
    else:
        summary.update(kind="drift", terms=len(doc.terms))
    sys.stdout.write(canonical_dumps(summary) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

_COMMANDS = {  # name: (function, help, option keys in --help order)
    "solve": (_cmd_solve, "solve a kernel and write the trajectory",
              ("kernel", "T", "steps", "eps_cp", "order", "seed", "out", "config", "family")),
    "certify": (_cmd_certify, "CP-certify a trajectory file",
                ("trajectory", "eps_cp", "seed", "out", "config", "divisibility")),
    "gscan": (_cmd_gscan, "distance-vs-coupling scan",
              ("kernel", "T", "steps", "order", "seed", "out", "config", "g_list", "pair")),
    "counterexample": (_cmd_counterexample, "search for a drift CP violation witness",
                       ("kernel", "T", "steps", "eps_cp", "seed", "out", "config")),
    "convolution": (_cmd_convolution, "convolution-case hypothesis audit",
                    ("kernel", "T", "steps", "eps_cp", "seed", "out", "config")),
    "validate": (_cmd_validate, "validate a kernel/drift/trajectory file", ("kernel", "config")),
}
_VALIDATE_HELP = {"kernel": "file to validate", "config": "JSON config file"}  # its own wording


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkslmap",
        description="Solve two-time GKSL-like master equations and certify complete positivity.",
    )
    parser.add_argument("--version", action="version", version=f"gkslmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in keys:
            opt = _OPTIONS[key]
            text = _VALIDATE_HELP[key] if name == "validate" else opt.help
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, help=text,
                           **opt.kwargs)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    func, _, keys = _COMMANDS[args.command]
    conf = {}  # the resolved options once known, for the MemoryError message
    try:
        return func(conf := _resolve(args, keys))
    # before ValueError: numpy's LinAlgError is a ValueError
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        _emit_error("solver", str(exc))
        return 3
    except MemoryError:  # the request, not the solver: fewer steps or a lower order fit
        size = "".join(f", {key} = {conf[key]}" for key in ("steps", "order") if key in conf)
        _emit_error("config", f"not enough memory for this request{size}")
        return 2
    except ValueError as exc:  # a ConfigError, or bad input the library found
        _emit_error("config", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
