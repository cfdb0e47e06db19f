"""End-to-end command-line behavior: exit codes, files, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gkslmap.cli as cli
from gkslmap.cli import main
from gkslmap.experiments import coherence_revival_kernel, dephasing_kernel, random_kernel
from gkslmap.kernel import (
    GKSLKernel,
    TwoTimeOperatorFunction,
    load_kernel_spec,
    save_drift_spec,
    save_kernel_spec,
    split_kernel,
)
from gkslmap.linalg import SIGMA_X, SIGMA_Z, sandwich_superop
from gkslmap.profiles import ConstantProfile, SeparableProfile, SingleVarFactor, TabulatedProfile
from gkslmap.serialize import canonical_dumps
from gkslmap.trajectory import FAMILY_TAGS, MapTrajectory, TimeGrid


def write_kernel(path, kernel):
    path.write_text(canonical_dumps(save_kernel_spec(kernel)) + "\n")
    return str(path)


def write_drift(path, mat):
    w = TwoTimeOperatorFunction.build(2, [(ConstantProfile(1.0), np.asarray(mat, complex))])
    path.write_text(canonical_dumps(save_drift_spec(w)) + "\n")
    return str(path)


@pytest.fixture()
def kernel_file(tmp_path):
    return write_kernel(tmp_path / "dephasing.json", dephasing_kernel(g=0.8))


def test_solve_writes_trajectory_and_csv(tmp_path, kernel_file):
    out = tmp_path / "run"
    code = main(["solve", "--kernel", kernel_file, "--T", "1.0", "--steps", "50",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "trajectory.json").read_text())
    assert doc["kind"] == "map-trajectory"
    assert doc["family"] == "local-full"
    prov = doc["provenance"]
    assert prov["tool"] == "gkslmap" and len(prov["config_hash"]) == 16
    assert prov["config"]["family"] == "local-full"
    assert "out" not in prov["config"]
    traj = MapTrajectory.from_doc(doc)
    assert len(traj) == 51
    csv_lines = (out / "trajectory.csv").read_text().split("\n")
    assert csv_lines[0] == f"# gkslmap {prov['version']} config_hash={prov['config_hash']}"
    assert csv_lines[2] == "t,map_norm,trace_dev"


def test_solve_family_alias(tmp_path, kernel_file):
    out = tmp_path / "weak"
    code = main(["solve", "--kernel", kernel_file, "--T", "1.0", "--steps", "40",
                 "--family", "weak", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "trajectory.json").read_text())
    assert doc["family"] == "weak-nonlocal-full"
    assert doc["provenance"]["config"]["family"] == "weak-nonlocal-full"


def test_certify_clean_trajectory(tmp_path, kernel_file):
    out = tmp_path / "run"
    main(["solve", "--kernel", kernel_file, "--T", "1.0", "--steps", "50", "--out", str(out)])
    code = main(["certify", "--trajectory", str(out / "trajectory.json"), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "cp_report.json").read_text())
    assert report["all_cp"] is True
    assert "witness" not in report
    assert (out / "cp_report.csv").exists()


def test_certify_divisibility_violation_exit_one(tmp_path):
    kernel = write_kernel(tmp_path / "revival.json", coherence_revival_kernel())
    out = tmp_path / "run"
    code = main(["solve", "--kernel", kernel, "--family", "nonlocal-full",
                 "--T", "2.0", "--steps", "160", "--out", str(out)])
    assert code == 0
    code = main(["certify", "--trajectory", str(out / "trajectory.json"),
                 "--divisibility", "--out", str(out)])
    assert code == 1
    report = json.loads((out / "cp_report.json").read_text())
    assert report["all_cp"] is True  # nodes stay CP; the intervals violate
    assert "witness" not in report
    w = report["divisibility_witness"]
    assert w["lambda_min"] < -1e-8
    assert w["t"][0] > 1.0  # revival stretch starts past the coherence zero


def test_certify_divisibility_marks_an_interval_its_conditioning_blurs(
    tmp_path, capsys, bench_corpus
):
    # local-full at g = 8 preserves Hermiticity at every node, but Lambda_37 has a
    # condition number near 1e8, so the solved interval map's Choi asymmetry
    # exceeds the 1e-9 guard: that is rounding, not a config error
    kernel = write_kernel(tmp_path / "k6.json", bench_corpus[6].with_coupling(8))
    out = tmp_path / "run"
    assert main(["solve", "--kernel", kernel, "--steps", "40", "--out", str(out)]) == 0
    code = main(["certify", "--trajectory", str(out / "trajectory.json"),
                 "--divisibility", "--out", str(out)])
    assert code == 1, capsys.readouterr().err
    report = json.loads((out / "cp_report.json").read_text())
    assert report["all_cp"] is True
    div = report["divisibility"]
    assert div["status"][37] == "indeterminate" and div["lambda_min"][37] is None
    assert div["status"][:37] == ["CP"] * 37 and "not-CP" not in div["status"]


def test_csvs_report_the_same_trace_deviation(tmp_path):
    kernel = write_kernel(tmp_path / "k.json", random_kernel(101))
    out = tmp_path / "run"
    assert main(["solve", "--kernel", kernel, "--steps", "400", "--out", str(out)]) == 0
    main(["certify", "--trajectory", str(out / "trajectory.json"), "--out", str(out)])

    def column(name):
        lines = (out / name).read_text().split("\n")
        assert lines[2].split(",")[2] == "trace_dev"
        return [line.split(",")[2] for line in lines[3:] if line]

    assert column("trajectory.csv") == column("cp_report.csv")
    assert len(column("trajectory.csv")) == 401


def three_node_trajectory_doc():
    maps = np.stack([np.eye(4, dtype=complex)] * 3)
    return MapTrajectory(grid=TimeGrid(1.0, 2), dim=2, family="local-full", maps=maps).to_doc()


def malformed(edit):
    doc = three_node_trajectory_doc()
    edit(doc)
    return doc


MALFORMED_TRAJECTORIES = {
    "scalar-map-entry": malformed(lambda d: d["maps"].__setitem__(1, 0.5)),
    "grid-not-an-object": malformed(lambda d: d.__setitem__("grid", [1.0, 2])),
    "string-in-pair": malformed(lambda d: d["maps"][1][0].__setitem__(0, "1.0")),
    "nan-entry": malformed(lambda d: d["maps"][2][5].__setitem__(1, float("nan"))),
    "ragged-rows": malformed(lambda d: d["maps"][0].pop()),
    "meta-not-an-object": malformed(lambda d: d.__setitem__("meta", 5)),
    "bool-map-entry": malformed(lambda d: d["maps"][1].__setitem__(0, [True, False])),
    "dim-not-an-integer": malformed(lambda d: d.__setitem__("dim", 2.7)),
    "dim-a-string": malformed(lambda d: d.__setitem__("dim", "2")),
    "steps-not-an-integer": malformed(lambda d: d["grid"].__setitem__("steps", 2.9)),
    "steps-a-bool": malformed(lambda d: (d["grid"].__setitem__("steps", True), d["maps"].pop())),
    "T-a-bool": malformed(lambda d: d["grid"].__setitem__("T", True)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TRAJECTORIES))
def test_malformed_trajectory_is_config_error(tmp_path, capsys, name):
    path = tmp_path / "traj.json"
    path.write_text(json.dumps(MALFORMED_TRAJECTORIES[name]))
    out = tmp_path / "run"
    assert main(["certify", "--trajectory", str(path), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"
    assert not (out / "cp_report.json").exists()
    assert main(["validate", "--kernel", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"


def test_certify_names_a_node_that_breaks_hermiticity(tmp_path, capsys):
    maps = np.stack([np.eye(4, dtype=complex)] * 2 + [sandwich_superop(SIGMA_X, SIGMA_Z)])
    traj = MapTrajectory(grid=TimeGrid(1.0, 2), dim=2, family="local-full", maps=maps)
    path = tmp_path / "traj.json"
    path.write_text(canonical_dumps(traj.to_doc()))
    out = tmp_path / "run"
    assert main(["certify", "--trajectory", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and err["message"].startswith("node 2: ")
    assert not (out / "cp_report.json").exists()


def test_certify_requires_trajectory(tmp_path, capsys):
    code = main(["certify", "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"


def test_counterexample_finds_witness(tmp_path):
    drift = write_drift(tmp_path / "sx.json", SIGMA_X)
    out = tmp_path / "run"
    code = main(["counterexample", "--kernel", drift, "--T", "2.0", "--steps", "200",
                 "--out", str(out)])
    assert code == 1
    doc = json.loads((out / "witness.json").read_text())
    w = doc["witness"]
    assert w["measure_value"] < -1e-7
    assert w["choi_lambda_min"] < -1e-7
    assert len(w["psi"]) == 4 and len(w["psi"][0]) == 2
    assert "method" not in w and "pair" in w  # the relative-phase ansatz


def test_counterexample_finds_witness_for_diagonal_drift_by_choi_spectrum(tmp_path):
    # A = diag(-0.5, 0): no off-diagonal entry for the ansatz, yet not CP from node 4
    drift = write_drift(tmp_path / "diag.json", np.diag([-0.5, 0.0]))
    out = tmp_path / "run"
    code = main(["counterexample", "--kernel", drift, "--T", "2.0", "--steps", "200",
                 "--out", str(out)])
    assert code == 1
    w = json.loads((out / "witness.json").read_text())["witness"]
    assert w["method"] == "choi" and w["node"] == 4
    assert w["measure_value"] < -1e-8  # below -eps_cp
    assert not {"pair", "phase", "amplitude"} & set(w)


def test_counterexample_diagonal_drift_finds_nothing(tmp_path):
    drift = write_drift(tmp_path / "diag.json", -0.5 * np.eye(2))
    out = tmp_path / "run"
    code = main(["counterexample", "--kernel", drift, "--T", "2.0", "--steps", "100",
                 "--out", str(out)])
    assert code == 0
    assert json.loads((out / "witness.json").read_text())["witness"] is None


def test_gscan_cli_round(tmp_path):
    kernel = write_kernel(tmp_path / "k.json", random_kernel(101, dim=2))
    out = tmp_path / "run"
    code = main(["gscan", "--kernel", kernel, "--T", "1.0", "--steps", "80",
                 "--g-list", "0.05,0.1,0.2,0.4", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "gscan.json").read_text())
    assert doc["kind"] == "gscan-result"
    assert len(doc["distance"]) == 4
    assert (out / "gscan.csv").read_text().strip().split("\n")[-1].startswith("# slope=")


@pytest.mark.parametrize(
    "pair", ["nonlocal-full,weak-nonlocal-full", "local-full,nonlocal-full"]
)
def test_gscan_with_zero_distances_writes_null_fit(tmp_path, pair, capsys):
    # two families that agree exactly on a valid kernel are a result, not bad input
    kernel = tmp_path / "empty.json"
    kernel.write_text('{"dim": 2}\n')
    out = tmp_path / "run"
    code = main(["gscan", "--kernel", str(kernel), "--g-list", "0.05,0.1,0.2,0.4",
                 "--steps", "50", "--pair", pair, "--out", str(out)])
    assert code == 0 and capsys.readouterr().err == ""
    doc = json.loads((out / "gscan.json").read_text())
    assert doc["g"] == [0.05, 0.1, 0.2, 0.4] and doc["distance"] == [0.0] * 4
    assert doc["slope"] is None and doc["intercept"] is None and doc["residual"] is None
    assert doc["local_slopes"] == [] and doc["failures"] == []
    last = (out / "gscan.csv").read_text().strip().split("\n")[-1]
    assert last == "# slope= residual= monotone=True"


def test_gscan_bad_g_list_is_config_error(tmp_path, kernel_file, capsys):
    code = main(["gscan", "--kernel", kernel_file, "--g-list", "", "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"
    assert main(["gscan", "--kernel", kernel_file, "--out", str(tmp_path / "run")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and err["message"] == "a g list is required (--g-list)"
    for g_list in ("0.1,0.2,0.4", "nan,0.1,0.2,0.8", "0.1,0.2,0.8,inf"):
        code = main(["gscan", "--kernel", kernel_file, "--T", "0.5", "--steps", "10",
                     "--g-list", g_list, "--out", str(tmp_path / "run")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"
    assert not (tmp_path / "run").exists()


def test_gscan_series_order_below_one_is_config_error(tmp_path, capsys):
    # as for solve, a bad order is bad input, not a failed point at every coupling
    kernel = str(CONFIGS / "dephasing_kernel.json")
    args = ["gscan", "--kernel", kernel, "--g-list", "0.05,0.1,0.2,0.4", "--steps", "40",
            "--order", "0"]
    out = tmp_path / "run"
    code = main(args + ["--pair", "local-full,series-local-full", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and "series order must be >= 1" in err["message"]
    assert not out.exists()
    # the order is only checked for series families
    assert main(args + ["--pair", "local-full,nonlocal-full", "--out", str(out)]) == 0


def test_convolution_cli(tmp_path):
    kernel = write_kernel(tmp_path / "k.json", dephasing_kernel(g=0.2))
    out = tmp_path / "run"
    code = main(["convolution", "--kernel", kernel, "--T", "1.2", "--steps", "100",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "convolution.json").read_text())
    assert doc["consistent"] is True and doc["n_kraus"] == 1
    assert (out / "convolution_full.csv").exists()


def test_convolution_rejects_general_kernel(tmp_path, capsys):
    sep = SeparableProfile(SingleVarFactor("exp", rate=-0.5),
                           SingleVarFactor("gaussian", tau=1.0))
    fn = TwoTimeOperatorFunction.build(2, [(sep, SIGMA_X)])
    kernel = write_kernel(tmp_path / "k.json", GKSLKernel.build(2, jump_ops=(fn,)))
    out = tmp_path / "run"
    for path in (kernel, str(CONFIGS / "gscan_kernel.json")):
        assert main(["convolution", "--kernel", path, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "config", "message": "kernel profiles are not all convolution-type"}
    assert not out.exists()


def test_validate_reports_kind(tmp_path, kernel_file, capsys):
    assert main(["validate", "--kernel", kernel_file]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {
        "valid": True, "kind": "kernel", "dim": 2, "coupling_g": 0.8,
        "jump_operators": 1, "convolution": True,
    }
    drift = write_drift(tmp_path / "w.json", SIGMA_X)
    assert main(["validate", "--kernel", drift]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "drift"

    out = tmp_path / "run"
    main(["solve", "--kernel", kernel_file, "--T", "0.5", "--steps", "10", "--out", str(out)])
    capsys.readouterr()
    assert main(["validate", "--kernel", str(out / "trajectory.json")]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "map-trajectory"


def test_validate_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 99}')
    assert main(["validate", "--kernel", str(bad)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DOCUMENTS = sorted(p.name for p in CONFIGS.glob("*.json") if "dim" in json.loads(p.read_text()))


@pytest.mark.parametrize("name", DOCUMENTS)
def test_shipped_kernel_and_drift_documents_validate(name):
    assert main(["validate", "--kernel", str(CONFIGS / name)]) == 0


def test_certify_witness_names_the_first_node_that_is_not_cp(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--kernel", str(CONFIGS / "coherence_revival.json"), "--T", "4",
                 "--family", "nonlocal-drift", "--out", str(out)])
    assert code == 0
    assert main(["certify", "--trajectory", str(out / "trajectory.json"), "--out", str(out)]) == 1
    report = json.loads((out / "cp_report.json").read_text())
    node = report["verdict"].index("not-CP")
    assert node == 158
    assert report["witness"] == {
        "node": node, "t": report["times"][node], "lambda_min": report["lambda_min"][node]
    }
    assert report["witness"]["lambda_min"] < 0


@pytest.mark.parametrize("config, exit_code",
                         [("dephasing_kernel.json", 0), ("gscan_kernel.json", 1)])
def test_counterexample_of_a_kernel_probes_its_drift_operator(tmp_path, config, exit_code):
    path = CONFIGS / config
    drift = tmp_path / "drift.json"
    kernel = load_kernel_spec(json.loads(path.read_text()))
    drift.write_text(canonical_dumps(save_drift_spec(split_kernel(kernel).drift_op)) + "\n")
    docs = []
    for name, doc_path in (("kernel", path), ("drift", drift)):
        code = main(["counterexample", "--kernel", str(doc_path), "--out", str(tmp_path / name)])
        assert code == exit_code
        doc = json.loads((tmp_path / name / "witness.json").read_text())
        del doc["provenance"]  # names the input file
        docs.append(doc)
    assert docs[0] == docs[1]


def test_hermitian_part_is_checked_at_every_tabulated_node(tmp_path, capsys):
    # Hermitian everywhere except at the table node (t, t') = (4, 0)
    values = np.ones((5, 5), dtype=complex)
    values[4, 0] = 1 + 1j
    herm = TwoTimeOperatorFunction.build(2, [(TabulatedProfile(4.0, values), SIGMA_X)])
    kernel = write_kernel(tmp_path / "skew.json", GKSLKernel.build(2, hermitian=herm))
    assert main(["validate", "--kernel", kernel]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and "(4.0, 0.0)" in err["message"]
    out = tmp_path / "run"
    code = main(["solve", "--kernel", kernel, "--T", "4", "--steps", "100", "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"
    assert not out.exists()


def non_finite(kernel, edit):
    doc = save_kernel_spec(kernel)
    edit(doc)
    return doc


NAN, INF = float("nan"), float("inf")
NON_FINITE_KERNELS = {  # name: (document, the field its error must name)
    "nan-operator-entry": (
        non_finite(dephasing_kernel(g=0.8),
                   lambda d: d["lindblad"][0][0]["operator"]["entries"][3].__setitem__(1, NAN)),
        "lindblad[0][0].operator.entries[3]",
    ),
    "infinite-kappa": (
        non_finite(dephasing_kernel(g=0.8),
                   lambda d: d["lindblad"][0][0]["profile"].__setitem__("kappa", INF)),
        "lindblad[0][0].profile.kappa",
    ),
    "nan-coupling": (
        non_finite(dephasing_kernel(g=0.8), lambda d: d.__setitem__("coupling_g", NAN)),
        "coupling_g",
    ),
    "nan-tabulated-value": (
        non_finite(coherence_revival_kernel(),
                   lambda d: d["lindblad"][0][0]["profile"]["values"][2].__setitem__(3, NAN)),
        "lindblad[0][0].profile.values[2]",
    ),
    # booleans are not numbers, although Python's bool is an int
    "bool-kappa": (
        non_finite(dephasing_kernel(g=0.8),
                   lambda d: d["lindblad"][0][0]["profile"].__setitem__("kappa", True)),
        "lindblad[0][0].profile.kappa",
    ),
    "bool-coupling": (
        non_finite(dephasing_kernel(g=0.8), lambda d: d.__setitem__("coupling_g", True)),
        "coupling_g",
    ),
    "bool-operator-entry": (
        non_finite(dephasing_kernel(g=0.8),
                   lambda d: d["lindblad"][0][0]["operator"]["entries"].__setitem__(
                       1, [True, False])),
        "lindblad[0][0].operator.entries[1]",
    ),
}


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_KERNELS))
def test_non_finite_kernel_number_is_config_error(tmp_path, capsys, command, name):
    doc, field = NON_FINITE_KERNELS[name]
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(doc))  # writes NaN and Infinity, which json.loads reads back
    out = tmp_path / "run"
    extra = ["--steps", "20", "--out", str(out)] if command == "solve" else []
    assert main([command, "--kernel", str(path), *extra]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and field in err["message"]
    assert not (out / "trajectory.json").exists()


def sigma_x_drift_doc():
    w = TwoTimeOperatorFunction.build(2, [(ConstantProfile(1.0), SIGMA_X)])
    return save_drift_spec(w)


def separable_kernel():
    sep = SeparableProfile(SingleVarFactor("exp", rate=-0.5), SingleVarFactor("gaussian", tau=1.0))
    fn = TwoTimeOperatorFunction.build(2, [(sep, SIGMA_X)])
    return GKSLKernel.build(2, jump_ops=(fn,))


UNKNOWN_KEYS = {  # name: (command, document, the field its error must name)
    "kernel": ("solve", non_finite(
        dephasing_kernel(), lambda d: d.__setitem__("lindbald", d.pop("lindblad"))), "lindbald"),
    "term": ("solve", non_finite(
        dephasing_kernel(), lambda d: d["lindblad"][0][0].__setitem__("weight", 2.0)),
        "lindblad[0][0].weight"),
    "profile": ("solve", non_finite(
        dephasing_kernel(), lambda d: d["lindblad"][0][0]["profile"].__setitem__("omgea", 3.0)),
        "lindblad[0][0].profile.omgea"),
    "factor": ("solve", non_finite(
        separable_kernel(), lambda d: d["lindblad"][0][0]["profile"]["f"].__setitem__("tau", 1.0)),
        "lindblad[0][0].profile.f.tau"),
    "drift": ("counterexample", {**sigma_x_drift_doc(), "coupling_g": 1.0}, "coupling_g"),
}


@pytest.mark.parametrize("name", sorted(UNKNOWN_KEYS))
def test_unknown_document_key_is_config_error(tmp_path, capsys, name):
    command, doc, field = UNKNOWN_KEYS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    for argv in (["validate"], [command, "--steps", "20", "--out", str(out)]):
        assert main([*argv, "--kernel", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "config" and f"{field}: unknown key" in err["message"]
    assert not out.exists()


WRONG_KINDS = [  # (command, document kind it does not take)
    ("solve", "drift"),
    ("solve", "map-trajectory"),
    ("gscan", "drift"),
    ("gscan", "map-trajectory"),
    ("convolution", "drift"),
    ("convolution", "map-trajectory"),
    ("counterexample", "map-trajectory"),
    ("certify", "kernel"),
]


@pytest.mark.parametrize("command, kind", WRONG_KINDS)
def test_document_of_a_kind_the_command_does_not_take_is_config_error(
    tmp_path, capsys, command, kind
):
    doc = {
        "drift": sigma_x_drift_doc(),
        "map-trajectory": three_node_trajectory_doc(),
        "kernel": save_kernel_spec(dephasing_kernel()),
    }[kind]
    path = tmp_path / "doc.json"
    path.write_text(canonical_dumps(doc))
    args = {
        "certify": ["--trajectory", str(path)],
        "gscan": ["--kernel", str(path), "--g-list", "0.1,0.2,0.4,0.8"],
    }.get(command, ["--kernel", str(path)])
    out = tmp_path / "run"
    grid = [] if command == "certify" else ["--T", "0.5", "--steps", "10"]
    assert main([command, *args, *grid, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and f"got a {kind} document" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
def test_eps_cp_must_be_finite_and_non_negative(tmp_path, capsys, eps):
    path = tmp_path / "traj.json"
    path.write_text(canonical_dumps(three_node_trajectory_doc()))
    out = tmp_path / "run"
    assert main(["certify", "--trajectory", str(path), "--eps-cp", eps, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and err["message"].startswith("eps_cp: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value, named",
    [
        ("solve", "family", [], "family"),
        ("solve", "order", [1], "order"),
        ("solve", "steps", True, "steps"),
        ("solve", "kernel", 5, "kernel"),
        ("gscan", "pair", 5, "pair"),
        ("gscan", "pair", [[], "local-full"], "unknown family"),
        ("gscan", "g_list", [{}], "g_list"),
        ("gscan", "g_list", [True, 2, 4, 8], "g_list"),
        ("gscan", "g_list", ["0.1", "0.2", "0.4", "0.8"], "g_list: expected numbers"),
        ("gscan", "pair", ["local-full"], "pair must name two families"),
        # an int beyond the largest float is not a finite number
        pytest.param("solve", "T", 10**400, "invalid grid parameters", id="solve-T-huge-int"),
        pytest.param("solve", "steps", 10**400, "steps", id="solve-steps-huge-int"),
        pytest.param("counterexample", "eps_cp", 10**400, "eps_cp",
                     id="counterexample-eps_cp-huge-int"),
    ],
)
def test_config_value_of_wrong_type_is_config_error(
    tmp_path, kernel_file, capsys, command, key, value, named
):
    conf = tmp_path / "conf.json"
    base = {"kernel": kernel_file, "T": 0.5, "steps": 10, "g_list": [0.1, 0.2, 0.4, 0.8]}
    conf.write_text(json.dumps({**base, key: value}))
    out = tmp_path / "run"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and named in err["message"].replace(str(conf), "")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "gscan", "counterexample", "convolution",
                                     "validate"])
@pytest.mark.parametrize("key, value, message", [
    ("eps_cp", -1, "eps_cp: expected a finite number >= 0, got -1"),
    ("family", "sideways", "unknown family 'sideways'"),
    ("g_list", [True, 2, 4, 8], "g_list: expected numbers, got [True, 2, 4, 8]"),
    ("g_list", [{}], "g_list: float() argument must be a string or a real number, not 'dict'"),
    ("g_list", "nan,0.1,0.2", "g_list needs >= 4 points, got 3"),
    ("g_list", [0.1, 0.2, 0.3, 0.4], "g_list must span at least a ratio of 8, got 4"),
    ("g_list", [1, 2, 4, 10**400], "g_list: int too large to convert to float"),
    ("pair", "local-full", "pair must name two families, got ['local-full']"),
    ("pair", ["weak", "weak-nonlocal-full"], "pair must name two distinct families"),
])
def test_config_value_is_checked_whether_or_not_the_command_reads_it(
    tmp_path, kernel_file, capsys, command, key, value, message
):
    # tests/cli_sweep.py's config-<command>-eps-cp-negative, -family-unknown,
    # -g-list-bool, -g-list-object, -g-list-string-nan and -pair-one
    conf = tmp_path / "conf.json"
    base = {"kernel": kernel_file, "T": 0.5, "steps": 10, "g_list": [0.1, 0.2, 0.4, 0.8]}
    conf.write_text(json.dumps({**base, key: value}))
    out = tmp_path / "run"
    argv = [command, "--config", str(conf)] + (["--out", str(out)] if command != "validate" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == {"type": "config", "message": message}
    assert not out.exists() and not captured.out


def test_deeply_nested_json_is_a_config_error_naming_the_file(tmp_path, kernel_file, capsys):
    # past the parser's recursion limit: exit 1 would read as a CP violation
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    conf = tmp_path / "conf.json"
    nested = "[" * 100_000 + "]" * 100_000
    conf.write_text(f'{{"kernel": {json.dumps(kernel_file)}, "g_list": {nested}}}')
    out = tmp_path / "run"
    for argv, path in ((["validate", "--kernel", str(deep)], deep),
                       (["gscan", "--config", str(conf), "--out", str(out)], conf)):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "config" and err["message"].startswith(f"{path}: invalid JSON")
    assert not out.exists()


def test_missing_kernel_file_is_config_error(tmp_path, capsys):
    code = main(["solve", "--kernel", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"


def test_config_that_is_not_an_object_is_config_error(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text("[]")
    assert main(["solve", "--config", str(conf), "--out", str(tmp_path / "run")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and err["message"] == f"{conf}: config must be a JSON object"


def test_unwritable_out_is_config_error_naming_the_path(tmp_path, kernel_file, capsys):
    # --out below a file: exit 1 would read as a CP violation
    out = Path(kernel_file) / "sub"
    assert main(["solve", "--kernel", kernel_file, "--steps", "10", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and err["message"].startswith(f"{out / 'trajectory.json'}: ")


def test_unknown_config_key_is_rejected(tmp_path, kernel_file, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"kernel": kernel_file, "bogus": 1}))
    code = main(["solve", "--config", str(conf), "--out", str(tmp_path)])
    assert code == 2
    assert "bogus" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_config_paths_resolve_against_config_dir(tmp_path):
    sub = tmp_path / "conf"
    sub.mkdir()
    write_kernel(sub / "k.json", dephasing_kernel())
    conf = sub / "run.json"
    conf.write_text(json.dumps({"kernel": "k.json", "T": 0.5, "steps": 20}))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(conf), "--out", str(out)]) == 0
    assert (out / "trajectory.json").exists()


def test_family_choices_are_tags_plus_aliases():
    choices = cli._OPTIONS["family"].kwargs["choices"]
    assert set(choices) == set(FAMILY_TAGS) | set(cli._FAMILY_ALIASES)
    assert len(choices) == len(FAMILY_TAGS) + len(cli._FAMILY_ALIASES)
    for alias in cli._FAMILY_ALIASES:
        assert cli._resolve_family(alias) in FAMILY_TAGS


def test_bad_family_flag_exits_via_argparse(tmp_path, kernel_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--kernel", kernel_file, "--family", "sideways"])
    assert exc.value.code == 2


def test_horizon_violation_is_config_error(tmp_path, capsys):
    kernel = write_kernel(tmp_path / "short.json", coherence_revival_kernel(t_max=1.0))
    code = main(["solve", "--kernel", kernel, "--T", "2.0", "--steps", "40",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "horizon" in json.loads(capsys.readouterr().err)["error"]["message"]
    out = tmp_path / "run"
    code = main(["gscan", "--kernel", str(CONFIGS / "coherence_revival.json"), "--T", "5",
                 "--steps", "20", "--g-list", "0.05,0.1,0.2,0.4", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and "horizon" in err["message"]
    assert not (out / "gscan.json").exists()


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_non_finite_horizon_is_config_error(tmp_path, kernel_file, capsys, monkeypatch, horizon):
    def never(*args, **kwargs):
        raise AssertionError("solver ran on a non-finite horizon")

    monkeypatch.setattr(cli, "solve_family", never)
    out = tmp_path / "run"
    code = main(["solve", "--kernel", kernel_file, "--T", horizon, "--steps", "10",
                 "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and "finite" in err["message"]
    assert not out.exists()


def test_solver_failure_exit_three(tmp_path, kernel_file, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(cli, "solve_family", explode)
    code = main(["solve", "--kernel", kernel_file, "--T", "1.0", "--steps", "10",
                 "--out", str(tmp_path)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "solver"
    assert "converge" in err["error"]["message"]


@pytest.mark.parametrize("command, target", [("solve", "solve_family"), ("gscan", "g_scan")])
def test_request_too_large_for_memory_is_config_error(
    tmp_path, kernel_file, capsys, monkeypatch, command, target
):
    # the allocation is faked: a real one could succeed where memory is overcommitted
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhausted)
    out = tmp_path / "run"
    argv = [command, "--kernel", kernel_file, "--steps", "1000000000000", "--order", "9",
            "--out", str(out)]
    if command == "gscan":
        argv += ["--g-list", "0.05,0.1,0.2,0.4"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config"
    assert err["message"] == "not enough memory for this request, steps = 1000000000000, order = 9"
    assert not out.exists()


def test_steps_too_large_for_the_refined_lattice_is_config_error(tmp_path, kernel_file, capsys):
    # the h/4 lattice of 4 * steps + 1 complex entries cannot be sized: refused before
    # any allocation
    out = tmp_path / "run"
    argv = ["solve", "--kernel", kernel_file, "--steps", "1000000000000000000", "--out", str(out)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "config" and "steps" in err["message"]
    assert not out.exists()


def test_non_finite_solve_exits_three(tmp_path, capsys):
    kernel = write_kernel(tmp_path / "strong.json", dephasing_kernel(g=1e4))
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = main(["solve", "--kernel", kernel, "--steps", "40", "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "solver" and "non-finite" in err["message"]
    assert not (out / "trajectory.json").exists()


def strong_dephasing(tmp_path, g):
    """The shipped dephasing kernel at coupling g, written to tmp_path."""
    path = tmp_path / f"dephasing-g{g}.json"
    doc = json.loads((CONFIGS / "dephasing_kernel.json").read_text())
    path.write_text(json.dumps({**doc, "coupling_g": g}))
    return str(path)


def test_diverging_drift_frame_solve_exits_three(tmp_path, capsys):
    # at g = 30 the drift frame overflows: the sandwich maps stay finite, the
    # inversion defect does not
    out = tmp_path / "run"
    code = main(["solve", "--kernel", strong_dephasing(tmp_path, 30), "--steps", "20",
                 "--family", "weak-local-drift", "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "solver",
                   "message": "weak-local-drift solve produced non-finite meta.inversion_defect"}
    assert not (out / "trajectory.json").exists()


@pytest.mark.parametrize("family, message", [
    ("weak-local-drift", "weak-local-drift solve produced non-finite meta.inversion_defect"),
    ("weak-nonlocal-full",
     "weak-nonlocal-full solve produced non-finite map entries (first at t = 1.8)"),
])
def test_failed_solve_prints_only_its_error_line(tmp_path, family, message):
    # numpy's warnings would name the installed source path and line
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["solve", "--kernel", strong_dephasing(tmp_path, 30), "--steps", "20",
            "--family", family, "--out", str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-m", "gkslmap.cli", *argv], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 3
    assert proc.stderr == canonical_dumps({"error": {"type": "solver", "message": message}}) + "\n"


def test_gscan_with_all_solves_failing_exits_three(tmp_path, kernel_file, capsys):
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = main(["gscan", "--kernel", kernel_file, "--steps", "40",
                     "--g-list", "10,100,1000,10000", "--out", str(out)])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "solver" and "too few successful scan points" in err["message"]
    assert not (out / "gscan.json").exists()


def test_gscan_non_finite_distance_is_a_failed_point(tmp_path, capsys):
    # series-local-full overflows at g = 32 without raising; the point fails,
    # the three finite ones are fitted
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = main(["gscan", "--kernel", str(CONFIGS / "dephasing_kernel.json"),
                     "--g-list", "0.5,2,8,32", "--steps", "40",
                     "--pair", "local-full,series-local-full", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    doc = json.loads((out / "gscan.json").read_text())
    assert doc["g"] == [0.5, 2.0, 8.0] and len(doc["distance"]) == 3
    assert [g for g, _ in doc["failures"]] == [32.0]
    assert "not finite" in doc["failures"][0][1]


def test_reruns_are_byte_identical(tmp_path, kernel_file):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = main(["solve", "--kernel", kernel_file, "--T", "1.0", "--steps", "30",
                     "--out", str(out)])
        assert code == 0
    for name in ("trajectory.json", "trajectory.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


FAMILY_CHOICES = (
    "local-drift", "local-full", "local-jump", "nonlocal-drift", "nonlocal-full",
    "nonlocal-jump", "series", "series-local-full", "series-local-jump", "series-nonlocal-jump",
    "weak", "weak-local-drift", "weak-nonlocal-full",
)
KERNEL = ("--kernel", "kernel", None, None, None, "kernel (or drift) JSON file")
T = ("--T", "T", None, None, "float", "horizon (default 2.0)")
STEPS = ("--steps", "steps", None, None, "int", "grid steps (default 400)")
EPS_CP = ("--eps-cp", "eps_cp", None, None, "float", "CP tolerance (default 1e-8)")
ORDER = ("--order", "order", None, None, "int", "series order (default 8)")
SEED = ("--seed", "seed", None, None, "int", "seed recorded in provenance")
OUT = ("--out", "out", None, None, None, "output directory (default .)")
CONFIG = ("--config", "config", None, None, None, "JSON config file (flags override)")
# (flag, dest, default, choices, type, help) of every option, in --help order
CLI_SURFACE = {
    "solve": [
        KERNEL, T, STEPS, EPS_CP, ORDER, SEED, OUT, CONFIG,
        ("--family", "family", None, FAMILY_CHOICES, None,
         "trajectory family (default local-full)"),
    ],
    "certify": [
        ("--trajectory", "trajectory", None, None, None, "trajectory JSON file"),
        EPS_CP, SEED, OUT, CONFIG,
        ("--divisibility", "divisibility", None, None, None, "also certify the intermediate maps"),
    ],
    "gscan": [
        KERNEL, T, STEPS, ORDER, SEED, OUT, CONFIG,
        ("--g-list", "g_list", None, None, None,
         "comma-separated couplings, e.g. 0.05,0.1,0.2,0.4"),
        ("--pair", "pair", None, None, None,
         "two families, comma-separated (default nonlocal-full,weak-nonlocal-full)"),
    ],
    "counterexample": [KERNEL, T, STEPS, EPS_CP, SEED, OUT, CONFIG],
    "convolution": [KERNEL, T, STEPS, EPS_CP, SEED, OUT, CONFIG],
    "validate": [
        ("--kernel", "kernel", None, None, None, "file to validate"),
        ("--config", "config", None, None, None, "JSON config file"),
    ],
}


def test_cli_surface_is_unchanged():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [
            (*a.option_strings, a.dest, a.default, a.choices and tuple(a.choices),
             a.type and a.type.__name__, a.help)
            for a in p._actions if a.dest != "help"
        ]
        for name, p in sub.choices.items()
    }
    assert list(surface) == list(CLI_SURFACE)
    assert surface == CLI_SURFACE
    (divisibility,) = [a for a in sub.choices["certify"]._actions if a.dest == "divisibility"]
    assert isinstance(divisibility, argparse._StoreTrueAction)
