"""Canonical JSON, config hashing, atomic writes."""

import json
import os
import re

import numpy as np
import pytest

from gkslmap.kernel import load_drift_spec, load_kernel_spec
from gkslmap.profiles import profile_from_doc
from gkslmap.serialize import (
    FormatError,
    atomic_write_text,
    canonical_dumps,
    config_hash,
    matrix_from_doc,
    matrix_to_doc,
)
from gkslmap.trajectory import MapTrajectory, TimeGrid


def test_canonical_dumps_is_sorted_and_compact():
    s = canonical_dumps({"b": 1, "a": [1.5, True, None]})
    assert s == '{"a":[1.5,true,null],"b":1}'


def test_canonical_dumps_handles_numpy_scalars():
    doc = {
        "x": np.float64(0.1),
        "z": np.float64(-0.0),
        "f": np.float32(0.1),
        "n": np.int64(3),
        "flag": np.bool_(True),
        "v": np.arange(3),
        "m": np.array([[0.25, -0.0], [1e-300, 2.0]]),
        "t": (1, np.float64(2.5)),
    }
    assert canonical_dumps(doc) == (
        '{"f":0.10000000149011612,"flag":true,"m":[[0.25,-0.0],[1e-300,2.0]],'
        '"n":3,"t":[1,2.5],"v":[0,1,2],"x":0.1,"z":-0.0}'
    )


def test_canonical_dumps_rejects_nan():
    for value in (float("nan"), np.float64("inf"), np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            canonical_dumps({"x": value})


def test_config_hash_is_stable_and_order_insensitive():
    h1 = config_hash({"T": 2.0, "steps": 400})
    h2 = config_hash({"steps": 400, "T": 2.0})
    assert h1 == h2
    assert len(h1) == 16
    assert h1 != config_hash({"T": 2.0, "steps": 401})


def test_matrix_doc_round_trip(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a[0, 1], a[2, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
    back = matrix_from_doc(json.loads(canonical_dumps(matrix_to_doc(a))))
    assert back.tobytes() == a.tobytes()  # every bit, signed zeros included


def test_matrix_doc_errors_name_the_field():
    with pytest.raises(FormatError) as err:
        matrix_from_doc({"entries": []}, "hermitian[2].operator")
    assert "hermitian[2].operator.dim" in str(err.value)
    with pytest.raises(FormatError, match="entries"):
        matrix_from_doc({"dim": 2, "entries": [[0.0, 0.0]]})
    with pytest.raises(FormatError) as err:
        matrix_from_doc({"dim": 1, "entries": [[0.0, "x"]]})
    assert "entries[0]" in str(err.value)
    with pytest.raises(FormatError):
        matrix_to_doc(np.zeros((2, 3)))


TRAJECTORY = MapTrajectory(TimeGrid(1.0, 1), 2, "local-full", np.stack([np.eye(4)] * 2)).to_doc()
CONSTANT_TERM = {"profile": {"kind": "constant"}, "operator": matrix_to_doc(np.eye(2))}
READER_FAULTS = {  # name: (reader, malformed document, the field its error must name)
    "profile": (lambda doc: profile_from_doc(doc, "lindblad[0][0].profile"),
                {"kind": "gaussian", "tau": -1.0}, "lindblad[0][0].profile.tau"),
    # an int beyond the largest float is not a finite number
    "profile-huge-kappa": (lambda doc: profile_from_doc(doc, "lindblad[0][0].profile"),
                           {"kind": "exponential-decay", "kappa": 10**400},
                           "lindblad[0][0].profile.kappa"),
    "profile-separable-without-g": (profile_from_doc,
                                    {"kind": "product-separable", "f": {"kind": "constant"}},
                                    "profile"),
    "profile-table-of-one-row": (profile_from_doc,
                                 {"kind": "tabulated-grid", "t_max": 1.0, "values": [[1.0]]},
                                 "profile.values"),
    "profile-ragged-table": (profile_from_doc,
                             {"kind": "tabulated-grid", "t_max": 1.0, "values": [[1.0, 2.0], [3.0]]},
                             "profile.values[1]"),
    "kernel": (load_kernel_spec,
               {"dim": 2, "lindblad": [[{"profile": {"kind": "constant"}, "operator": {"dim": 2}}]]},
               "lindblad[0][0].operator.entries"),
    "kernel-huge-coupling": (load_kernel_spec, {"dim": 2, "coupling_g": 10**400}, "coupling_g"),
    "kernel-terms-not-a-list": (load_kernel_spec, {"dim": 2, "hermitian": CONSTANT_TERM},
                                "hermitian"),
    "kernel-lindblad-not-a-list": (load_kernel_spec, {"dim": 2, "lindblad": {}}, "lindblad"),
    "kernel-operator-of-another-dim": (load_kernel_spec, {"dim": 3, "hermitian": [CONSTANT_TERM]},
                                       "hermitian[0].operator"),
    "drift": (load_drift_spec,
              {"dim": 2, "drift": [{"profile": {"kind": "nope"}, "operator": matrix_to_doc(np.eye(2))}]},
              "drift[0].profile.kind"),
    "trajectory": (MapTrajectory.from_doc, {**TRAJECTORY, "grid": {"T": 1.0, "steps": 0}},
                   "grid.steps"),
    "trajectory-family": (MapTrajectory.from_doc, {**TRAJECTORY, "family": "sideways"}, "family"),
}


@pytest.mark.parametrize("name", sorted(READER_FAULTS))
def test_every_document_reader_raises_format_error_naming_the_field(name):
    reader, doc, field = READER_FAULTS[name]
    with pytest.raises(FormatError, match=rf"^{re.escape(field)}: ") as err:
        reader(doc)
    assert err.type is FormatError


def test_atomic_write_creates_parents_and_replaces(tmp_path):
    target = tmp_path / "nested" / "out.json"
    atomic_write_text(str(target), "first")
    atomic_write_text(str(target), "second")
    assert target.read_text() == "second"
    leftovers = [p for p in (tmp_path / "nested").iterdir() if p.name != "out.json"]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_atomic_write_follows_umask(tmp_path, umask, mode):
    target = tmp_path / "out.json"
    old = os.umask(umask)
    try:
        atomic_write_text(str(target), "{}\n")
    finally:
        os.umask(old)
    assert target.read_text() == "{}\n"
    assert target.stat().st_mode & 0o777 == mode
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
