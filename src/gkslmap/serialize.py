"""The number format of every document the package writes or reads.

Complex arrays are nested [re, im] pairs (:func:`complex_to_doc` and
:func:`complex_from_doc`).  JSON text comes from :func:`canonical_dumps` and
CSV tables from :func:`csv_table`, so identical inputs produce byte-identical
files, and :func:`atomic_write_text` writes them, so readers never observe a
half-written file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

__all__ = [
    "complex_to_doc",
    "complex_from_doc",
    "matrix_to_doc",
    "matrix_from_doc",
    "canonical_dumps",
    "csv_row",
    "csv_table",
    "is_finite_number",
    "config_hash",
    "atomic_write_text",
    "FormatError",
]


class FormatError(ValueError):
    """Malformed document; the message names the offending field."""


def is_finite_number(x) -> bool:
    """True for a JSON number (a Python int or float) that is finite."""
    return isinstance(x, (int, float)) and abs(x) < math.inf


def complex_to_doc(a) -> list:
    """A complex array as nested lists of [re, im] pairs of Python floats."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def complex_from_doc(raw, shape: tuple, field: str) -> np.ndarray:
    """The complex array of ``shape`` that :func:`complex_to_doc` wrote as ``raw``.

    One ``np.asarray`` parses the whole document, and the pairs viewed as
    complex keep every bit, signed zeros included.  Entries must be finite;
    an error names the field and the index of the first bad entry.
    """
    try:
        a = np.asarray(raw)
    except ValueError:  # ragged
        a = np.empty(0)
    if a.shape != shape + (2,) or a.dtype.kind not in "biuf" or not np.isfinite(a).all():
        where = _first_bad(raw, shape + (2,))
        raise FormatError(
            f"{field}: expected {' x '.join(map(str, shape))} [re, im] pairs of finite numbers"
            + (f"; the first bad entry is {field}{where}" if where else "")
        )
    return np.ascontiguousarray(a, dtype=float).view(complex).reshape(shape)


def _first_bad(raw, shape, where=""):
    """Index path of the first place in ``raw`` that breaks ``shape`` or holds
    something other than a finite number; None if there is none."""
    if not shape:
        return None if is_finite_number(raw) else where
    if not isinstance(raw, (list, tuple)) or len(raw) != shape[0]:
        return where
    for i, item in enumerate(raw):
        bad = _first_bad(item, shape[1:], f"{where}[{i}]")
        if bad:
            return bad
    return None


def matrix_to_doc(a) -> dict:
    """Serialize a square complex matrix as row-major [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise FormatError(f"matrix must be square, got shape {a.shape}")
    return {"dim": int(a.shape[0]), "entries": complex_to_doc(a.reshape(-1))}


def matrix_from_doc(doc, field: str = "operator") -> np.ndarray:
    if not isinstance(doc, dict):
        raise FormatError(f"{field}: expected an object with 'dim' and 'entries'")
    if "dim" not in doc:
        raise FormatError(f"{field}.dim: missing")
    d = doc["dim"]
    if not isinstance(d, int) or d < 1:
        raise FormatError(f"{field}.dim: expected a positive integer, got {d!r}")
    return complex_from_doc(doc.get("entries"), (d * d,), f"{field}.entries").reshape(d, d)


def _numpy_to_json(obj):
    """``default`` hook of :func:`canonical_dumps`: arrays to lists, other
    numpy scalars to Python ones (``np.float64`` is a float and never gets here)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, shortest-round-trip floats."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_numpy_to_json
    )


def csv_row(cells) -> str:
    """One CSV row: a float as its shortest round-trip ``repr``, a string as
    itself and None as an empty cell."""
    return ",".join(
        "" if x is None else x if isinstance(x, str) else repr(float(x)) for x in cells
    )


def csv_table(columns: dict) -> str:
    """CSV text: a header row of the column names, then one row per entry of
    the equal-length columns, cells rendered by :func:`csv_row`."""
    rows = [csv_row(columns)] + [csv_row(r) for r in zip(*columns.values())]
    return "\n".join(rows) + "\n"


def config_hash(obj) -> str:
    """Short stable hash of a resolved configuration document."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()[:16]


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename over the target.

    The temp file is created with mode 0666 less the process umask, the mode
    an ordinary ``open(path, "w")`` would give the file.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
