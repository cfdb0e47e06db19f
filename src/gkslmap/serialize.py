"""The number format of every document the package writes or reads.

Complex arrays are nested [re, im] pairs (:func:`complex_to_doc` and
:func:`complex_from_doc`).  JSON text comes from :func:`canonical_dumps` and
CSV tables from :func:`csv_table`, so identical inputs produce byte-identical
files, and :func:`atomic_write_text` writes them, so readers never observe a
half-written file.  Every document reader raises :class:`FormatError`,
naming the offending field, from one object check (:func:`_object`: required
and unknown keys), one integer check (:func:`_integer`) and one ``dim``
header check (:func:`_header`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys

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


MIN_DIM = 2  # the matrix sides a kernel, drift or trajectory document may give
MAX_DIM = 8


def _member(field: str, key: str) -> str:
    return f"{field}.{key}" if field else key


def _object(doc, field: str, required=(), optional=None) -> dict:
    """``doc``, checked to be an object that holds every ``required`` key and,
    unless ``optional`` is None, no key outside ``required`` and ``optional``.

    Errors name the field; ``field`` is "" for a whole document.
    """
    if not isinstance(doc, dict):
        raise FormatError(f"{field or 'document'}: expected an object, got {type(doc).__name__}")
    for key in required:
        if key not in doc:
            raise FormatError(f"{_member(field, key)}: missing")
    if optional is not None:
        for key in doc:
            if key not in required and key not in optional:
                raise FormatError(f"{_member(field, key)}: unknown key")
    return doc


def _integer(doc: dict, key: str, lo: int, hi=None, field="") -> int:
    """``doc[key]``, checked to be a JSON integer (not a bool) in [lo, hi]."""
    x = doc[key]
    if type(x) is not int or x < lo or (hi is not None and x > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise FormatError(f"{_member(field, key)}: expected an integer {span}, got {x!r}")
    return x


def _header(doc, required=(), optional=None) -> int:
    """The ``dim`` of a kernel, drift or trajectory document: the document is
    checked by :func:`_object` with ``dim`` required, and ``dim`` must be an
    integer in [MIN_DIM, MAX_DIM]."""
    _object(doc, "", ("dim", *required), optional)
    return _integer(doc, "dim", MIN_DIM, MAX_DIM)


def is_finite_number(x) -> bool:
    """True for a JSON number (a Python int or float, not a bool) that converts
    to a finite float; an int beyond the largest float does not."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


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
    if (
        a.shape != shape + (2,)
        or a.dtype.kind not in "iuf"
        or not np.isfinite(a).all()
        or _holds_bool(raw, len(shape) + 1)
    ):
        where = _first_bad(raw, shape + (2,))
        raise FormatError(
            f"{field}: expected {' x '.join(map(str, shape))} [re, im] pairs of finite numbers"
            + (f"; the first bad entry is {field}{where}" if where else "")
        )
    return np.ascontiguousarray(a, dtype=float).view(complex).reshape(shape)


def _holds_bool(raw, depth: int) -> bool:
    """True if the regular nested list ``raw``, ``depth`` levels deep, holds a
    bool; ``np.asarray`` casts True to 1.0 when floats sit next to it."""
    for _ in range(depth - 1):
        raw = itertools.chain.from_iterable(raw)
    return bool in set(map(type, raw))


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
    d = _integer(_object(doc, field, ("dim",)), "dim", 1, field=field)
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
