"""Canonical JSON helpers: matrices, config hashing, atomic writes.

All files the package emits go through :func:`canonical_dumps`, so identical
inputs produce byte-identical output, and through :func:`atomic_write_text`,
so readers never observe a half-written file.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

__all__ = [
    "matrix_to_doc",
    "matrix_from_doc",
    "canonical_dumps",
    "config_hash",
    "atomic_write_text",
    "FormatError",
]


class FormatError(ValueError):
    """Malformed document; the message names the offending field."""


def matrix_to_doc(a) -> dict:
    """Serialize a square complex matrix as row-major [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise FormatError(f"matrix must be square, got shape {a.shape}")
    entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"dim": int(a.shape[0]), "entries": entries}


def matrix_from_doc(doc, field: str = "operator") -> np.ndarray:
    if not isinstance(doc, dict):
        raise FormatError(f"{field}: expected an object with 'dim' and 'entries'")
    if "dim" not in doc:
        raise FormatError(f"{field}.dim: missing")
    d = doc["dim"]
    if not isinstance(d, int) or d < 1:
        raise FormatError(f"{field}.dim: expected a positive integer, got {d!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != d * d:
        raise FormatError(f"{field}.entries: expected {d * d} [re, im] pairs")
    out = np.empty(d * d, dtype=complex)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) for x in pair)
        ):
            raise FormatError(f"{field}.entries[{i}]: expected an [re, im] pair")
        out[i] = complex(pair[0], pair[1])
    return out.reshape(d, d)


def _pyfloats(obj):
    """Recursively convert numpy scalars/arrays so json sees plain Python types."""
    if isinstance(obj, dict):
        return {k: _pyfloats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyfloats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _pyfloats(obj.tolist())
    return obj


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, shortest-round-trip floats."""
    return json.dumps(_pyfloats(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


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
