"""Readers of embedding matrices, labels and ordering-head parameters.

Matrices arrive as ``.npy`` (a shape header plus little-endian IEEE floats;
only 32/64-bit float payloads are accepted) or, for small hand-written
tests, as JSON of nested lists of finite JSON numbers (integers for labels),
checked as strictly as JSONL lines.  Ordering-head parameters arrive bundled
as ``.npz`` with keys ``w1``, ``b1``, ``w2``, ``b2``; the activation name is
configuration, not data.  This module only reads: callers write these
files with ``np.save`` and ``np.savez``.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from .losses import OrderHeadParams
from .model import typed_list, typed_rows

_FLOAT_KINDS = ("f",)
_ALLOWED_SIZES = (4, 8)


def _check_float_array(arr: np.ndarray, where: str) -> np.ndarray:
    if arr.dtype.kind not in _FLOAT_KINDS or arr.dtype.itemsize not in _ALLOWED_SIZES:
        raise ValueError(
            f"{where}: expected 32/64-bit float payload, got dtype {arr.dtype}"
        )
    return arr.astype(np.float64)


def _load_json(p: Path, kind: type) -> np.ndarray:
    """The JSON list in ``p``, or for floats a list of rows, checked by ``model``'s rule."""
    key = str(p)  # the path as the field name, so every error names the file
    try:
        with open(p, encoding="utf-8") as fp:
            doc = {key: json.load(fp)}
    except ValueError as e:  # not JSON, or not UTF-8
        raise ValueError(f"{p}: {e}") from None
    if kind is float and type(doc[key]) is list and doc[key] and type(doc[key][0]) is list:
        return np.array(typed_rows(doc, key, float), dtype=np.float64)
    return np.array(typed_list(doc, key, kind), dtype=np.float64 if kind is float else np.int64)


def _load_numpy(p: Path, what: str):
    """``np.load`` of ``p`` if it is a ``what``: a .npy file by its magic bytes, a
    .npz archive by ``zipfile.is_zipfile``.  Any other file is "<p>: not a <what>",
    never numpy's advice to unpickle it."""
    with open(p, "rb") as fp:
        valid = fp.read(6) == b"\x93NUMPY" if what == ".npy file" else zipfile.is_zipfile(fp)
    if not valid:
        raise ValueError(f"{p}: not a {what}")
    return np.load(p, allow_pickle=False)


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a 1-D or 2-D float array from .npy or JSON (by extension)."""
    p = Path(path)
    if p.suffix == ".npy":
        arr = _load_numpy(p, ".npy file")
        return _check_float_array(arr, str(p))
    return _load_json(p, float)


def load_int_vector(path: str | Path) -> np.ndarray:
    """Read integer labels from .npy or a JSON list."""
    p = Path(path)
    if p.suffix == ".npy":
        arr = _load_numpy(p, ".npy file")
        if arr.dtype.kind not in ("i", "u"):
            raise ValueError(f"{p}: expected an integer payload, got {arr.dtype}")
        return arr.astype(np.int64)
    return _load_json(p, int)


def load_order_head(path: str | Path, activation: str = "gelu") -> OrderHeadParams:
    with _load_numpy(Path(path), ".npz archive") as blob:
        missing = [k for k in ("w1", "b1", "w2", "b2") if k not in blob]
        if missing:
            raise ValueError(f"{path}: parameter bundle is missing keys {missing}")
        return OrderHeadParams(
            w1=_check_float_array(blob["w1"], "w1"),
            b1=_check_float_array(blob["b1"], "b1"),
            w2=_check_float_array(blob["w2"], "w2"),
            b2=_check_float_array(blob["b2"], "b2"),
            activation=activation,
        )
