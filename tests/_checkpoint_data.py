"""Test-side helpers for editing checkpoint arrays and corpus views.

A checkpoint (format 2) stores each array, and a corpus (v2) each view, as
the base64 text of its little-endian float64 bytes in C order.
``decode``/``encode`` convert between that text and a flat writable array,
so a test can change chosen entries and write the file back; ``as_format_1`` rewrites a payload the way
the replaced format 1 stored it (every array a flat list of floats).
"""

import base64

import numpy as np


def decode(data: str) -> np.ndarray:
    """A checkpoint array's flat values, as a writable float64 copy."""
    return np.frombuffer(base64.b64decode(data, validate=True), "<f8").copy()


def encode(values) -> str:
    """Flat values as checkpoint array text."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def reencode_bytes(data: str, edit) -> str:
    """``data`` with its raw bytes passed through ``edit`` (bytes -> bytes)."""
    return base64.b64encode(edit(base64.b64decode(data))).decode("ascii")


def as_format_1(payload: dict) -> dict:
    """``payload`` in the replaced format 1: float lists instead of text."""
    old = dict(payload, format_version=1)
    old["params"] = {name: {"shape": rec["shape"], "data": decode(rec["data"]).tolist()}
                     for name, rec in payload["params"].items()}
    for field in ("opt_m", "opt_v"):
        old[field] = {name: decode(data).tolist() for name, data in payload[field].items()}
    return old
