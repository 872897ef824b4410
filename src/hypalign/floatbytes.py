"""The float64 text encoding that corpus and checkpoint files share.

An array is stored as the base64 text of its little-endian IEEE-754 float64
bytes in C order, so every value (signed zeros, subnormals, infinities and
NaN payloads included) reads back bit for bit.
"""

from __future__ import annotations

import base64

import numpy as np


def encode(a) -> str:
    """``a``'s little-endian float64 bytes in C order, as base64 text."""
    return base64.b64encode(np.ascontiguousarray(a, "<f8").tobytes()).decode("ascii")


def decode(text, count: int) -> bytes | None:
    """The little-endian float64 bytes of ``count`` values that ``text``
    encodes, or None if it is not a string of strict base64 holding exactly
    that many."""
    if not isinstance(text, str):
        return None
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:          # not base64, or not ASCII
        return None
    return raw if len(raw) == 8 * count else None
