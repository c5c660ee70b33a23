"""Compact wire codec for the numpy arrays inside AIDA payloads.

Every engine snapshot ships histogram statistics to the AIDA manager as
plain dicts (the stand-in for Java serialization over RMI, §3.7).  The
seed implementation spelled every array out as a Python list via
``tolist()`` — readable, but ~18 bytes per float once JSON-encoded and a
full list↔ndarray conversion on both ends of the hot merge path.

This module encodes arrays as dtype-tagged raw bytes instead (base64 in
the JSON form), cutting the steady-state payload to ~10.7 bytes per float
(8 raw × 4/3 base64) and replacing the element-wise list conversion with a
single ``frombuffer`` on decode.  Small arrays stay plain lists — below
:data:`MIN_CODEC_SIZE` elements the base64 envelope would not pay for its
own framing, and tiny payloads stay human-readable in logs and tests.

:func:`decode_array` accepts both forms, so pre-codec payloads (and
hand-written test fixtures) keep deserializing unchanged.
"""

from __future__ import annotations

import base64
import copy
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Union

import numpy as np

#: Arrays with fewer elements than this are serialized as plain lists.
MIN_CODEC_SIZE = 24

#: Marker key of an encoded-array dict (unlikely to collide with real data).
ENCODED_KEY = "__ndarray__"

_enabled = True


def codec_enabled() -> bool:
    """Whether :func:`encode_array` currently emits the compact form."""
    return _enabled


def set_codec_enabled(flag: bool) -> None:
    """Globally enable/disable the compact form (lists are always legal)."""
    global _enabled
    _enabled = bool(flag)


@contextmanager
def codec_disabled() -> Iterator[None]:
    """Context manager: force plain-list encoding (the pre-codec wire form).

    Used by benchmarks to measure the old payload path and by tests that
    want to pin the fallback behaviour.
    """
    previous = _enabled
    set_codec_enabled(False)
    try:
        yield
    finally:
        set_codec_enabled(previous)


def encode_array(array: np.ndarray) -> Union[list, dict]:
    """Serialize *array* to its JSON-compatible wire form.

    Returns a dtype-tagged base64 dict for arrays of at least
    :data:`MIN_CODEC_SIZE` elements (when the codec is enabled), otherwise
    a plain (possibly nested) list.
    """
    array = np.ascontiguousarray(array)
    if not _enabled or array.size < MIN_CODEC_SIZE:
        return array.tolist()
    return {
        ENCODED_KEY: 1,
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def is_encoded(data: Any) -> bool:
    """Whether *data* is the compact encoded-array form."""
    return isinstance(data, dict) and ENCODED_KEY in data


def decode_array(data: Any, dtype: Optional[Any] = None) -> np.ndarray:
    """Reconstruct an array from either wire form (list or encoded dict).

    The returned array is always freshly allocated and writable — callers
    mutate histogram storage in place.  With *dtype* the result is cast
    (for lists this happens during construction, for raw bytes only when
    the stored dtype differs).
    """
    if is_encoded(data):
        raw = base64.b64decode(data["data"])
        array = np.frombuffer(raw, dtype=np.dtype(data["dtype"]))
        array = array.reshape(tuple(data["shape"])).copy()
        if dtype is not None and array.dtype != np.dtype(dtype):
            array = array.astype(dtype)
        return array
    return np.array(data, dtype=dtype)


_PLAIN_NUMBERS = frozenset((float, int))


def payload_nbytes(data: Any) -> int:
    """Deterministic JSON-size estimate of a payload, in bytes.

    A cheap recursive model (numbers at their decimal width, strings/bytes
    their length, containers the sum of their parts plus 2 bytes of framing
    per element) — close to ``len(json.dumps(...))`` without building the
    actual string in one piece on the hot path.  Non-JSON objects count a
    flat 64 bytes so service-level accounting never raises.

    Called once per published snapshot, so the exact types a ``to_dict()``
    payload is made of are answered first; subclasses and everything else
    take the ``isinstance`` chain below and get the same integer.
    """
    kind = type(data)
    if kind is str:
        return len(data) + 2
    if kind is float or kind is int:
        return len(repr(data))
    if kind is dict:
        # Most of a payload is string keys over strings and numbers:
        # sized here, without a call each.
        total = 2 * len(data)
        for key, value in data.items():
            total += len(key) + 2 if type(key) is str else payload_nbytes(key)
            kind = type(value)
            if kind is str:
                total += len(value) + 2
            elif kind is float or kind is int:
                total += len(repr(value))
            else:
                total += payload_nbytes(value)
        return total
    if kind is list:
        if set(map(type, data)) <= _PLAIN_NUMBERS:
            return sum(map(len, map(repr, data))) + 2 * len(data)
        return sum(payload_nbytes(v) + 2 for v in data)
    if data is None or isinstance(data, bool):
        return 4
    if isinstance(data, (int, float)):
        return len(repr(data))
    if isinstance(data, str):
        return len(data) + 2
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    if isinstance(data, np.ndarray):
        return int(data.nbytes)
    if isinstance(data, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) + 2 for k, v in data.items()
        )
    if isinstance(data, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(v) + 2 for v in data)
    return 64


_SHARED_TYPES = frozenset((str, int, float, bool, type(None)))


def copy_payload(data: Any) -> Any:
    """Independent copy of a JSON-shaped payload.

    ``dict`` and ``list`` are rebuilt, immutable scalars are shared, and
    anything else (a tuple, an ndarray, a subclass) goes to
    :func:`copy.deepcopy` — the isolation ``deepcopy`` gives for payloads
    that hold each container once (``to_dict()`` output does), without
    its memo bookkeeping.
    """
    kind = type(data)
    if kind in _SHARED_TYPES:
        return data
    if kind is dict:
        return {key: copy_payload(value) for key, value in data.items()}
    if kind is list:
        return [copy_payload(value) for value in data]
    return copy.deepcopy(data)
