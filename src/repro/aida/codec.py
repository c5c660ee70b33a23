"""Compact durable codec for the numpy arrays inside AIDA payloads.

Results cross the in-process planes as frozen objects (see
:mod:`repro.aida.base`); the dict form — ``to_dict()`` / ``from_dict()``
— is only their *durable* form: checkpoints and the oracle digest.  The
seed implementation spelled every array out as a Python list via
``tolist()`` — readable, but ~18 bytes per float once JSON-encoded.

This module encodes arrays as dtype-tagged raw bytes instead (base64 in
the JSON form), ~10.7 bytes per float (8 raw × 4/3 base64), decoded with
a single ``frombuffer``.  Small arrays stay plain lists — below
:data:`MIN_CODEC_SIZE` elements the base64 envelope would not pay for its
own framing, and tiny payloads stay human-readable in logs and tests.

:func:`decode_array` accepts both forms, so list-form payloads (and
hand-written test fixtures) keep deserializing unchanged.
:func:`payload_nbytes` sizes an AIDA object or tree as its ``to_dict()``
form without building it, so byte metrics stay exact without a wire.
"""

from __future__ import annotations

import base64
from typing import Any, Optional, Union

import numpy as np

#: Arrays with fewer elements than this are serialized as plain lists.
MIN_CODEC_SIZE = 24

#: Marker key of an encoded-array dict (unlikely to collide with real data).
ENCODED_KEY = "__ndarray__"


def encode_array(array: np.ndarray) -> Union[list, dict]:
    """Serialize *array* to its JSON-compatible wire form.

    Returns a dtype-tagged base64 dict for arrays of at least
    :data:`MIN_CODEC_SIZE` elements, otherwise a plain (possibly nested)
    list.
    """
    array = np.ascontiguousarray(array)
    if array.size < MIN_CODEC_SIZE:
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

    An AIDA object or tree (anything with ``to_wire``) counts as its
    ``to_dict()`` form, each array sized from its shape and dtype instead
    of being encoded; one with ``wire_nbytes()`` answers that integer.  The
    exact types a ``to_dict()`` payload is made of are answered first;
    subclasses and everything else take the ``isinstance`` chain below.
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
            elif kind is _EncodedSize:
                total += value.nbytes
            else:
                total += payload_nbytes(value)
        return total
    if kind is list:
        kinds = set(map(type, data))
        if kinds <= _PLAIN_NUMBERS:
            return sum(map(len, map(repr, data))) + 2 * len(data)
        if kinds == {str}:
            return sum(map(len, data)) + 4 * len(data)
        return sum(map(payload_nbytes, data)) + 2 * len(data)
    wire_nbytes = getattr(data, "wire_nbytes", None)
    if wire_nbytes is not None:
        return wire_nbytes()
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
    to_wire = getattr(data, "to_wire", None)
    if to_wire is not None:
        return payload_nbytes(to_wire(encoded_size))
    return 64


class _EncodedSize:
    """Stands in for ``encode_array(array)``: knows only its size."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes


#: An encoded-array dict's size minus dtype tag, shape and base64 text.
_ENCODED_FRAME = payload_nbytes(
    {ENCODED_KEY: 1, "dtype": "", "shape": [], "data": ""}
)


def encoded_size(array: np.ndarray) -> Union[list, _EncodedSize]:
    """What ``payload_nbytes(encode_array(array))`` reads, from shape and
    dtype alone (``to_wire``'s array hook for sizing): small arrays are
    their list form, large ones their frame plus ``4 * ceil(nbytes / 3)``."""
    if array.size < MIN_CODEC_SIZE:
        return array.tolist()
    shape = sum(len(repr(n)) + 2 for n in array.shape)
    return _EncodedSize(
        _ENCODED_FRAME + len(array.dtype.str) + shape + 4 * -(-array.nbytes // 3)
    )
