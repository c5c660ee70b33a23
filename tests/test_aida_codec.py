"""Tests for the compact array codec (repro.aida.codec)."""

import json

import numpy as np
import pytest

from repro.aida.axis import Axis
from repro.aida.codec import (
    MIN_CODEC_SIZE,
    decode_array,
    encode_array,
    is_encoded,
    payload_nbytes,
)
from repro.aida.hist1d import Histogram1D
from repro.aida.profile import Profile1D
from repro.aida.serial import from_dict, to_dict
from repro.aida.tree import ObjectTree


# ---------------------------------------------------------------------------
# encode/decode primitives
# ---------------------------------------------------------------------------

def test_small_arrays_stay_plain_lists():
    arr = np.arange(MIN_CODEC_SIZE - 1, dtype=float)
    encoded = encode_array(arr)
    assert isinstance(encoded, list)
    assert encoded == arr.tolist()


def test_large_arrays_get_encoded():
    arr = np.arange(MIN_CODEC_SIZE, dtype=float)
    encoded = encode_array(arr)
    assert is_encoded(encoded)
    assert encoded["dtype"] == arr.dtype.str
    assert encoded["shape"] == [MIN_CODEC_SIZE]
    # The whole thing must survive JSON (the wire format).
    json.dumps(encoded)


@pytest.mark.parametrize(
    "dtype", [np.int64, np.float64, np.int32, np.float32]
)
def test_roundtrip_is_bit_exact(dtype):
    rng = np.random.default_rng(7)
    arr = (rng.random(100) * 1000).astype(dtype)
    decoded = decode_array(encode_array(arr))
    assert decoded.dtype == arr.dtype
    assert np.array_equal(decoded, arr)
    # Raw-byte exactness for floats, not approximate equality.
    assert decoded.tobytes() == arr.tobytes()


def test_roundtrip_2d_shape():
    arr = np.arange(48, dtype=float).reshape(6, 8)
    decoded = decode_array(encode_array(arr))
    assert decoded.shape == (6, 8)
    assert np.array_equal(decoded, arr)


def test_decoded_arrays_are_writable():
    arr = np.arange(64, dtype=float)
    decoded = decode_array(encode_array(arr))
    decoded[0] = -1.0  # must not raise (frombuffer alone is read-only)
    plain = decode_array(arr.tolist(), dtype=float)
    plain[0] = -1.0


def test_decode_accepts_plain_lists():
    out = decode_array([1, 2, 3], dtype=np.int64)
    assert out.dtype == np.int64
    assert out.tolist() == [1, 2, 3]


def test_decode_casts_to_requested_dtype():
    arr = np.arange(32, dtype=np.float64)
    out = decode_array(encode_array(arr), dtype=np.int64)
    assert out.dtype == np.int64


# ---------------------------------------------------------------------------
# payload size model
# ---------------------------------------------------------------------------

def test_payload_nbytes_tracks_json_size():
    payload = {
        "kind": "Histogram1D",
        "counts": list(range(100)),
        "swx": 1.5,
        "name": "h",
    }
    estimate = payload_nbytes(payload)
    actual = len(json.dumps(payload))
    assert 0.5 * actual < estimate < 2.0 * actual


def test_payload_nbytes_encoded_smaller_than_lists():
    # Full-precision doubles cost ~18 JSON chars each but only 10.7 base64
    # chars (8 raw bytes x 4/3) in the compact form.
    arr = np.random.default_rng(11).random(500)
    encoded = payload_nbytes(encode_array(arr))
    plain = payload_nbytes(arr.tolist())
    assert encoded < 0.6 * plain


def reference_payload_nbytes(data):
    """The size model as first written: one ``isinstance`` chain."""
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
            reference_payload_nbytes(k) + reference_payload_nbytes(v) + 2
            for k, v in data.items()
        )
    if isinstance(data, (list, tuple, set, frozenset)):
        return sum(reference_payload_nbytes(v) + 2 for v in data)
    return 64


@pytest.mark.parametrize("factory", [
    lambda: _filled_hist1d(),
    lambda: Histogram1D("small", bins=10, lower=0, upper=1),
    lambda: _fill_variable_edges_hist1d(),
    lambda: _fill_profile(),
    lambda: _fill_tree(),
])
def test_payload_nbytes_unchanged_on_every_object_kind(factory):
    data = factory().to_dict()
    assert payload_nbytes(data) == reference_payload_nbytes(data)


class _Text(str):
    pass


class _Table(dict):
    pass


@pytest.mark.parametrize("data", [
    None, True, False, 0, -17, 2.5, float("inf"), "", "text", b"raw",
    bytearray(b"raw"), np.arange(6.0), np.float64(1.25), np.int64(7),
    (1, 2.0, "x"), {1, 2}, frozenset({"a"}), object(), _Text("sub"),
    _Table(a=[1.0, 2.0]), [], [1.0, 2, 3.5], [1.0, True, None], [[1.0], [2]],
    {"k": [False, 1.5, "s", None, (1, 2)], 3: {"n": np.zeros(2)}},
])
def test_payload_nbytes_unchanged_on_odd_values(data):
    assert payload_nbytes(data) == reference_payload_nbytes(data)


# ---------------------------------------------------------------------------
# adoption by the object classes
# ---------------------------------------------------------------------------

def _filled_hist1d(bins=200, n=1000):
    hist = Histogram1D("h", bins=bins, lower=0.0, upper=1.0)
    rng = np.random.default_rng(3)
    hist.fill_array(rng.random(n), rng.random(n))
    return hist


@pytest.mark.parametrize("factory", [
    lambda: _filled_hist1d(),
    lambda: _fill_variable_edges_hist1d(),
    lambda: _fill_profile(),
])
def test_objects_roundtrip_bit_exact_through_codec(factory):
    obj = factory()
    data = json.loads(json.dumps(to_dict(obj)))  # force a real wire trip
    restored = from_dict(data)
    assert to_dict(restored) == to_dict(obj)


def _fill_variable_edges_hist1d():
    hist = Histogram1D("v", edges=np.linspace(0.0, 1.0, 41) ** 2)
    rng = np.random.default_rng(4)
    hist.fill_array(rng.random(500), rng.random(500))
    return hist


def _fill_profile():
    prof = Profile1D("p", bins=100, lower=0, upper=1)
    rng = np.random.default_rng(5)
    prof.fill_array(rng.random(400), rng.random(400))
    return prof


def _fill_tree():
    tree = ObjectTree()
    tree.put("/a/h1", _filled_hist1d())
    tree.put("/a/v", _fill_variable_edges_hist1d())
    tree.put("/b/profile", _fill_profile())
    return tree


def test_hist1d_wire_form_uses_codec_when_large():
    hist = _filled_hist1d(bins=200)
    data = hist.to_dict()
    assert is_encoded(data["counts"])
    assert is_encoded(data["sumw"])
    small = Histogram1D("s", bins=10, lower=0, upper=1).to_dict()
    assert isinstance(small["counts"], list)


def test_axis_variable_edges_roundtrip():
    edges = np.linspace(0.0, 1.0, 50) ** 2
    axis = Axis(edges=edges)
    restored = Axis.from_dict(axis.to_dict())
    assert restored == axis
    assert is_encoded(axis.to_dict()["edges"])


def test_pre_codec_payloads_still_deserialize():
    hist = _filled_hist1d(bins=200)
    legacy = {
        key: decode_array(value).tolist() if is_encoded(value) else value
        for key, value in hist.to_dict().items()
    }
    assert isinstance(legacy["counts"], list)
    restored = Histogram1D.from_dict(legacy)
    assert restored == hist


# ---------------------------------------------------------------------------
# data_version counters (delta-snapshot dirty tracking)
# ---------------------------------------------------------------------------

def test_data_version_bumps_on_mutation():
    hist = Histogram1D("h", bins=10, lower=0, upper=1)
    v0 = hist.data_version
    hist.fill(0.5)
    assert hist.data_version > v0
    v1 = hist.data_version
    hist.fill_array([0.1, 0.2])
    assert hist.data_version > v1
    v2 = hist.data_version
    hist.reset()
    assert hist.data_version > v2
    other = Histogram1D("h", bins=10, lower=0, upper=1)
    v3 = hist.data_version
    hist += other
    assert hist.data_version > v3


def test_data_version_stable_without_mutation():
    hist = _filled_hist1d()
    before = hist.data_version
    hist.to_dict()
    _ = hist.mean, hist.rms, hist.entries
    assert hist.data_version == before


def test_tree_versions_fingerprints():
    from repro.aida.tree import ObjectTree

    tree = ObjectTree()
    hist = Histogram1D("h", bins=10, lower=0, upper=1)
    tree.put("/dir/h", hist)
    v1 = tree.versions()
    assert set(v1) == {"/dir/h"}
    hist.fill(0.5)
    v2 = tree.versions()
    assert v2["/dir/h"] != v1["/dir/h"]
    # Re-putting a fresh object changes the put generation.
    tree.remove("/dir/h")
    tree.put("/dir/h", Histogram1D("h", bins=10, lower=0, upper=1))
    v3 = tree.versions()
    assert v3["/dir/h"][0] != v2["/dir/h"][0]


def test_tree_frozen_copy_only_filter():
    tree = ObjectTree()
    tree.put("/a", Histogram1D("a", bins=5, lower=0, upper=1))
    tree.put("/b", Histogram1D("b", bins=5, lower=0, upper=1))
    full = tree.frozen_copy()
    partial = tree.frozen_copy(only={"/b"})
    assert full.paths() == ["/a", "/b"]
    assert partial.paths() == ["/b"]
    assert partial.get("/b") is not tree.get("/b")
    assert partial.to_dict()["objects"]["/b"] == tree.get("/b").to_dict()


# ---------------------------------------------------------------------------
# byte model: an object is sized as its to_dict() form, without encoding
# ---------------------------------------------------------------------------

def _hist1d_with_bins(bins):
    hist = Histogram1D("h", bins=bins, lower=0.0, upper=1.0)
    hist.fill_array(np.linspace(-0.1, 1.1, 37), np.linspace(0.5, 2.0, 37))
    return hist


def _non_finite_hist1d():
    hist = _hist1d_with_bins(40)
    hist.fill(0.5, weight=float("inf"))
    hist._swx2 = float("nan")
    return hist


def _variable_edges_profile():
    prof = Profile1D("p", edges=np.linspace(0.0, 1.0, 30) ** 2)
    prof.fill_array([0.1, 0.5, 0.9], [1.0, -2.0, 3.5])
    return prof


BYTE_MODEL_CASES = {
    # MIN_CODEC_SIZE = 24: storage arrays are bins + 2 long.
    "hist1d_list_form": lambda: _hist1d_with_bins(MIN_CODEC_SIZE - 3),
    "hist1d_at_codec_size": lambda: _hist1d_with_bins(MIN_CODEC_SIZE - 2),
    "hist1d_above_codec_size": lambda: _hist1d_with_bins(200),
    "hist1d_non_finite": _non_finite_hist1d,
    "hist1d_empty": lambda: Histogram1D("e", "Empty", bins=1, lower=-1, upper=1),
    "profile_list_form": lambda: Profile1D("p", bins=5, lower=0, upper=1),
    "profile_variable_edges": _variable_edges_profile,
    "tree": lambda: _fill_tree(),
    "tree_empty": ObjectTree,
    "tree_frozen_mixed": lambda: _mixed_tree().frozen_copy(),
}


def _mixed_tree():
    tree = ObjectTree()
    tree.put("/small/h", _hist1d_with_bins(3))
    tree.put("/large/h", _non_finite_hist1d())
    tree.put("/p", _variable_edges_profile())
    return tree


@pytest.mark.parametrize("case", sorted(BYTE_MODEL_CASES))
def test_payload_nbytes_of_objects_equals_their_dict_form(case):
    obj = BYTE_MODEL_CASES[case]()
    assert payload_nbytes(obj) == payload_nbytes(obj.to_dict())
    # An object in a larger payload (a poll reply) is sized the same way.
    reply = (obj, {"progress": 1})
    assert payload_nbytes(reply) == payload_nbytes((obj.to_dict(), {"progress": 1}))


@pytest.mark.parametrize("bins", [MIN_CODEC_SIZE - 3, MIN_CODEC_SIZE - 2, 200])
def test_a_histogram_is_sized_afresh_after_every_change(bins):
    """The kept frame of a histogram's size follows its name, title, axis
    and moments: every edit is sized like the dict form it would send."""
    hist = _hist1d_with_bins(bins)
    copies = [hist, hist.copy(), hist.copy(name="a_longer_name"), hist.copy()]
    copies[1].fill(0.5, weight=1.0 / 3.0)
    copies[3].title = "a title of another length"
    copies += [
        Histogram1D("h", bins=bins, lower=-10.0, upper=0.0),
        Histogram1D("h", bins=bins, lower=-10.0, upper=-0.0),  # an equal edge of another size
        Histogram1D("h", edges=np.linspace(0.0, 1.0, bins + 1) ** 2),
    ]
    for obj in copies:
        assert payload_nbytes(obj) == payload_nbytes(obj.to_dict())
