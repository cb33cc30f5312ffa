"""Record format tests: roundtrips, byte-identity, refusing leftovers."""

import json

import pytest

from repro.errors import CorruptLog
from repro.storage.codec import decode, encode

SAMPLES = [
    None,
    True,
    False,
    0,
    7,
    -7,
    2 ** 70,
    -(2 ** 70),
    1.5,
    -0.25,
    "",
    "hello",
    "naïve — ünïcode ✓",
    [],
    [1, "two", [3.0, None], {"k": False}],
    {},
    {"doc:1": 3, "doc:2": 1},
    {"nested": {"a": [1, 2, 3]}, "f": 0.5},
]


@pytest.mark.parametrize("value", SAMPLES)
def test_roundtrip(value):
    assert decode(encode(value)) == value


def test_encode_matches_historical_format():
    """The record format must stay byte-identical to the hand-rolled
    ``json.dumps(...).encode("utf-8")`` it replaced — existing stores
    depend on it."""
    value = {"kind": "txn", "ops": [["insert", "pages", 1, {"url": "u"}]]}
    assert encode(value) == json.dumps(
        value, separators=(",", ":")
    ).encode("utf-8")


def test_legacy_ascii_int_records_decode():
    """Sequence counters and doc lengths were stored as bare ascii ints;
    they read unchanged."""
    assert decode(b"42") == 42


def test_unencodable_type_raises():
    with pytest.raises(TypeError):
        encode(object())


def test_removed_binary_codec_records_are_refused_by_name():
    """0xB1 led every record of the removed binary codec and never
    begins UTF-8 JSON text, so such a record is a leftover, not JSON."""
    for value in SAMPLES:
        assert encode(value)[:1] != b"\xb1"
    with pytest.raises(CorruptLog, match="removed 'binary' codec"):
        decode(b"\xb1\x01\x08\x01\x05\x01k\x03\x02")
