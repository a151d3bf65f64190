"""Envelope framing and checksummed-line records: every damage class
maps to its typed error."""

import json

import pytest

from repro.store import (
    DigestMismatch,
    MalformedRecord,
    SchemaMismatch,
    TruncatedArtifact,
    append_checked_line,
    checked_line,
    read_checked_lines,
    read_json_artifact,
    verify_envelope,
    write_json_artifact,
)

_PAYLOAD = {"answer": 42, "nested": {"values": list(range(40))}}


def _write(tmp_path, name="a.json", kind="unit-test", schema=1, payload=None):
    path = str(tmp_path / name)
    write_json_artifact(path, kind, schema, payload or _PAYLOAD)
    return path


# ------------------------------------------------------------- envelope


def test_envelope_roundtrip(tmp_path):
    path = _write(tmp_path)
    value, meta = read_json_artifact(path, "unit-test")
    assert value == _PAYLOAD
    assert meta.kind == "unit-test" and meta.schema == 1
    assert verify_envelope(path).digest == meta.digest


def test_envelope_wrong_kind_is_schema_mismatch(tmp_path):
    path = _write(tmp_path, kind="machine-snapshot")
    with pytest.raises(SchemaMismatch) as excinfo:
        read_json_artifact(path, "fuzz-reproducer")
    assert excinfo.value.found == "machine-snapshot"


def test_envelope_schema_enforced_when_requested(tmp_path):
    path = _write(tmp_path, schema=7)
    value, meta = read_json_artifact(path, "unit-test")  # no expectation: ok
    assert meta.schema == 7
    with pytest.raises(SchemaMismatch):
        read_json_artifact(path, "unit-test", expected_schema=8)


def test_envelope_truncation_detected(tmp_path):
    path = _write(tmp_path)
    raw = open(path, "rb").read()
    for keep in (len(raw) // 2, len(raw) - 5):
        open(path, "wb").write(raw[:keep])
        with pytest.raises(TruncatedArtifact):
            read_json_artifact(path, "unit-test")


def test_envelope_empty_file_is_truncated(tmp_path):
    path = str(tmp_path / "empty.json")
    open(path, "w").close()
    with pytest.raises(TruncatedArtifact):
        read_json_artifact(path, "unit-test")


def test_envelope_every_single_byte_flip_detected(tmp_path):
    """Acceptance: corrupting ANY single byte yields a typed
    ArtifactError — walk the whole file, flipping one bit at a time."""
    path = _write(tmp_path, payload={"k": "v" * 64})
    raw = open(path, "rb").read()
    for offset in range(len(raw)):
        damaged = bytearray(raw)
        damaged[offset] ^= 0x04
        open(path, "wb").write(bytes(damaged))
        with pytest.raises((TruncatedArtifact, DigestMismatch,
                            MalformedRecord, SchemaMismatch)):
            read_json_artifact(path, "unit-test")


def test_envelope_trailing_garbage_detected(tmp_path):
    path = _write(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b"junk from a concurrent writer")
    with pytest.raises(MalformedRecord):
        read_json_artifact(path, "unit-test")


def test_legacy_plain_json_reads_transparently(tmp_path):
    """The pre-envelope plain-JSON format is no longer read: a
    well-formed unframed file is a typed SchemaMismatch, not a payload."""
    path = str(tmp_path / "legacy.json")
    with open(path, "w") as fh:
        json.dump(_PAYLOAD, fh)
    with pytest.raises(SchemaMismatch):
        read_json_artifact(path, "unit-test")


def test_legacy_corrupt_json_is_malformed_not_jsondecodeerror(tmp_path):
    """Torn unframed JSON fails typed (SchemaMismatch, an ArtifactError),
    never as a bare JSONDecodeError."""
    path = str(tmp_path / "legacy.json")
    open(path, "w").write('{"truncated": [1, 2,')
    with pytest.raises(SchemaMismatch):
        read_json_artifact(path, "unit-test")


# ------------------------------------------------------- checked lines


def test_checked_lines_roundtrip(tmp_path):
    path = str(tmp_path / "log")
    records = [{"n": i, "data": "x" * i} for i in range(10)]
    for record in records:
        append_checked_line(path, record)
    result = read_checked_lines(path)
    assert result.clean
    assert result.records == records


def test_checked_lines_torn_tail_salvages_prefix(tmp_path):
    path = str(tmp_path / "log")
    for i in range(5):
        append_checked_line(path, {"n": i})
    with open(path, "ab") as fh:
        fh.write(b'0123456789abcdef {"n": 5, "partial')  # crash mid-append
    result = read_checked_lines(path)
    assert not result.clean and result.torn_tail
    assert result.bad_line == 6
    assert [r["n"] for r in result.records] == [0, 1, 2, 3, 4]


def test_checked_lines_interior_damage_stops_prefix(tmp_path):
    path = str(tmp_path / "log")
    for i in range(5):
        append_checked_line(path, {"n": i})
    raw = open(path, "rb").read().split(b"\n")
    raw[2] = raw[2][:-3] + b"xyz"  # corrupt line 3's json body
    open(path, "wb").write(b"\n".join(raw))
    result = read_checked_lines(path)
    assert not result.clean and not result.torn_tail
    assert result.bad_line == 3
    assert [r["n"] for r in result.records] == [0, 1]


def test_checked_line_digest_is_order_sensitive():
    assert checked_line({"a": 1, "b": 2}) == checked_line({"b": 2, "a": 1})
    assert checked_line({"a": 1}) != checked_line({"a": 2})
