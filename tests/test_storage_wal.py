"""Tests for the write-ahead log: framing, replay, recovery, compaction."""

import errno
import os

import pytest

from repro.errors import StoreClosed
from repro.storage.wal import MAX_RECORD_BYTES, WriteAheadLog, encode_record


def test_append_and_replay_roundtrip(tmp_path):
    log = WriteAheadLog(tmp_path / "a.wal")
    payloads = [b"alpha", b"", b"\x00binary\xff", b"x" * 10_000]
    for p in payloads:
        log.append(p)
    assert list(log.replay()) == payloads
    log.close()


def test_replay_after_reopen(tmp_path):
    path = tmp_path / "a.wal"
    with WriteAheadLog(path) as log:
        log.append(b"one")
        log.append(b"two")
    with WriteAheadLog(path) as log:
        assert list(log.replay()) == [b"one", b"two"]


def test_append_returns_monotone_offsets(tmp_path):
    log = WriteAheadLog(tmp_path / "a.wal")
    offsets = [log.append(b"rec%d" % i) for i in range(5)]
    assert offsets == sorted(offsets)
    assert offsets[0] == 0
    log.close()


def test_torn_tail_is_truncated_on_recovery(tmp_path):
    path = tmp_path / "a.wal"
    with WriteAheadLog(path) as log:
        log.append(b"good-1")
        log.append(b"good-2")
    # Simulate a crash mid-write: append half a record.
    with open(path, "ab") as fh:
        fh.write(encode_record(b"torn-record")[:7])
    with WriteAheadLog(path) as log:
        assert list(log.replay()) == [b"good-1", b"good-2"]
        # And the log is writable again after truncation.
        log.append(b"good-3")
        assert list(log.replay()) == [b"good-1", b"good-2", b"good-3"]


def test_corrupt_middle_record_truncates_rest(tmp_path):
    path = tmp_path / "a.wal"
    with WriteAheadLog(path) as log:
        log.append(b"keep")
        second_off = log.append(b"corrupt-me")
        log.append(b"lost")
    data = bytearray(path.read_bytes())
    data[second_off + 8] ^= 0xFF  # flip a payload byte of record 2
    path.write_bytes(bytes(data))
    with WriteAheadLog(path) as log:
        assert list(log.replay()) == [b"keep"]


def test_rewrite_replaces_contents_atomically(tmp_path):
    path = tmp_path / "a.wal"
    log = WriteAheadLog(path)
    for i in range(10):
        log.append(b"old-%d" % i)
    log.rewrite([b"new-1", b"new-2"])
    assert list(log.replay()) == [b"new-1", b"new-2"]
    log.append(b"new-3")
    assert list(log.replay()) == [b"new-1", b"new-2", b"new-3"]
    log.close()
    assert not os.path.exists(str(path) + ".compact")


def test_closed_log_rejects_appends(tmp_path):
    log = WriteAheadLog(tmp_path / "a.wal")
    log.close()
    with pytest.raises(StoreClosed):
        log.append(b"nope")
    assert log.closed


def test_oversized_record_rejected(tmp_path):
    from repro.errors import CorruptLog
    with pytest.raises(CorruptLog):
        encode_record(b"x" * (MAX_RECORD_BYTES + 1))


def test_size_bytes_grows(tmp_path):
    log = WriteAheadLog(tmp_path / "a.wal")
    assert log.size_bytes() == 0
    log.append(b"abc")
    first = log.size_bytes()
    assert first == 8 + 3
    log.append(b"defg")
    assert log.size_bytes() == first + 8 + 4
    log.close()


def test_empty_log_replay(tmp_path):
    with WriteAheadLog(tmp_path / "a.wal") as log:
        assert list(log.replay()) == []


def _refuse_once(real):
    """A stand-in for *real* whose first call raises ENOSPC."""
    calls = []

    def refuse(*args):
        calls.append(args)
        if len(calls) == 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(*args)
    return refuse


@pytest.mark.parametrize("many", [False, True], ids=["append", "append_many"])
def test_a_refused_fsync_takes_the_record_back(tmp_path, monkeypatch, many):
    path = tmp_path / "a.wal"
    log = WriteAheadLog(path, sync=True)
    log.append(b"keep")
    size = log.size_bytes()
    monkeypatch.setattr(os, "fsync", _refuse_once(os.fsync))
    with pytest.raises(OSError):
        if many:
            log.append_many([b"gone-1", b"gone-2"])
        else:
            log.append(b"gone")
    assert not log.closed
    assert log.size_bytes() == size
    assert log.append(b"next") == size
    assert list(log.replay()) == [b"keep", b"next"]
    log.close()
    with WriteAheadLog(path) as reopened:
        assert list(reopened.replay()) == [b"keep", b"next"]


class _ShortWrites:
    """A log file whose first write takes 5 bytes and whose second raises."""

    def __init__(self, fh):
        self._fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(bytes(data[:5]))

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_a_refused_write_takes_back_the_bytes_it_wrote(tmp_path):
    path = tmp_path / "a.wal"
    log = WriteAheadLog(path)
    log.append(b"keep")
    size = log.size_bytes()
    real, log._fh = log._fh, _ShortWrites(log._fh)
    with pytest.raises(OSError):
        log.append(b"a record longer than five bytes")
    assert log._fh.writes == 2 and log.size_bytes() == size
    log._fh = real
    log.append(b"next")
    assert list(log.replay()) == [b"keep", b"next"]
    log.close()


def test_a_failed_take_back_closes_the_log(tmp_path, monkeypatch):
    log = WriteAheadLog(tmp_path / "a.wal", sync=True)
    log.append(b"keep")

    def refuse(*args):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "fsync", refuse)
    monkeypatch.setattr(os, "ftruncate", refuse)
    with pytest.raises(OSError):
        log.append(b"unknown")
    assert log.closed
    with pytest.raises(StoreClosed):
        log.append(b"after")
