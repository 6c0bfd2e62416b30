"""Ledger record ids: the incremental count equals a full re-count.

``append_record`` numbers each record by the count of non-blank lines
already in the file.  It caches that count per path and reads only the
bytes appended since, so each differential case here compares the id
against the full re-count of the file before the append, while other
writers add blank lines, leave and complete torn tails, rotate and
truncate the file.
"""

from __future__ import annotations

import os

import pytest

from repro.obs import ledger


def full_count(path):
    """The count a fresh reader makes: every non-blank text line."""
    if not os.path.exists(path):
        return 0
    with open(path, "r", encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


def _record(i):
    argv = ["--i", str(i)]
    return {
        "command": "detect",
        "argv": argv,
        "args_fingerprint": ledger.fingerprint_args("detect", argv),
        "started_at": "2026-01-01T00:00:00Z",
        "wall_ms": 1,
        "cpu_ms": 1,
        "exit_code": 0,
        "stats": {},
        "metrics": {},
        "spans": [],
    }


def _write(path, data, mode="a"):
    with open(path, mode, encoding="utf-8", newline="") as handle:
        handle.write(data)


class Appender:
    """Appends through ``append_record`` and checks every id."""

    def __init__(self, path):
        self.path = path
        self.n = 0

    def append(self, times=1):
        for _ in range(times):
            expected = full_count(self.path) + 1
            record = ledger.append_record(self.path, _record(self.n))
            self.n += 1
            assert int(record["id"].split("-")[0]) == expected


@pytest.fixture
def appender(tmp_path):
    return Appender(str(tmp_path / "runs.jsonl"))


class TestIncrementalCount:
    def test_plain_appends(self, appender):
        appender.append(20)
        assert full_count(appender.path) == 20
        # The cache covers all but the line appended last: the next
        # append reads that one line, not the whole file.
        with open(appender.path, "rb") as handle:
            last = handle.readlines()[-1]
        offset = ledger._COUNTED[appender.path][2]
        assert offset == os.path.getsize(appender.path) - len(last)

    def test_blank_lines(self, appender):
        appender.append()
        _write(appender.path, "\n  \n\t\n")
        appender.append()
        _write(appender.path, "\n")
        appender.append(2)

    def test_universal_newlines(self, appender):
        appender.append()
        _write(appender.path, "a\rb\r\nc\r\r\n")
        appender.append()

    def test_torn_tail_completed_by_another_writer(self, appender):
        appender.append()
        _write(appender.path, '{"torn": ')
        appender.append()  # lands after the torn bytes, on the same line
        _write(appender.path, '{"torn": ')
        appender.append()  # the torn line counts, our append joins it
        appender.append()
        _write(appender.path, "{partial")
        appender.append()
        _write(appender.path, "more}\n")
        appender.append()

    def test_tail_completed_before_next_append(self, appender):
        appender.append()
        _write(appender.path, "{half")
        appender.append()
        _write(appender.path, "\n\n")
        appender.append()

    def test_rotated_file(self, appender, tmp_path):
        appender.append(3)
        fresh = str(tmp_path / "fresh.jsonl")
        _write(fresh, "x\n\ny\n", mode="w")
        os.replace(fresh, appender.path)
        appender.append(2)
        os.remove(appender.path)
        appender.append()

    def test_truncated_file(self, appender):
        appender.append(4)
        with open(appender.path, "r+b") as handle:
            first = handle.readline()
            handle.truncate(len(first))
        appender.append()
        with open(appender.path, "r+b") as handle:
            handle.truncate(0)
        appender.append(2)

    def test_rewritten_in_place(self, appender):
        appender.append(3)
        size = os.path.getsize(appender.path)
        # Same inode, not shorter, but the cached offset no longer
        # follows a newline: counting starts over.
        _write(appender.path, "z" * (size + 10) + "\n", mode="w")
        appender.append(2)

    def test_second_writer_between_appends(self, appender):
        other = Appender(appender.path)
        appender.append()
        other.append(3)
        appender.append()
        _write(appender.path, "foreign\n")
        other.append()
        appender.append(2)
