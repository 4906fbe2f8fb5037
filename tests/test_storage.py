"""The durability substrate: frame bytes, salvage at every byte, publish.

One property covers salvage for every framed format: damage a small log
by truncating it at every byte offset, or by flipping any single bit,
and the scan returns exactly the frames before the first damaged one,
without raising.  The sweeps at the end put every truncation of one small
file per format through that format's real reader.
"""

from __future__ import annotations

import itertools

import pytest

from repro import storage
from repro.execution import faults
from repro.service.jobstore import JOURNAL_MAGIC, JobStore, load_jobs
from repro.telemetry.columnar import (
    _encode_json_chunk,
    columnar_tail_round,
    write_trace_records,
)
from repro.telemetry.jsonl import COLUMNAR_MAGIC, read_trace

MAGICS = [COLUMNAR_MAGIC, JOURNAL_MAGIC]
BODIES = [b"", b"x", b"hello", bytes(range(40)), b"0123456789" * 30]


def _log(magic):
    """A log of mixed-size frames, with the end offset of each frame."""
    frames = [storage.frame(magic, body) for body in BODIES]
    return b"".join(frames), list(itertools.accumulate(map(len, frames)))


def _frame_ends(data, magic):
    frames = storage.FrameScan(data, magic)
    starts = [frames.end for _ in frames]
    return starts[1:] + [frames.end]


class TestFrameBytes:
    def test_frames_match_the_pinned_bytes(self):
        # Hex computed before framing moved into repro.storage: files
        # written then and now are the same bytes.
        journal = storage.frame(JOURNAL_MAGIC, b'{"seq":1}')
        assert journal.hex() == (
            "524a4e4c090000007b22736571223a317d6dbc89a519000000"
        )
        chunk = _encode_json_chunk([{"kind": "span", "name": "x"}])
        assert chunk.hex() == (
            "52434f4c410000001f0000007b22636f756e74223a312c226b696e64223a22"
            "6a736f6e222c2276223a317d7b226b696e64223a20227370616e222c20226e"
            "616d65223a202278227d0ae434f9ec51000000"
        )

    def test_a_foreign_magic_ends_the_scan(self):
        a = storage.frame(COLUMNAR_MAGIC, b"a")
        b = storage.frame(JOURNAL_MAGIC, b"b")
        scan = storage.FrameScan(a + b + a, COLUMNAR_MAGIC)
        assert list(scan) == [b"a"]
        assert (scan.end, scan.error) == (len(a), "bad magic (not a frame boundary)")
        assert scan.next_frame() == len(a + b)


@pytest.mark.parametrize("magic", MAGICS, ids=["RCOL", "RJNL"])
class TestSalvageProperty:
    def test_every_truncation_keeps_the_whole_frames(self, magic):
        log, ends = _log(magic)
        for cut in range(len(log) + 1):
            whole = sum(end <= cut for end in ends)
            scan = storage.FrameScan(log[:cut], magic)
            assert list(scan) == BODIES[:whole], cut
            assert scan.end == (ends[whole - 1] if whole else 0)
            assert (scan.error is None) == (scan.end == cut)
            assert scan.next_frame() is None  # a torn tail, nothing after

    def test_every_truncation_walks_back_only_from_a_frame_end(self, magic):
        log, ends = _log(magic)
        for cut in range(len(log) + 1):
            scan = storage.FrameScan(log[:cut], magic)
            backward = list(reversed(scan))
            if cut in [0, *ends]:
                whole = sum(end <= cut for end in ends)
                assert backward == BODIES[:whole][::-1], cut
                assert (scan.end, scan.error) == (0, None)
            else:  # the last frame is torn: nothing checks out from EOF
                assert backward == [], cut
                assert (scan.end, scan.error is None) == (cut, False)

    def test_every_bit_flip_keeps_the_frames_before_it(self, magic):
        log, ends = _log(magic)
        for byte in range(len(log)):
            damaged = sum(end <= byte for end in ends)
            for bit in range(8):
                data = bytearray(log)
                data[byte] ^= 1 << bit
                scan = storage.FrameScan(bytes(data), magic)
                assert list(scan) == BODIES[:damaged], (byte, bit)
                assert scan.end == (ends[damaged - 1] if damaged else 0)
                assert scan.error is not None
                # The frames after the damaged one are still found.
                following = ends[damaged] if damaged + 1 < len(ends) else None
                assert scan.next_frame() == following
                # Walking back from EOF stops at the damaged frame.
                assert list(reversed(scan)) == BODIES[damaged + 1:][::-1]
                assert scan.end == ends[damaged] and scan.error is not None


class TestPublishAndStream:
    def test_publish_replaces_the_file_and_leaves_no_staging_file(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_bytes(b"old")
        assert storage.publish(target, b"new ", b"bytes") == target
        assert target.read_bytes() == b"new bytes"
        assert not storage.staging_path(target).exists()

    def test_staged_stream_publishes_on_close(self, tmp_path):
        target = tmp_path / "trace.bin"
        stream = storage.Stream(target, "test:torn")
        stream.write(b"one|")
        stream.write(b"two")
        assert not target.exists()
        assert storage.staging_path(target).read_bytes() == b"one|two"
        stream.close()
        assert target.read_bytes() == b"one|two"
        assert not storage.staging_path(target).exists()

    def test_in_place_stream_appends(self, tmp_path):
        target = tmp_path / "journal"
        target.write_bytes(b"head|")
        stream = storage.Stream(target, "test:torn", staged=False)
        stream.write(b"tail")
        stream.sync()
        assert target.read_bytes() == b"head|tail"
        stream.close()
        assert not storage.staging_path(target).exists()

    def test_torn_site_writes_half_a_record_then_dies(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.FAULT_ENV_VAR, "test:torn:2")
        died = []

        def trip(site):
            died.append(site)
            raise SystemExit(site)

        monkeypatch.setattr(faults, "trip", trip)
        faults.reset()
        stream = storage.Stream(tmp_path / "t", "test:torn")
        stream.write(b"first|")
        with pytest.raises(SystemExit):
            stream.write(b"second")
        assert died == ["test:torn"]
        assert storage.staging_path(tmp_path / "t").read_bytes() == b"first|sec"
        stream.close()


class TestFormatSweeps:
    def test_columnar_trace_every_truncation(self, tmp_path):
        records = [{"kind": "run_start", "schema": 1, "runner": "sweep"}]
        records += [{"kind": "round", "t": t, "count": 10 + t} for t in range(1, 8)]
        records += [{"kind": "run_end", "rounds_recorded": 7}]
        path = tmp_path / "run.ctrace"
        write_trace_records(path, records, "columnar", chunk_rounds=3)
        intact = path.read_bytes()
        ends = _frame_ends(intact, COLUMNAR_MAGIC)
        per_chunk = [1, 3, 3, 1, 1]
        assert len(ends) == len(per_chunk)
        cut_path = tmp_path / "cut.ctrace"
        for cut in range(len(intact) + 1):
            cut_path.write_bytes(intact[:cut])
            whole = sum(end <= cut for end in ends)
            expected = records[: sum(per_chunk[:whole])]
            assert read_trace(cut_path, salvage=True) == expected, cut
            rounds = [r for r in expected if r["kind"] == "round"]
            tail = rounds[-1] if rounds else None
            assert columnar_tail_round(cut_path) == tail, cut

    def test_job_journal_every_truncation(self, tmp_path):
        store = JobStore(tmp_path / "svc")
        states = [[]]  # the job table after each commit

        def commit(job):
            states.append([j.to_dict() for j in store.jobs()])
            return job

        first = commit(store.submit({"kind": "ensemble", "seed": 1}, at=1.0))
        commit(store.transition(first.id, "running", attempt=1, at=2.0))
        commit(store.submit({"kind": "ensemble", "seed": 2}, at=3.0))
        commit(store.transition(first.id, "done", result={"ok": 1}, at=4.0))
        store.close()
        intact = store.journal_path.read_bytes()
        ends = _frame_ends(intact, JOURNAL_MAGIC)
        assert len(ends) == 4
        for cut in range(len(intact) + 1):
            store.journal_path.write_bytes(intact[:cut])
            whole = sum(end <= cut for end in ends)
            valid_end = ends[whole - 1] if whole else 0
            view = load_jobs(store.root)
            assert [j.to_dict() for j in view.jobs()] == states[whole], cut
            assert view.salvaged_bytes == cut - valid_end
            assert store.journal_path.stat().st_size == cut  # read-only
            # A read-write open cuts the torn tail and serves the same jobs.
            with JobStore(store.root) as reopened:
                assert [j.to_dict() for j in reopened.jobs()] == states[whole]
            assert store.journal_path.stat().st_size == valid_end
