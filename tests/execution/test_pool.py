"""Tests for the shared worker pool: classification, watchdog, resume."""

from __future__ import annotations

import json
import os
import time
from functools import partial

from repro.execution.checkpoint import Checkpointer
from repro.execution.pool import WorkerPool, open_checkpoint
from repro.telemetry.heartbeat import Heartbeat, write_heartbeat


def _nap(seconds: float) -> dict:
    time.sleep(seconds)
    return {"slept": seconds}


def _crash() -> dict:
    raise RuntimeError("work failed")


def _endings(pool: WorkerPool, timeout_s: float = 30.0) -> dict:
    """Reap until every attempt ended; ``{key: Ending}``."""
    endings = {}
    deadline = time.monotonic() + timeout_s
    while len(pool) and time.monotonic() < deadline:
        pool.wait(0.05)
        endings.update((ending.key, ending) for ending in pool.reap())
    assert not len(pool), "attempts still live at the deadline"
    return endings


class TestClassification:
    def test_each_ending_kind(self, tmp_path):
        pool = WorkerPool(workers=4)
        try:
            pool.start("done", partial(_nap, 0.0), attempt=2,
                       result_path=tmp_path / "done.json")
            pool.start("corrupt", partial(os._exit, 0), attempt=1,
                       result_path=tmp_path / "corrupt.json")
            pool.start("exit", _crash, attempt=1,
                       result_path=tmp_path / "exit.json")
            pool.start("timeout", partial(_nap, 60.0), attempt=1,
                       result_path=tmp_path / "timeout.json", deadline_s=0.2)
            endings = _endings(pool)
        finally:
            pool.close()
        assert {key: e.kind for key, e in endings.items()} == {
            "done": "done", "corrupt": "corrupt", "exit": "exit",
            "timeout": "timeout",
        }
        assert endings["done"].result == {"slept": 0.0, "attempt": 2}
        assert endings["corrupt"].exitcode == 0
        assert endings["exit"].exitcode == 1
        assert endings["timeout"].exitcode < 0

    def test_a_result_stamped_for_another_attempt_is_corrupt(self, tmp_path):
        stale = tmp_path / "result.json"
        stale.write_text(json.dumps({"attempt": 1}))
        pool = WorkerPool(workers=1)
        try:
            pool.start("k", partial(os._exit, 0), attempt=2, result_path=stale)
            (ending,) = _endings(pool).values()
        finally:
            pool.close()
        assert ending.kind == "corrupt"


class TestWatchdog:
    def test_the_fork_is_the_zeroth_heartbeat(self, tmp_path):
        # An earlier attempt's heartbeat, long stale, must not condemn a
        # fresh worker; a worker that never beats is stalled only once
        # stale_after_s has passed since its fork.
        beat = tmp_path / "job.heartbeat.json"
        write_heartbeat(beat, Heartbeat(role="job", updated_at=1.0))
        pool = WorkerPool(workers=2)
        try:
            pool.start("quick", partial(_nap, 0.3), attempt=2,
                       result_path=tmp_path / "quick.json",
                       heartbeat_path=beat, stale_after_s=2.0)
            started = time.monotonic()
            pool.start("silent", partial(_nap, 60.0), attempt=1,
                       result_path=tmp_path / "silent.json",
                       heartbeat_path=tmp_path / "none.heartbeat.json",
                       stale_after_s=0.5)
            endings = _endings(pool)
            killed_after = time.monotonic() - started
        finally:
            pool.close()
        assert endings["quick"].kind == "done"
        assert endings["silent"].kind == "stalled"
        assert killed_after >= 0.5


class TestChildSide:
    def test_unreadable_checkpoint_is_discarded(self, tmp_path, capsys):
        path = tmp_path / "job.ckpt"
        path.write_text("{not json")
        checkpoint = open_checkpoint(path, 5)
        assert isinstance(checkpoint, Checkpointer)
        assert checkpoint.resume_state is None
        assert "discarding unusable checkpoint" in capsys.readouterr().err
        assert open_checkpoint(None, 5) is None

