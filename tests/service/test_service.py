"""Service loop, recovery, retry taxonomy, and the HTTP API."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.execution.backoff import backoff_delay_s
from repro.execution.shutdown import (
    EXIT_ERROR,
    EXIT_FAULT_INJECTED,
    EXIT_INTERRUPTED,
    EXIT_NOT_CONVERGED,
)
from repro.service import (
    Service,
    ServiceConfig,
    ServiceServer,
    SpecError,
    exit_taxonomy,
    validate_spec,
)
from repro.service import worker
from repro.service.jobstore import JobStoreError
from repro.telemetry.jsonl import read_trace

FAST = {"kind": "ensemble", "protocol": "voter", "n": 30, "replicas": 4,
        "max_rounds": 3000, "seed": 7}
# Outlives every watchdog and test: minutes of work per attempt.
LONG = {"kind": "ensemble", "protocol": "voter", "n": 5000, "replicas": 4000,
        "max_rounds": 10_000_000, "seed": 3, "checkpoint_every": 10**9}


def quick_config(**overrides) -> ServiceConfig:
    defaults = dict(workers=2, poll_s=0.01, backoff_base_s=0.01,
                    backoff_cap_s=0.05)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture
def service(tmp_path):
    svc = Service(tmp_path / "svc", quick_config())
    yield svc
    svc.shutdown()


class TestValidateSpec:
    def test_defaults_applied(self):
        spec = validate_spec({})
        assert spec["kind"] == "ensemble"
        assert spec["protocol"] == "minority-3"
        assert spec["replicas"] == 10

    def test_bad_kind_and_trace_rejected(self):
        with pytest.raises(SpecError, match="unknown job kind"):
            validate_spec({"kind": "mine-bitcoin"})
        with pytest.raises(SpecError, match="trace must be"):
            validate_spec({"trace": "parquet"})

    def test_run_is_single_replica(self):
        with pytest.raises(SpecError, match="single replica"):
            validate_spec({"kind": "run", "replicas": 3})

    def test_sweep_requires_param_and_values(self):
        with pytest.raises(SpecError, match="requires a 'sweep' object"):
            validate_spec({"kind": "sweep"})
        with pytest.raises(SpecError, match="sweep param"):
            validate_spec({"kind": "sweep", "sweep": {"param": "zeal", "values": [1]}})
        with pytest.raises(SpecError, match="non-empty list"):
            validate_spec({"kind": "sweep", "sweep": {"param": "n", "values": []}})

    def test_nonpositive_sizes_rejected(self):
        for field in ("n", "checkpoint_every"):
            with pytest.raises(SpecError, match="positive"):
                validate_spec({field: 0})
        with pytest.raises(SpecError, match="positive"):
            validate_spec({"kind": "sweep",
                           "sweep": {"param": "replicas", "values": [4, 0]}})

    def test_non_numeric_fields_rejected(self):
        for field in ("x0", "heartbeat_every_s"):
            with pytest.raises(SpecError, match="non-numeric"):
                validate_spec({field: "x"})

    def test_every_sweep_point_must_build(self):
        # Valid at the base n, but 20 zealots leave no free agent at n=16.
        spec = {"kind": "sweep", "protocol": "voter", "n": 100,
                "scenario": "zealots:s1=20",
                "sweep": {"param": "n", "values": [100, 16]}}
        with pytest.raises(SpecError, match="n=16"):
            validate_spec(spec)
        validate_spec(dict(spec, sweep={"param": "n", "values": [100, 40]}))


class TestExitTaxonomy:
    def test_stalled_and_signals_map_to_interrupted(self):
        assert exit_taxonomy(None, stalled=True)[0] == EXIT_INTERRUPTED
        assert exit_taxonomy(-9) == (EXIT_INTERRUPTED, "EXIT_INTERRUPTED")

    def test_known_codes_keep_their_name(self):
        assert exit_taxonomy(EXIT_NOT_CONVERGED) == (
            EXIT_NOT_CONVERGED, "EXIT_NOT_CONVERGED"
        )

    def test_unknown_codes_fold_to_error(self):
        assert exit_taxonomy(177) == (EXIT_ERROR, "EXIT_ERROR")


class TestLifecycle:
    def test_submit_drain_done_with_result(self, service):
        job = service.submit(FAST)
        assert service.drain(timeout_s=60)
        finished = service.store.get(job.id)
        assert finished.state == "done"
        assert finished.attempt == 1
        stats = finished.result["stats"]
        assert stats["trials"] == 4
        assert finished.result["resumed"] is False

    @staticmethod
    def enqueue_unbuildable(service, max_retries, **fields):
        # validate_spec refuses an unknown protocol, so enqueue past it, as
        # a journal written before that check could hold.  The worker
        # discovers the name is unknown and exits EXIT_ERROR every attempt.
        spec = dict(validate_spec({**FAST, **fields}), protocol="no-such-protocol")
        return service.store.submit(spec, max_retries=max_retries)

    def test_failing_job_lands_in_failed_with_taxonomy(self, service):
        job = self.enqueue_unbuildable(service, max_retries=1)
        assert service.drain(timeout_s=60)
        failed = service.store.get(job.id)
        assert failed.state == "failed"
        assert failed.retries == 2
        assert failed.exit_code == EXIT_ERROR
        assert failed.exit_name == "EXIT_ERROR"

    def test_requeue_backoff_is_seeded_and_journaled(self, service):
        job = self.enqueue_unbuildable(service, max_retries=2, seed=11)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            service.tick()
            current = service.store.get(job.id)
            if current.retries == 1 and current.state == "queued":
                break
            time.sleep(0.01)
        requeued = service.store.get(job.id)
        expected = backoff_delay_s(
            1,
            base_s=service.config.backoff_base_s,
            cap_s=service.config.backoff_cap_s,
            key=f"11:{job.id}",
        )
        assert requeued.backoff_s == expected
        assert requeued.not_before > 0

    def test_cancel_queued_job(self, tmp_path):
        svc = Service(tmp_path / "svc", quick_config(workers=0))
        try:
            job = svc.submit(FAST)
            cancelled = svc.cancel(job.id)
            assert cancelled.state == "cancelled"
            with pytest.raises(JobStoreError, match="cannot cancel"):
                svc.cancel(job.id)
        finally:
            svc.shutdown()

    def test_cancel_running_job_kills_worker_and_frees_the_slot(self, tmp_path):
        svc = Service(tmp_path / "svc", quick_config(workers=1))
        try:
            job = svc.submit(LONG)
            deadline = time.monotonic() + 60
            while (time.monotonic() < deadline
                   and svc.store.get(job.id).worker_pid is None):
                svc.tick()
                time.sleep(0.005)
            pid = svc.store.get(job.id).worker_pid
            assert pid is not None
            # A result stamped with the live attempt must still never be
            # adopted once the job is cancelled.
            (svc.store.job_dir(job.id) / "result.json").write_text(
                json.dumps({"kind": "ensemble", "attempt": 1, "stats": {}})
            )
            assert svc.cancel(job.id).state == "cancelled"
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
            quick = svc.submit(FAST)
            assert svc.drain(timeout_s=60)
            assert svc.store.get(quick.id).state == "done"
            cancelled = svc.store.get(job.id)
            assert cancelled.state == "cancelled"
            assert cancelled.result is None
        finally:
            svc.shutdown()

    def test_exit_zero_without_result_is_requeued(self, tmp_path, monkeypatch):
        def publish_nothing(spec, jobdir, *, attempt=1):
            os._exit(0)

        monkeypatch.setattr(worker, "execute_job", publish_nothing)
        svc = Service(tmp_path / "svc", quick_config(workers=1))
        try:
            job = svc.submit(FAST, max_retries=1)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                svc.tick()
                if svc.store.get(job.id).retries == 1:
                    break
                time.sleep(0.005)
            requeued = svc.store.get(job.id)
            assert requeued.retries == 1
            assert requeued.state == "queued"
            assert requeued.result is None
            assert "without a valid result" in requeued.error
        finally:
            svc.shutdown()

    def test_stale_heartbeat_worker_is_killed_and_retried_to_failed(self, tmp_path):
        svc = Service(
            tmp_path / "svc",
            quick_config(workers=1, stale_after_s=0.2),
        )
        try:
            # A job big enough to outlive the watchdog, with a heartbeat
            # interval so long the first write is also the last.
            job = svc.submit(
                {"kind": "ensemble", "protocol": "voter", "n": 5000,
                 "replicas": 4000, "max_rounds": 10_000_000, "seed": 3,
                 "heartbeat_every_s": 3600.0, "checkpoint_every": 10**9},
                max_retries=0,
            )
            assert svc.drain(timeout_s=120)
            failed = svc.store.get(job.id)
            assert failed.state == "failed"
            assert failed.exit_code == EXIT_INTERRUPTED
            assert failed.exit_name == "EXIT_INTERRUPTED"
            assert "stale" in failed.error
        finally:
            svc.shutdown()


class TestRecovery:
    def test_orphaned_running_job_is_requeued_on_restart(self, tmp_path):
        svc = Service(tmp_path / "svc", quick_config(workers=0))
        job = svc.submit(FAST)
        svc.store.transition(job.id, "running", attempt=1)
        svc.store.close()

        recovered = Service(tmp_path / "svc", quick_config(workers=0))
        try:
            after = recovered.store.get(job.id)
            assert after.state == "queued"
            assert after.retries == 1
            assert "orphaned" in after.error
        finally:
            recovered.shutdown()

    def test_orphan_with_published_result_is_adopted_as_done(self, tmp_path):
        svc = Service(tmp_path / "svc", quick_config(workers=0))
        job = svc.submit(FAST)
        svc.store.transition(job.id, "running", attempt=1)
        jobdir = svc.store.job_dir(job.id)
        jobdir.mkdir(parents=True, exist_ok=True)
        (jobdir / "result.json").write_text(
            json.dumps({"kind": "ensemble", "attempt": 1, "stats": {"trials": 4}})
        )
        svc.store.close()

        recovered = Service(tmp_path / "svc", quick_config(workers=0))
        try:
            after = recovered.store.get(job.id)
            assert after.state == "done"
            assert after.result["stats"] == {"trials": 4}
        finally:
            recovered.shutdown()

    def test_stale_attempt_result_is_not_adopted(self, tmp_path):
        svc = Service(tmp_path / "svc", quick_config(workers=0))
        job = svc.submit(FAST)
        svc.store.transition(job.id, "running", attempt=2)
        jobdir = svc.store.job_dir(job.id)
        jobdir.mkdir(parents=True, exist_ok=True)
        (jobdir / "result.json").write_text(
            json.dumps({"kind": "ensemble", "attempt": 1, "stats": {}})
        )
        svc.store.close()

        recovered = Service(tmp_path / "svc", quick_config(workers=0))
        try:
            assert recovered.store.get(job.id).state == "queued"
        finally:
            recovered.shutdown()

    def test_interrupted_job_resumes_from_checkpoint_bit_identically(self, tmp_path):
        """The core chaos guarantee, in-process: run, orphan, rerun, compare."""
        baseline = Service(tmp_path / "baseline", quick_config(workers=1))
        ref = baseline.submit({**FAST, "checkpoint_every": 1})
        assert baseline.drain(timeout_s=60)
        expected = baseline.store.get(ref.id).result["stats"]
        baseline.shutdown()

        svc = Service(tmp_path / "svc", quick_config(workers=1))
        job = svc.submit({**FAST, "checkpoint_every": 1})
        # Let the worker make progress, then kill it mid-flight the hard
        # way (no reap), leaving checkpoint + running state behind.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            svc.tick()
            if (svc.store.job_dir(job.id) / "job.ckpt").exists():
                break
            time.sleep(0.005)
        process = svc.pool.process(job.id)
        if process is not None:
            process.kill()
            process.join(timeout=5.0)
        svc.store.close()  # abandon without reaping: a crash, effectively

        recovered = Service(tmp_path / "svc", quick_config(workers=1))
        try:
            assert recovered.drain(timeout_s=60)
            final = recovered.store.get(job.id)
            assert final.state == "done"
            if final.result["attempt"] > 1:
                assert final.result["resumed"] is True
            assert final.result["stats"] == expected
        finally:
            recovered.shutdown()


class TestAttemptResume:
    def test_retry_resumes_the_killed_attempts_checkpoint(self, tmp_path):
        """Attempt 2 continues from attempt 1's last checkpoint, bit-identically."""
        spec = validate_spec({**FAST, "checkpoint_every": 5, "trace": "jsonl"})
        expected = worker.execute_job(spec, tmp_path / "clean")["stats"]

        jobdir = tmp_path / "J000001"
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        script = (
            "import json, sys; sys.path.insert(0, %r)\n"
            "from repro.service.worker import execute_job\n"
            "execute_job(json.loads(sys.argv[1]), sys.argv[2], attempt=1)\n"
            "raise SystemExit('unreachable: fault must have tripped')\n"
        ) % src
        killed = subprocess.run(
            [sys.executable, "-c", script, json.dumps(spec), str(jobdir)],
            env={**os.environ, "REPRO_FAULT": "ensemble:after_checkpoint:4"},
            capture_output=True, text=True,
        )
        assert killed.returncode == EXIT_FAULT_INJECTED, killed.stderr

        result = worker.execute_job(spec, jobdir, attempt=2)
        start = read_trace(jobdir / "trace.jsonl")[0]
        assert start["kind"] == "run_start"
        assert start["params"]["resumed_from"] == 20  # the 4th checkpoint
        assert result["resumed"] is True
        assert result["stats"] == expected


class TestShutdown:
    def test_shutdown_requeues_without_consuming_a_retry(self, tmp_path):
        svc = Service(tmp_path / "svc", quick_config(workers=1))
        job = svc.submit(
            {"kind": "ensemble", "protocol": "voter", "n": 5000,
             "replicas": 4000, "max_rounds": 10_000_000, "seed": 3,
             "checkpoint_every": 10**9}
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and job.id not in svc.pool:
            svc.tick()
            time.sleep(0.005)
        svc.shutdown()

        after = Service(tmp_path / "svc", quick_config(workers=0))
        try:
            parked = after.store.get(job.id)
            assert parked.retries <= 1  # shutdown itself burned nothing
            assert parked.state == "queued"
            assert "shutdown" in (parked.error or "") or "orphaned" in (
                parked.error or ""
            )
        finally:
            after.shutdown()


class TestDispatchWakeup:
    def test_submission_wakes_the_idle_wait(self, tmp_path):
        # One long job keeps a worker busy, so the loop blocks on its
        # sentinel with the watchdog timeout min(1, stale_after_s / 4) =
        # 1 s.  A submission into the free slot must not wait that out.
        svc = Service(tmp_path / "svc", quick_config(stale_after_s=30.0))
        long_job = svc.submit(
            {"kind": "ensemble", "protocol": "voter", "n": 5000,
             "replicas": 4000, "max_rounds": 10_000_000, "seed": 3,
             "checkpoint_every": 10**9}
        )
        guard = SimpleNamespace(requested=False)
        loop = threading.Thread(target=svc.run, args=(guard,), daemon=True)
        loop.start()
        try:
            deadline = time.monotonic() + 30
            while (time.monotonic() < deadline
                   and svc.store.get(long_job.id).state == "queued"):
                time.sleep(0.005)
            assert svc.store.get(long_job.id).state == "running"
            time.sleep(0.2)  # the loop is now inside its idle wait
            job = svc.submit(dict(FAST))
            start = time.monotonic()
            while (time.monotonic() - start < 5
                   and svc.store.get(job.id).state == "queued"):
                time.sleep(0.002)
            waited = time.monotonic() - start
        finally:
            guard.requested = True
            loop.join(timeout=10)
        assert not loop.is_alive()
        assert waited < 0.3, f"submission sat queued for {waited:.2f}s"


class TestHTTPAPI:
    @pytest.fixture
    def api(self, service):
        server = ServiceServer(service)
        server.start()
        yield service, server.url
        server.stop()

    @staticmethod
    def get(url: str):
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read().decode())

    @staticmethod
    def post(url: str, payload=None):
        body = json.dumps(payload or {}).encode()
        request = urllib.request.Request(url, data=body, method="POST")
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read().decode())

    def test_submit_status_result_roundtrip(self, api):
        service, url = api
        status, created = self.post(f"{url}/jobs", {**FAST, "max_retries": 1})
        assert status == 201
        job_id = created["job"]["id"]
        assert created["job"]["state"] == "queued"
        assert service.drain(timeout_s=60)
        status, doc = self.get(f"{url}/jobs/{job_id}")
        assert doc["state"] == "done"
        status, result = self.get(f"{url}/jobs/{job_id}/result")
        assert result["result"]["stats"]["trials"] == 4
        status, listing = self.get(f"{url}/jobs")
        assert listing["counts"]["done"] == 1

    def test_long_poll_returns_terminal_state(self, api):
        # A long poll returns at the first change of state or attempt, so
        # a client polls again until the job is terminal.
        service, url = api
        _, created = self.post(f"{url}/jobs", dict(FAST))
        job_id = created["job"]["id"]
        replies = []

        def poll():
            seen = (created["job"]["state"], created["job"]["attempt"])
            while True:
                doc = self.get(f"{url}/jobs/{job_id}?wait_s=30")[1]
                replies.append((seen, doc))
                if doc["state"] in ("done", "failed", "cancelled"):
                    return
                seen = (doc["state"], doc["attempt"])

        thread = threading.Thread(target=poll)
        thread.start()
        assert service.drain(timeout_s=60)
        thread.join(timeout=60)
        assert replies[-1][1]["state"] == "done"
        for seen, doc in replies[:-1]:
            assert (doc["state"], doc["attempt"]) != seen

    def test_bad_submission_is_a_400(self, api):
        _, url = api
        with pytest.raises(urllib.error.HTTPError) as err:
            self.post(f"{url}/jobs", {"kind": "nope"})
        assert err.value.code == 400

    @pytest.mark.parametrize("field, value, cause", [
        ("engine", "turbo", "unknown engine 'turbo'"),
        ("scenario", "bogus", "unknown scenario 'bogus'"),
        ("protocol", "nope", "unknown protocol 'nope'"),
        ("replica", 1000, "replica"),
    ])
    def test_unbuildable_field_is_a_400_and_queues_nothing(
        self, api, field, value, cause
    ):
        service, url = api
        with pytest.raises(urllib.error.HTTPError) as err:
            self.post(f"{url}/jobs", {**FAST, field: value})
        assert err.value.code == 400
        assert cause in json.loads(err.value.read().decode())["error"]
        assert service.store.jobs() == []

    def test_unknown_job_is_a_404(self, api):
        _, url = api
        with pytest.raises(urllib.error.HTTPError) as err:
            self.get(f"{url}/jobs/J999999")
        assert err.value.code == 404

    def test_trace_endpoint_requires_tracing(self, api):
        service, url = api
        _, created = self.post(f"{url}/jobs", dict(FAST))
        with pytest.raises(urllib.error.HTTPError) as err:
            self.get(f"{url}/jobs/{created['job']['id']}/trace")
        assert err.value.code == 404

    def test_trace_tail_of_a_traced_job(self, api):
        service, url = api
        _, created = self.post(f"{url}/jobs", {**FAST, "trace": "columnar"})
        assert service.drain(timeout_s=60)
        _, tail = self.get(f"{url}/jobs/{created['job']['id']}/trace")
        assert tail["round"] is not None
        assert tail["round"]["kind"] == "round"

    @pytest.mark.parametrize("trace_format", ["jsonl", "columnar"])
    def test_trace_tail_is_live_while_the_job_runs(self, api, trace_format):
        service, url = api
        # Minutes of work: the trace stays at its staging name throughout.
        spec = {"kind": "ensemble", "protocol": "voter", "n": 100_000,
                "replicas": 2, "max_rounds": 10_000_000, "seed": 3,
                "checkpoint_every": 10**9, "trace": trace_format}
        _, created = self.post(f"{url}/jobs", spec)
        job_id = created["job"]["id"]
        deadline = time.monotonic() + 30
        try:
            while time.monotonic() < deadline:
                service.tick()
                _, tail = self.get(f"{url}/jobs/{job_id}/trace")
                if tail["round"] is not None:
                    break
                time.sleep(0.05)
            state = service.store.get(job_id).state
            published = os.path.exists(tail["trace"])
        finally:
            service.cancel(job_id)
        assert tail["round"] is not None, "no live round within 30 s"
        assert state == "running" and not published
        assert tail["round"]["kind"] == "round"
        assert tail["round"]["t"] >= 4096  # one whole chunk has landed

    def test_metrics_exposition_is_valid(self, api):
        service, url = api
        from repro.telemetry.prometheus import validate_exposition

        self.post(f"{url}/jobs", dict(FAST))
        with urllib.request.urlopen(f"{url}/metrics") as response:
            text = response.read().decode()
            content_type = response.headers["Content-Type"]
        assert "version=0.0.4" in content_type
        validate_exposition(text)
        assert "repro_service_jobs" in text

    def test_healthz_and_compact(self, api):
        service, url = api
        _, health = self.get(f"{url}/healthz")
        assert health["ok"] is True
        _, compacted = self.post(f"{url}/admin/compact")
        assert compacted["journal_bytes"] == 0

    def test_cancel_endpoint(self, tmp_path):
        svc = Service(tmp_path / "svc", quick_config(workers=0))
        server = ServiceServer(svc)
        server.start()
        try:
            _, created = self.post(f"{server.url}/jobs", dict(FAST))
            _, cancelled = self.post(
                f"{server.url}/jobs/{created['job']['id']}/cancel"
            )
            assert cancelled["job"]["state"] == "cancelled"
        finally:
            server.stop()
            svc.shutdown()

    def test_submission_is_acknowledged_before_dispatch(self, tmp_path, monkeypatch):
        # The woken dispatch loop must not overtake the 201: a crash while
        # dispatching would otherwise cut off the reply (the armed
        # jobstore:mid_commit:2 service smoke).  A slow reply widens the
        # window a racing dispatch would need.
        from repro.service import server as server_module

        events = []
        send, dispatch = server_module._Handler._send_json, Service._dispatch

        def slow_send(handler, status, payload):
            time.sleep(0.2)
            send(handler, status, payload)
            events.append("replied")

        def recorded_dispatch(svc, job):
            events.append("dispatched")
            dispatch(svc, job)

        monkeypatch.setattr(server_module._Handler, "_send_json", slow_send)
        monkeypatch.setattr(Service, "_dispatch", recorded_dispatch)
        svc = Service(tmp_path / "svc", quick_config())
        server = ServiceServer(svc).start()
        guard = SimpleNamespace(requested=False)
        loop = threading.Thread(target=svc.run, args=(guard,), daemon=True)
        loop.start()
        try:
            _, created = self.post(f"{server.url}/jobs", dict(FAST))
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and "dispatched" not in events:
                time.sleep(0.005)
        finally:
            guard.requested = True
            loop.join(timeout=10)
            server.stop()
        assert not loop.is_alive()
        assert events[:2] == ["replied", "dispatched"], events
