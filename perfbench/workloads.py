"""The four benchmark workloads: seeded task lists, task runners and rails.

A workload turns ``(seed, index)`` into the inputs of one task, runs tasks,
and checks their outputs.  The program under test receives only the
generated inputs.  Task latency is timed around the call a user makes (one
ensemble call, one ``simulate()`` call, one job from POST to a terminal
state); everything else -- building inputs, correctness rails, digests --
runs outside that interval.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

Z_BOUND = 5.0  # rails on the law of tau: |mean - E tau| <= Z sigma / sqrt(N)
LOOP_PREFIX = 3  # wide rail: replicas rerun on the loop engine per task


@dataclass
class TaskResult:
    """One finished task: latency, work done, digest and what the rails need."""

    index: int
    spec: Dict[str, Any]
    latency_s: float = 0.0
    replica_rounds: float = 0.0
    digest: str = ""
    error: Optional[str] = None
    data: Dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0


def task_seed(seed: int, tag: int, index: int) -> int:
    """The program-facing seed of task ``index``; ``index < 0`` is warm-up."""
    words = [seed, tag, 0 if index >= 0 else 1, abs(index)]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint32)[0])


def digest_of(*parts: Any) -> str:
    text = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _times_rounds(times: np.ndarray, budget: int) -> float:
    """Replica-rounds done: converged tau plus the budget for each censored."""
    finite = np.isfinite(times)
    return float(times[finite].sum() + budget * (~finite).sum())


def exact_tau_moments(protocol_name: str, n: int) -> tuple:
    """Exact ``(E tau, Var tau)`` from the wrong consensus (z = 1)."""
    from repro.cli import resolve_protocol
    from repro.markov.exact import count_chain

    chain = count_chain(resolve_protocol(protocol_name, n), n, 1)
    transient = np.arange(1, n)  # counts z..n-1; count n is the target
    q = chain.transition[np.ix_(transient, transient)]
    lhs = np.eye(transient.size) - q
    m1 = np.linalg.solve(lhs, np.ones(transient.size))
    m2 = np.linalg.solve(lhs, 1.0 + 2.0 * q @ m1)
    return float(m1[0]), float(m2[0] - m1[0] ** 2)


def law_rail(results: List[TaskResult], taus_of: Callable,
             exact: Dict[int, tuple]) -> Dict[int, str]:
    """Pooled mean tau at each n must sit within Z_BOUND of the exact mean.

    The rail judges the pool of a run's tasks at one n, so a failure marks
    every task of that n.
    """
    taus: Dict[int, List[float]] = {}
    for result in results:
        taus.setdefault(result.spec["n"], []).extend(taus_of(result))
    failed = {}
    for n, values in taus.items():
        values = np.asarray(values, dtype=float)
        mean, var = exact[n]
        if not np.all(np.isfinite(values)):
            failed[n] = f"n={n}: {int((~np.isfinite(values)).sum())} censored runs"
            continue
        z = (values.mean() - mean) / math.sqrt(var / values.size)
        if abs(z) > Z_BOUND:
            failed[n] = (f"n={n}: pooled mean tau {values.mean():.2f} over "
                         f"{values.size} runs vs exact {mean:.2f} "
                         f"(z={z:+.2f}, bound {Z_BOUND})")
    return {r.index: failed[r.spec["n"]] for r in results if r.spec["n"] in failed}


class Workload:
    """A workload run as a serial closed loop of one task at a time."""

    name = ""
    tag = 0
    entry = ""  # span of the public call a task makes (not itself a layer)
    cycle: List[Dict[str, Any]] = []

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tracer = None

    @contextmanager
    def timed(self, result: TaskResult):
        """The task's latency interval (and, when traced, its task span)."""
        tracer = self.tracer
        row = tracer.begin(tracer.name_id("bench.task")) if tracer else None
        result.start = time.perf_counter()
        try:
            yield
        finally:
            result.end = time.perf_counter()
            if tracer:
                tracer.end(row)

    def spec(self, index: int) -> Dict[str, Any]:
        shape = self.cycle[max(index, 0) % len(self.cycle)]
        return dict(shape, seed=task_seed(self.seed, self.tag, index))

    def start(self, inprocess: bool = False) -> None:
        """Bring up what tasks need (servers); part of set-up."""

    def stop(self) -> None:
        """Tear down what :meth:`start` brought up."""

    def cpu_children_s(self) -> float:
        """CPU of live helper processes not yet reaped (the service server)."""
        return 0.0

    def execute(self, spec: Dict[str, Any], result: TaskResult) -> None:
        raise NotImplementedError

    def finish(self, result: TaskResult) -> None:
        """Untimed per-task follow-up (digests)."""

    def rails(self, results: List[TaskResult]) -> Dict[int, str]:
        """Correctness rails over finished tasks: ``{index: failure}``."""
        return {}

    def run_one(self, index: int) -> TaskResult:
        result = TaskResult(index=index, spec=self.spec(index))
        if self.tracer is not None:
            self.tracer.task = index
        try:
            self.execute(result.spec, result)
        except Exception as exc:  # a raising task is a failed task
            result.error = f"{type(exc).__name__}: {exc}"
        result.end = result.end or time.perf_counter()
        result.latency_s = result.end - result.start
        if result.error is None and self.tracer is None:
            self.finish(result)  # a traced phase finishes after the tracer is off
        return result

    def _more(self, index: int, start: float, seconds: float,
              count: Optional[int]) -> bool:
        if count is not None:
            return index < count
        return time.perf_counter() - start < seconds

    def run_phase(self, seconds: float = math.inf, count: Optional[int] = None,
                  first: int = 0) -> List[TaskResult]:
        """Run tasks ``first``, ``first + 1``, ... until ``seconds`` elapse
        or ``count`` are done."""
        results = []
        start = time.perf_counter()
        while self._more(len(results), start, seconds, count):
            results.append(self.run_one(first + len(results)))
        return results


# ---------------------------------------------------------------------------


class _Capture:
    """Minimal recorder keeping each round's mean count (rails only)."""

    enabled = True

    def __init__(self) -> None:
        self.rounds: List[tuple] = []

    def run_started(self, provenance) -> None:
        pass

    def round_recorded(self, t, count, extra=None) -> None:
        self.rounds.append((int(t), float(count)))

    def run_finished(self, summary) -> None:
        pass

    def span_recorded(self, record) -> None:
        pass


class Wide(Workload):
    """Serial ``simulate_ensemble`` from the balanced start, 60-round budget."""

    name, tag, entry = "wide", 1, "dynamics.run.simulate_ensemble"
    budget = 60
    # Two small shapes per large one, so the median lands inside the
    # small-task cluster instead of on the gap between the two sizes.
    cycle = [
        {"protocol": "voter", "n": 10**5, "replicas": 1000},
        {"protocol": "minority-3", "n": 10**5, "replicas": 1000},
        {"protocol": "voter", "n": 10**6, "replicas": 2000},
        {"protocol": "minority-3", "n": 10**5, "replicas": 1000},
        {"protocol": "voter", "n": 10**5, "replicas": 1000},
        {"protocol": "minority-3", "n": 10**6, "replicas": 2000},
    ]

    def _inputs(self, spec):
        from repro.cli import resolve_protocol
        from repro.dynamics.config import balanced_configuration
        from repro.dynamics.rng import make_rng

        return (resolve_protocol(spec["protocol"], spec["n"]),
                balanced_configuration(spec["n"], 1), make_rng(spec["seed"]))

    def execute(self, spec, result):
        import repro.dynamics.run as run_mod

        protocol, config, rng = self._inputs(spec)
        with self.timed(result):
            times = run_mod.simulate_ensemble(protocol, config, self.budget, rng,
                                              spec["replicas"])
        result.replica_rounds = _times_rounds(times, self.budget)
        result.data["times"] = times

    def _prefix(self, spec, engine: str) -> list:
        import repro.dynamics.run as run_mod

        protocol, config, rng = self._inputs(spec)
        capture = _Capture()
        run_mod.simulate_ensemble(protocol, config, self.budget, rng,
                                  LOOP_PREFIX, recorder=capture, engine=engine)
        return capture.rounds

    def finish(self, result):
        result.data["batched"] = self._prefix(result.spec, "batched")
        result.digest = digest_of(result.data["batched"])

    def rails(self, results):
        failures = {}
        for result in results:
            times = result.data["times"]
            if times.shape != (result.spec["replicas"],) or np.isfinite(times).any():
                failures[result.index] = "expected every replica censored at the budget"
            elif self._prefix(result.spec, "loop") != result.data["batched"]:
                failures[result.index] = "loop engine disagrees with batched"
        return failures


class Single(Workload):
    """``simulate()`` with a columnar trace and a checkpoint, as ``repro run``."""

    name, tag, entry = "single", 2, "dynamics.run.simulate"
    protocol = "voter"
    max_rounds = 10**7
    cycle = [{"n": 100}, {"n": 200}, {"n": 500}]

    def execute(self, spec, result):
        import repro.dynamics.run as run_mod
        from repro.cli import resolve_protocol
        from repro.dynamics.config import wrong_consensus_configuration
        from repro.dynamics.rng import make_rng
        from repro.execution.checkpoint import DEFAULT_CHECKPOINT_EVERY, Checkpointer
        from repro.telemetry.columnar import open_trace_writer

        n = spec["n"]
        protocol = resolve_protocol(self.protocol, n)
        config = wrong_consensus_configuration(n, 1)
        meta = {"command": "run", "protocol": self.protocol, "n": n, "z": 1,
                "x0": config.x0, "rounds": self.max_rounds, "seed": spec["seed"]}
        with self.timed(result):
            trace = open_trace_writer(self.workdir / "run.rcol", "columnar")
            checkpoint = Checkpointer(self.workdir / "run.ckpt",
                                      every=DEFAULT_CHECKPOINT_EVERY, meta=meta)
            try:
                run = run_mod.simulate(protocol, config, self.max_rounds,
                                       make_rng(spec["seed"]), recorder=trace,
                                       checkpoint=checkpoint)
            finally:
                trace.close()
        tau = run.rounds if run.converged else float("nan")
        result.replica_rounds = float(run.rounds if run.converged else self.max_rounds)
        result.data["tau"] = tau
        result.digest = digest_of(n, spec["seed"], run.rounds, run.final_count)

    def rails(self, results):
        exact = {s["n"]: exact_tau_moments(self.protocol, s["n"]) for s in self.cycle}
        return law_rail(results, lambda r: [r.data["tau"]], exact)


class Sharded(Workload):
    """``run_supervised_ensemble(workers=2)`` with merged trace and checkpoints."""

    name, tag, entry = "sharded", 3, "execution.supervisor.run"
    protocol = "voter"
    replicas = 64
    workers = 2
    max_rounds = 10**7
    # n=200 only: with n=500 in the mix a 20 s run held ~12 tasks, too few
    # for a median, let alone a tail with 10 tasks beyond it.
    cycle = [{"n": 200}]

    def execute(self, spec, result):
        import repro.execution.supervisor as sup
        from repro.cli import resolve_protocol
        from repro.dynamics.config import wrong_consensus_configuration
        from repro.dynamics.rng import make_rng
        from repro.execution.checkpoint import DEFAULT_CHECKPOINT_EVERY

        n = spec["n"]
        taskdir = Path(tempfile.mkdtemp(prefix=f"task{result.index}-", dir=self.workdir))
        protocol = resolve_protocol(self.protocol, n)
        config = wrong_consensus_configuration(n, 1)
        with self.timed(result):
            out = sup.run_supervised_ensemble(
                protocol, config, self.max_rounds, make_rng(spec["seed"]),
                self.replicas,
                supervisor=sup.SupervisorConfig(workers=self.workers,
                                                trace_format="columnar"),
                checkpoint_base=taskdir / "run.ckpt",
                checkpoint_every=DEFAULT_CHECKPOINT_EVERY,
                trace_path=taskdir / "trace.rcol",
            )
        if out.failed_shards:
            raise RuntimeError(f"{out.failed_shards} shard(s) lost")
        result.replica_rounds = _times_rounds(out.times, self.max_rounds)
        result.data.update(times=out.times, retries=out.retries,
                           trace=taskdir / "trace.rcol")
        result.digest = digest_of(n, spec["seed"], out.times.tolist())

    def rails(self, results):
        from repro.telemetry.jsonl import validate_trace

        exact = {s["n"]: exact_tau_moments(self.protocol, s["n"]) for s in self.cycle}
        failures = law_rail(results, lambda r: r.data["times"].tolist(), exact)
        for result in results:
            try:
                validate_trace(result.data["trace"])
            except ValueError as exc:
                failures[result.index] = f"merged trace invalid: {exc}"
        return failures


class _Guard:
    """Stand-in for ``ShutdownGuard`` when the service runs in-process."""

    requested = False


class Service(Workload):
    """``repro serve --workers 2`` driven over HTTP by two closed-loop clients."""

    name, tag = "service", 4
    clients = 2
    hostile = "churn:period=8,amplitude=4+lossy:rate=0.1+flip-source:at=12"
    cycle = [
        {"kind": "run", "protocol": "voter", "n": 200},
        {"kind": "ensemble", "protocol": "voter", "n": 200, "replicas": 32,
         "scenario": hostile, "trace": "columnar"},
        {"kind": "ensemble", "protocol": "minority-3", "n": 200, "replicas": 32,
         "max_rounds": 2000},
    ]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.process: Optional[subprocess.Popen] = None
        self.inprocess = None
        self.address = ("127.0.0.1", 0)
        self.roots = 0

    # -- server lifecycle ---------------------------------------------------

    def _fresh_root(self) -> Path:
        self.roots += 1
        root = self.workdir / f"root{self.roots}"
        shutil.rmtree(root, ignore_errors=True)
        return root

    def start(self, inprocess=False):
        root = self._fresh_root()
        if inprocess:
            from repro.service.server import Service as Svc, ServiceConfig, ServiceServer

            service = Svc(root, ServiceConfig(workers=self.clients))
            server = ServiceServer(service).start()
            guard = _Guard()
            loop = threading.Thread(target=service.run, args=(guard,), daemon=True)
            loop.start()
            self.inprocess = (server, guard, loop)
            url = server.url
        else:
            env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(root),
                 "--workers", str(self.clients), "--port", "0"],
                stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, env=env, text=True)
            url = ""
            deadline = time.monotonic() + 60.0
            while not url and time.monotonic() < deadline:
                line = self.process.stderr.readline()
                if not line:
                    break
                if line.startswith("service: listening on "):
                    url = line.split()[-1]
            if not url:
                self.stop()
                raise RuntimeError("service did not announce its address")
            threading.Thread(target=self.process.stderr.read, daemon=True).start()
        host, port = url.replace("http://", "").split(":")
        self.address = (host, int(port))
        self._request("GET", "/healthz")

    def stop(self):
        if self.inprocess is not None:
            server, guard, loop = self.inprocess
            guard.requested = True
            loop.join(timeout=30.0)
            server.stop()
            self.inprocess = None
        if self.process is not None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process = None

    def cpu_children_s(self):
        if self.process is None:
            return 0.0
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks = sum(int(v) for v in fields[11:15])  # utime stime cutime cstime
        return ticks / os.sysconf("SC_CLK_TCK")

    # -- client ---------------------------------------------------------------

    def _request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        conn = http.client.HTTPConnection(*self.address, timeout=120.0)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            document = json.loads(response.read().decode())
            if response.status >= 300:
                raise RuntimeError(f"{method} {path}: {response.status} {document}")
            return document
        finally:
            conn.close()

    def execute(self, spec, result):
        with self.timed(result):
            doc = self._request("POST", "/jobs", dict(spec))["job"]
            while doc["state"] not in ("done", "failed", "cancelled"):
                doc = self._request("GET", f"/jobs/{doc['id']}?wait_s=10")
        result.data["job"] = doc["id"]
        result.data["retries"] = doc["retries"]
        if doc["state"] != "done":
            raise RuntimeError(f"job {doc['id']} ended {doc['state']}: {doc['error']}")
        stats = doc["result"]["stats"]
        result.data["stats"] = stats
        budget = doc["spec"]["max_rounds"]
        converged = stats["trials"] - stats["censored"]
        mean = stats["mean_converged"] if converged else 0.0
        result.replica_rounds = mean * converged + budget * stats["censored"]
        result.digest = digest_of(spec, stats)

    def run_phase(self, seconds=math.inf, count=None, first=0):
        results: Dict[int, TaskResult] = {}
        lock = threading.Lock()
        next_index = [0]
        start = time.perf_counter()

        def client():
            while True:
                with lock:
                    index = next_index[0]
                    if not self._more(index, start, seconds, count):
                        return
                    next_index[0] += 1
                results[index] = self.run_one(first + index)

        threads = [threading.Thread(target=client) for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [results[i] for i in sorted(results)]

    def rails(self, results):
        from dataclasses import asdict

        from repro.analysis.ensemble import convergence_ensemble
        from repro.cli import resolve_protocol
        from repro.dynamics.config import wrong_consensus_configuration
        from repro.dynamics.rng import make_rng
        from repro.service.worker import validate_spec

        failures = {}
        sampled = {}
        for result in results:  # the first job of each shape in the cycle
            sampled.setdefault(result.index % len(self.cycle), result)
        for result in sampled.values():
            spec = validate_spec(dict(result.spec))
            stats = convergence_ensemble(
                resolve_protocol(spec["protocol"], spec["n"]),
                wrong_consensus_configuration(spec["n"], spec["z"]),
                spec["max_rounds"], make_rng(spec["seed"]), spec["replicas"],
                scenario=spec["scenario"])
            # Canonical JSON compares field by field, with NaN equal to NaN.
            if json.dumps(asdict(stats), sort_keys=True) != json.dumps(
                    result.data["stats"], sort_keys=True):
                failures[result.index] = "job stats differ from a direct convergence_ensemble call"
        return failures


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (Wide, Single, Sharded, Service)
}
