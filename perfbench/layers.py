"""Which layer functions the traced run wraps, and the per-layer metrics.

A layer is a module under ``src/repro/``; each metric name carries its
module prefix.  Counts and seconds are per traced task (totals over the
traced phase divided by the number of tasks); ratios and per-unit values
are as named.  A layer that does not run in a workload reports 0.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

import numpy as np

from tracer import GID_SHIFT, Tracer, union_length

# (metric, unit) in report order; BENCHMARK.json lists the same names.
PER_LAYER = [
    ("dynamics.batched.step_calls", "count"),
    ("dynamics.batched.replicas_per_step", "replicas"),
    ("dynamics.batched.step_s", "s"),
    ("dynamics.batched.hash_s", "s"),
    ("dynamics.batched.icdf_s", "s"),
    ("dynamics.batched.icdf_share", "ratio"),
    ("dynamics.batched.icdf_ns_per_draw", "ns"),
    ("dynamics.batched.bdtr_calls", "count"),
    ("dynamics.batched.bdtr_s", "s"),
    ("dynamics.batched.pmf_s", "s"),
    ("core.protocol.response_calls", "count"),
    ("core.protocol.response_s", "s"),
    ("dynamics.config.validate_s", "s"),
    ("dynamics.run.ensemble_self_s", "s"),
    ("dynamics.run.lockstep_rounds", "count"),
    ("dynamics.engine.step_calls", "count"),
    ("dynamics.engine.step_s", "s"),
    ("dynamics.run.simulate_self_s", "s"),
    ("telemetry.columnar.records", "count"),
    ("telemetry.columnar.record_s", "s"),
    ("telemetry.columnar.close_s", "s"),
    ("telemetry.columnar.bytes", "bytes"),
    ("telemetry.heartbeat.writes", "count"),
    ("telemetry.heartbeat.write_s", "s"),
    ("execution.checkpoint.saves", "count"),
    ("execution.checkpoint.save_s", "s"),
    ("execution.checkpoint.bytes", "bytes"),
    ("execution.supervisor.wall_s", "s"),
    ("execution.supervisor.shard_starts", "count"),
    ("execution.supervisor.shard_compute_s", "s"),
    ("execution.supervisor.pool_efficiency", "ratio"),
    ("execution.supervisor.merge_s", "s"),
    ("execution.supervisor.retries", "count"),
    ("dynamics.scenarios.step_s", "s"),
    ("dynamics.scenarios.hypergeometric_s", "s"),
    ("service.jobstore.commits", "count"),
    ("service.jobstore.commit_s", "s"),
    ("service.server.queue_wait_s", "s"),
    ("service.server.dispatch_s", "s"),
    ("service.worker.exec_s", "s"),
    ("service.server.client_overhead_s", "s"),
    ("service.server.retries", "count"),
    ("trace.task_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]
COVERAGE_TARGET = 0.95  # the ROADMAP's exit criterion for layer spans


def _size(args, result) -> tuple:
    return int(np.size(args[0])), -1


def _counts_size(args, result) -> tuple:
    return int(np.size(args[3])), -1


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _job_number(job_id) -> int:
    return int(str(job_id).lstrip("J"))


class _Special:
    """``scipy.special`` as seen by the batched kernel, with traced calls."""

    def __init__(self, tracer: Tracer, real) -> None:
        self._real = real
        self.bdtr = tracer.wrap("dynamics.batched.bdtr", real.bdtr)
        for fn in ("gammaln", "xlogy", "xlog1py"):
            setattr(self, fn, tracer.wrap("dynamics.batched.pmf", getattr(real, fn)))

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions (module attributes and methods)."""
    import repro.analysis.ensemble  # noqa: F401  (bind names before patching)
    import repro.cli  # noqa: F401
    import repro.dynamics.batched as batched
    import repro.dynamics.config as config
    import repro.dynamics.engine as engine
    import repro.dynamics.run as run
    import repro.dynamics.scenarios as scenarios
    import repro.execution.supervisor as supervisor
    import repro.service.worker as worker
    import repro.telemetry.heartbeat as heartbeat
    from repro.core.protocol import Protocol
    from repro.execution.checkpoint import Checkpointer
    from repro.service.jobstore import JobStore
    from repro.service.server import Service
    from repro.telemetry.columnar import ColumnarTraceWriter

    fn = tracer.patch_function
    fn(batched, "step_counts_keyed", "dynamics.batched.step", _counts_size)
    fn(batched, "step_count_keyed", "dynamics.batched.step", lambda a, r: (1, -1))
    fn(batched, "counter_uniforms", "dynamics.batched.hash")
    fn(batched, "binomial_icdf", "dynamics.batched.icdf", _size)
    tracer.patch_object(batched, "special", _Special(tracer, batched.special))
    fn(config, "validate_count", "dynamics.config.validate")
    fn(config, "validate_counts", "dynamics.config.validate")
    fn(engine, "step_count", "dynamics.engine.step")
    fn(engine, "step_counts_batch", "dynamics.engine.step")
    fn(run, "simulate", "dynamics.run.simulate")
    fn(run, "simulate_ensemble", "dynamics.run.simulate_ensemble")
    fn(scenarios, "scenario_step_counts", "dynamics.scenarios.step")
    fn(scenarios, "scenario_step_count", "dynamics.scenarios.step")
    fn(scenarios, "hypergeometric_icdf", "dynamics.scenarios.hypergeometric")
    fn(heartbeat, "write_heartbeat", "telemetry.heartbeat.write")
    fn(supervisor, "run_supervised_ensemble", "execution.supervisor.run")
    fn(supervisor, "_write_merged_trace", "execution.supervisor.merge")
    fn(worker, "execute_job", "service.worker.exec",
       lambda a, r: (0, _job_number(Path(a[1]).name)))
    method = tracer.patch_method
    method(Protocol, "response_probabilities", "core.protocol.response")
    method(ColumnarTraceWriter, "round_recorded", "telemetry.columnar.record")
    method(ColumnarTraceWriter, "close", "telemetry.columnar.close",
           lambda a, r: (_file_size(a[0]._path), -1))
    method(Checkpointer, "save", "execution.checkpoint.save",
           lambda a, r: (_file_size(a[0].path), -1))
    method(JobStore, "submit", "service.jobstore.commit",
           lambda a, r: (0, _job_number(r.id)))
    method(JobStore, "transition", "service.jobstore.commit",
           lambda a, r: (0, _job_number(a[1])))
    method(Service, "_dispatch", "service.server.dispatch",
           lambda a, r: (0, _job_number(a[1].id)))


class _Spans:
    """Column view of collected spans with name, parent and task lookups."""

    def __init__(self, spans: Dict[str, np.ndarray], names: List[str],
                 main_pid: int, task_of_key: Dict[int, int]) -> None:
        self.s = spans
        self.dur = spans["end"] - spans["start"]
        ids = {name: i for i, name in enumerate(names)}
        self.label = np.array(names + ["?"], dtype=object)[spans["name"]]
        self.ids = ids
        gids, parent = spans["gid"], spans["parent"]
        order = np.argsort(gids)
        position = np.clip(np.searchsorted(gids[order], parent), 0, gids.size - 1)
        found = (parent >= 0) & (gids[order][position] == parent)
        self.parent_index = np.where(found, order[position], -1)
        self.local_parent = found & ((parent >> GID_SHIFT) == spans["pid"])
        child_sum = np.zeros(self.dur.size)
        np.add.at(child_sum, self.parent_index[self.local_parent],
                  self.dur[self.local_parent])
        self.self_time = self.dur - child_sum
        self.task = self._resolve_tasks(main_pid, task_of_key)

    def _resolve_tasks(self, main_pid: int, task_of_key: Dict[int, int]) -> np.ndarray:
        """Task of each span: recorded, else via its job key or process root."""
        task = self.s["task"].astype(np.int64).copy()
        key = self.s["key"]
        for k, t in task_of_key.items():
            task[(task < 0) & (key == k)] = t
        pid = self.s["pid"]
        for child in np.unique(pid[pid != main_pid]):
            mine = pid == child
            roots = mine & ~self.local_parent
            root_tasks = task[roots]
            if root_tasks.size and (root_tasks == root_tasks[0]).all():
                task[mine] = root_tasks[0]
        return task

    def mask(self, *names: str) -> np.ndarray:
        out = np.zeros(self.dur.size, dtype=bool)
        for name in names:
            if name in self.ids:
                out |= self.s["name"] == self.ids[name]
        return out

    def parent_is(self, name: str) -> np.ndarray:
        parent_names = np.where(self.parent_index >= 0,
                                self.label[np.maximum(self.parent_index, 0)], "")
        return parent_names == name


def layer_metrics(tracer: Tracer, spans: Dict[str, np.ndarray], results: list,
                  untraced: list, workers: int, entry: str) -> Dict[str, float]:
    """Every per-layer metric from the traced phase's spans and results."""
    tasks = max(len(results), 1)
    task_of_key = {_job_number(r.data["job"]): r.index for r in results
                   if "job" in r.data}
    v = _Spans(spans, tracer.names, tracer.pid, task_of_key)
    dur = v.dur
    total = lambda *names: float(dur[v.mask(*names)].sum())  # noqa: E731
    count = lambda *names: float(v.mask(*names).sum())  # noqa: E731
    out: Dict[str, float] = {}

    step = v.mask("dynamics.batched.step")
    icdf = v.mask("dynamics.batched.icdf")
    draws = float(spans["size"][icdf].sum())
    task_wall = sum(r.latency_s for r in results)
    out["dynamics.batched.step_calls"] = step.sum() / tasks
    out["dynamics.batched.replicas_per_step"] = (
        float(spans["size"][step].mean()) if step.any() else 0.0)
    out["dynamics.batched.step_s"] = total("dynamics.batched.step") / tasks
    out["dynamics.batched.hash_s"] = total("dynamics.batched.hash") / tasks
    out["dynamics.batched.icdf_s"] = total("dynamics.batched.icdf") / tasks
    out["dynamics.batched.icdf_share"] = (
        total("dynamics.batched.icdf") / task_wall if task_wall else 0.0)
    out["dynamics.batched.icdf_ns_per_draw"] = (
        total("dynamics.batched.icdf") / draws * 1e9 if draws else 0.0)
    out["dynamics.batched.bdtr_calls"] = count("dynamics.batched.bdtr") / tasks
    out["dynamics.batched.bdtr_s"] = total("dynamics.batched.bdtr") / tasks
    out["dynamics.batched.pmf_s"] = total("dynamics.batched.pmf") / tasks

    out["core.protocol.response_calls"] = count("core.protocol.response") / tasks
    out["core.protocol.response_s"] = total("core.protocol.response") / tasks
    out["dynamics.config.validate_s"] = total("dynamics.config.validate") / tasks
    ensemble = v.mask("dynamics.run.simulate_ensemble")
    out["dynamics.run.ensemble_self_s"] = float(v.self_time[ensemble].sum()) / tasks
    stepping = v.mask("dynamics.batched.step", "dynamics.scenarios.step")
    out["dynamics.run.lockstep_rounds"] = float(
        (stepping & v.parent_is("dynamics.run.simulate_ensemble")).sum()) / tasks
    out["dynamics.engine.step_calls"] = count("dynamics.engine.step") / tasks
    out["dynamics.engine.step_s"] = total("dynamics.engine.step") / tasks
    out["dynamics.run.simulate_self_s"] = float(
        v.self_time[v.mask("dynamics.run.simulate")].sum()) / tasks

    out["telemetry.columnar.records"] = count("telemetry.columnar.record") / tasks
    out["telemetry.columnar.record_s"] = total("telemetry.columnar.record") / tasks
    out["telemetry.columnar.close_s"] = total("telemetry.columnar.close") / tasks
    out["telemetry.columnar.bytes"] = float(
        spans["size"][v.mask("telemetry.columnar.close")].sum()) / tasks
    out["telemetry.heartbeat.writes"] = count("telemetry.heartbeat.write") / tasks
    out["telemetry.heartbeat.write_s"] = total("telemetry.heartbeat.write") / tasks
    out["execution.checkpoint.saves"] = count("execution.checkpoint.save") / tasks
    out["execution.checkpoint.save_s"] = total("execution.checkpoint.save") / tasks
    out["execution.checkpoint.bytes"] = float(
        spans["size"][v.mask("execution.checkpoint.save")].sum()) / tasks

    pool_wall = total("execution.supervisor.run")
    shard_roots = ensemble & ~v.local_parent & (spans["parent"] >= 0)
    shard_compute = float(dur[shard_roots].sum())
    out["execution.supervisor.wall_s"] = pool_wall / tasks
    out["execution.supervisor.shard_starts"] = float(shard_roots.sum()) / tasks
    out["execution.supervisor.shard_compute_s"] = shard_compute / tasks
    out["execution.supervisor.pool_efficiency"] = (
        shard_compute / (workers * pool_wall) if pool_wall else 0.0)
    out["execution.supervisor.merge_s"] = total("execution.supervisor.merge") / tasks
    out["execution.supervisor.retries"] = float(
        sum(r.data.get("retries", 0) for r in results if "times" in r.data)) / tasks
    out["dynamics.scenarios.step_s"] = total("dynamics.scenarios.step") / tasks
    out["dynamics.scenarios.hypergeometric_s"] = total(
        "dynamics.scenarios.hypergeometric") / tasks

    waits = _queue_waits(v)
    jobs = [r for r in results if "job" in r.data]
    out["service.jobstore.commits"] = count("service.jobstore.commit") / tasks
    out["service.jobstore.commit_s"] = total("service.jobstore.commit") / tasks
    out["service.server.queue_wait_s"] = (
        float(sum(w[1] - w[0] for w in waits.values())) / tasks)
    out["service.server.dispatch_s"] = total("service.server.dispatch") / tasks
    out["service.worker.exec_s"] = total("service.worker.exec") / tasks
    out["service.server.client_overhead_s"] = (
        sum(r.latency_s for r in jobs) / tasks
        - out["service.server.queue_wait_s"] - out["service.server.dispatch_s"]
        - out["service.worker.exec_s"]) if jobs else 0.0
    out["service.server.retries"] = float(
        sum(r.data.get("retries", 0) for r in jobs)) / tasks

    out["trace.task_s"] = task_wall / tasks
    out["trace.coverage"] = _coverage(v, results, waits, task_of_key, entry)
    base = sum(r.latency_s for r in untraced)
    out["trace.overhead"] = task_wall / base - 1.0 if base else 0.0
    return {name: float(out[name]) for name, _ in PER_LAYER}


def _queue_waits(v: _Spans) -> Dict[int, tuple]:
    """Per job key: (submit commit end, first dispatch start)."""
    key = v.s["key"]
    submitted: Dict[int, float] = {}
    commits = v.mask("service.jobstore.commit") & (key >= 0)
    for k, end in zip(key[commits], v.s["end"][commits]):
        submitted.setdefault(int(k), float(end))  # the first commit is the submit
    waits = {}
    dispatch = v.mask("service.server.dispatch") & (key >= 0)
    for k, start in sorted(zip(key[dispatch], v.s["start"][dispatch]),
                           key=lambda pair: pair[1]):
        if int(k) in submitted and int(k) not in waits:
            waits[int(k)] = (submitted[int(k)], float(start))
    return waits


def _coverage(v: _Spans, results: list, waits: Dict[int, tuple],
              task_of_key: Dict[int, int], entry: str) -> float:
    """Share of traced task wall covered by layer spans.

    The task span and the entry call (the public function the task invokes)
    are not layers; the time they spend outside every layer span is the
    unattributed remainder.
    """
    layer = np.flatnonzero(
        ~v.mask("bench.task") & ~(v.mask(entry) & v.parent_is("bench.task")))
    order = layer[np.argsort(v.task[layer], kind="stable")]
    sorted_tasks = v.task[order]
    key_of_task = {t: k for k, t in task_of_key.items()}
    covered = wall = 0.0
    for result in results:
        lo, hi = result.start, result.end
        left, right = np.searchsorted(sorted_tasks, [result.index, result.index + 1])
        mine = order[left:right]
        starts = np.clip(v.s["start"][mine], lo, hi)
        ends = np.clip(v.s["end"][mine], lo, hi)
        wait = waits.get(key_of_task.get(result.index))
        if wait is not None:
            starts = np.r_[starts, max(lo, wait[0])]
            ends = np.r_[ends, min(hi, wait[1])]
        covered += union_length(starts, ends)
        wall += hi - lo
    return covered / wall if wall else 0.0
