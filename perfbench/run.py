"""The repository benchmark: one command, four workloads, seeded inputs.

Run from the repository root::

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the same seeded tasks untraced and then traced, and reports the
per-layer metrics.  Human-readable lines go first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # set-ups per run (this process + probes); setup_s is the median
TAIL_BEYOND = 10  # task_tail_s: highest percentile with this many tasks beyond
BLOCK_S = 2.0  # traced runs alternate untraced and traced blocks this long

END_TO_END = [
    ("replica_rounds_per_s", "replica-rounds/s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_per_mrr_s", "CPU-s/Mrr"),
]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wide", "single", "sharded", "service"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up sample, then exit
    return parser.parse_args(argv)


def host_stamp() -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba": has_numba}


def tail(latencies: list) -> tuple:
    """(percentile, value, tasks beyond): the highest whole percentile with
    at least TAIL_BEYOND tasks beyond it, never below the median."""
    import numpy as np

    values = np.sort(np.asarray(latencies))
    best = 50
    for pct in range(99, 50, -1):
        if int((values > np.percentile(values, pct)).sum()) >= TAIL_BEYOND:
            best = pct
            break
    cut = float(np.percentile(values, best))
    return best, cut, int((values > cut).sum())


def host_reference_s() -> float:
    """Median time of a fixed NumPy + interpreter job: the host's speed now.

    Reported next to the metrics (never folded into them), so a run-to-run
    drift that the whole host shares can be told apart from the program's.
    """
    import numpy as np

    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = sum(i * i for i in range(100_000))
        values = np.arange(200_000, dtype=np.float64) + total % 7
        for _ in range(10):
            values = np.sqrt(values + 1.0)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_sample(args) -> float:
    """Set-up seconds of a fresh benchmark process on the same workload."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120, check=True)
    return float(probe.stdout.split("READY ")[-1].split()[0])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    os.chdir(ROOT)

    # Everything the run writes, the program's temporary files included,
    # stays inside the checkout.
    scratch = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch / "tmp")
    try:
        import repro  # noqa: F401  (the program's imports are part of set-up)
        import repro.cli  # noqa: F401
        from workloads import WORKLOADS

        return run(args, WORKLOADS[args.workload], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, make_workload, scratch: Path) -> int:
    wl = make_workload(args.seed, scratch)
    tasks = [wl.spec(i) for i in range(-1, 64)]
    if tasks != [make_workload(args.seed, scratch).spec(i) for i in range(-1, 64)]:
        raise RuntimeError("task list is not a function of the seed")
    try:
        wl.start(inprocess=bool(args.trace))
        warm = wl.run_one(-1)
        setup = time.perf_counter() - PROCESS_START
        if args.setup_probe:
            print(f"READY {setup!r}", flush=True)
            return 0
        if args.trace:
            return traced_run(args, wl, warm)
        return measured_run(args, wl, warm, setup)
    finally:
        wl.stop()


def _failures(wl, results, extra) -> dict:
    """Failed tasks by label: raised, lost, or caught by a rail."""
    failures = {str(r.index): r.error for r in results if r.error}
    ok = [r for r in results if not r.error]
    failures.update({str(i): why for i, why in wl.rails(ok).items()})
    failures.update(extra)
    return failures


def measured_run(args, wl, warm, setup: float) -> int:
    host_before = host_reference_s()
    cpu0, helper0 = cpu_seconds(), wl.cpu_children_s()
    phase_start = time.perf_counter()
    results = wl.run_phase(seconds=args.seconds)
    wall = max(r.end for r in results) - phase_start
    cpu = cpu_seconds() - cpu0 + wl.cpu_children_s() - helper0
    host_after = host_reference_s()
    again = wl.run_one(0)  # same seed, same task: the digest must repeat
    wl.stop()
    rss = peak_rss_mb()
    extra = {"warm-up": warm.error} if warm.error else {}
    if again.digest != results[0].digest:
        extra["rerun 0"] = f"digest {again.digest} != {results[0].digest}"
    failures = _failures(wl, results, extra)
    setups = [setup] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]

    latencies = [r.latency_s for r in results]
    rounds = sum(r.replica_rounds for r in results)
    pct, tail_value, beyond = tail(latencies)
    metrics = {
        "replica_rounds_per_s": rounds / wall,
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "cpu_per_mrr_s": cpu / (rounds / 1e6),
    }
    report(args, wl, results, failures, {
        "timed_wall_s": wall, "tasks": len(results),
        "task_tail_percentile": pct, "tasks_beyond_tail": beyond,
        "setup_samples_s": setups, "failed_frac": len(failures) / len(results),
        "host_reference_s": [host_before, host_after],
    })
    for name, unit in END_TO_END:
        print(f"{name:<24} {metrics[name]:>14.6g} {unit}")
    # Attempted: the timed tasks plus the warm-up and the rerun of task 0.
    emit(len(results) + 2, failures,
         {name: (metrics[name], unit) for name, unit in END_TO_END})
    return 0


def traced_run(args, wl, warm) -> int:
    from layers import COVERAGE_TARGET, PER_LAYER, install, layer_metrics
    from tracer import Tracer

    tracer = Tracer(wl.workdir / "spool")

    def run_traced(**phase):
        install(tracer)
        wl.tracer = tracer
        try:
            results = wl.run_phase(**phase)
        finally:
            wl.tracer = None
            tracer.uninstall()
        for result in results:
            if result.error is None:
                wl.finish(result)
        return results

    # Blocks of the same tasks run untraced and traced in alternating order
    # (AB, BA, AB, ...), so a drift in host speed cancels out of trace.overhead.
    untraced, traced = [], []
    start = time.perf_counter()
    traced_first = False
    while time.perf_counter() - start < args.seconds:
        first = len(untraced)
        if traced_first:
            block = run_traced(seconds=BLOCK_S, first=first)
            untraced += wl.run_phase(count=len(block), first=first)
        else:
            untraced_block = wl.run_phase(seconds=BLOCK_S, first=first)
            block = run_traced(count=len(untraced_block), first=first)
            untraced += untraced_block
        traced += block
        traced_first = not traced_first
    wl.stop()
    spans = tracer.collect()
    out_dir = ROOT / ".perfbench"
    tracer.save(out_dir / f"spans-{wl.name}-{args.seed}.npz", spans)
    workers = getattr(wl, "workers", 1)
    values = layer_metrics(tracer, spans, traced, untraced, workers, wl.entry)
    extra = {"warm-up": warm.error} if warm.error else {}
    for a, b in zip(untraced, traced):
        if b.error or a.digest != b.digest:
            extra[f"traced {b.index}"] = b.error or (
                f"digest {b.digest} != untraced {a.digest}")
    failures = _failures(wl, untraced, extra)
    coverage = values["trace.coverage"]
    report(args, wl, untraced + traced, failures, {
        "traced_tasks": len(traced), "spans": int(spans["name"].size),
        "coverage_short_of_target": coverage < COVERAGE_TARGET,
        "icdf_share_base_s": sum(r.latency_s for r in traced),
        "pool_efficiency_base_s": workers * values["execution.supervisor.wall_s"]
        * len(traced),
    })
    if coverage < COVERAGE_TARGET:
        print(f"coverage: {wl.name} layer spans cover {coverage:.1%} of traced "
              f"wall, short of the {COVERAGE_TARGET:.0%} target")
    for name, unit in PER_LAYER:
        print(f"{name:<40} {values[name]:>14.6g} {unit}")
    emit(len(untraced) + len(traced) + 1, failures,
         {name: (values[name], unit) for name, unit in PER_LAYER})
    return 0


def report(args, wl, results, failures, detail) -> None:
    from workloads import digest_of

    doc = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "host": host_stamp(),
           "task_list_digest": digest_of([wl.spec(i) for i in range(64)]),
           "result_digest": digest_of([r.digest for r in results[:4]]), **detail}
    print("report " + json.dumps(doc, sort_keys=True))
    for label, why in failures.items():
        print(f"failed task {label}: {why}")


def emit(attempted: int, failures, metrics) -> None:
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


if __name__ == "__main__":
    sys.exit(main())
