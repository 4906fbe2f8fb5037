"""Feed every correctness rail a right and a deliberately wrong result.

Each rail must pass the right result and flag the wrong one; the script
exits 1 otherwise.  Run from the repository root::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as w  # noqa: E402


def check(label: str, right: dict, wrong: dict) -> bool:
    ok = not right and bool(wrong)
    caught = f"{len(wrong)} flagged, e.g. {next(iter(wrong.values()))}" if wrong else "MISSED"
    print(f"{'ok' if ok else 'BROKEN':6} {label}: right result "
          f"{'passes' if not right else 'FLAGGED'}; wrong result {caught}")
    return ok


def wide(scratch: Path) -> bool:
    wl = w.Wide(seed=7, workdir=scratch)
    result = wl.run_one(0)
    bad_stream = w.TaskResult(index=1, spec=result.spec, data=dict(result.data))
    rounds = list(result.data["batched"])
    rounds[-1] = (rounds[-1][0], rounds[-1][1] + 1.0)  # one replica off by one
    bad_stream.data["batched"] = rounds
    bad_censoring = w.TaskResult(index=2, spec=result.spec, data=dict(result.data))
    times = result.data["times"].copy()
    times[0] = 42.0  # a replica "converged" inside a censored-by-design task
    bad_censoring.data["times"] = times
    return check("wide loop-vs-batched", wl.rails([result]),
                 wl.rails([bad_stream, bad_censoring]))


def law(workload, label: str, scratch: Path, tasks: int) -> bool:
    wl = workload(seed=7, workdir=scratch)
    results = wl.run_phase(count=tasks)
    right = wl.rails(results)
    for result in results:  # every tau 50% too long: a biased sampler
        if "tau" in result.data:
            result.data["tau"] *= 1.5
        else:
            result.data["times"] = result.data["times"] * 1.5
    wrong = {i: why for i, why in wl.rails(results).items() if "exact" in why}
    return check(label, right, wrong)


def sharded_trace(scratch: Path) -> bool:
    wl = w.Sharded(seed=7, workdir=scratch)
    result = wl.run_one(0)
    right = {i: why for i, why in wl.rails([result]).items() if "trace" in why}
    path = result.data["trace"]
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # a torn merged trace
    wrong = {i: why for i, why in wl.rails([result]).items() if "trace" in why}
    return check("sharded merged trace", right, wrong)


def service(scratch: Path) -> bool:
    from dataclasses import asdict

    from repro.analysis.ensemble import convergence_ensemble
    from repro.cli import resolve_protocol
    from repro.dynamics.config import wrong_consensus_configuration
    from repro.dynamics.rng import make_rng
    from repro.service.worker import execute_job, validate_spec

    wl = w.Service(seed=7, workdir=scratch)
    results = []
    for index in range(len(wl.cycle)):
        spec = wl.spec(index)
        payload = execute_job(validate_spec(dict(spec)), scratch / f"J{index}")
        results.append(w.TaskResult(index=index, spec=spec,
                                    data={"stats": payload["stats"]}))
    right = wl.rails(results)
    spec = validate_spec(dict(results[1].spec))
    stats = asdict(convergence_ensemble(
        resolve_protocol(spec["protocol"], spec["n"]),
        wrong_consensus_configuration(spec["n"], spec["z"]), spec["max_rounds"],
        make_rng(spec["seed"] + 1), spec["replicas"], scenario=spec["scenario"]))
    results[1].data["stats"] = stats  # the right law, the wrong seed
    results[2].data["stats"] = dict(results[2].data["stats"], censored=0)
    return check("service job stats", right, wl.rails(results))


def main() -> int:
    scratch = ROOT / ".perfbench" / "selfcheck"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        outcomes = [
            wide(scratch / "wide"),
            law(w.Single, "single law of tau", scratch / "single", 300),
            law(w.Sharded, "sharded law of tau", scratch / "sharded", 3),
            sharded_trace(scratch / "trace"),
            service(scratch / "service"),
        ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
