"""Profiling hooks: per-process cProfile capture and speedscope export.

``repro run --profile DIR`` wires two complementary views of where a run's
time went, both stdlib-only:

* :func:`maybe_cprofile` wraps a run (or a shard worker) in a
  :class:`cProfile.Profile` and dumps standard ``pstats`` data — full
  function-level detail, loadable with ``python -m pstats`` or snakeviz.
* :func:`spans_to_speedscope` converts the
  :class:`~repro.telemetry.spans.SpanAggregate` totals a
  :class:`~repro.telemetry.recorder.MetricsRecorder` already holds into a
  `speedscope <https://www.speedscope.app>`_ "sampled" profile — a
  flamegraph of the repo's *own* stage taxonomy (runner / ensemble /
  engine spans), which is usually the right granularity for the batched
  hot path.

Span paths are slash-joined (``"a/b/c"``); each aggregate becomes one
synthetic sample whose stack is the path's segments and whose weight is
the span's **self time** — its wall clock minus the wall clock of its
direct children — so the flamegraph's widths add up instead of double
counting nested spans.
"""

from __future__ import annotations

import cProfile
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Union

from repro import storage
from repro.telemetry.spans import SpanAggregate

__all__ = [
    "maybe_cprofile",
    "spans_to_speedscope",
    "write_speedscope",
]

_SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def spans_to_speedscope(
    spans: Mapping[str, SpanAggregate],
    name: str = "repro spans",
) -> dict:
    """Convert span aggregates into a speedscope "sampled" profile document.

    Each span path contributes one sample whose stack is the path's
    segments and whose weight is the path's self time (total wall minus
    direct children's wall, clamped at zero; zero-weight paths are
    dropped).  The result renders in speedscope's Time Order / Left Heavy
    / Sandwich views like any sampled profile.
    """
    frames: list = []
    frame_index: Dict[str, int] = {}

    def frame_of(segment: str) -> int:
        if segment not in frame_index:
            frame_index[segment] = len(frames)
            frames.append({"name": segment})
        return frame_index[segment]

    paths = sorted(spans)
    samples = []
    weights = []
    for path in paths:
        segments = path.split("/")
        child_wall = sum(
            spans[other].wall_s
            for other in paths
            if other.startswith(path + "/")
            and other.count("/") == len(segments)
        )
        self_wall = max(0.0, spans[path].wall_s - child_wall)
        if self_wall <= 0.0:
            continue
        samples.append([frame_of(segment) for segment in segments])
        weights.append(self_wall)
    total = sum(weights)
    return {
        "$schema": _SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def write_speedscope(path: Union[str, Path], document: dict) -> Path:
    """Atomically write a speedscope JSON document (tmp + fsync + rename)."""
    text = json.dumps(document, sort_keys=True) + "\n"
    return storage.publish(path, text.encode())


@contextmanager
def maybe_cprofile(path: Optional[Union[str, Path]]) -> Iterator[Optional[cProfile.Profile]]:
    """Profile the enclosed block into ``path``, or do nothing when ``None``.

    The no-op branch keeps call sites unconditional::

        with maybe_cprofile(profile_path):
            simulate_ensemble(...)

    Stats are dumped even when the block raises (the profile of a failed
    attempt is often the interesting one).  Parent directories are created
    as needed.
    """
    if path is None:
        yield None
        return
    path = Path(path)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        path.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(str(path))
