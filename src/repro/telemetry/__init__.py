"""Run telemetry: structured traces, per-round metrics, timing hooks.

Every dynamics runner accepts an optional ``recorder=`` argument (default:
the no-op :data:`NULL_RECORDER`, whose disabled flag keeps the hot loops on
the exact pre-telemetry code path).  Three concrete recorders ship:

* :class:`MetricsRecorder` — O(1)-memory aggregates: rounds, wall-clock,
  rounds/sec, realized drift.
* :class:`ColumnarTraceWriter` — the one trace sink: one record per
  round, plus a provenance header (protocol fingerprint, RNG state hash,
  parameters) and a closing summary, streamed as a chunked binary column
  container and published at close as that container
  (``--trace-format columnar``) or as JSON lines (``jsonl``);
  :func:`open_trace_writer` builds it from a format name.  The formats
  convert losslessly (:func:`jsonl_to_columnar` /
  :func:`columnar_to_jsonl`), and every reader sniffs which one it has
  (:func:`detect_trace_format`).
* :class:`TeeRecorder` / :func:`compose_recorders` — fan events out to both.

Stage-level timing uses :func:`span` — named, nestable wall-clock spans
with counters that runners open around their hot loops; spans land in
:class:`MetricsRecorder` aggregates and in traces as ``span`` records.

The *live* observability plane builds on the same hooks:

* :class:`HeartbeatRecorder` (:mod:`repro.telemetry.heartbeat`) — rewrites
  an atomic heartbeat file with progress, throughput, and a
  :mod:`~repro.telemetry.resources` sample; ``repro watch`` and the
  Prometheus exporter read those files with no IPC to the run.
* :mod:`repro.telemetry.prometheus` and :mod:`repro.telemetry.profiling`
  are deliberately **not** re-exported here — they are demand-imported by
  the CLI so that importing a runner never pays for the HTTP server or
  cProfile machinery.

See docs/OBSERVABILITY.md for the record schema, overhead measurements and
a worked trace-reading example.
"""

from repro.telemetry.heartbeat import (
    HEARTBEAT_SCHEMA_VERSION,
    HEARTBEAT_SUFFIX,
    Heartbeat,
    HeartbeatRecorder,
    discover_heartbeats,
    heartbeat_path,
    read_heartbeat,
    write_heartbeat,
)
from repro.telemetry.columnar import (
    COLUMNAR_SUFFIX,
    TRACE_FORMATS,
    ColumnarTraceData,
    ColumnarTraceWriter,
    columnar_tail_round,
    columnar_to_jsonl,
    jsonl_to_columnar,
    load_columnar_data,
    open_trace_writer,
    read_columnar_trace,
    write_trace_records,
)
from repro.telemetry.jsonl import (
    detect_trace_format,
    read_trace,
    trace_counts,
    trace_to_series,
    validate_records,
    validate_trace,
)
from repro.telemetry.recorder import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    Recorder,
    RunMetrics,
    RunProvenance,
    TeeRecorder,
    compose_recorders,
    protocol_fingerprint,
    rng_provenance,
    run_provenance,
)
from repro.telemetry.resources import (
    ResourceSample,
    cpu_seconds,
    peak_rss_bytes,
    rss_bytes,
    sample_resources,
)
from repro.telemetry.spans import (
    NULL_SPAN,
    NullSpan,
    Span,
    SpanAggregate,
    SpanRecord,
    current_span,
    span,
)

__all__ = [
    "Span",
    "SpanRecord",
    "SpanAggregate",
    "NullSpan",
    "NULL_SPAN",
    "span",
    "current_span",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "MetricsRecorder",
    "RunMetrics",
    "TeeRecorder",
    "compose_recorders",
    "RunProvenance",
    "run_provenance",
    "protocol_fingerprint",
    "rng_provenance",
    "ColumnarTraceData",
    "ColumnarTraceWriter",
    "COLUMNAR_SUFFIX",
    "TRACE_FORMATS",
    "columnar_tail_round",
    "columnar_to_jsonl",
    "load_columnar_data",
    "detect_trace_format",
    "jsonl_to_columnar",
    "open_trace_writer",
    "read_columnar_trace",
    "read_trace",
    "trace_counts",
    "trace_to_series",
    "validate_records",
    "validate_trace",
    "write_trace_records",
    "HEARTBEAT_SCHEMA_VERSION",
    "HEARTBEAT_SUFFIX",
    "Heartbeat",
    "HeartbeatRecorder",
    "discover_heartbeats",
    "heartbeat_path",
    "read_heartbeat",
    "write_heartbeat",
    "ResourceSample",
    "cpu_seconds",
    "peak_rss_bytes",
    "rss_bytes",
    "sample_resources",
]
