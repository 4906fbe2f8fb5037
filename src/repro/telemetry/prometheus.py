"""Prometheus text exposition (v0.0.4) with no dependencies beyond stdlib.

Three pieces, all scrape-compatible with a stock Prometheus server:

* **Renderer** — :class:`MetricFamily` + :func:`render_exposition` emit the
  text format (``# HELP`` / ``# TYPE`` pairs, escaped labels, Go-style
  values), and :func:`metrics_families` / :func:`heartbeat_families` map
  the repo's own telemetry (a live
  :class:`~repro.telemetry.recorder.MetricsRecorder` snapshot and the
  heartbeat files of :mod:`~repro.telemetry.heartbeat`) onto metric
  families.  :func:`render_metrics` is the one-call convenience.
* **Validator** — :func:`validate_exposition` is a strict line-grammar
  checker (metric-name and label-name charsets, HELP/TYPE pairing and
  ordering, contiguous families, label-escape correctness, value syntax,
  counters end in ``_total``) so CI can assert scrape compatibility
  without installing promtool.
* **Transports** — :class:`MetricsServer` serves a collector callback from
  a stdlib ``http.server`` background thread (``repro run
  --metrics-port``), and :func:`write_textfile` is the atomic textfile
  sink for node-exporter-style collection.  The job service's API is the
  same server with more routes (:class:`RequestHandler`).

The exporter never *computes* anything new: every number already exists in
``MetricsRecorder``/``SpanAggregate`` aggregates or in heartbeat files, so
serving ``/metrics`` adds no per-round cost to a run.
"""

from __future__ import annotations

import json
import math
import re
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import storage
from repro.telemetry.heartbeat import Heartbeat
from repro.telemetry.recorder import RunMetrics

__all__ = [
    "CONTENT_TYPE",
    "LABEL_NAME_RE",
    "METRIC_NAME_RE",
    "ExpositionError",
    "MetricFamily",
    "MetricsServer",
    "RequestHandler",
    "escape_help",
    "escape_label_value",
    "format_value",
    "heartbeat_families",
    "metrics_families",
    "render_exposition",
    "render_metrics",
    "validate_exposition",
    "write_textfile",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
"""The exposition-format content type a Prometheus scraper expects."""

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
"""Legal metric names (exposition format, colons reserved for rules)."""

LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
"""Legal label names (leading ``__`` is reserved but syntactically valid)."""

_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


class ExpositionError(ValueError):
    """A payload violated the exposition grammar (message says where)."""


def escape_label_value(value: object) -> str:
    """Escape a label value: ``\\`` then ``"`` then newlines, per the spec."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help(text: str) -> str:
    """Escape HELP text: only ``\\`` and newlines (quotes stay literal)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value the Go-parser way (NaN/+Inf/-Inf, no exponent
    games); integral floats render without a decimal point for stability."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


@dataclass(frozen=True)
class MetricFamily:
    """One metric family: name, type, help, and its samples.

    Samples are ``(labels, value)`` pairs where ``labels`` is a sequence of
    ``(name, value)`` tuples (order is preserved in the output, so built
    families render deterministically).

    Raises ``ValueError`` at construction on an illegal name, type, or —
    for counters — a name that does not end in ``_total`` (the naming
    convention the validator enforces so our own output stays idiomatic).
    """

    name: str
    kind: str
    help: str
    samples: Sequence[Tuple[Sequence[Tuple[str, object]], float]] = field(
        default_factory=tuple
    )

    def __post_init__(self) -> None:
        if not METRIC_NAME_RE.match(self.name):
            raise ValueError(f"illegal metric name {self.name!r}")
        if self.kind not in _TYPES:
            raise ValueError(f"illegal metric type {self.kind!r}")
        if self.kind == "counter" and not self.name.endswith("_total"):
            raise ValueError(
                f"counter {self.name!r} must end in _total (naming convention)"
            )
        for labels, _ in self.samples:
            for label_name, _ in labels:
                if not LABEL_NAME_RE.match(label_name):
                    raise ValueError(f"illegal label name {label_name!r}")


def render_exposition(families: Iterable[MetricFamily]) -> str:
    """Render metric families as one exposition payload (trailing newline)."""
    lines: List[str] = []
    for family in families:
        lines.append(f"# HELP {family.name} {escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, value in family.samples:
            if labels:
                body = ",".join(
                    f'{name}="{escape_label_value(value_)}"'
                    for name, value_ in labels
                )
                lines.append(f"{family.name}{{{body}}} {format_value(value)}")
            else:
                lines.append(f"{family.name} {format_value(value)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Strict line-grammar validator (promtool-free scrape compatibility)
# ----------------------------------------------------------------------


def _parse_labels(body: str, where: str) -> List[Tuple[str, str]]:
    """Parse the inside of ``{...}``, validating names and escapes."""
    labels: List[Tuple[str, str]] = []
    i, n = 0, len(body)
    while i < n:
        eq = body.find("=", i)
        if eq < 0:
            raise ExpositionError(f"{where}: label without '=' in {body!r}")
        name = body[i:eq]
        if not LABEL_NAME_RE.match(name):
            raise ExpositionError(f"{where}: illegal label name {name!r}")
        if eq + 1 >= n or body[eq + 1] != '"':
            raise ExpositionError(f"{where}: label value of {name!r} not quoted")
        i = eq + 2
        value_chars: List[str] = []
        closed = False
        while i < n:
            ch = body[i]
            if ch == "\\":
                if i + 1 >= n or body[i + 1] not in ('\\', '"', "n"):
                    raise ExpositionError(
                        f"{where}: bad escape in label {name!r} "
                        f"(only \\\\, \\\" and \\n are legal)"
                    )
                value_chars.append(body[i : i + 2])
                i += 2
                continue
            if ch == '"':
                closed = True
                i += 1
                break
            value_chars.append(ch)
            i += 1
        if not closed:
            raise ExpositionError(f"{where}: unterminated label value for {name!r}")
        if any(name == seen for seen, _ in labels):
            raise ExpositionError(f"{where}: duplicate label name {name!r}")
        labels.append((name, "".join(value_chars)))
        if i < n:
            if body[i] != ",":
                raise ExpositionError(
                    f"{where}: expected ',' between labels, got {body[i]!r}"
                )
            i += 1
            if i == n:
                raise ExpositionError(f"{where}: trailing ',' in label set")
    return labels


def _parse_value(token: str, where: str) -> float:
    if token in ("NaN", "+Inf", "-Inf", "Inf"):
        return float("nan") if token == "NaN" else float(token.replace("Inf", "inf"))
    try:
        return float(token)
    except ValueError:
        raise ExpositionError(f"{where}: unparsable value {token!r}") from None


def _family_of(sample_name: str, declared: Dict[str, dict]) -> Optional[str]:
    """Resolve a sample name to its declared family (histogram/summary
    samples may carry a ``_bucket``/``_sum``/``_count`` suffix)."""
    if sample_name in declared:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in declared:
            base = sample_name[: -len(suffix)]
            if declared[base]["type"] in ("histogram", "summary"):
                return base
    return None


def validate_exposition(text: str) -> Dict[str, int]:
    """Strictly validate an exposition payload; raise :class:`ExpositionError`.

    Enforced grammar (a strict subset of what a Prometheus scraper accepts,
    so passing here implies scrapeability):

    * payload ends with a newline; lines are comments, samples, or blank;
    * ``# HELP``/``# TYPE`` appear exactly once per family, HELP first,
      both before any of the family's samples;
    * a family's lines are contiguous — once another family starts, an
      earlier name may not reappear;
    * metric names match :data:`METRIC_NAME_RE`; ``counter`` families end
      in ``_total``; a sample's name must match a declared family
      (histogram/summary suffixes allowed for those types);
    * label names match :data:`LABEL_NAME_RE`, are unique per sample, and
      label values use only the ``\\\\``, ``\\"``, ``\\n`` escapes;
    * values parse as Go floats (``NaN``, ``+Inf``, ``-Inf`` included) and
      the optional trailing timestamp is an integer.

    Returns ``{"families": ..., "samples": ...}`` on success.
    """
    if not text:
        raise ExpositionError("empty payload")
    if not text.endswith("\n"):
        raise ExpositionError("payload must end with a newline")
    declared: Dict[str, dict] = {}
    current: Optional[str] = None
    closed: set = set()
    samples = 0

    def open_family(name: str, where: str) -> dict:
        nonlocal current
        if name in closed:
            raise ExpositionError(
                f"{where}: family {name!r} reappears after other families "
                "(families must be contiguous)"
            )
        if current is not None and current != name:
            closed.add(current)
        current = name
        if name not in declared:
            declared[name] = {"help": False, "type": None, "samples": 0}
        return declared[name]

    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3:
                    raise ExpositionError(f"{where}: {parts[1]} without a metric name")
                name = parts[2]
                if not METRIC_NAME_RE.match(name):
                    raise ExpositionError(f"{where}: illegal metric name {name!r}")
                family = open_family(name, where)
                if family["samples"]:
                    raise ExpositionError(
                        f"{where}: {parts[1]} for {name!r} after its samples"
                    )
                if parts[1] == "HELP":
                    if family["help"]:
                        raise ExpositionError(f"{where}: duplicate HELP for {name!r}")
                    if family["type"] is not None:
                        raise ExpositionError(
                            f"{where}: HELP for {name!r} must precede TYPE"
                        )
                    family["help"] = True
                else:
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in _TYPES:
                        raise ExpositionError(
                            f"{where}: illegal TYPE {kind!r} for {name!r}"
                        )
                    if family["type"] is not None:
                        raise ExpositionError(f"{where}: duplicate TYPE for {name!r}")
                    if not family["help"]:
                        raise ExpositionError(
                            f"{where}: TYPE for {name!r} without a preceding HELP"
                        )
                    if kind == "counter" and not name.endswith("_total"):
                        raise ExpositionError(
                            f"{where}: counter {name!r} must end in _total"
                        )
                    family["type"] = kind
            continue
        # Sample line: name[{labels}] value [timestamp]
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)", line)
        if not match:
            raise ExpositionError(f"{where}: illegal sample line {line!r}")
        sample_name = match.group(1)
        rest = line[match.end():]
        if rest.startswith("{"):
            end = rest.rfind("}")
            if end < 0:
                raise ExpositionError(f"{where}: unterminated label set")
            _parse_labels(rest[1:end], where)
            rest = rest[end + 1 :]
        tokens = rest.split()
        if not tokens or len(tokens) > 2:
            raise ExpositionError(f"{where}: expected 'value [timestamp]' in {line!r}")
        _parse_value(tokens[0], where)
        if len(tokens) == 2:
            try:
                int(tokens[1])
            except ValueError:
                raise ExpositionError(
                    f"{where}: timestamp {tokens[1]!r} is not an integer"
                ) from None
        base = _family_of(sample_name, declared)
        if base is None:
            raise ExpositionError(
                f"{where}: sample {sample_name!r} has no preceding HELP/TYPE"
            )
        open_family(base, where)
        if declared[base]["type"] is None:
            raise ExpositionError(f"{where}: sample {sample_name!r} without a TYPE")
        declared[base]["samples"] += 1
        samples += 1
    return {"families": len(declared), "samples": samples}


# ----------------------------------------------------------------------
# Family builders over the repo's own telemetry
# ----------------------------------------------------------------------


def _finite(value: Optional[float]) -> bool:
    return value is not None and math.isfinite(float(value))


def metrics_families(metrics: RunMetrics) -> List[MetricFamily]:
    """Metric families from a live :class:`MetricsRecorder` snapshot."""
    families = [
        MetricFamily(
            "repro_rounds_total", "counter",
            "Rounds observed by the recorder.",
            [((), float(metrics.rounds))],
        ),
        MetricFamily(
            "repro_run_wall_clock_seconds", "gauge",
            "Wall clock from run start to the last observation.",
            [((), float(metrics.wall_clock_s))],
        ),
        MetricFamily(
            "repro_run_rounds_per_second", "gauge",
            "Observed rounds per wall-clock second.",
            [((), float(metrics.rounds_per_second))],
        ),
    ]
    if _finite(metrics.final_count):
        families.append(
            MetricFamily(
                "repro_run_final_count", "gauge",
                "Most recently observed count.",
                [((), float(metrics.final_count))],
            )
        )
    if _finite(metrics.mean_abs_drift):
        families.append(
            MetricFamily(
                "repro_run_mean_abs_drift", "gauge",
                "Mean absolute per-round drift of the count.",
                [((), float(metrics.mean_abs_drift))],
            )
        )
    if metrics.spans:
        paths = sorted(metrics.spans)
        families.append(
            MetricFamily(
                "repro_span_calls_total", "counter",
                "Completed calls per span path.",
                [((("path", p),), float(metrics.spans[p].calls)) for p in paths],
            )
        )
        families.append(
            MetricFamily(
                "repro_span_wall_seconds_total", "counter",
                "Cumulative wall clock per span path.",
                [((("path", p),), float(metrics.spans[p].wall_s)) for p in paths],
            )
        )
        counter_samples = [
            ((("path", p), ("counter", key)), float(value))
            for p in paths
            for key, value in sorted(metrics.spans[p].counters.items())
        ]
        if counter_samples:
            families.append(
                MetricFamily(
                    "repro_span_events_total", "counter",
                    "Span counter increments per span path and counter name.",
                    counter_samples,
                )
            )
    return families


def heartbeat_families(beats: Iterable[Heartbeat]) -> List[MetricFamily]:
    """Metric families from heartbeat files (shard progress + supervision).

    Shard/run heartbeats carry ``role``/``shard`` labels; the supervisor
    heartbeat additionally feeds the retry/timeout counters and the
    ``repro_shards_quarantined`` gauge the CI smoke asserts on.
    """
    beats = list(beats)
    if not beats:
        return []

    def labels(beat: Heartbeat) -> Tuple[Tuple[str, str], ...]:
        pairs: List[Tuple[str, str]] = [("role", beat.role)]
        if beat.shard is not None:
            pairs.append(("shard", str(beat.shard)))
        return tuple(pairs)

    def gauge(name: str, help_text: str, pick) -> Optional[MetricFamily]:
        samples = [
            (labels(beat), float(pick(beat)))
            for beat in beats
            if pick(beat) is not None
        ]
        return MetricFamily(name, "gauge", help_text, samples) if samples else None

    families = [
        gauge(
            "repro_heartbeat_timestamp_seconds",
            "Unix time of each writer's last heartbeat.",
            lambda b: b.updated_at,
        ),
        gauge(
            "repro_heartbeat_up",
            "1 while the writer reports running, 0 once terminal.",
            lambda b: 0.0 if b.terminal else 1.0,
        ),
        gauge(
            "repro_progress_rounds",
            "Last completed round per writer.",
            lambda b: b.round,
        ),
        gauge(
            "repro_progress_max_rounds",
            "Round budget per writer, when known.",
            lambda b: b.max_rounds,
        ),
        gauge(
            "repro_progress_replicas",
            "Replicas assigned to each writer.",
            lambda b: b.replicas,
        ),
        gauge(
            "repro_progress_replicas_done",
            "Replicas finished (converged or censored) per writer.",
            lambda b: b.replicas_done,
        ),
        gauge(
            "repro_progress_rounds_per_second",
            "Writer-measured simulation throughput.",
            lambda b: b.rounds_per_second,
        ),
        gauge(
            "repro_shard_attempt",
            "1-based attempt number of the current shard execution.",
            lambda b: b.attempt,
        ),
        gauge(
            "repro_rss_bytes",
            "Current resident set size per writer.",
            lambda b: b.rss_bytes,
        ),
        gauge(
            "repro_peak_rss_bytes",
            "Lifetime peak resident set size per writer.",
            lambda b: b.peak_rss_bytes,
        ),
    ]
    cpu_samples = [
        (labels(beat), float(beat.cpu_s)) for beat in beats if beat.cpu_s is not None
    ]
    if cpu_samples:
        families.append(
            MetricFamily(
                "repro_cpu_seconds_total", "counter",
                "CPU seconds consumed per writer.",
                cpu_samples,
            )
        )
    supervisors = [beat for beat in beats if beat.role == "supervisor"]
    if supervisors:
        sup = supervisors[0]
        families.extend(
            [
                MetricFamily(
                    "repro_shards", "gauge",
                    "Shard count of the supervised ensemble.",
                    [((), float(sup.shards))] if sup.shards is not None else [],
                ),
                MetricFamily(
                    "repro_shard_retries_total", "counter",
                    "Shard attempts beyond the first.",
                    [((), float(sup.retries))],
                ),
                MetricFamily(
                    "repro_shard_timeouts_total", "counter",
                    "Shard attempts killed for overrunning their budget.",
                    [((), float(sup.timeouts))],
                ),
                MetricFamily(
                    "repro_shards_quarantined", "gauge",
                    "Shards quarantined after exhausting their retries.",
                    [((), float(sup.failed_shards))],
                ),
            ]
        )
    return [family for family in families if family is not None and family.samples]


def render_metrics(
    metrics: Optional[RunMetrics] = None,
    heartbeats: Iterable[Heartbeat] = (),
) -> str:
    """Render a recorder snapshot and/or heartbeats as one payload."""
    families: List[MetricFamily] = []
    if metrics is not None:
        families.extend(metrics_families(metrics))
    families.extend(heartbeat_families(heartbeats))
    if not families:
        families.append(
            MetricFamily(
                "repro_up", "gauge",
                "The exporter is alive (no run telemetry yet).",
                [((), 1.0)],
            )
        )
    return render_exposition(families)


# ----------------------------------------------------------------------
# Transports: background HTTP server + atomic textfile sink
# ----------------------------------------------------------------------


def write_textfile(path: Union[str, Path], text: str) -> Path:
    """Atomically publish an exposition payload (node-exporter textfile
    collector convention: readers never observe a partial file)."""
    return storage.publish(path, text.encode())


class RequestHandler(BaseHTTPRequestHandler):
    """A quiet request handler with text and JSON replies.

    Serves ``GET /metrics`` (and ``/``) from the owning
    :class:`MetricsServer`'s collector; subclasses add routes and reach
    that server object as ``self.server.owner``.
    """

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # requests are not news; the serving process owns stderr

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        self._send_text(
            status, json.dumps(payload, sort_keys=True),
            "application/json; charset=utf-8",
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.partition("?")[0] not in ("/metrics", "/"):
            self.send_error(404, "only /metrics is served")
            return
        try:
            text = self.server.owner.collect()
        except Exception as error:  # noqa: BLE001 - surfaced as a 500
            self._send_text(500, f"collector error: {error}\n", "text/plain")
        else:
            self._send_text(200, text, CONTENT_TYPE)


class MetricsServer:
    """Serve ``GET /metrics`` from a daemon thread; stdlib only.

    ``collect`` is called per scrape and must return a full exposition
    payload — typically :func:`render_metrics` over a live recorder and
    freshly re-read heartbeat files, so the endpoint reflects mid-run
    state without any coupling to the runner.  ``port=0`` binds an
    ephemeral port; read :attr:`port`/:attr:`url` after :meth:`start`.
    Usable as a context manager.  Subclasses serve more routes through
    their own :attr:`handler` (:attr:`url` ends in :attr:`path`).
    """

    handler = RequestHandler
    path = "/metrics"

    def __init__(
        self,
        collect: Callable[[], str],
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.collect = collect
        self.host = host
        self.port = int(port)
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}{self.path}"

    def start(self) -> "MetricsServer":
        if self._server is not None:
            return self
        self._server = ThreadingHTTPServer((self.host, self.port), self.handler)
        self._server.owner = self
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"repro-http-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
