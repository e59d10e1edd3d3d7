"""Deterministic export of the telemetry plane.

Two renderings of one :class:`~repro.telemetry.pipeline.TelemetryPipeline`:

* :func:`to_jsonl` — one JSON object per line (meta, per-metric
  summaries, alert log), keys sorted and ordering fixed by metric name,
  so identical runs produce byte-identical output;
* :func:`dashboard` — the terminal view: per-back-end digest table,
  CPU sparklines from the raw retention tier, and the alert log, built
  on :mod:`repro.analysis.report` like every other figure in the repo.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, List, Sequence

from repro.analysis.report import format_table
from repro.telemetry.alerts import alert_subject

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.pipeline import TelemetryPipeline

#: glyph ramp for sparklines (ASCII-only, like the rest of the repo)
SPARK_GLYPHS = " .:-=+*#%@"

#: rendering of empty / all-NaN series in the dashboard
NO_DATA = "<no data>"


def _round(x: float, digits: int = 6):
    """Stable rounding so JSONL output is platform-independent.

    Non-finite values round to ``None`` (JSON ``null``): ``json.dumps``
    would otherwise emit bare ``NaN``/``Infinity`` tokens, which are not
    JSON and break downstream parsers.
    """
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return None
    return round(x, digits)


def to_jsonl(pipeline: "TelemetryPipeline") -> str:
    """Serialise the pipeline state as deterministic JSON lines."""
    lines: List[str] = []

    def emit(obj: dict) -> None:
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))

    emit({
        "kind": "meta",
        "observations": pipeline.observations,
        "capacity": pipeline.store.capacity,
        "decimation": pipeline.store.decimation,
        "metrics": sorted(pipeline.metrics),
        "rules": sorted(r.name for r in pipeline.engine.rules),
    })
    digests = pipeline.digests()
    for key in sorted(digests):
        summary = digests[key].summary()
        ring = pipeline.store.get(key)
        emit({
            "kind": "metric",
            "key": key,
            "count": summary["count"],
            "mean": _round(summary["mean"]),
            "min": _round(summary["min"]),
            "max": _round(summary["max"]),
            "p50": _round(summary["p50"]),
            "p95": _round(summary["p95"]),
            "p99": _round(summary["p99"]),
            "retained": len(ring.raw) if ring is not None else 0,
            "dropped": ring.raw.dropped if ring is not None else 0,
        })
    for alert in pipeline.engine.log:
        emit({
            "kind": "alert",
            "time": alert.time,
            "rule": alert.rule,
            "backend": alert.backend,
            "severity": alert.severity.name,
            "metric": alert.metric,
            "value": _round(alert.value),
            "message": alert.message,
            "cleared": alert.cleared,
        })
    return "\n".join(lines) + "\n"


def write_jsonl(pipeline: "TelemetryPipeline", path) -> None:
    with open(path, "w") as fh:
        fh.write(to_jsonl(pipeline))


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """Render the newest ``width`` values as a one-line ASCII ramp.

    Empty and all-NaN windows render as ``<no data>`` rather than an
    empty string (or a ``ValueError`` from rounding NaN); isolated NaN
    samples render as ``?`` so gaps stay visible without distorting the
    scale of the finite neighbours.
    """
    vals = [float(v) for v in list(values)[-width:]]
    finite = [v for v in vals if not (math.isnan(v) or math.isinf(v))]
    if not finite:
        return NO_DATA
    lo, hi = min(finite), max(finite)
    span = hi - lo
    ramp = len(SPARK_GLYPHS) - 1

    def glyph(v: float) -> str:
        if math.isnan(v):
            return "?"
        if math.isinf(v):
            return SPARK_GLYPHS[-1] if v > 0 else SPARK_GLYPHS[0]
        if span <= 0:
            return SPARK_GLYPHS[0]
        return SPARK_GLYPHS[round((v - lo) / span * ramp)]

    return "".join(glyph(v) for v in vals)


def dashboard(pipeline: "TelemetryPipeline", sparkline_width: int = 48) -> str:
    """The terminal dashboard: digests, sparklines, active + logged alerts."""
    sections: List[str] = ["== TELEMETRY DASHBOARD =="]

    def cell(digest, attr: str, fmt: str, scale: float = 1.0) -> str:
        # A digest that exists but has seen no samples would render its
        # 0.0 placeholder quantiles as real measurements — show the
        # explicit marker instead.
        if digest is None or digest.count == 0:
            return NO_DATA
        value = getattr(digest, attr) / scale
        if math.isnan(value) or math.isinf(value):
            return NO_DATA
        return f"{value:{fmt}}"

    rows = []
    for backend in pipeline.backends():
        cpu = pipeline.digest(backend, "cpu_util")
        runq = pipeline.digest(backend, "runq_load")
        stale = pipeline.digest(backend, "staleness")
        active = [a for a in pipeline.engine.active_alerts() if a.backend == backend]
        rows.append([
            f"backend{backend}",
            cpu.count if cpu else 0,
            cell(cpu, "p50", ".2f"),
            cell(cpu, "p95", ".2f"),
            cell(cpu, "p99", ".2f"),
            cell(runq, "p95", ".1f"),
            cell(stale, "p95", ".1f", scale=1e6),
            ",".join(sorted({a.rule for a in active})) or "-",
        ])
    if rows:
        sections.append(format_table(
            ["backend", "polls", "cpu p50", "cpu p95", "cpu p99",
             "runq p95", "stale p95 ms", "active alerts"],
            rows,
            title="Per-backend load digests",
        ))
    else:
        sections.append(f"Per-backend load digests: {NO_DATA}")

    spark_rows = []
    for backend in pipeline.backends():
        ring = pipeline.store.get(f"b{backend}.cpu_util")
        values = ring.values() if ring is not None else []
        spark_rows.append(
            f"backend{backend} cpu [{sparkline(values, sparkline_width)}]")
    if spark_rows:
        sections.append("CPU utilisation (raw tier, oldest -> newest):")
        sections.append("\n".join(spark_rows))

    dropped = sum(pipeline.store.get(n).raw.dropped
                  for n in pipeline.store.names())
    retained = sum(len(pipeline.store.get(n).raw)
                   for n in pipeline.store.names())
    sections.append(
        f"Retention: observations={pipeline.observations} "
        f"retained={retained} dropped={dropped}")

    log = pipeline.engine.log
    if log:
        alert_rows = [
            [f"{a.time / 1e9:.3f}s", a.rule, alert_subject(a.backend),
             "cleared" if a.cleared else a.severity.name, a.message]
            for a in log
        ]
        sections.append(format_table(
            ["time", "rule", "backend", "state", "detail"],
            alert_rows,
            title=f"Alert log ({sum(1 for a in log if not a.cleared)} raised)",
        ))
    else:
        sections.append("Alert log: empty")

    counts = pipeline.engine.counts_by_rule()
    if counts:
        sections.append("Raised by rule: " + ", ".join(
            f"{name}={n}" for name, n in sorted(counts.items())))
    return "\n\n".join(sections)
