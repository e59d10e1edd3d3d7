"""Per-session job reports: traces and telemetry joined per query class.

The MPCDF observation (PAPERS.md): node metrics become actionable when
they are re-cut per *job*. :func:`build_job_report` does that join for
one cluster session — for every workload query class it combines

* client-observed response-time statistics (dispatcher request log),
* the mean trace **critical path**, broken down per span name, from
  the sampled traces of that class (:mod:`repro.tracing.analysis`),

and sides them with the per-back-end telemetry quantiles (cpu, run
queue, staleness) and the monitoring plane's own health counters. The
result is a deterministic artifact: :meth:`JobReport.to_json` is
byte-identical across same-seed runs, and :meth:`JobReport.render`
prints the human-shaped tables.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.telemetry.digest import exact_quantiles
from repro.tracing.analysis import critical_path

#: bump when the report's JSON shape changes
JOB_REPORT_SCHEMA_VERSION = 1


def _round(x: float, digits: int = 4) -> float:
    return round(float(x), digits)


class JobReport:
    """One session's report: a plain payload dict plus renderings."""

    def __init__(self, payload: Dict[str, object]) -> None:
        self.payload = payload

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, fixed separators)."""
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The terminal form: per-class, per-backend and plane tables."""
        p = self.payload
        sections: List[str] = [
            f"== JOB REPORT: {p['job']} "
            f"(schema v{p['schema_version']}, t={p['sim_time_ns'] / 1e9:.3f}s) =="
        ]
        classes: Dict[str, dict] = p["classes"]  # type: ignore[assignment]
        rows = []
        for name in sorted(classes):
            c = classes[name]
            rt, cp = c["response_ms"], c["critical_path"]
            rows.append([
                name, c["count"],
                f"{rt['mean']:.1f}", f"{rt['p50']:.1f}",
                f"{rt['p95']:.1f}", f"{rt['p99']:.1f}",
                cp["traces"],
                f"{cp['total_us']:.1f}" if cp["traces"] else "<no traces>",
                cp["dominant"] or "-",
            ])
        sections.append(format_table(
            ["class", "n", "mean ms", "p50 ms", "p95 ms", "p99 ms",
             "traces", "crit-path us", "dominant segment"],
            rows, title="Per-query-class response times + trace critical paths",
        ))

        backends: Dict[str, dict] = p["backends"]  # type: ignore[assignment]
        rows = []
        for idx in sorted(backends, key=int):
            b = backends[idx]
            rows.append([
                f"backend{idx}", b["requests"],
                f"{b['cpu_util']['p50']:.2f}", f"{b['cpu_util']['p95']:.2f}",
                f"{b['runq_load']['p95']:.1f}",
                f"{b['staleness_ms']['p95']:.2f}",
            ])
        sections.append(format_table(
            ["backend", "requests", "cpu p50", "cpu p95", "runq p95",
             "stale p95 ms"],
            rows, title="Per-backend telemetry digests",
        ))

        mon = p["monitoring"]
        sections.append(
            f"Monitoring: polls={mon['polls']} "
            f"observations={mon['observations']} "
            f"alerts={mon['alerts_raised']} "
            f"traces={mon['traces']} spans={mon['spans']} "
            f"(dropped {mon['spans_dropped']})")
        totals = p["requests"]
        sections.append(
            f"Requests: completed={totals['completed']} "
            f"rejected={totals['rejected']} timed_out={totals['timed_out']}")
        return "\n\n".join(sections)


def _quantile_block(values: Sequence[float],
                    qs: Sequence[float] = (0.5, 0.95, 0.99)) -> Dict[str, float]:
    got = exact_quantiles(list(values), qs)
    return {f"p{int(q * 100)}": _round(v) for q, v in zip(qs, got)}


def _digest_block(digest, qs: Sequence[float] = (0.5, 0.95)) -> Dict[str, float]:
    if digest is None or digest.count == 0:
        return {f"p{int(q * 100)}": 0.0 for q in qs}
    return {f"p{int(q * 100)}": _round(digest.quantile(q)) for q in qs}


def build_job_report(cluster, job: str = "rubis",
                     stats=None) -> JobReport:
    """Join traces, telemetry and request stats into one report.

    ``cluster`` is a :class:`~repro.api.RubisCluster`;
    ``stats`` defaults to the dispatcher's request log. Classes with no
    sampled traces still report response-time statistics — the
    critical-path block just records zero traces (tracing off, or head
    sampling skipped them all).
    """
    if stats is None:
        stats = cluster.dispatcher.stats
    spans = getattr(cluster.sim, "spans", None)
    telemetry = cluster.telemetry

    # Group finished spans per trace, and traces per query class.
    by_trace: Dict[int, list] = {}
    root_class: Dict[int, str] = {}
    if spans is not None:
        for span in spans.spans:
            by_trace.setdefault(span.trace_id, []).append(span)
            if span.parent_id is None and "query" in span.attrs:
                root_class[span.trace_id] = str(span.attrs["query"])

    class_traces: Dict[str, List[int]] = {}
    for trace_id, name in root_class.items():
        class_traces.setdefault(name, []).append(trace_id)

    classes: Dict[str, dict] = {}
    for name, times in sorted(stats.by_query().items()):
        ms = [t / 1e6 for t in times]
        block = {
            "count": len(times),
            "response_ms": {
                "mean": _round(sum(ms) / len(ms)),
                "max": _round(max(ms)),
                **_quantile_block(ms),
            },
        }
        seg_totals: Dict[str, float] = {}
        path_total = 0.0
        trace_ids = sorted(class_traces.get(name, []))
        for trace_id in trace_ids:
            path = critical_path(by_trace[trace_id])
            for seg in path:
                seg_totals[seg.name] = seg_totals.get(seg.name, 0.0) + seg.duration
            path_total += sum(s.duration for s in path)
        n = len(trace_ids)
        segments = {
            seg: _round(total / n / 1e3)  # mean us per trace
            for seg, total in sorted(seg_totals.items())
        }
        dominant = max(segments, key=lambda s: segments[s]) if segments else ""
        block["critical_path"] = {
            "traces": n,
            "total_us": _round(path_total / n / 1e3) if n else 0.0,
            "segments": segments,
            "dominant": dominant,
        }
        classes[name] = block

    backends: Dict[str, dict] = {}
    per_backend = stats.per_backend_counts()
    for i in range(len(cluster.servers)):
        block = {"requests": per_backend.get(i, 0)}
        for metric, qs in (("cpu_util", (0.5, 0.95)),
                           ("runq_load", (0.5, 0.95))):
            digest = telemetry.digest(i, metric) if telemetry else None
            block[metric] = _digest_block(digest, qs)
        stale = telemetry.digest(i, "staleness") if telemetry else None
        if stale is not None and stale.count:
            block["staleness_ms"] = {
                "p95": _round(stale.quantile(0.95) / 1e6)}
        else:
            block["staleness_ms"] = {"p95": 0.0}
        backends[str(i)] = block

    payload: Dict[str, object] = {
        "schema_version": JOB_REPORT_SCHEMA_VERSION,
        "kind": "job-report",
        "job": job,
        "sim_time_ns": cluster.sim.env.now,
        "requests": {
            "completed": stats.count(),
            "rejected": stats.rejected_count,
            "timed_out": stats.timeout_count,
        },
        "classes": classes,
        "backends": backends,
        "monitoring": {
            "polls": cluster.monitor.polls,
            "observations": telemetry.observations if telemetry else 0,
            "alerts_raised": (sum(telemetry.engine.counts_by_rule().values())
                              if telemetry else 0),
            "traces": spans.traces_started if spans else 0,
            "spans": len(spans.spans) if spans else 0,
            "spans_dropped": spans.dropped if spans else 0,
        },
    }
    return JobReport(payload)
