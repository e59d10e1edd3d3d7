"""Request records and response-time bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Request:
    """One client request travelling client → dispatcher → back-end → client."""

    rid: int
    #: workload family: "rubis" or "zipf"
    workload: str
    #: query class name (RUBiS) or document id (Zipf)
    query: str
    #: CPU demand at the web tier (PHP), ns
    web_cpu: int
    #: CPU demand at the DB stage, ns
    db_cpu: int
    #: document id for cache-modelled content (None for pure dynamic)
    doc_id: Optional[int] = None
    #: response payload size, bytes
    response_bytes: int = 2048
    #: where the back-end should deliver the response
    reply_node: Any = None
    reply_store: Any = None
    # -- timestamps (ns) ----------------------------------------------------
    created_at: int = 0
    dispatched_at: int = 0
    started_at: int = 0
    completed_at: int = 0
    #: index of the chosen back-end (-1 = rejected by admission control)
    backend: int = -1
    rejected: bool = False
    #: client deadline (ns); 0 = none. A response arriving later counts
    #: as a timeout, not a completion (the revenue-loss case of §1).
    deadline: int = 0
    timed_out: bool = False
    # -- tracing (None unless the span plane sampled this request) ----------
    #: root Span of the request's trace, created by the client
    trace: Any = None

    @property
    def response_time(self) -> int:
        """Client-observed response time (valid once completed)."""
        return self.completed_at - self.created_at

    @property
    def queue_time(self) -> int:
        """Time between dispatch and service start at the back-end."""
        return self.started_at - self.dispatched_at


@dataclass
class RequestStats:
    """Aggregated outcome of a workload run."""

    completed: List[Request] = field(default_factory=list)
    rejected_count: int = 0
    timeout_count: int = 0
    #: called in order with every recorded request — rejected and
    #: timed-out ones included (a :class:`~repro.workloads.traces.
    #: TraceRecorder` appends here to capture the full arrival stream)
    observers: List[Callable[[Request], None]] = field(
        default_factory=list, init=False)

    def record(self, request: Request) -> None:
        if request.rejected:
            self.rejected_count += 1
        elif request.deadline and request.response_time > request.deadline:
            request.timed_out = True
            self.timeout_count += 1
        else:
            self.completed.append(request)
        for fn in self.observers:
            fn(request)

    # ------------------------------------------------------------------
    def count(self) -> int:
        return len(self.completed)

    def response_times(self, query: Optional[str] = None) -> List[int]:
        return [
            r.response_time
            for r in self.completed
            if query is None or r.query == query
        ]

    def mean_response(self, query: Optional[str] = None) -> float:
        times = self.response_times(query)
        return sum(times) / len(times) if times else 0.0

    def max_response(self, query: Optional[str] = None) -> int:
        times = self.response_times(query)
        return max(times) if times else 0

    def throughput(self, duration_ns: int) -> float:
        """Completed (within-deadline) requests per second."""
        return self.count() / (duration_ns / 1e9) if duration_ns > 0 else 0.0

    @property
    def timeout_rate(self) -> float:
        total = len(self.completed) + self.timeout_count
        return self.timeout_count / total if total else 0.0

    def per_backend_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for r in self.completed:
            counts[r.backend] = counts.get(r.backend, 0) + 1
        return counts

    def by_query(self) -> Dict[str, List[int]]:
        out: Dict[str, List[int]] = {}
        for r in self.completed:
            out.setdefault(r.query, []).append(r.response_time)
        return out
