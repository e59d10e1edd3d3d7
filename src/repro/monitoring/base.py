"""Common interface for monitoring schemes.

A scheme is deployed once onto a built cluster; thereafter any front-end
task can ``yield from scheme.query(k, i)`` to obtain the freshest
:class:`~repro.monitoring.loadinfo.LoadInfo` the scheme can provide for
back-end ``i``, or ``yield from scheme.query_all(k)`` for the batched
poll the load balancer uses. Every completed probe is handed, as a
:class:`QueryRecord`, to the scheme's ``observers`` list; the
micro-benchmark analyses subscribe there and keep what they need.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional

from repro.faults.retry import RetryPolicy
from repro.monitoring.loadinfo import LoadInfo
from repro.sim.events import AnyOf
from repro.tracing.span import STATUS_ERROR, STATUS_OK

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim
    from repro.hw.node import Node
    from repro.kernel.task import TaskContext
    from repro.tracing.span import Span


@dataclass(slots=True)
class QueryRecord:
    """One completed monitoring query (front-end view)."""

    backend: int
    issued_at: int
    completed_at: int
    info: LoadInfo
    #: False when the probe exhausted its retry budget (placeholder info)
    ok: bool = True
    #: transport attempts the probe took (1 = first try succeeded)
    attempts: int = 1

    @property
    def latency(self) -> int:
        return self.completed_at - self.issued_at


def make_read_post(qp, mr):
    """Untraced RDMA-read post closure for one (QP, MR) pair.

    A scheme's single-back-end probe path (``query``) reuses one of
    these per back-end on every unsampled probe, so the polling loop
    builds no closure per query — the per-call lambda survives only on
    the (rare) traced path, which needs the fresh span context.
    RDMA-Sync builds a back-end's pair at its first untraced ``query()``;
    its batched paths (``query_all``, ``query_many``) post directly and
    never build one. RDMA-Async builds them at deploy. Each post still
    allocates the read's work request, its completion event and the
    bound method of its pending stage (see ``repro.transport.verbs``).
    """
    rkey = mr.rkey
    nbytes = mr.nbytes
    post_read = qp._post_read

    def post():
        return post_read(rkey, nbytes)

    return post


class MonitoringScheme(abc.ABC):
    """Base class for the five schemes.

    Constructor contract (normalized across every scheme): positional
    ``sim`` only; everything else — ``interval``, ``with_irq_detail`` —
    is keyword-only, so :func:`repro.monitoring.registry.create_scheme`
    can forward arbitrary keyword options and reject unknown ones with
    a per-scheme error.
    """

    #: registry name, e.g. "rdma-sync"
    name: str = "abstract"
    #: True if queries never involve the back-end CPU
    one_sided: bool = False
    #: monitoring threads the scheme runs on each back-end
    backend_threads: int = 0

    def __init__(self, sim: "ClusterSim", *, interval: Optional[int] = None) -> None:
        self.sim = sim
        self.frontend: "Node" = sim.frontend
        #: shared with ``sim``, not copied: a federation leaf's scheme
        #: over a rebalancing topology is handed the whole cluster
        self.backends: List["Node"] = sim.backends
        self.interval = interval if interval is not None else sim.cfg.monitor.interval
        if self.interval <= 0:
            raise ValueError("monitoring interval must be positive")
        #: called in order with the :class:`QueryRecord` of every
        #: completed probe, failures included
        self.observers: List[Callable[[QueryRecord], None]] = []
        self._stopped = False
        self._deployed = False
        #: probe timeout/retry discipline (disabled by default — the
        #: historical unbounded-wait behaviour, bit-identical)
        self.policy = RetryPolicy.from_config(sim.cfg.monitor)
        #: fault-recovery counters (all stay 0 on a healthy fabric with
        #: the policy disabled)
        self.timeouts = 0
        self.retries = 0
        self.naks = 0
        self.failures = 0
        self.stale_drops = 0
        #: last successful report per back-end, for failure placeholders
        self._last_good: Dict[int, LoadInfo] = {}

    # ------------------------------------------------------------------
    def deploy(self) -> None:
        """Set up connections / registrations / back-end threads."""
        if self._deployed:
            raise RuntimeError(f"{self.name} already deployed")
        self._deployed = True
        self._deploy()

    @abc.abstractmethod
    def _deploy(self) -> None:
        ...

    @abc.abstractmethod
    def query(self, k: "TaskContext", backend_index: int) -> Generator:
        """Fetch load info for one back-end (front-end task context)."""
        ...

    def query_all(self, k: "TaskContext") -> Generator:
        """Batched poll of every back-end; returns {index: LoadInfo}.

        Default: sequential queries. Schemes override to overlap wire
        time where their transport allows it.
        """
        out: Dict[int, LoadInfo] = {}
        for i in range(len(self.backends)):
            out[i] = yield from self.query(k, i)
        return out

    def query_many(self, k: "TaskContext", indices) -> Generator:
        """Poll a subset of back-ends; returns {index: LoadInfo}.

        The federation leaf monitors poll per-shard subsets through
        this. Default: sequential queries, like :meth:`query_all`.
        Schemes whose transport can batch a fan-out (RDMA-Sync posts
        every WQE then rings one doorbell) override it.
        """
        out: Dict[int, LoadInfo] = {}
        for i in indices:
            out[i] = yield from self.query(k, i)
        return out

    def stop(self) -> None:
        """Ask back-end threads (if any) to exit at their next wakeup."""
        self._stopped = True

    # ------------------------------------------------------------------
    def _probe_span(self, backend_index: int) -> "Optional[Span]":
        """Open a root trace for one monitoring probe (None when off).

        One probe = one trace: every transport hop the query takes
        (RDMA verb segments or socket send/recv) becomes a child span,
        so the probe's critical path is directly comparable with the
        paper's analytic latency model. Closed by :meth:`_record`.
        """
        tracer = self.frontend.span_tracer
        if tracer is None or not tracer.enabled:
            return None
        return tracer.start_trace(
            f"probe:{self.name}", node=self.frontend.name, component="monitor",
            attrs={"backend": backend_index, "scheme": self.name},
        )

    def _record(self, backend_index: int, issued_at: int, info: LoadInfo,
                span: "Optional[Span]" = None, ok: bool = True,
                attempts: int = 1) -> LoadInfo:
        info.received_at = self.sim.env.now
        if self.observers:
            self._publish(backend_index, issued_at, info, ok, attempts)
        if ok:
            self._last_good[backend_index] = info
        if span is not None:
            self.frontend.span_tracer.end(
                span, status=STATUS_OK, attrs={"staleness": info.staleness})
        return info

    def _record_failure(self, backend_index: int, issued_at: int,
                        span: "Optional[Span]" = None,
                        attempts: int = 1) -> LoadInfo:
        """Record a probe that exhausted its retry budget.

        The placeholder report reuses the last good data timestamp (or 0
        when there never was one), so the backend's apparent staleness
        keeps growing for as long as it stays unreachable — exactly what
        the staleness analyses should see during an outage.
        """
        self.failures += 1
        last = self._last_good.get(backend_index)
        info = LoadInfo(
            backend=self.backends[backend_index].name,
            collected_at=last.collected_at if last is not None else 0,
        )
        info.received_at = self.sim.env.now
        if self.observers:
            self._publish(backend_index, issued_at, info, False, attempts)
        if span is not None:
            self.frontend.span_tracer.end(
                span, status=STATUS_ERROR, attrs={"attempts": attempts})
        return info

    def _publish(self, backend_index: int, issued_at: int, info: LoadInfo,
                 ok: bool, attempts: int) -> None:
        record = QueryRecord(backend_index, issued_at, info.received_at,
                             info, ok=ok, attempts=attempts)
        for fn in self.observers:
            fn(record)

    # ------------------------------------------------------------------
    # probe transports under the retry policy
    # ------------------------------------------------------------------
    def _batched_posts(self, k: "TaskContext", posts) -> Generator:
        """Post every closure into one WQE batch; ring ONE doorbell.

        The shared single-doorbell fan-out every RDMA probe path rides
        (see :class:`repro.transport.verbs.WqeBatch`). Returns the
        completion events in post order.
        """
        # Deferred: transport.verbs transitively imports this module.
        from repro.transport.verbs import WqeBatch

        batch = WqeBatch(net=self.sim.cfg.net)
        for post in posts:
            batch.post(post)
        yield from batch.ring(k)
        return batch.events

    def _verb_retry(self, k: "TaskContext", post) -> Generator:
        """Issue a verb probe under the retry policy.

        ``post()`` posts the work request and returns its completion
        event. Returns ``(wc, attempts)``; ``wc`` is ``None`` when every
        attempt timed out, and carries a non-ok status when the final
        attempt was NAK'd with a non-retryable error. With the policy
        disabled this is exactly ``QueuePair.rdma_read``'s wait sequence
        (post, doorbell, unbounded wait) — no extra events.
        """
        policy = self.policy
        net = self.sim.cfg.net
        if not policy.enabled:
            events = yield from self._batched_posts(k, (post,))
            wc = yield k.wait(events[0])
            return wc, 1
        # Deferred: transport.verbs transitively imports this module.
        from repro.transport.verbs import WcStatus

        env = self.sim.env
        attempts = 0
        while True:
            attempts += 1
            wc_event = post()
            yield k.compute(net.doorbell_cost, mode="user")
            deadline = env.timeout(policy.timeout)
            fired = yield k.wait(AnyOf(env, [wc_event, deadline]))
            if wc_event in fired:
                wc = wc_event.value
                if wc.ok or wc.status is not WcStatus.RNR_RETRY:
                    return wc, attempts
                # Receiver-not-ready NAK: retryable by definition.
                self.naks += 1
            else:
                self.timeouts += 1
            if attempts > policy.retries:
                return None, attempts
            self.retries += 1
            yield k.sleep(policy.backoff_for(attempts))

    def _socket_probe(self, k: "TaskContext", end, request_bytes: int,
                      ctx=None) -> Generator:
        """Request/reply probe over socket ``end`` under the retry policy.

        Returns ``(info, attempts)``; ``info`` is ``None`` when every
        attempt timed out. Stale replies left over from a previously
        timed-out probe are drained (and counted) before each request so
        a late reply can never be mistaken for the current one.
        """
        policy = self.policy
        if not policy.enabled:
            yield from end.send(k, "load-req", request_bytes, ctx=ctx)
            info = yield from end.recv(k, ctx=ctx)
            return info, 1
        attempts = 0
        while True:
            attempts += 1
            got, _stale = end.rx.try_get()
            while got:
                self.stale_drops += 1
                got, _stale = end.rx.try_get()
            yield from end.send(k, "load-req", request_bytes, ctx=ctx)
            info = yield from end.recv(k, ctx=ctx, timeout=policy.timeout)
            if info is not None:
                return info, attempts
            self.timeouts += 1
            if attempts > policy.retries:
                return None, attempts
            self.retries += 1
            yield k.sleep(policy.backoff_for(attempts))

    def fault_stats(self) -> Dict[str, int]:
        """Fault-recovery counters for telemetry and the fault matrix."""
        return {
            "timeouts": self.timeouts,
            "retries": self.retries,
            "naks": self.naks,
            "failures": self.failures,
            "stale_drops": self.stale_drops,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} interval={self.interval}>"
