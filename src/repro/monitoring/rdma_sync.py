"""RDMA-Sync (the paper's §3.2.2, Fig 2b).

No back-end monitoring process at all. The back-end's *kernel data
structures* (jiffies counters, run-queue statistics — the ``kern.load``
live region) are registered read-only; the front end RDMA-reads them on
every query and derives the load itself. Properties the paper claims,
all emergent here:

* **accuracy** — the DMA engine samples kernel memory at the read
  instant, so the data is as fresh as the wire (Fig 5);
* **zero perturbation** — no back-end thread exists to steal CPU from
  applications (Fig 4);
* **load resilience** — latency is NIC + fabric only (Fig 3);
* **kernel detail** — structures with no /proc interface (``irq_stat``)
  are equally readable (Fig 6); see
  :class:`~repro.monitoring.e_rdma_sync.ExtendedRdmaSyncScheme`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, Optional, Tuple

from repro.monitoring.base import MonitoringScheme, make_read_post
from repro.monitoring.loadinfo import LoadCalculator, LoadInfo
from repro.transport.verbs import (
    AccessFlags,
    MemoryRegionHandle,
    ProtectionDomain,
    QueuePair,
    WqeBatch,
    connect_monitor_qp,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import TaskContext


class RdmaSyncScheme(MonitoringScheme):
    """Synchronous (kernel-memory) RDMA monitoring."""

    name = "rdma-sync"
    one_sided = True
    backend_threads = 0
    #: whether queries additionally fetch irq_stat
    read_irq_stat = False

    def __init__(self, sim, *, interval: Optional[int] = None, with_irq_detail: bool = False) -> None:
        super().__init__(sim, interval=interval)
        if with_irq_detail:
            self.read_irq_stat = True
        # Per-back-end wiring, keyed by back-end index (see _deploy).
        self._qps: Dict[int, QueuePair] = {}
        self._load_mrs: Dict[int, MemoryRegionHandle] = {}
        self._irq_mrs: Dict[int, MemoryRegionHandle] = {}
        #: front-end side calculators (jiffy differencing happens here)
        self._calcs: Dict[int, LoadCalculator] = {}
        #: untraced (load, irq) post closures of the single-back-end path
        self._posts: Dict[int, Tuple[Callable, Callable]] = {}

    def _deploy(self) -> None:
        """Nothing up front: each back-end is wired on its first probe.

        Deploying a QP and registering the kernel MRs is pure
        bookkeeping — no events, no RNG draws, no simulated time — so
        deferring it never perturbs a run. It turns deploy cost from
        O(universe) into O(members actually polled): a federation leaf
        on a rebalancing topology is handed the whole cluster (so
        quarantine rebalancing can re-shard without re-deploying) but
        only ever touches its own shard. Keeping the wiring in dicts
        keyed by back-end index makes the leaf's state O(shard) too:
        a back-end it never polls costs it nothing, not even a slot.
        """

    def _wire(self, i: int) -> None:
        """Materialize QP/MR/calculator wiring for back-end ``i``."""
        be = self.backends[i]
        pd = ProtectionDomain.for_node(be)
        # Kernel structures are registered READ-ONLY (§6 security).
        self._load_mrs[i] = pd.register(
            be.memory.get("kern.load"), AccessFlags.REMOTE_READ)
        self._irq_mrs[i] = pd.register(
            be.memory.get("kern.irq_stat"), AccessFlags.REMOTE_READ)
        self._qps[i] = connect_monitor_qp(self.frontend, be)[0]
        self._calcs[i] = LoadCalculator(be.name)

    def _untraced_posts(self, i: int) -> Tuple[Callable, Callable]:
        """Back-end ``i``'s (load, irq) post closures, built on first use."""
        posts = self._posts.get(i)
        if posts is None:
            qp = self._qps[i]
            posts = self._posts[i] = (make_read_post(qp, self._load_mrs[i]),
                                      make_read_post(qp, self._irq_mrs[i]))
        return posts

    # ------------------------------------------------------------------
    def query(self, k: "TaskContext", backend_index: int) -> Generator:
        mon = self.sim.cfg.monitor
        issued = k.now
        if backend_index not in self._qps:
            self._wire(backend_index)
        span = self._probe_span(backend_index)
        if span is None:
            post, irq_post = self._untraced_posts(backend_index)
        else:
            qp = self._qps[backend_index]
            load_mr = self._load_mrs[backend_index]
            irq_mr = self._irq_mrs[backend_index]
            post = lambda: qp._post_read(load_mr.rkey, load_mr.nbytes, ctx=span)
            irq_post = lambda: qp._post_read(irq_mr.rkey, irq_mr.nbytes, ctx=span)
        wc, attempts = yield from self._verb_retry(k, post)
        if wc is None or not wc.ok:
            return self._record_failure(backend_index, issued, span=span,
                                        attempts=attempts)
        irq = None
        if self.read_irq_stat:
            wc_irq, irq_attempts = yield from self._verb_retry(k, irq_post)
            attempts += irq_attempts - 1
            if wc_irq is None or not wc_irq.ok:
                return self._record_failure(backend_index, issued, span=span,
                                            attempts=attempts)
            irq = wc_irq.value
        # Derive load on the *front end* from the raw counters.
        yield k.compute(mon.compose_cost)
        info = self._calcs[backend_index].compute(wc.value, irq)
        return self._record(backend_index, issued, info, span=span,
                            attempts=attempts)

    def query_many(self, k: "TaskContext", indices) -> Generator:
        """Batched shard fan-out: post every WQE, ring ONE doorbell.

        The federation leaf path. Unlike :meth:`query_all` (which pays
        a doorbell per back-end, the historical front-end behaviour,
        kept byte-identical), a leaf posts the whole shard's read WQEs
        to its send queues and rings the doorbell once — the HCA then
        fetches and services them without further CPU help, so a shard
        round costs one doorbell + overlapped wire time.
        """
        indices = list(indices)
        if self.policy.enabled or not indices:
            out = yield from MonitoringScheme.query_many(self, k, indices)
            return out
        net = self.sim.cfg.net
        mon = self.sim.cfg.monitor
        issued = k.now
        qps = self._qps
        for i in indices:
            if i not in qps:
                self._wire(i)
        tracer = self.frontend.span_tracer
        if tracer is None or not tracer.enabled:
            spans = dict.fromkeys(indices)
        else:
            spans = {i: self._probe_span(i) for i in indices}
        batch = WqeBatch(net=net)
        load_events = [
            batch.post_read(self._qps[i], self._load_mrs[i].rkey,
                            self._load_mrs[i].nbytes, ctx=spans[i])
            for i in indices
        ]
        irq_events = {}
        if self.read_irq_stat:
            irq_events = {
                i: batch.post_read(self._qps[i], self._irq_mrs[i].rkey,
                                   self._irq_mrs[i].nbytes, ctx=spans[i])
                for i in indices
            }
        yield from batch.ring(k)
        out: Dict[int, LoadInfo] = {}
        for i, ev in zip(indices, load_events):
            wc = yield k.wait(ev)
            irq = None
            if self.read_irq_stat:
                wc_irq = yield k.wait(irq_events[i])
                if not wc_irq.ok:
                    out[i] = self._record_failure(i, issued, span=spans[i])
                    continue
                irq = wc_irq.value
            if not wc.ok:
                out[i] = self._record_failure(i, issued, span=spans[i])
                continue
            yield k.compute(mon.compose_cost)
            out[i] = self._record(i, issued, self._calcs[i].compute(wc.value, irq),
                                  span=spans[i])
        return out

    def query_all(self, k: "TaskContext") -> Generator:
        if self.policy.enabled:
            # Bounded probes: fall back to sequential per-backend queries
            # so each one can time out and retry independently.
            out = yield from MonitoringScheme.query_all(self, k)
            return out
        net = self.sim.cfg.net
        mon = self.sim.cfg.monitor
        issued = k.now
        n = len(self.backends)
        qps = self._qps
        for i in range(n):
            if i not in qps:
                self._wire(i)
        spans = [self._probe_span(i) for i in range(n)]
        load_events, irq_events = [], []
        for i in range(n):
            lmr = self._load_mrs[i]
            yield k.compute(net.doorbell_cost)
            load_events.append(qps[i]._post_read(lmr.rkey, lmr.nbytes, ctx=spans[i]))
        if self.read_irq_stat:
            for i in range(n):
                imr = self._irq_mrs[i]
                yield k.compute(net.doorbell_cost)
                irq_events.append(qps[i]._post_read(imr.rkey, imr.nbytes, ctx=spans[i]))
        out: Dict[int, LoadInfo] = {}
        for i, ev in enumerate(load_events):
            wc = yield k.wait(ev)
            irq = None
            if self.read_irq_stat:
                wc_irq = yield k.wait(irq_events[i])
                if not wc_irq.ok:
                    out[i] = self._record_failure(i, issued, span=spans[i])
                    continue
                irq = wc_irq.value
            if not wc.ok:
                out[i] = self._record_failure(i, issued, span=spans[i])
                continue
            yield k.compute(mon.compose_cost)
            out[i] = self._record(i, issued, self._calcs[i].compute(wc.value, irq),
                                  span=spans[i])
        return out
