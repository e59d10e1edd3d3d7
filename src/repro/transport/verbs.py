"""Verbs-style one-sided communication (the paper's §2).

Implements the memory-semantics subset the paper relies on:

* **memory registration** — pin a host region, obtain an ``rkey``;
  access flags are enforced at the *target NIC*, so a region registered
  read-only rejects remote writes (the paper's §6 security argument).
  Kernel live regions (``kern.load``, ``kern.irq_stat``) can be
  registered exactly like user buffers.
* **RDMA read** — initiator rings a doorbell (tiny CPU cost), after
  which everything happens on the adapters: WQE service on the
  initiator NIC, a request packet, DMA on the *target* NIC against
  pinned memory with **zero target-CPU involvement**, a response
  packet, a CQE and a completion interrupt back home.
* **RDMA write** — symmetric, with the value snapshotted at the
  initiator and applied at target DMA time.
* **send/recv (channel semantics)** — two-sided; consumes a posted
  receive and raises an interrupt on the target. Used by the hardware-
  multicast ablation to show why channel semantics lose the one-sided
  benefits (§6).

All initiator entry points are composite generators to be driven with
``yield from`` inside a task body.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

from repro.hw.memory import MemRegion
from repro.sim.events import Event, EventPriority
from repro.sim.resources import Store
from repro.tracing.span import STATUS_ERROR, STATUS_OK, tracer_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node
    from repro.kernel.task import TaskContext


class VerbsError(Exception):
    """Structural misuse of the verbs API (not a remote NAK)."""


class TenancyError(VerbsError):
    """Tenancy-plane admission rejected the operation (QP table full,
    tenant quota exceeded, or the owning tenant is quarantined)."""


class AccessFlags(enum.IntFlag):
    """Memory-registration access rights."""

    LOCAL_READ = 1
    LOCAL_WRITE = 2
    REMOTE_READ = 4
    REMOTE_WRITE = 8
    REMOTE_ATOMIC = 16


class WcStatus(enum.Enum):
    """Work-completion status codes."""

    SUCCESS = "success"
    REMOTE_ACCESS_ERROR = "remote-access-error"
    INVALID_RKEY = "invalid-rkey"
    LENGTH_ERROR = "length-error"
    #: receiver-not-ready NAK: transient, the initiator should back off
    #: and retry (injected by the fault plane's verb faults)
    RNR_RETRY = "rnr-retry"
    #: the tenancy plane refused the post (owning tenant quarantined)
    TENANT_DENIED = "tenant-denied"


@dataclass(slots=True)
class WorkCompletion:
    """Result of one work request."""

    opcode: str
    status: WcStatus
    wr_id: int
    value: Any = None
    nbytes: int = 0
    completed_at: int = 0

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS


@dataclass(slots=True)
class MemoryRegionHandle:
    """A registered memory region."""

    pd: "ProtectionDomain"
    region: MemRegion
    rkey: int
    access: AccessFlags

    @property
    def nbytes(self) -> int:
        return self.region.nbytes

    @property
    def node(self) -> "Node":
        return self.pd.node

    def deregister(self) -> None:
        self.pd.deregister(self)


class ProtectionDomain:
    """Per-node registration namespace and rkey table."""

    _ATTR = "_verbs_pd"

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.mrs: Dict[int, MemoryRegionHandle] = {}
        # Per-PD counter: rkeys are only ever looked up through this PD,
        # and a process-global counter would make same-seed runs allocate
        # different rkeys (breaking byte-identical trace exports).
        self._next_rkey = 0x1000

    @classmethod
    def for_node(cls, node: "Node") -> "ProtectionDomain":
        """The node's protection domain (created on first use)."""
        pd = getattr(node, cls._ATTR, None)
        if pd is None:
            pd = cls(node)
            setattr(node, cls._ATTR, pd)
        return pd

    def register(self, region: MemRegion, access: AccessFlags) -> MemoryRegionHandle:
        """Pin ``region`` and grant the given remote-access rights."""
        if not access & (AccessFlags.LOCAL_READ | AccessFlags.LOCAL_WRITE |
                         AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE |
                         AccessFlags.REMOTE_ATOMIC):
            raise VerbsError("registration needs at least one access flag")
        region.pin()
        rkey = self._next_rkey
        self._next_rkey += 1
        handle = MemoryRegionHandle(self, region, rkey, access)
        self.mrs[rkey] = handle
        return handle

    def deregister(self, handle: MemoryRegionHandle) -> None:
        self.mrs.pop(handle.rkey, None)
        handle.region.unpin()

    def lookup(self, rkey: int) -> Optional[MemoryRegionHandle]:
        return self.mrs.get(rkey)


class CompletionQueue:
    """A queue of work completions, drainable from a task body."""

    def __init__(self, node: "Node", name: str = "cq") -> None:
        self.node = node
        self.store: Store = Store(node.env, name=name)

    def push(self, wc: WorkCompletion) -> None:
        wc.completed_at = self.node.env.now
        self.store.put(wc)

    def wait(self, k: "TaskContext") -> Generator:
        """Block until the next completion (CQ event + wakeup)."""
        wc = yield k.wait(self.store.get())
        return wc


class _VerbTrace:
    """Segment spans of one traced read or write.

    :meth:`mark` records one ``rdma.<opcode>.<segment>`` child from the
    previous mark to now; :meth:`finish` closes the completion segment
    and the verb span. All bookkeeping happens inside NIC/fabric
    callbacks at times the simulation produces anyway: zero simulated
    cost.
    """

    __slots__ = ("tracer", "env", "verb", "prefix", "cursor")

    def __init__(self, tracer, opcode: str, ctx, node: "Node", attrs: dict) -> None:
        self.tracer = tracer
        self.env = node.env
        self.prefix = f"rdma.{opcode}"
        self.verb = tracer.start_span(self.prefix, ctx, node=node.name,
                                      component="nic", attrs=attrs)
        self.cursor = node.env.now

    def mark(self, name: str, node: str, component: str) -> None:
        now = self.env.now
        self.tracer.record(f"{self.prefix}.{name}", self.verb, self.cursor, now,
                           node=node, component=component)
        self.cursor = now

    def finish(self, wc: WorkCompletion, node: str) -> None:
        status = STATUS_OK if wc.ok else STATUS_ERROR
        now = self.env.now
        self.tracer.record(f"{self.prefix}.completion", self.verb, self.cursor, now,
                           node=node, component="nic", status=status)
        self.cursor = now
        self.tracer.end(self.verb, status=status, attrs={"wc": wc.status.value})


class _WorkRequest:
    """One posted one-sided verb, from WQE fetch to completion interrupt.

    Each pipeline stage is a method, and the NIC, the fabric and the IRQ
    controller are handed the next stage as a bound method. An in-flight
    verb therefore holds this object, its completion event, the pending
    stage and, after the target DMA, its work completion. Closures built
    per post would hold some twenty tracked objects, and a verb lives
    long enough for the cyclic collector to promote every one of them
    (docs/PERF.md, "Allocation and the cyclic collector"). Subclasses
    supply what differs per verb.
    """

    __slots__ = ("qp", "rkey", "nbytes", "wr_id", "done", "wc", "handle", "trace")

    #: opcode reported in the work completion
    opcode = ""
    #: verb name the fault plane matches on
    fault_opcode = ""
    #: registration right the target NIC checks
    access = AccessFlags(0)
    #: the target NAKs a length beyond the registered region
    checks_length = True

    def __init__(self, qp: "QueuePair", rkey: int, nbytes: int,
                 trace: Optional[_VerbTrace]) -> None:
        self.qp = qp
        self.rkey = rkey
        self.nbytes = nbytes
        self.wr_id = qp._next_wr
        qp._next_wr += 1
        self.done = Event(qp.local.env)
        self.wc: Optional[WorkCompletion] = None
        self.handle: Optional[MemoryRegionHandle] = None
        self.trace = trace

    def post(self) -> Event:
        """Hand the WQE to the initiator NIC; returns the completion event."""
        local = self.qp.local
        tn = local.nic.tenancy
        if tn is None:
            local.nic.dma_service(local.cfg.net.nic_wqe_service, self._wqe_fetched)
            return self.done
        verdict = tn.police(self.qp, self.nbytes)
        if verdict < 0:
            self.wc = WorkCompletion(self.opcode, WcStatus.TENANT_DENIED, self.wr_id)
            local.env.call_later(1, self._complete)
        elif verdict == 0:
            self._launch()
        else:
            local.env.call_later(verdict, self._launch, priority=EventPriority.HIGH)
        return self.done

    def _launch(self) -> None:
        # Initiator NIC under tenancy: fetch the QP context (ICM), then
        # the WQE.
        qp = self.qp
        nic = qp.local.nic
        pen = nic.tenancy.icm_touch(nic, ("qp", qp.local.name, qp.qpn), qp.tenant)
        nic.dma_service(qp.local.cfg.net.nic_wqe_service + pen, self._wqe_fetched)

    def _wqe_fetched(self) -> None:
        """WQE fetched: emit the request packet."""
        qp = self.qp
        if self.trace is not None:
            self.trace.mark("post", qp.local.name, "nic")
        nic = qp.local.nic
        nic.fabric.transmit(nic, qp.remote.nic, self._request_bytes(qp.local.cfg.net),
                            self._at_target, prio=qp.service_level)

    def _at_target(self) -> None:
        """Request at the target NIC: check it, then queue the DMA."""
        qp = self.qp
        remote = qp.remote
        if self.trace is not None:
            self.trace.mark("at_target", remote.name, "fabric")
        faults = getattr(qp.local.nic.fabric, "faults", None)
        if faults is not None:
            nak = faults.on_verb(qp.local, remote, self.fault_opcode)
            if nak is not None:
                self._nak(nak)
                return
        handle = qp._remote_pd.lookup(self.rkey)
        if handle is None:
            self._nak(WcStatus.INVALID_RKEY)
            return
        if not handle.access & self.access:
            # For writes to a read-only registration this is the NAK
            # that implements §6's "mark these memory regions read-only".
            self._nak(WcStatus.REMOTE_ACCESS_ERROR)
            return
        if self.checks_length and self.nbytes > handle.nbytes:
            self._nak(WcStatus.LENGTH_ERROR)
            return
        self.handle = handle
        nic = remote.nic
        cost = self._dma_cost(qp.local.cfg.net)
        tn = nic.tenancy
        if tn is not None:
            # Target-side context: the responder fetches the QP's
            # connection state and the MR's translation entry; a cold
            # entry stalls the DMA on the PCIe refill.
            owner = qp.tenant if qp.tenant is not None else tn.registry.system
            cost += tn.icm_touch(nic, ("qp", qp.local.name, qp.qpn), owner)
            cost += tn.icm_touch(nic, ("mr", self.rkey), owner)
        nic.dma_service(cost, self._dma_done)

    def _request_bytes(self, net) -> int:
        raise NotImplementedError

    def _dma_cost(self, net) -> int:
        return net.nic_dma_service + (self.nbytes * net.nic_dma_per_kb) // 1024

    def _dma_done(self) -> None:
        """DMA done at the target: set ``wc`` and send the response."""
        raise NotImplementedError

    def _respond(self, payload: int, on_arrival) -> None:
        qp = self.qp
        remote_nic, local_nic = qp.remote.nic, qp.local.nic
        local_nic.fabric.transmit(remote_nic, local_nic,
                                  payload + qp.local.cfg.net.rdma_overhead_bytes,
                                  on_arrival, prio=qp.service_level)

    def _nak(self, status: WcStatus) -> None:
        """Refuse at the target; the NAK completes as it lands."""
        self.wc = WorkCompletion(self.opcode, status, self.wr_id)
        self._respond(0, self._complete)

    def _response_landed(self) -> None:
        """Response landed: the initiator NIC writes the CQE."""
        nic = self.qp.local.nic
        nic.dma_service(self.qp.local.cfg.net.cqe_cost, self._complete)

    def _complete(self) -> None:
        """CQE written (or a NAK or denial landed): interrupt the host."""
        wc = self.wc
        local = self.qp.local
        wc.completed_at = local.env.now
        if self.trace is not None:
            self.trace.finish(wc, local.name)
        # The CQ interrupt runs before the waiting task can be woken.
        # The NIC's method is looked up now, not at post time, so a
        # wrapper installed on the instance sees every completion.
        local.nic.raise_cq_interrupt(self._interrupt)

    def _interrupt(self) -> None:
        """Completion interrupt handled: wake the waiter."""
        self.done.succeed(self.wc)


class _Read(_WorkRequest):
    __slots__ = ()
    opcode = fault_opcode = "read"
    access = AccessFlags.REMOTE_READ

    def _request_bytes(self, net) -> int:
        return net.rdma_overhead_bytes

    def _dma_done(self) -> None:
        if self.trace is not None:
            self.trace.mark("dma", self.qp.remote.name, "nic")
        # Value is captured at the DMA instant — the essence of
        # reading "always current" kernel memory.
        self.wc = WorkCompletion("read", WcStatus.SUCCESS, self.wr_id,
                                 value=self.handle.region.read(), nbytes=self.nbytes)
        self._respond(self.nbytes, self._response_landed)


class _Write(_WorkRequest):
    __slots__ = ("value",)
    opcode = fault_opcode = "write"
    access = AccessFlags.REMOTE_WRITE

    def __init__(self, qp: "QueuePair", rkey: int, nbytes: int,
                 trace: Optional[_VerbTrace], value: Any) -> None:
        super().__init__(qp, rkey, nbytes, trace)
        self.value = value

    def _request_bytes(self, net) -> int:
        return self.nbytes + net.rdma_overhead_bytes

    def _dma_done(self) -> None:
        if self.trace is not None:
            self.trace.mark("dma", self.qp.remote.name, "nic")
        self.handle.region.write(self.value)
        self.wc = WorkCompletion("write", WcStatus.SUCCESS, self.wr_id, nbytes=self.nbytes)
        self._respond(0, self._response_landed)


class _Atomic(_WorkRequest):
    """Fetch-and-add or compare-and-swap on a 64-bit word: 16 request
    bytes (two operands), 8 response bytes, no tracing segments."""

    __slots__ = ("opcode", "operand", "expected")
    fault_opcode = "atomic"
    access = AccessFlags.REMOTE_ATOMIC
    # The target checks at DMA time that the word holds an int instead.
    checks_length = False

    def __init__(self, qp: "QueuePair", rkey: int, op: str, operand: int,
                 expected: Optional[int]) -> None:
        super().__init__(qp, rkey, 8, None)
        self.opcode = op
        self.operand = operand
        self.expected = expected

    def _request_bytes(self, net) -> int:
        return 16 + net.rdma_overhead_bytes

    def _dma_cost(self, net) -> int:
        return net.nic_dma_service

    def _nak(self, status: WcStatus) -> None:
        # Atomic NAKs ride the 8-byte response and pay the CQE DMA.
        self.wc = WorkCompletion(self.opcode, status, self.wr_id)
        self._respond(8, self._response_landed)

    def _dma_done(self) -> None:
        region = self.handle.region
        previous = region.read()
        if not isinstance(previous, int):
            self._nak(WcStatus.LENGTH_ERROR)
            return
        # Locked read-modify-write at the DMA instant.
        if self.opcode == "fetch-add":
            region.write(previous + self.operand)
        elif self.expected is not None and previous == self.expected:
            region.write(self.operand)
        self.wc = WorkCompletion(self.opcode, WcStatus.SUCCESS, self.wr_id,
                                 value=previous, nbytes=8)
        self._respond(8, self._response_landed)


class QueuePair:
    """A reliable-connection queue pair between two nodes."""

    def __init__(self, local: "Node", remote: "Node", cq: Optional[CompletionQueue] = None) -> None:
        self.local = local
        self.remote = remote
        self.cq = cq if cq is not None else CompletionQueue(local, name=f"cq:{local.name}")
        #: posted receive buffers for channel semantics (payload store)
        self.recv_queue: Store = Store(local.env, name=f"rq:{local.name}")
        self.peer: Optional["QueuePair"] = None
        #: remote protection domain, resolved once (stable per node)
        self._remote_pd = ProtectionDomain.for_node(remote)
        #: per-node QP number (stable per same-seed run; the NIC's ICM
        #: cache keys QP context by it)
        qpn = getattr(local, "_next_qpn", 1)
        local._next_qpn = qpn + 1
        self.qpn = qpn
        #: PFC service level for this QP's packets: 0 = bulk, 1 =
        #: monitoring/control class that bypasses priority-0 pauses
        self.service_level = 0
        #: next work-request id; per QP, so same-seed runs in one
        #: process number their work requests alike
        self._next_wr = 1
        #: owning tenant (set by the tenancy plane; None when it's off)
        self.tenant = None
        self._destroyed = False
        #: statistics
        self.reads = 0
        self.writes = 0
        self.sends = 0
        # Tenancy admission: a full QP table, an exceeded quota or a
        # quarantined owner rejects the QP outright (TenancyError).
        tn = local.nic.tenancy
        if tn is not None:
            tn.on_qp_create(self)

    def destroy(self) -> None:
        """Tear the QP down, freeing its QP-table slot (idempotent)."""
        if self._destroyed:
            return
        self._destroyed = True
        tn = self.local.nic.tenancy
        if tn is not None:
            tn.on_qp_destroy(self)
        if self.peer is not None and self.peer.peer is self:
            self.peer.peer = None
        self.peer = None

    # ------------------------------------------------------------------
    # memory semantics
    # ------------------------------------------------------------------
    def rdma_read(self, k: "TaskContext", rkey: int, nbytes: int, ctx=None) -> Generator:
        """One-sided read of the remote region ``rkey``.

        Returns the :class:`WorkCompletion`; the remote CPU is never
        involved, so the latency is independent of remote load.
        ``ctx`` optionally parents verb-level spans under a sampled trace.
        """
        wc_event = self._post_read(rkey, nbytes, ctx=ctx)
        yield k.compute(self.local.cfg.net.doorbell_cost, mode="user")
        wc = yield k.wait(wc_event)
        return wc

    def rdma_write(self, k: "TaskContext", rkey: int, value: Any, nbytes: int, ctx=None) -> Generator:
        """One-sided write to the remote region ``rkey``."""
        wc_event = self._post_write(rkey, value, nbytes, ctx=ctx)
        yield k.compute(self.local.cfg.net.doorbell_cost, mode="user")
        wc = yield k.wait(wc_event)
        return wc

    def _segments(self, opcode: str, ctx, rkey: int, nbytes: int) -> Optional[_VerbTrace]:
        """Segment spans for a read or write, or None when tracing is
        off or ``ctx`` is unsampled."""
        tracer = tracer_for(self.local, ctx)
        if tracer is None:
            return None
        return _VerbTrace(tracer, opcode, ctx, self.local,
                          {"rkey": rkey, "nbytes": nbytes, "target": self.remote.name})

    def _post_read(self, rkey: int, nbytes: int, ctx=None) -> Event:
        """Hardware-side read flow; returns an event firing with the WC."""
        self.reads += 1
        trace = None if ctx is None else self._segments("read", ctx, rkey, nbytes)
        return _Read(self, rkey, nbytes, trace).post()

    def _post_write(self, rkey: int, value: Any, nbytes: int, ctx=None) -> Event:
        """Hardware-side write flow; the value lands at target DMA time."""
        self.writes += 1
        trace = None if ctx is None else self._segments("write", ctx, rkey, nbytes)
        return _Write(self, rkey, nbytes, trace, value).post()

    # ------------------------------------------------------------------
    # atomics (IBA fetch-and-add / compare-and-swap)
    # ------------------------------------------------------------------
    def fetch_add(self, k: "TaskContext", rkey: int, delta: int) -> Generator:
        """One-sided atomic fetch-and-add on a 64-bit remote counter.

        Returns the WC whose ``value`` is the *previous* counter value.
        The target NIC performs a locked read-modify-write against
        pinned memory — still zero target-CPU involvement. Useful for
        remote sequence numbers and heartbeat counters.
        """
        wc_event = self._post_atomic(rkey, "fetch-add", delta, None)
        yield k.compute(self.local.cfg.net.doorbell_cost, mode="user")
        wc = yield k.wait(wc_event)
        return wc

    def compare_swap(self, k: "TaskContext", rkey: int, expected: int, desired: int) -> Generator:
        """One-sided atomic compare-and-swap; WC value = previous value."""
        wc_event = self._post_atomic(rkey, "cmp-swap", desired, expected)
        yield k.compute(self.local.cfg.net.doorbell_cost, mode="user")
        wc = yield k.wait(wc_event)
        return wc

    def _post_atomic(self, rkey: int, op: str, operand: int, expected: Optional[int]) -> Event:
        """Hardware-side atomic flow; returns an event firing with the WC."""
        return _Atomic(self, rkey, op, operand, expected).post()

    # ------------------------------------------------------------------
    # channel semantics (two-sided)
    # ------------------------------------------------------------------
    def send(self, k: "TaskContext", payload: Any, nbytes: int) -> Generator:
        """Channel-semantics send: needs a posted receive at the peer.

        The *peer's CPU* takes a completion interrupt — this is why the
        §6 multicast alternative is "not completely one-sided".

        Channel semantics are deliberately outside tenancy rate
        policing: the noisy-neighbor attack surface the tenancy plane
        models is the *one-sided* fast path (no target CPU to push
        back); two-sided traffic is already throttled by the target
        host's own scheduling.
        """
        if self.peer is None:
            raise VerbsError("QP is not connected")
        cfg = self.local.cfg.net
        peer = self.peer
        self.sends += 1
        yield k.compute(cfg.doorbell_cost, mode="user")
        local_nic, remote_nic = self.local.nic, self.remote.nic
        fabric = local_nic.fabric
        assert fabric is not None

        def at_target() -> None:
            def consumed() -> None:
                peer.recv_queue.put((payload, nbytes))

            # Receive completion interrupts the target host.
            remote_nic.dma_service(
                cfg.nic_dma_service,
                lambda: remote_nic.raise_cq_interrupt(consumed),
            )

        local_nic.dma_service(
            cfg.nic_wqe_service,
            lambda: fabric.transmit(local_nic, remote_nic, nbytes + cfg.rdma_overhead_bytes, at_target),
        )
        return None

    def recv(self, k: "TaskContext") -> Generator:
        """Block until a channel-semantics message arrives."""
        cfg = self.local.cfg.net
        payload, nbytes = yield k.wait(self.recv_queue.get())
        yield k.compute(cfg.channel_recv_cost, mode="sys")
        return payload


class WqeBatch:
    """Doorbell batching: post many WQEs, ring the doorbell once.

    The HCA fetches posted WQEs without further CPU help, so a fan-out
    of N one-sided operations costs a single MMIO doorbell write instead
    of N — the pattern every shard/fan-out path in the repo uses (leaf
    shard rounds, the federation root's snapshot drain, probe posts).
    This class is that pattern, promoted from three hand-rolled copies:

        batch = WqeBatch()
        events = [batch.post_read(qp, mr.rkey, mr.nbytes) for qp, mr in work]
        yield from batch.ring(k)          # ONE doorbell for the batch
        for ev in events:
            wc = yield k.wait(ev)

    Work requests hit the hardware at *post* time (the NIC starts WQE
    service immediately, exactly as the hand-rolled code did), so
    batching changes only the CPU cost, never the wire schedule — the
    golden-fingerprint property the refactor preserves.
    """

    def __init__(self, net=None) -> None:
        #: NetworkConfig supplying the doorbell cost; captured from the
        #: first posted QP when not given up front
        self._net = net
        self._events: list = []

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> list:
        """Completion events, in post order."""
        return self._events

    def post_read(self, qp: QueuePair, rkey: int, nbytes: int, ctx=None):
        """Post an RDMA read on ``qp``; returns its completion event."""
        if self._net is None:
            self._net = qp.local.cfg.net
        ev = qp._post_read(rkey, nbytes, ctx=ctx)
        self._events.append(ev)
        return ev

    def post_write(self, qp: QueuePair, rkey: int, value: Any, nbytes: int, ctx=None):
        """Post an RDMA write on ``qp``; returns its completion event."""
        if self._net is None:
            self._net = qp.local.cfg.net
        ev = qp._post_write(rkey, value, nbytes, ctx=ctx)
        self._events.append(ev)
        return ev

    def post(self, post_fn):
        """Post via a prebuilt closure (see ``make_read_post``).

        Requires ``net`` to have been supplied at construction, since a
        bare closure exposes no config.
        """
        if self._net is None:
            raise VerbsError("WqeBatch.post() needs net= at construction")
        ev = post_fn()
        self._events.append(ev)
        return ev

    def ring(self, k: "TaskContext", mode: str = "user") -> Generator:
        """Ring the doorbell for everything posted: ONE CPU charge.

        No-op for an empty batch. Drive with ``yield from`` in a task.
        """
        if not self._events:
            return None
        yield k.compute(self._net.doorbell_cost, mode=mode)
        return None

    def drain(self, k: "TaskContext") -> Generator:
        """Ring, then wait every completion; returns WCs in post order."""
        yield from self.ring(k)
        wcs = []
        for ev in self._events:
            wc = yield k.wait(ev)
            wcs.append(wc)
        return wcs


def connect_qp(a: "Node", b: "Node") -> tuple:
    """Create a connected RC queue-pair between two nodes."""
    qa = QueuePair(a, b)
    qb = QueuePair(b, a)
    qa.peer, qb.peer = qb, qa
    return qa, qb


def connect_monitor_qp(a: "Node", b: "Node") -> tuple:
    """Connect a QP carrying monitoring/control traffic.

    Identical to :func:`connect_qp` unless
    ``cfg.congestion.monitor_priority`` is set, in which case both ends
    ride PFC service level 1: probe requests and responses keep
    draining while a port's bulk (priority-0) traffic is paused, so
    tenant floods and tenancy throttling can never stall monitoring.
    """
    qa, qb = connect_qp(a, b)
    if a.cfg.congestion.monitor_priority:
        qa.service_level = 1
        qb.service_level = 1
    return qa, qb
