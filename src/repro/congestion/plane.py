"""The congestion plane: switch queues + DCQCN wired into the fabric.

Installed on a :class:`~repro.hw.fabric.Fabric` (``fabric.congestion``),
the plane takes over unicast delivery whenever ``cfg.congestion.enabled``
is set. Its :meth:`transmit` reproduces the base fabric's serialisation
math exactly, then layers the RoCEv2 congestion machinery on top:

1. the sender queues the packet per *flow*; a round-robin arbiter
   drains the port, spacing each flow's packets by its DCQCN rate
   (pacing) and deferring everything past any PFC pause in force;
2. the packet lands in the destination's explicit egress queue
   (:class:`~repro.hw.switch.CongestionSwitch`), which may ECN-mark it
   and/or emit a PFC pause frame back to the sender;
3. a marked packet makes the *receiver* NIC generate a CNP (coalesced
   per flow), which travels back across the wire and cuts the sender's
   rate (:class:`~repro.congestion.dcqcn.FlowState`).

The plane adds one switch-arrival timeout per packet (so egress-queue
state updates in true arrival order) and one timeout per delivered CNP.
With the plane absent the fabric pays a single attribute check, and
runs are byte-identical to the historical model (property-tested).
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.congestion.dcqcn import FlowState
from repro.hw.switch import CongestionSwitch
from repro.sim.events import EventPriority

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.config import SimConfig
    from repro.hw.fabric import Fabric
    from repro.hw.nic import Nic
    from repro.sim.engine import Environment
    from repro.tracing.span import SpanTracer


class _TxQueue:
    """A NIC's send side: per-flow packet queues + a port arbiter.

    The base fabric assigns every packet's wire schedule analytically at
    post time, which is exact while nothing can change between post and
    transmit. Pauses and rate cuts *do* change things, so the congested
    plane queues posted packets here and a callback chain drains them
    one at a time — sampling PFC state and each flow's DCQCN pacing gap
    at the moment a packet actually hits the wire. Queues are per
    *flow* (destination), drained round-robin, so one throttled or
    backlogged flow cannot head-of-line block the others on the same
    port — the NIC-scheduler behaviour DCQCN assumes.
    """

    __slots__ = ("flows", "order", "cursor", "active", "sleeping", "gen",
                 "prio_flows")

    def __init__(self) -> None:
        #: dst name -> deque of posted packets
        self.flows: Dict[str, deque] = {}
        #: round-robin arbitration order (flow creation order)
        self.order: list = []
        self.cursor = 0
        #: a drain chain is running (possibly asleep)
        self.active = False
        #: the chain is waiting on a timer rather than the wire
        self.sleeping = False
        #: bumped to invalidate a sleeping chain's wakeup
        self.gen = 0
        #: flow keys riding a nonzero PFC service level — they keep
        #: draining while the port's priority-0 traffic is paused
        self.prio_flows: set = set()

    def append(self, dst_name: str, pkt: tuple) -> None:
        q = self.flows.get(dst_name)
        if q is None:
            q = self.flows[dst_name] = deque()
            self.order.append(dst_name)
        q.append(pkt)


class CongestionPlane:
    """ECN/DCQCN/PFC state shared by every port of one fabric."""

    def __init__(
        self,
        env: "Environment",
        cfg: "SimConfig",
        rng: "np.random.Generator",
        spans: "Optional[SpanTracer]" = None,
    ) -> None:
        self.env = env
        self.cfg = cfg
        self.spans = spans
        self.switch = CongestionSwitch(cfg.congestion, rng)
        self.fabric: Optional["Fabric"] = None
        self._flows: Dict[Tuple[str, str], FlowState] = {}
        #: per-sender store-and-forward TX queues
        self._txq: Dict[str, _TxQueue] = {}
        #: absolute time each TX port's PFC pause lifts
        self._pause_until: Dict[str, int] = {}
        #: called in order with one event dict per enqueue / pause / CNP
        #: (telemetry appends here — see attach_congestion)
        self.observers: List[Callable[[dict], None]] = []
        self.cnps_generated = 0
        self.cnps_delivered = 0
        self.cnps_coalesced = 0

    def install(self, fabric: "Fabric") -> "CongestionPlane":
        """Attach to ``fabric``; all unicast traffic now flows through."""
        if fabric.congestion is not None:
            raise RuntimeError("fabric already has a congestion plane")
        fabric.congestion = self
        self.fabric = fabric
        return self

    # ------------------------------------------------------------------
    def _flow(self, src: str, dst: str, now: int) -> FlowState:
        key = (src, dst)
        flow = self._flows.get(key)
        if flow is None:
            flow = self._flows[key] = FlowState(src, dst, now)
        return flow

    def flow_rate(self, src: str, dst: str) -> float:
        """The ⟨src, dst⟩ flow's current DCQCN rate factor (1.0 if none)."""
        flow = self._flows.get((src, dst))
        if flow is None:
            return 1.0
        return flow.current_rate(self.env.now, self.cfg.congestion)

    def port_depth(self, nic_name: str, at: Optional[int] = None) -> int:
        """Egress-queue backlog (bytes) at ``nic_name``'s port."""
        assert self.fabric is not None
        rx = self.fabric._rx[nic_name]
        t = self.env.now if at is None else at
        if rx.free_at <= t:
            return 0
        return int((rx.free_at - t) * self.cfg.net.link_bytes_per_ns)

    # ------------------------------------------------------------------
    def transmit(
        self,
        src: "Nic",
        dst: "Nic",
        nbytes: int,
        on_arrival: Callable[[], None],
        bw_factor: float,
        lat_factor: float,
        prio: int = 0,
    ) -> int:
        """Congestion-aware unicast delivery (the fabric's hot hand-off).

        The packet joins the sender's store-and-forward TX queue; the
        drain chain samples PFC pause state and the flow's DCQCN rate at
        actual transmit time (:meth:`_service`), and the egress queue is
        observed when the packet reaches the switch (:meth:`_at_switch`)
        — both *after* post time, which is what lets a pause issued
        mid-backlog actually hold the backlog. ``prio`` is the PFC
        service level: nonzero packets form their own flow (own DCQCN
        state) that keeps draining while the port's priority-0 traffic
        is paused. Returns the post time; delivery is resolved through
        ``on_arrival``.
        """
        net = self.cfg.net
        bw = net.link_bytes_per_ns * bw_factor

        hop, switch_lat = net.hop_latency, net.switch_latency
        if lat_factor != 1.0:
            hop = int(hop * lat_factor)
            switch_lat = int(switch_lat * lat_factor)
        ser_rx = max(1, math.ceil(nbytes / bw))

        txq = self._txq.get(src.name)
        if txq is None:
            txq = self._txq[src.name] = _TxQueue()
        # Priority-0 flow keys stay the bare destination name so runs
        # without monitor_priority are byte-identical to the historical
        # model.
        flow_key = dst.name if prio == 0 else f"{dst.name}\x00sl{prio}"
        if prio != 0:
            txq.prio_flows.add(flow_key)
        txq.append(flow_key, (src, dst, nbytes, bw, ser_rx, hop, switch_lat,
                              on_arrival))
        if not txq.active:
            txq.active = True
            self._service(src.name, txq)
        elif txq.sleeping:
            # The chain is waiting on a pacing/pause timer; this packet
            # may belong to a flow that is clear to send *now*, so
            # re-arbitrate immediately (the stale wakeup is invalidated).
            txq.gen += 1
            txq.sleeping = False
            self._service(src.name, txq)
        return self.env.now

    def _sleep(self, src_name: str, txq: _TxQueue, delay: int) -> None:
        """Park the drain chain; :meth:`transmit` may preempt the nap."""
        txq.sleeping = True
        gen = txq.gen
        t = self.env.timeout(max(1, delay), priority=EventPriority.HIGH)
        assert t.callbacks is not None
        t.callbacks.append(lambda _ev: self._wake(src_name, txq, gen))

    def _wake(self, src_name: str, txq: _TxQueue, gen: int) -> None:
        if txq.gen != gen or not txq.sleeping:
            return  # superseded by a preempting transmit
        txq.sleeping = False
        self._service(src_name, txq)

    def _service(self, src_name: str, txq: _TxQueue) -> None:
        """Arbitrate the port: pick a flow, put one packet on the wire.

        Round-robin over the per-flow queues, skipping flows whose DCQCN
        pacing gate (``next_send``) is still in the future. If the port
        is PFC-paused, or every backlogged flow is pacing, the chain
        naps until the earliest release time (a new post can preempt the
        nap — see :meth:`transmit`).
        """
        env = self.env
        now = env.now
        paused_until = self._pause_until.get(src_name, 0)
        paused = paused_until > now
        if paused and not txq.prio_flows:
            # Port is PFC-paused: re-check when the pause lifts (it may
            # have been extended by then — the loop re-evaluates).
            self._sleep(src_name, txq, paused_until - now)
            return
        cc = self.cfg.congestion
        chosen_q = None
        chosen_flow = None
        wake_at = None
        n = len(txq.order)
        for i in range(n):
            idx = (txq.cursor + i) % n
            dst_name = txq.order[idx]
            q = txq.flows[dst_name]
            if not q:
                continue
            if paused and dst_name not in txq.prio_flows:
                # PFC holds priority-0 flows only; the monitoring class
                # (service level 1) keeps arbitrating.
                if wake_at is None or paused_until < wake_at:
                    wake_at = paused_until
                continue
            if cc.dcqcn:
                flow = self._flow(src_name, dst_name, now)
                if flow.next_send > now:
                    if wake_at is None or flow.next_send < wake_at:
                        wake_at = flow.next_send
                    continue
                chosen_flow = flow
            chosen_q = q
            txq.cursor = (idx + 1) % n
            break
        if chosen_q is None:
            if wake_at is None:
                txq.active = False  # every flow queue is empty
            else:
                self._sleep(src_name, txq, wake_at - now)
            return
        src, dst, nbytes, bw, ser_rx, hop, switch_lat, on_arrival = \
            chosen_q.popleft()
        if chosen_flow is not None:
            rate = chosen_flow.current_rate(now, cc)
            if rate < 1.0:
                # Pacing as inter-packet gap: the packet serialises at
                # line rate but the flow's *next* packet waits until the
                # paced spacing elapses. Other flows use the gap.
                chosen_flow.next_send = now + max(
                    1, math.ceil(nbytes / (bw * rate)))
        fabric = self.fabric
        assert fabric is not None
        tx = fabric._tx[src.name]
        tx.free_at = now + ser_rx
        tx.bytes_moved += nbytes
        tx.messages += 1
        t = env.timeout(ser_rx + hop + switch_lat, priority=EventPriority.HIGH)
        assert t.callbacks is not None
        t.callbacks.append(
            lambda _ev: self._at_switch(src, dst, nbytes, ser_rx, hop,
                                        chosen_flow, on_arrival))
        # The port frees after ser_rx (the propagation tail overlaps the
        # next packet's serialisation, as on the uncongested fabric).
        t2 = env.timeout(ser_rx, priority=EventPriority.HIGH)
        assert t2.callbacks is not None
        t2.callbacks.append(lambda _ev: self._service(src_name, txq))

    def _at_switch(self, src: "Nic", dst: "Nic", nbytes: int, ser_rx: int,
                   hop: int, flow: Optional[FlowState],
                   on_arrival: Callable[[], None]) -> None:
        """The packet reaches the egress queue: mark, pause, serialise."""
        fabric = self.fabric
        assert fabric is not None
        env = self.env
        now = env.now
        rx = fabric._rx[dst.name]
        # The egress link drains at nominal line rate regardless of the
        # sender's pacing.
        drain = self.cfg.net.link_bytes_per_ns
        depth_before = 0
        if rx.free_at > now:
            depth_before = int((rx.free_at - now) * drain)
        port = self.switch.port(dst.name)
        marked, pause_bytes = self.switch.enqueue(port, depth_before, nbytes)
        if marked:
            dst.cc_ecn_marked_rx += 1
        if pause_bytes is not None:
            self._pause(src, port, now, pause_bytes, drain)

        rx_start = max(now, rx.free_at)
        rx.free_at = rx_start + ser_rx
        rx.bytes_moved += nbytes
        rx.messages += 1
        arrival = rx_start + ser_rx + hop

        if self.observers:
            event = {
                "kind": "enqueue", "t": now, "port": port.index,
                "nic": dst.name, "depth": depth_before + nbytes,
                "marked": marked, "mark_rate": port.mark_rate,
            }
            for fn in self.observers:
                fn(event)
        t = env.timeout(arrival - now, priority=EventPriority.HIGH)
        assert t.callbacks is not None
        if marked and flow is not None:
            # Congestion bookkeeping runs at the arrival instant, before
            # the payload callback can observe anything.
            t.callbacks.append(lambda _ev: self._on_marked_arrival(flow, src, dst))
        t.callbacks.append(lambda _ev: on_arrival())

    # ------------------------------------------------------------------
    def _pause(self, src: "Nic", port, at_switch: int, pause_bytes: int,
               drain: float) -> None:
        """A PFC pause frame: hold ``src``'s TX until the queue drains.

        Pause is *port*-granular: the sender's whole TX queue (backlog
        included) stops until ``resume_at`` — :meth:`_service` re-checks
        ``_pause_until`` before every packet, so a pause issued
        mid-backlog holds the backlog, exactly like a real PFC-paused
        egress. Only the head packet already on the wire completes.
        """
        resume_at = at_switch + max(1, int(pause_bytes / drain))
        prev = self._pause_until.get(src.name, 0)
        if resume_at <= prev:
            return
        base = prev if prev > at_switch else at_switch
        gained = resume_at - base
        src.cc_pause_ns += gained
        port.pause_ns += gained
        self._pause_until[src.name] = resume_at
        spans = self.spans
        if spans is not None and spans.enabled:
            span = spans.start_trace(
                "cc:pause", node=src.name, component="congestion",
                attrs={"port": port.name, "pause_ns": gained,
                       "resume_at": resume_at})
            if span is not None:
                spans.end(span)
        if self.observers:
            event = {
                "kind": "pause", "t": self.env.now, "port": port.index,
                "nic": port.name, "src": src.name, "pause_ns": gained,
            }
            for fn in self.observers:
                fn(event)

    def _on_marked_arrival(self, flow: FlowState, src: "Nic", dst: "Nic") -> None:
        """Receiver saw a CE-marked packet: maybe generate a CNP."""
        now = self.env.now
        cc = self.cfg.congestion
        if now - flow.last_cnp_at < cc.cnp_interval:
            self.cnps_coalesced += 1
            return
        flow.last_cnp_at = now
        flow.cnps += 1
        self.cnps_generated += 1
        dst.cc_cnps_sent += 1
        # The CNP rides back on the reverse path; it is tiny, so only
        # propagation + forwarding delay is charged (no serialisation).
        net = self.cfg.net
        delay = 2 * net.hop_latency + net.switch_latency
        t = self.env.timeout(delay, priority=EventPriority.HIGH)
        assert t.callbacks is not None
        t.callbacks.append(lambda _ev: self._deliver_cnp(flow, src, dst))

    def _deliver_cnp(self, flow: FlowState, src: "Nic", dst: "Nic") -> None:
        """The CNP lands at the sender: cut the flow's rate."""
        now = self.env.now
        before = flow.rate
        after = flow.on_cnp(now, self.cfg.congestion)
        src.cc_cnps_received += 1
        self.cnps_delivered += 1
        spans = self.spans
        if spans is not None and spans.enabled:
            span = spans.start_trace(
                "cc:cnp", node=src.name, component="congestion",
                attrs={"dst": dst.name, "rate_before": before,
                       "rate_after": after})
            if span is not None:
                spans.end(span)
        if self.observers:
            event = {
                "kind": "cnp", "t": now, "src": src.name, "dst": dst.name,
                "rate": after,
            }
            for fn in self.observers:
                fn(event)

    # ------------------------------------------------------------------
    def flows(self) -> Dict[Tuple[str, str], FlowState]:
        return dict(self._flows)

    def stats(self) -> dict:
        """Plane-wide counters plus per-port switch statistics."""
        return {
            "cnps_generated": self.cnps_generated,
            "cnps_delivered": self.cnps_delivered,
            "cnps_coalesced": self.cnps_coalesced,
            "flows": len(self._flows),
            "ports": self.switch.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CongestionPlane flows={len(self._flows)} cnps={self.cnps_delivered}>"
