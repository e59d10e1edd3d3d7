"""The deterministic fault-injection plane.

:class:`FaultPlane` interprets a :class:`~repro.faults.schedule.FaultSchedule`
against a built cluster. It owns one named RNG stream (``"faults"``,
from the cluster's :class:`~repro.sim.rng.RngRegistry`) for every
stochastic decision — packet loss, probabilistic verb NAKs — so that
same-seed runs are bit-identical and adding the plane never perturbs the
draws any other component sees.

Injection points (all duck-typed attribute hooks, zero cost when idle):

* :meth:`on_transmit` — consulted by :meth:`repro.hw.fabric.Fabric.transmit`
  per packet: partitions and per-link latency/bandwidth/loss degradation;
* :meth:`on_verb` — consulted at the *target NIC* of every RDMA
  read/write/atomic: probabilistic NAK injection (RNR retry et al.);
* node faults call straight into ``Node.fail`` / ``Node.recover``;
* MR invalidation deregisters matching registrations from the target's
  protection domain (stale rkeys then NAK with INVALID_RKEY);
* NIC degradation sets ``Nic.fault_dma_factor``.

**Determinism contract**: with an empty schedule ``install()`` registers
the hooks but spawns no driver process, schedules no events and draws
nothing from the RNG stream — runs are bit-identical to a cluster
without the plane (proved by ``tests/properties/test_fault_properties.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.faults.schedule import (
    CrashNode,
    DegradeLink,
    DegradeNic,
    FaultEvent,
    FaultSchedule,
    HangNode,
    InvalidateMr,
    Partition,
    RecoverNode,
    VerbFault,
)
if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim
    from repro.hw.nic import Nic
    from repro.hw.node import Node
    from repro.transport.verbs import WcStatus


#: injectable completion statuses; resolved to WcStatus lazily because
#: transport.verbs transitively imports this package
_VERB_STATUS_NAMES = (
    "rnr-retry", "remote-access-error", "invalid-rkey", "length-error",
)
_VERB_STATUS: Dict[str, "WcStatus"] = {}


def _verb_status(name: str) -> "WcStatus":
    if not _VERB_STATUS:
        from repro.transport.verbs import WcStatus

        _VERB_STATUS.update({
            "rnr-retry": WcStatus.RNR_RETRY,
            "remote-access-error": WcStatus.REMOTE_ACCESS_ERROR,
            "invalid-rkey": WcStatus.INVALID_RKEY,
            "length-error": WcStatus.LENGTH_ERROR,
        })
    return _VERB_STATUS[name]


@dataclass(frozen=True)
class LinkVerdict:
    """Outcome of consulting the plane for one packet."""

    drop: bool = False
    latency_factor: float = 1.0
    bw_factor: float = 1.0


@dataclass
class FaultRecord:
    """One applied or revoked fault action (telemetry/tracing feed)."""

    time: int
    kind: str
    target: str
    #: back-end index of the target node (-1: front-end / link / group)
    backend: int = -1
    #: True when the fault was applied, False when revoked
    active: bool = True
    detail: str = ""


@dataclass
class _Action:
    """One timed step of the driver: apply or revoke one event."""

    time: int
    seq: int
    apply: bool
    event: FaultEvent = field(compare=False)

    def sort_key(self) -> Tuple[int, int]:
        return (self.time, self.seq)


class FaultPlane:
    """Deterministic fault injector for one cluster simulation."""

    def __init__(self, sim: "ClusterSim", schedule: Optional[FaultSchedule] = None) -> None:
        self.sim = sim
        self.env = sim.env
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.schedule.validate()
        self.rng = sim.rng.stream("faults")
        #: per-directed-link active degradations, keyed (src, dst) node names
        self._links: Dict[Tuple[str, str], List[DegradeLink]] = {}
        #: active partitions as (group_a, group_b) node-name sets
        self._partitions: List[Tuple[Set[str], Set[str]]] = []
        self._partition_of: Dict[int, Tuple[Set[str], Set[str]]] = {}
        #: active verb faults per target node name
        self._verbs: Dict[str, List[VerbFault]] = {}
        #: fast-path guards: False means the hook is a single attr check
        self._net_active = False
        self._verb_active = False
        self._installed = False
        #: applied/revoked action log, in time order
        self.records: List[FaultRecord] = []
        #: called in order with each FaultRecord (telemetry, federation
        #: quarantine and experiment probes append here)
        self.observers: List[Callable[[FaultRecord], None]] = []
        # counters
        self.applied = 0
        self.revoked = 0
        self.dropped_packets = 0
        self.naks_injected = 0
        self.mrs_invalidated = 0
        self._backend_index = {be.name: i for i, be in enumerate(sim.backends)}

    # ------------------------------------------------------------------
    def install(self) -> "FaultPlane":
        """Hook into the fabric; start the driver iff faults are scheduled."""
        if self._installed:
            raise RuntimeError("fault plane already installed")
        self._installed = True
        self.sim.fabric.faults = self
        self.sim.faults = self
        if not self.schedule.empty:
            actions = []
            for seq, event in enumerate(self.schedule):
                actions.append(_Action(event.at, seq, True, event))
                if event.until is not None:
                    actions.append(_Action(event.until, seq, False, event))
            actions.sort(key=_Action.sort_key)
            self.env.process(self._driver(actions), name="fault-driver")
        return self

    def _driver(self, actions: List[_Action]):
        for action in actions:
            if action.time > self.env.now:
                yield self.env.timeout(action.time - self.env.now)
            self._execute(action)

    # ------------------------------------------------------------------
    # schedule execution
    # ------------------------------------------------------------------
    def _execute(self, action: _Action) -> None:
        event = action.event
        if action.apply:
            self.applied += 1
            handler = self._APPLY[type(event)]
        else:
            self.revoked += 1
            handler = self._REVOKE[type(event)]
        handler(self, event)
        self._net_active = bool(self._links or self._partitions)
        self._verb_active = bool(self._verbs)
        self._note(event, active=action.apply)

    def _note(self, event: FaultEvent, active: bool) -> None:
        target = getattr(event, "node", "") or getattr(event, "src", "")
        if isinstance(event, Partition):
            target = " ".join(event.group_a) + " | " + " ".join(event.group_b)
        record = FaultRecord(
            time=self.env.now,
            kind=event.kind,
            target=target,
            backend=self._backend_index.get(getattr(event, "node", ""), -1),
            active=active,
            detail=event.describe(),
        )
        self.records.append(record)
        spans = self.sim.spans
        if spans is not None and spans.enabled:
            span = spans.start_trace(
                f"fault:{event.kind}", node=target or "fabric", component="faults",
                attrs={"active": active, "detail": event.describe()})
            spans.end(span)
        for fn in self.observers:
            fn(record)

    # -- node faults ----------------------------------------------------
    def _apply_crash(self, event: CrashNode) -> None:
        self._node(event.node).fail("crashed")

    def _apply_hang(self, event: HangNode) -> None:
        self._node(event.node).fail("hung")

    def _apply_recover(self, event: RecoverNode) -> None:
        self._node(event.node).recover()

    # -- link faults -----------------------------------------------------
    def _link_keys(self, event: DegradeLink):
        yield (event.src, event.dst)
        if event.symmetric:
            yield (event.dst, event.src)

    def _apply_link(self, event: DegradeLink) -> None:
        for key in self._link_keys(event):
            self._links.setdefault(key, []).append(event)

    def _revoke_link(self, event: DegradeLink) -> None:
        for key in self._link_keys(event):
            mods = self._links.get(key, [])
            if event in mods:
                mods.remove(event)
            if not mods:
                self._links.pop(key, None)

    def _apply_partition(self, event: Partition) -> None:
        entry = (set(event.group_a), set(event.group_b))
        self._partitions.append(entry)
        self._partition_of[id(event)] = entry

    def _revoke_partition(self, event: Partition) -> None:
        entry = self._partition_of.pop(id(event), None)
        if entry is not None and entry in self._partitions:
            self._partitions.remove(entry)

    # -- verb faults -----------------------------------------------------
    def _apply_verb(self, event: VerbFault) -> None:
        if event.status not in _VERB_STATUS_NAMES:
            raise ValueError(f"verb-nak: unknown status {event.status!r}")
        self._verbs.setdefault(event.node, []).append(event)

    def _revoke_verb(self, event: VerbFault) -> None:
        faults = self._verbs.get(event.node, [])
        if event in faults:
            faults.remove(event)
        if not faults:
            self._verbs.pop(event.node, None)

    def _apply_invalidate_mr(self, event: InvalidateMr) -> None:
        from repro.transport.verbs import ProtectionDomain

        pd = ProtectionDomain.for_node(self._node(event.node))
        victims = [h for h in pd.mrs.values() if h.region.name == event.region]
        for handle in victims:
            handle.deregister()
            self.mrs_invalidated += 1

    def _apply_degrade_nic(self, event: DegradeNic) -> None:
        self._node(event.node).nic.fault_dma_factor = event.dma_factor

    def _revoke_degrade_nic(self, event: DegradeNic) -> None:
        self._node(event.node).nic.fault_dma_factor = 1.0

    @staticmethod
    def _noop(event: FaultEvent) -> None:  # pragma: no cover - table filler
        pass

    _APPLY = {
        CrashNode: _apply_crash,
        HangNode: _apply_hang,
        RecoverNode: _apply_recover,
        DegradeLink: _apply_link,
        Partition: _apply_partition,
        VerbFault: _apply_verb,
        InvalidateMr: _apply_invalidate_mr,
        DegradeNic: _apply_degrade_nic,
    }
    _REVOKE = {
        DegradeLink: _revoke_link,
        Partition: _revoke_partition,
        VerbFault: _revoke_verb,
        DegradeNic: _revoke_degrade_nic,
    }

    def _node(self, name: str) -> "Node":
        return self.sim.node_by_name(name)

    # ------------------------------------------------------------------
    # fabric / verbs hooks
    # ------------------------------------------------------------------
    def on_transmit(self, src: "Nic", dst: "Nic", nbytes: int) -> Optional[LinkVerdict]:
        """Per-packet consult; None = packet unaffected (the fast path)."""
        if not self._net_active:
            return None
        src_name = src.node.name if src.node is not None else src.name
        dst_name = dst.node.name if dst.node is not None else dst.name
        for group_a, group_b in self._partitions:
            if ((src_name in group_a and dst_name in group_b)
                    or (src_name in group_b and dst_name in group_a)):
                self.dropped_packets += 1
                return LinkVerdict(drop=True)
        mods = self._links.get((src_name, dst_name))
        if not mods:
            return None
        latency_factor, bw_factor = 1.0, 1.0
        for mod in mods:
            if mod.loss > 0.0 and self.rng.random() < mod.loss:
                self.dropped_packets += 1
                return LinkVerdict(drop=True)
            latency_factor *= mod.latency_factor
            bw_factor *= mod.bw_factor
        return LinkVerdict(latency_factor=latency_factor, bw_factor=bw_factor)

    def on_verb(self, initiator: "Node", target: "Node",
                opcode: str) -> "Optional[WcStatus]":
        """Per-verb consult at the target NIC; None = proceed normally."""
        if not self._verb_active:
            return None
        faults = self._verbs.get(target.name)
        if not faults:
            return None
        for fault in faults:
            if opcode not in fault.opcodes:
                continue
            if fault.p >= 1.0 or self.rng.random() < fault.p:
                self.naks_injected += 1
                return _verb_status(fault.status)
        return None

    # ------------------------------------------------------------------
    def active_faults(self) -> List[str]:
        """Human-readable list of currently-active windowed faults."""
        out = []
        for (src, dst), mods in sorted(self._links.items()):
            for mod in mods:
                out.append(f"degrade-link {src}->{dst} "
                           f"x{mod.latency_factor:g}/bw{mod.bw_factor:g}")
        for group_a, group_b in self._partitions:
            out.append("partition " + " ".join(sorted(group_a)) + " | "
                       + " ".join(sorted(group_b)))
        for node, faults in sorted(self._verbs.items()):
            for fault in faults:
                out.append(f"verb-nak {node} p={fault.p:g}")
        return out

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for experiment reports."""
        return {
            "applied": self.applied,
            "revoked": self.revoked,
            "dropped_packets": self.dropped_packets,
            "naks_injected": self.naks_injected,
            "mrs_invalidated": self.mrs_invalidated,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultPlane events={len(self.schedule)} "
                f"active={len(self.active_faults())}>")
