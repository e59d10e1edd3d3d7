"""Central calibration constants for the simulated cluster.

Every timing constant in the simulator lives here, in one dataclass, so
that calibration is auditable and experiments can perturb a single knob.
Values are chosen to be representative of the paper's 2006 testbed
(dual 2.4 GHz Xeon nodes, Mellanox InfiniHost 4x HCAs, RedHat 9 /
Linux 2.4, IPoIB for the socket path) — see DESIGN.md §2/§6. Absolute
numbers are *plausible magnitudes*, not measurements; the experiments
compare schemes against each other, which is what the paper reports.

All times are integer nanoseconds (see :mod:`repro.sim.units`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from difflib import get_close_matches

from repro.sim.units import MICROSECOND as US
from repro.sim.units import MILLISECOND as MS
from repro.sim.units import SECOND as S


def audit_keywords(owner: str, keywords, valid, *, noun: str = "keyword",
                   error=TypeError) -> None:
    """Raise ``error`` naming the first of ``keywords`` not in ``valid``.

    The one unknown-name check behind the config schema, the builder's
    chain methods, the workload registry and the scheme registry: the
    message names ``owner``, suggests the closest valid name and lists
    every valid one, so a typo fails where it was written.
    """
    for name in keywords:
        if name not in valid:
            matches = get_close_matches(name, valid, n=1, cutoff=0.6)
            hint = f" — did you mean {matches[0]!r}?" if matches else ""
            raise error(
                f"{owner} got unknown {noun} {name!r}{hint} "
                f"(valid {noun}s: {', '.join(sorted(valid))})")


def audited(cls):
    """Schema-audit a config dataclass: unknown keys raise, with a hint.

    A mistyped knob (``cfg.monitor.intervall = ...``, or
    ``MonitorConfig(intervall=...)``) used to be silently accepted as a
    stray attribute / swallowed as a bare TypeError, leaving the real
    knob at its default and the experiment subtly wrong. With the
    audit, both construction and assignment of a name that is not a
    declared field raise immediately with a did-you-mean suggestion.
    """
    orig_init = cls.__init__
    fields = cls.__dataclass_fields__

    def __init__(self, *args, **kwargs):
        audit_keywords(cls.__name__, kwargs, fields, noun="key")
        orig_init(self, *args, **kwargs)

    def __setattr__(self, name, value):
        if name not in fields:
            audit_keywords(cls.__name__, (name,), fields, noun="key",
                           error=AttributeError)
        object.__setattr__(self, name, value)

    __init__.__wrapped__ = orig_init
    cls.__init__ = __init__
    cls.__setattr__ = __setattr__
    return cls


@audited
@dataclass
class CpuConfig:
    """Per-node CPU and scheduler parameters (Linux-2.4 flavoured)."""

    #: number of CPUs per node (the paper's nodes are dual Xeon)
    num_cpus: int = 2
    #: timer tick period — 100 Hz, as in Linux 2.4
    tick: int = 10 * MS
    #: base timeslice granted at each epoch recalculation, in ticks
    timeslice_ticks: int = 6
    #: maximum counter a sleeping task can accumulate, in ticks
    counter_cap_ticks: int = 12
    #: direct cost of a context switch (register/TLB/cache effects folded in)
    context_switch: int = 3 * US
    #: cost of the timer interrupt handler itself
    timer_irq_cost: int = 1 * US
    #: scheduler epoch recalculation: fixed + per-task cost (O(n) scan)
    recalc_base: int = 2 * US
    recalc_per_task: int = 150  # 150 ns per task
    #: margin by which a woken task's goodness must beat the running
    #: task's before wakeup preemption fires (2.4's preemption_goodness)
    wake_preempt_margin: int = 1
    #: ordinary wakeups only preemption-check the task's last CPU
    #: (2.4 ``p->processor`` stickiness); False = scan all CPUs (ablation)
    sticky_wakeups: bool = True
    #: network-delivery wakeups use the aggressive (no-margin, all-CPU)
    #: preemption path; False disables the boost (ablation)
    net_wake_boost: bool = True
    #: system-mode bursts are non-preemptible (2.4 kernel semantics);
    #: False allows preemption anywhere (ablation)
    kernel_nonpreemptible: bool = True


@audited
@dataclass
class IrqConfig:
    """Interrupt and softirq costs."""

    #: interrupt entry/exit overhead (mode switch, ack)
    irq_entry: int = 1500  # 1.5 us
    #: NIC receive interrupt handler body (ring buffer reap, schedule softirq)
    nic_irq_cost: int = 4 * US
    #: per-packet network-RX softirq processing (IP + TCP receive path)
    softirq_per_packet: int = 8 * US
    #: maximum packets drained per softirq invocation before deferring to
    #: ksoftirqd (netdev_max_backlog-style budget)
    softirq_budget: int = 16
    #: which CPU NIC interrupts are routed to (the paper's Fig 6 shows the
    #: second CPU taking the interrupt load); -1 = round-robin
    nic_irq_affinity: int = 1
    #: CQ completion interrupt handler cost (verbs plane, initiator side)
    cq_irq_cost: int = 2 * US


@audited
@dataclass
class SyscallConfig:
    """Kernel entry and /proc costs."""

    #: bare syscall trap cost
    trap: int = 1 * US
    #: fixed cost of assembling /proc system statistics
    proc_read_base: int = 10 * US
    #: per-task cost of scanning the task list for /proc statistics —
    #: a monitoring daemon walks /proc/<pid>/stat for every process
    #: (an open + read + parse each, ~tens of µs apiece on 2003-era
    #: hardware), which dominates on busy nodes and drives both the
    #: paper's Fig 3 linear latency growth and the back-end perturbation
    #: of Figs 4/8
    proc_read_per_task: int = 30 * US
    #: copy cost per KB between kernel and user space
    copy_per_kb: int = 300


@audited
@dataclass
class NetConfig:
    """Fabric, IPoIB (sockets) and verbs (RDMA) parameters."""

    #: one-way wire propagation per hop (NIC->switch or switch->NIC)
    hop_latency: int = 200
    #: switch forwarding latency (cut-through, non-blocking crossbar)
    switch_latency: int = 300
    #: link data bandwidth in bytes/ns — 4x IB ≈ 1 GB/s effective
    link_bytes_per_ns: float = 1.0
    #: IPoIB effective bandwidth fraction (protocol overhead)
    ipoib_bw_factor: float = 0.35

    # -- sockets (IPoIB) path -------------------------------------------
    #: CPU cost of the TCP/IP transmit path per message (send syscall
    #: excluded; copies excluded — added per KB)
    tcp_tx_cost: int = 12 * US
    # CPU cost in softirq context per received message is in IrqConfig
    # (softirq_per_packet).
    #: TCP/IP header + IPoIB encapsulation overhead per message, bytes
    tcp_overhead_bytes: int = 94

    # -- verbs (native RDMA) path -----------------------------------------
    #: CPU cost of ringing the doorbell and building a WQE (initiator)
    doorbell_cost: int = 700
    #: NIC processing per work request (initiator side: WQE fetch, DMA)
    nic_wqe_service: int = 2500
    #: NIC processing at the *target* of an RDMA read/write: address
    #: translation + DMA — performed entirely by the HCA, no host CPU
    nic_dma_service: int = 3 * US
    #: DMA cost per KB moved on the target side
    nic_dma_per_kb: int = 250
    #: completion-queue entry generation cost (initiator NIC)
    cqe_cost: int = 500
    #: RDMA message header overhead, bytes
    rdma_overhead_bytes: int = 30
    #: verbs send/recv (channel semantics) receive-side CPU cost — used by
    #: the hardware-multicast ablation; still needs a posted recv + event
    channel_recv_cost: int = 5 * US


@audited
@dataclass
class ServerConfig:
    """Web-server / RUBiS / workload-side parameters."""

    #: worker processes per web server node (Apache prefork style)
    workers_per_server: int = 8
    #: accept-queue depth
    accept_backlog: int = 128
    #: per-node document cache entries for the Zipf workload (LRU)
    doc_cache_entries: int = 400
    #: number of distinct documents in the Zipf trace
    zipf_documents: int = 4000
    #: disk service time for one document-cache miss (misses queue on
    #: the server's single spindle)
    disk_fetch: int = 3 * MS
    #: cached static document service CPU cost
    static_serve: int = 400 * US


@audited
@dataclass
class MonitorConfig:
    """Monitoring-scheme parameters."""

    #: default polling interval T (the paper uses 50 ms unless stated)
    interval: int = 50 * MS
    #: wire size of a load-information record, bytes
    loadinfo_bytes: int = 64
    #: wire size of a load request message, bytes
    request_bytes: int = 16
    #: extended (e-RDMA-Sync) record with irq_stat, bytes
    extended_bytes: int = 128
    #: CPU cost for the back-end to compose a LoadInfo from /proc output
    compose_cost: int = 2 * US
    #: per-probe timeout, ns (0 disables the whole retry machinery and
    #: keeps every scheme on its historical unbounded-wait code path)
    probe_timeout: int = 0
    #: retransmissions after the first attempt before a probe is failed
    probe_retries: int = 2
    #: base retry backoff, ns (attempt n sleeps backoff * factor**(n-1))
    probe_backoff: int = 1 * MS
    probe_backoff_factor: float = 2.0
    #: backoff ceiling, ns
    probe_backoff_max: int = 50 * MS


@audited
@dataclass
class FederationConfig:
    """Hierarchical sharded monitoring (see :mod:`repro.federation`).

    Default-off: with ``enabled=False`` nothing in the federation
    package is constructed and every historical run stays byte-identical
    (property-tested, like the faults plane).
    """

    #: master switch for the two-level monitoring fabric
    enabled: bool = False
    #: tiers in the fabric: 2 = leaf → root (historical), 3 = leaf →
    #: region → root; three tiers keep every fan-out near N^(1/3), the
    #: regime that holds an N=4096 deployment inside a 1 ms period
    levels: int = 2
    #: number of shards (leaf monitors); 0 = auto — ceil(sqrt(N)) at
    #: two levels, ceil(N / round(N^(1/3))) at three
    num_shards: int = 0
    #: number of region aggregators (3-level only); 0 = auto,
    #: ceil(sqrt(num_shards))
    num_regions: int = 0
    #: leaf poll period over shard members; 0 = the scheme's interval
    #: (``ClusterBuilder.scheme(interval=...)``), else cfg.monitor.interval
    leaf_interval: int = 0
    #: root aggregation period (RDMA-reads every leaf snapshot MR);
    #: 0 = the leaf interval
    root_interval: int = 0
    #: region aggregation period (3-level only); 0 = the leaf interval
    region_interval: int = 0
    #: exported snapshot MR sizing: fixed header + per-node record
    snapshot_base_bytes: int = 64
    snapshot_bytes_per_node: int = 96
    #: re-split shards over the surviving members when the fault plane /
    #: heartbeat quarantines a back-end (False: quarantine only shrinks
    #: the afflicted shard's polled set)
    rebalance_on_quarantine: bool = True
    #: leaf CPU to fold a shard round into the snapshot
    merge_cost: int = 3 * US
    #: leaf CPU to serialise + write the snapshot into its exported MR
    publish_cost: int = 1 * US
    #: root CPU to merge one shard snapshot into the global view
    root_merge_cost: int = 2 * US
    #: region CPU to fold one leaf snapshot into its region view
    region_merge_cost: int = 2 * US
    #: region CPU to serialise + write its snapshot into its exported MR
    region_publish_cost: int = 1 * US


@audited
@dataclass
class CongestionConfig:
    """Congestion-realistic fabric (see :mod:`repro.congestion`).

    Default-off: with ``enabled=False`` the fabric keeps its historical
    infinite-buffer, congestion-oblivious path and every run stays
    byte-identical (property-tested, like the faults and federation
    planes). When on, every unicast packet passes a RoCEv2-style egress
    queue at its destination port: depth above ``ecn_kmin`` starts
    WRED-style ECN marking, ``pfc_xoff`` emits a PFC pause to the
    sending port, and marked arrivals make the receiver NIC generate
    CNPs that drive a per-flow DCQCN rate controller at the sender.
    All sizes are bytes, all times nanoseconds; docs/FABRIC.md has the
    model's derivation and ground rules.
    """

    #: master switch for the whole congestion plane
    enabled: bool = False
    #: DCQCN rate control (CNP generation + sender rate state); with it
    #: off, ECN marks are still counted but nobody reacts — the
    #: "uncontrolled" incast arm of the experiments
    dcqcn: bool = True
    #: PFC pause frames (lossless flow control); with it off the egress
    #: queue is an infinite buffer and congestion shows up purely as
    #: queueing delay (bufferbloat)
    pfc: bool = True
    #: nominal per-port egress buffering, for validation/documentation
    queue_capacity: int = 256 * 1024
    #: ECN marking ramp: no marks below kmin, probability rising
    #: linearly to ``ecn_pmax`` at kmax, every packet marked above kmax
    ecn_kmin: int = 64 * 1024
    ecn_kmax: int = 192 * 1024
    ecn_pmax: float = 0.2
    #: PFC thresholds: pause the sender when the egress queue passes
    #: xoff, let it resume once the queue has drained to xon
    pfc_xoff: int = 224 * 1024
    pfc_xon: int = 128 * 1024
    #: minimum gap between CNPs the receiver generates per flow (the
    #: CNP coalescing timer of real HCAs)
    cnp_interval: int = 50 * US
    #: DCQCN alpha gain g: alpha <- (1-g)*alpha + g on each CNP, and
    #: decays by (1-g) each recovery period without one
    alpha_g: float = 0.0625
    #: additive-increase step (fraction of line rate) per ``ai_timer``
    ai_factor: float = 0.02
    #: rate-increase timer (DCQCN's K), ns
    ai_timer: int = 55 * US
    #: floor on a flow's rate factor — a paced flow never fully stalls
    min_rate: float = 0.01
    #: monitoring/control QPs ride PFC service level 1: their flows keep
    #: draining while the port's priority-0 traffic is paused, so tenant
    #: floods (and tenancy throttling) can never stall probe responses.
    #: Off by default — priority-0 flow keys stay byte-identical.
    monitor_priority: bool = False


@audited
@dataclass
class TenancyConfig:
    """Multi-tenant NIC resource model (see :mod:`repro.tenancy`).

    Default-off: with ``enabled=False`` no plane is constructed, every
    NIC's ``tenancy`` hook stays ``None`` (one attribute check on the
    verbs hot path) and every historical run is byte-identical
    (property-tested, like the faults/federation/congestion planes).
    When on, every QP and MR is attributed to a tenant, the NIC's
    bounded QP table and shared ICM/context cache are modeled, verb
    posts are policed against per-tenant quotas and rates, and an
    optional closed defense loop throttles/quarantines offenders.
    docs/TENANCY.md has the model's derivation and attack taxonomy.
    """

    #: master switch for the whole tenancy plane
    enabled: bool = False
    #: bounded per-NIC QP table — creating a QP past it raises
    qp_table_size: int = 256
    #: per-NIC ICM/context cache entries (QP + MR state), LRU, shared
    #: across every tenant — one tenant's churn evicts another's state
    icm_entries: int = 64
    #: PCIe refill penalty paid by a verb whose QP/MR context missed
    #: the ICM cache, ns (charged on the NIC that took the miss)
    icm_miss_penalty: int = 2 * US
    #: per-tenant active-QP quota (0 = unlimited)
    default_qp_quota: int = 0
    #: per-tenant posted-bytes policing rate, bytes/s (0 = unpoliced);
    #: the system tenant (monitoring/infrastructure) is never policed
    default_rate_bps: int = 0
    #: closed defense loop: detect offenders per window, throttle, then
    #: quarantine after repeated strikes, release after clean windows
    defense: bool = False
    #: defense/telemetry window length, ns
    defense_interval: int = 5 * MS
    #: offender thresholds, per window (attempted rates: denied traffic
    #: counts, so a quarantined attacker keeps registering as offending)
    offend_mbps: float = 500.0
    offend_qp_creates: int = 64
    offend_icm_misses: int = 128
    #: throttle an offender to ``observed_rate * throttle_factor``
    throttle_factor: float = 0.1
    #: consecutive offending windows before quarantine
    quarantine_after: int = 3
    #: consecutive clean windows before throttles/quarantine lift
    release_after: int = 2


@audited
@dataclass
class TracingConfig:
    """Causal span-tracing parameters (see :mod:`repro.tracing`)."""

    #: master switch — when False every tracing hook is a single attribute
    #: check and the simulation is bit-identical to an untraced run
    enabled: bool = False
    #: head-based sampling probability: the keep/drop decision is made
    #: once per trace at the root; 1.0 never draws from the RNG stream
    sample_rate: float = 1.0
    #: span-store bound; spans finished past this are counted as dropped
    max_spans: int = 65536


@audited
@dataclass
class ProfileConfig:
    """Opt-in cProfile instrumentation (see :mod:`repro.profiling`).

    Default-off: with ``enabled=False`` the run loop takes the ordinary
    uninstrumented path and pays a single attribute check. When on, each
    profiled phase (deploy, run) is wrapped in its own ``cProfile``
    session and a per-phase hotspot table is printed (and optionally
    dumped as ``.pstats`` files for ``snakeviz``/``pstats`` digging).
    Profiling never perturbs simulated time — only wall-clock.
    """

    #: master switch
    enabled: bool = False
    #: rows per hotspot table
    top: int = 15
    #: pstats sort key ("tottime", "cumulative", "calls", ...)
    sort: str = "tottime"
    #: directory for raw .pstats dumps ("" = don't dump)
    dump_dir: str = ""


#: the historical default master seed (every archived golden uses it)
_DEFAULT_MASTER_SEED = 0xC1057E12


def set_default_master_seed(seed: int) -> int:
    """Override the default ``SimConfig.master_seed`` process-wide.

    The multiprocess experiment runner fans (experiment, seed) jobs
    across worker processes; experiments build ``SimConfig(...)``
    without threading a seed parameter through every signature, so the
    worker applies its job's seed here before running. Explicit
    ``SimConfig(master_seed=...)`` arguments are unaffected. Returns
    the previous default so callers can restore it.
    """
    global _DEFAULT_MASTER_SEED
    previous = _DEFAULT_MASTER_SEED
    _DEFAULT_MASTER_SEED = int(seed)
    return previous


@audited
@dataclass
class SimConfig:
    """Top-level simulation configuration."""

    num_backends: int = 8
    #: CPUs on the client-farm node (sized so clients never bottleneck;
    #: the paper uses 8 dedicated dual-CPU client nodes)
    client_cpus: int = 8
    master_seed: int = field(default_factory=lambda: _DEFAULT_MASTER_SEED)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    irq: IrqConfig = field(default_factory=IrqConfig)
    syscall: SyscallConfig = field(default_factory=SyscallConfig)
    net: NetConfig = field(default_factory=NetConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    tracing: TracingConfig = field(default_factory=TracingConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)
    congestion: CongestionConfig = field(default_factory=CongestionConfig)
    tenancy: TenancyConfig = field(default_factory=TenancyConfig)
    profile: ProfileConfig = field(default_factory=ProfileConfig)

    def replace(self, **kwargs) -> "SimConfig":
        """Shallow functional update of top-level fields."""
        return dataclasses.replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity-check cross-field constraints; raise ValueError on nonsense."""
        if self.num_backends < 1:
            raise ValueError("need at least one back-end node")
        if self.cpu.num_cpus < 1:
            raise ValueError("nodes need at least one CPU")
        if self.cpu.tick <= 0:
            raise ValueError("tick must be positive")
        if self.cpu.timeslice_ticks < 1:
            raise ValueError("timeslice must be at least one tick")
        if not 0 < self.net.ipoib_bw_factor <= 1:
            raise ValueError("ipoib_bw_factor must be in (0, 1]")
        if self.irq.softirq_budget < 1:
            raise ValueError("softirq budget must be >= 1")
        if self.monitor.interval <= 0:
            raise ValueError("monitoring interval must be positive")
        if self.monitor.probe_timeout < 0:
            raise ValueError("probe_timeout must be >= 0 (0 = disabled)")
        if self.monitor.probe_retries < 0:
            raise ValueError("probe_retries must be >= 0")
        if self.monitor.probe_backoff <= 0:
            raise ValueError("probe_backoff must be positive")
        if self.monitor.probe_backoff_factor < 1.0:
            raise ValueError("probe_backoff_factor must be >= 1")
        if self.monitor.probe_backoff_max < self.monitor.probe_backoff:
            raise ValueError("probe_backoff_max must be >= probe_backoff")
        if not 0.0 <= self.tracing.sample_rate <= 1.0:
            raise ValueError("tracing sample_rate must be in [0, 1]")
        if self.tracing.max_spans < 1:
            raise ValueError("tracing max_spans must be >= 1")
        fed = self.federation
        if fed.num_shards < 0:
            raise ValueError("federation num_shards must be >= 0 (0 = auto)")
        if fed.num_shards > self.num_backends:
            raise ValueError("federation num_shards must not exceed num_backends")
        if fed.leaf_interval < 0 or fed.root_interval < 0:
            raise ValueError("federation intervals must be >= 0 (0 = default)")
        if fed.snapshot_base_bytes <= 0 or fed.snapshot_bytes_per_node <= 0:
            raise ValueError("federation snapshot sizes must be positive")
        if min(fed.merge_cost, fed.publish_cost, fed.root_merge_cost) < 0:
            raise ValueError("federation costs must be >= 0")
        cc = self.congestion
        if cc.ecn_kmin <= 0 or cc.ecn_kmax < cc.ecn_kmin:
            raise ValueError("need 0 < ecn_kmin <= ecn_kmax")
        if not 0.0 < cc.ecn_pmax <= 1.0:
            raise ValueError("ecn_pmax must be in (0, 1]")
        if cc.pfc_xon <= 0 or cc.pfc_xoff <= cc.pfc_xon:
            raise ValueError("need 0 < pfc_xon < pfc_xoff")
        if cc.queue_capacity < cc.pfc_xoff:
            raise ValueError("queue_capacity must be >= pfc_xoff")
        if cc.cnp_interval <= 0 or cc.ai_timer <= 0:
            raise ValueError("cnp_interval and ai_timer must be positive")
        if not 0.0 < cc.alpha_g <= 1.0:
            raise ValueError("alpha_g must be in (0, 1]")
        if not 0.0 < cc.ai_factor <= 1.0:
            raise ValueError("ai_factor must be in (0, 1]")
        if not 0.0 < cc.min_rate <= 1.0:
            raise ValueError("min_rate must be in (0, 1]")
        tn = self.tenancy
        if tn.qp_table_size < 1:
            raise ValueError("tenancy.qp_table_size must be >= 1")
        if tn.icm_entries < 1:
            raise ValueError("tenancy.icm_entries must be >= 1")
        if tn.icm_miss_penalty < 0:
            raise ValueError("tenancy.icm_miss_penalty must be >= 0")
        if tn.default_qp_quota < 0 or tn.default_rate_bps < 0:
            raise ValueError("tenancy quotas must be >= 0 (0 = unlimited)")
        if tn.defense_interval <= 0:
            raise ValueError("tenancy.defense_interval must be positive")
        if tn.offend_mbps <= 0 or tn.offend_qp_creates < 1 \
                or tn.offend_icm_misses < 1:
            raise ValueError("tenancy offender thresholds must be positive")
        if not 0.0 < tn.throttle_factor <= 1.0:
            raise ValueError("tenancy.throttle_factor must be in (0, 1]")
        if tn.quarantine_after < 1 or tn.release_after < 1:
            raise ValueError("tenancy strike/release windows must be >= 1")
        if self.profile.top < 1:
            raise ValueError("profile.top must be >= 1")
        if self.profile.sort not in (
                "tottime", "cumulative", "calls", "ncalls", "time", "pcalls"):
            raise ValueError(f"unknown profile.sort {self.profile.sort!r}")


#: default polling interval alias used across experiments
DEFAULT_POLL_INTERVAL = 50 * MS

__all__ = [
    "CongestionConfig",
    "CpuConfig",
    "DEFAULT_POLL_INTERVAL",
    "FederationConfig",
    "IrqConfig",
    "MonitorConfig",
    "NetConfig",
    "ProfileConfig",
    "ServerConfig",
    "SimConfig",
    "SyscallConfig",
    "TenancyConfig",
    "TracingConfig",
]
