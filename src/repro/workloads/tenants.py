"""Tenant-shaped load generators: the incast tenant plus the attacks.

All tenant-shaped load shares one module and one RNG-stream convention
(``"{label}:{node}:{salt}"`` named streams off ``sim.rng``), so any two
generators compose deterministically in one run. Each is a workload of
the registry, started with :func:`repro.workloads.create_workload`.

``"incast"`` is the congestion experiments' heavy tenant: *open-loop*
one-sided RDMA writes from many sources converging on one port — the
classic incast pattern that fills the victim's egress queue regardless
of how slowly the victim drains it.

The remaining three are the noisy-neighbor attacks the tenancy plane
(:mod:`repro.tenancy`) exists to detect and defeat, one per shared NIC
resource:

* ``"qp-churn"`` — **QP/CQ exhaustion**: create queue pairs far faster
  than any sane application, filling the NIC's bounded QP table and
  churning its context cache.
* ``"read-blaster"`` — **bandwidth hogging**: open-loop large one-sided
  reads that monopolise the victim NIC's DMA engine and TX port with
  zero cooperation from the victim's CPU.
* ``"cache-thrash"`` — **ICM cache thrash**: round-robin tiny reads
  over more memory regions than the NIC cache holds, so every access
  (the attacker's *and* other tenants') misses and pays the PCIe refill
  penalty.

Each attack registers its own tenant with the tenancy plane when one is
installed (binding the source node so all its verbs are attributed),
and degrades gracefully to plain load when the plane is off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.sim.units import MICROSECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim
    from repro.hw.node import Node
    from repro.kernel.task import Task


def _attack_tenant(sim: "ClusterSim", name: str, src: "Node"):
    """Register (or reuse) the attack's tenant on the tenancy plane.

    Returns None when the plane is off — the workload still runs, it is
    just unattributed background load.
    """
    plane = getattr(sim, "tenancy", None)
    if plane is None:
        return None
    try:
        return plane.registry.by_name(name)
    except KeyError:
        return plane.create_tenant(name, node=src)


def _spawn_incast_tenants(
    sim: "ClusterSim",
    target: "Node",
    sources: "Sequence[Node]",
    flows_per_source: int = 1,
    message_bytes: int = 8192,
    interval: int = 50 * MICROSECOND,
    label: str = "incast",
) -> List["Task"]:
    """Blast ``target`` with open-loop one-sided writes from ``sources``.

    Each flow posts a ``message_bytes`` RDMA write every ``interval`` ns
    (jittered per-flow) *without waiting for completions* — an open loop,
    so offered load is ``len(sources) * flows_per_source *
    message_bytes / interval`` regardless of congestion. Once that
    exceeds the target's link rate its egress queue grows without bound
    unless PFC or DCQCN pushes back: exactly the incast the congestion
    experiments measure. Returns the sender tasks.
    """
    # Deferred: keep the verbs import off socket-only import paths.
    from repro.transport.verbs import AccessFlags, ProtectionDomain, connect_qp

    if flows_per_source <= 0:
        raise ValueError("flows_per_source must be positive")
    region_name = f"{label}:sink"
    if region_name not in target.memory:
        target.memory.alloc(region_name, message_bytes)
    mr = ProtectionDomain.for_node(target).register(
        target.memory.get(region_name), AccessFlags.REMOTE_WRITE)
    doorbell = sim.cfg.net.doorbell_cost
    tasks: List["Task"] = []
    for src in sources:
        for f in range(flows_per_source):
            qp, _ = connect_qp(src, target)

            def blast_body(k, qp=qp, salt=f, src_name=src.name):
                rng = sim.rng.stream(f"{label}:{src_name}:{salt}")
                yield k.sleep(int(rng.integers(0, max(1, interval))))
                start = k.now
                sent = 0
                while True:
                    # Open loop in *time*, not in wakeups: post however
                    # many intervals have elapsed (catch-up), so a
                    # CPU-starved sender still offers the configured
                    # load — one doorbell covers the whole batch.
                    due = (k.now - start) // interval + 1
                    while sent < due:
                        # Fire and forget: nobody waits on completions.
                        qp._post_write(mr.rkey, "tenant", message_bytes)
                        sent += 1
                    yield k.compute(doorbell, mode="user")
                    yield k.sleep(max(1, start + sent * interval - k.now))

            tasks.append(src.spawn(f"{label}:{src.name}:{f}", blast_body))
    return tasks


def _spawn_qp_churn_flood(
    sim: "ClusterSim",
    src: "Node",
    target: "Node",
    interval: int = 50 * MICROSECOND,
    burst: int = 8,
    hold_max: int = 64,
    message_bytes: int = 64,
    start_after: int = 0,
    stop_after: int = 0,
    label: str = "qp-flood",
) -> "Task":
    """QP/CQ-exhaustion attack: churn queue pairs against ``target``.

    Every ``interval`` the flood creates ``burst`` fresh QPs to the
    target and fires one tiny read on each — every read drags a
    never-seen QP context through both NICs' ICM caches — while holding
    at most ``hold_max`` QPs live (oldest destroyed first), so the
    attack pressure is *churn rate*, not a one-shot table fill. When
    admission starts rejecting creations (table full, quota, or
    quarantine) the flood backs off for the rest of the round — denials
    still count against it in the tenancy plane's telemetry.
    """
    from repro.transport.verbs import (
        AccessFlags,
        ProtectionDomain,
        TenancyError,
        connect_qp,
    )

    _attack_tenant(sim, label, src)
    region_name = f"{label}:bait"
    if region_name not in target.memory:
        target.memory.alloc(region_name, message_bytes)
    mr = ProtectionDomain.for_node(target).register(
        target.memory.get(region_name), AccessFlags.REMOTE_READ)
    doorbell = sim.cfg.net.doorbell_cost

    def flood_body(k):
        rng = sim.rng.stream(f"{label}:{src.name}:0")
        if start_after:
            yield k.sleep(start_after)
        yield k.sleep(int(rng.integers(0, max(1, interval))))
        held: List[tuple] = []
        while True:
            if stop_after and k.now >= stop_after:
                for qa, qb in held:
                    qa.destroy()
                    qb.destroy()
                return
            for _ in range(burst):
                try:
                    qa, qb = connect_qp(src, target)
                except TenancyError:
                    break  # admission pushed back: retry next round
                held.append((qa, qb))
                qa._post_read(mr.rkey, message_bytes)
            while len(held) > hold_max:
                qa, qb = held.pop(0)
                qa.destroy()
                qb.destroy()
            yield k.compute(doorbell, mode="user")
            yield k.sleep(max(1, interval))

    return src.spawn(f"{label}:{src.name}", flood_body)


def _spawn_read_blaster(
    sim: "ClusterSim",
    src: "Node",
    target: "Node",
    message_bytes: int = 65536,
    interval: int = 50 * MICROSECOND,
    flows: int = 2,
    start_after: int = 0,
    stop_after: int = 0,
    label: str = "read-blast",
) -> List["Task"]:
    """Bandwidth-hog attack: open-loop large one-sided reads.

    Each flow posts a ``message_bytes`` RDMA read every ``interval``
    without waiting for completions. Large reads monopolise the *victim
    NIC's* DMA engine (FIFO) and TX port — one-sidedness means the
    victim's CPU never gets a say — so co-located monitoring responses
    queue behind attacker data. Quarantined posts complete as
    ``TENANT_DENIED`` without touching the wire, which is what restores
    the victim.
    """
    from repro.transport.verbs import AccessFlags, ProtectionDomain, connect_qp

    if flows <= 0:
        raise ValueError("flows must be positive")
    _attack_tenant(sim, label, src)
    region_name = f"{label}:trough"
    if region_name not in target.memory:
        target.memory.alloc(region_name, message_bytes)
    mr = ProtectionDomain.for_node(target).register(
        target.memory.get(region_name), AccessFlags.REMOTE_READ)
    doorbell = sim.cfg.net.doorbell_cost
    tasks: List["Task"] = []
    for f in range(flows):
        qp, _ = connect_qp(src, target)

        def blast_body(k, qp=qp, salt=f):
            rng = sim.rng.stream(f"{label}:{src.name}:{salt}")
            if start_after:
                yield k.sleep(start_after)
            yield k.sleep(int(rng.integers(0, max(1, interval))))
            start = k.now
            sent = 0
            while True:
                if stop_after and k.now >= stop_after:
                    return
                due = (k.now - start) // interval + 1
                while sent < due:
                    qp._post_read(mr.rkey, message_bytes)
                    sent += 1
                yield k.compute(doorbell, mode="user")
                yield k.sleep(max(1, start + sent * interval - k.now))

        tasks.append(src.spawn(f"{label}:{src.name}:{f}", blast_body))
    return tasks


def _spawn_cache_thrash_walker(
    sim: "ClusterSim",
    src: "Node",
    target: "Node",
    regions: int = 128,
    message_bytes: int = 64,
    interval: int = 20 * MICROSECOND,
    start_after: int = 0,
    stop_after: int = 0,
    label: str = "icm-thrash",
) -> "Task":
    """ICM-thrash attack: walk a working set larger than the NIC cache.

    Registers ``regions`` tiny memory regions on the target and reads
    them round-robin. With ``regions`` above ``cfg.tenancy.icm_entries``
    every access misses, and each miss evicts someone else's hot QP/MR
    context — other tenants on the same target NIC start paying refill
    penalties for *their* verbs. Tiny messages keep the wire quiet, so
    the damage is isolated to the context-cache mechanism.
    """
    from repro.transport.verbs import AccessFlags, ProtectionDomain, connect_qp

    if regions <= 0:
        raise ValueError("regions must be positive")
    _attack_tenant(sim, label, src)
    pd = ProtectionDomain.for_node(target)
    mrs = []
    for r in range(regions):
        region_name = f"{label}:walk:{r}"
        if region_name not in target.memory:
            target.memory.alloc(region_name, message_bytes)
        mrs.append(pd.register(target.memory.get(region_name),
                               AccessFlags.REMOTE_READ))
    qp, _ = connect_qp(src, target)
    doorbell = sim.cfg.net.doorbell_cost

    def walk_body(k):
        rng = sim.rng.stream(f"{label}:{src.name}:0")
        if start_after:
            yield k.sleep(start_after)
        yield k.sleep(int(rng.integers(0, max(1, interval))))
        start = k.now
        sent = 0
        while True:
            if stop_after and k.now >= stop_after:
                return
            due = (k.now - start) // interval + 1
            while sent < due:
                qp._post_read(mrs[sent % regions].rkey, message_bytes)
                sent += 1
            yield k.compute(doorbell, mode="user")
            yield k.sleep(max(1, start + sent * interval - k.now))

    return src.spawn(f"{label}:{src.name}", walk_body)
