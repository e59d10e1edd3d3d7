"""Noisy neighbors vs the six monitoring schemes — and the defense.

The paper's load-independence claim (one-sided RDMA monitoring keeps
working when the *host* is loaded) has a multi-tenant blind spot: the
NIC itself is a shared resource. Three attacks, one per NIC resource
(:mod:`repro.workloads.tenants`), are aimed at a monitored back-end
while every scheme polls it:

* ``qp-exhaust`` — queue-pair churn floods the NIC's bounded QP table
  and drags never-seen contexts through the ICM cache;
* ``cache-thrash`` — a working-set walk larger than the ICM cache makes
  *other* tenants' verbs (including monitoring reads) pay PCIe refill
  penalties;
* ``bandwidth-hog`` — open-loop large reads monopolise the victim NIC's
  DMA engine and egress port.

Each cell of the matrix is one (scheme, attack, defense) combination on
an otherwise idle cluster: the tenancy plane is always on (it is the
resource model), the *defense* loop — detect by attempted rate, then
throttle, then quarantine — is the toggled arm. Rows split the run into
three windows (before the attack, under the attack, final quarter) so a
defense that works shows up as the final window recovering toward the
pre-attack baseline while defense-off stays degraded.

Expected shape (asserted in ``benchmarks/test_tenancy.py``): the
one-sided RDMA schemes degrade under every attack (their probes ride
the abused NIC resources directly); the socket schemes — whose probes
never touch the RDMA path — are only reliably hurt by the bandwidth
hog, which congests the shared port for everyone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import percentile
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.hw.cluster import build_cluster
from repro.monitoring.base import QueryRecord
from repro.monitoring.frontend import FrontendMonitor
from repro.monitoring.registry import ALL_SCHEME_NAMES, create_scheme
from repro.sim.units import MICROSECOND, MILLISECOND
from repro.workloads import create_workload

#: attack arm -> spawner; ``none`` is the clean baseline
ATTACKS: Sequence[str] = ("none", "qp-exhaust", "cache-thrash", "bandwidth-hog")

DEFAULT_DURATION: int = 240 * MILLISECOND
DEFAULT_POLL: int = 1 * MILLISECOND


def _cell_config(defense: bool) -> SimConfig:
    cfg = SimConfig(num_backends=3)
    cfg.tenancy.enabled = True
    # Small enough that the thrash walker's 128-region working set (and
    # the QP flood's churn) actually evict monitoring contexts.
    cfg.tenancy.icm_entries = 32
    cfg.tenancy.defense = defense
    cfg.tenancy.defense_interval = 5 * MILLISECOND
    return cfg


def _spawn_attack(sim, attack: str, start_after: int) -> None:
    src, target = sim.clients, sim.backends[0]
    if attack == "none":
        return
    if attack == "qp-exhaust":
        create_workload("qp-churn", sim, src=src, target=target,
                        start_after=start_after)
    elif attack == "cache-thrash":
        create_workload("cache-thrash", sim, src=src, target=target,
                        regions=128, interval=20 * MICROSECOND,
                        start_after=start_after)
    elif attack == "bandwidth-hog":
        create_workload("read-blaster", sim, src=src, target=target,
                        message_bytes=65536, interval=50 * MICROSECOND,
                        flows=2, start_after=start_after)
    else:
        raise ValueError(f"unknown attack {attack!r}; choose from {ATTACKS}")


def _window_stats(records, lo: int, hi: int) -> Dict[str, float]:
    """p95 staleness/latency over records completing in [lo, hi)."""
    stale = [r.info.staleness for r in records
             if r.ok and lo <= r.completed_at < hi]
    lat = [r.latency for r in records if lo <= r.completed_at < hi]
    return {
        "staleness_p95_ms": percentile(stale, 95) / 1e6 if stale else 0.0,
        "latency_p95_us": percentile(lat, 95) / 1e3 if lat else 0.0,
        "samples": len(stale),
    }


def run_cell(
    scheme_name: str,
    attack: str,
    defense: bool,
    duration: int = DEFAULT_DURATION,
    poll_interval: int = DEFAULT_POLL,
) -> Dict[str, object]:
    """One matrix cell: poll through ``scheme_name`` while ``attack`` runs.

    The attack starts at ``duration // 4``, so the first quarter is the
    scheme's clean baseline, the middle half is the degradation window,
    and the final quarter shows whether the defense restored service.
    Returns window stats plus the defense loop's own account of itself
    (detection latency, sanctions taken, denied attacker operations).
    """
    cfg = _cell_config(defense)
    sim = build_cluster(cfg)
    scheme = create_scheme(scheme_name, sim, interval=poll_interval)
    records: List[QueryRecord] = []
    scheme.observers.append(records.append)
    monitor = FrontendMonitor(scheme, interval=poll_interval)
    monitor.start()
    attack_start = duration // 4
    _spawn_attack(sim, attack, attack_start)
    sim.run(duration)

    plane = sim.tenancy
    assert plane is not None
    row: Dict[str, object] = {
        "scheme": scheme_name,
        "attack": attack,
        "defense": defense,
        "polls": len(records),
    }
    for window, (lo, hi) in {
        "pre": (0, attack_start),
        "attacked": (attack_start, 3 * duration // 4),
        "final": (3 * duration // 4, duration + 1),
    }.items():
        for key, value in _window_stats(records, lo, hi).items():
            row[f"{window}_{key}"] = value

    throttles = [a for a in plane.actions if a["kind"] == "throttle"]
    quarantines = [a for a in plane.actions if a["kind"] == "quarantine"]
    row["detect_ms"] = ((throttles[0]["t"] - attack_start) / 1e6
                        if throttles else -1.0)
    row["quarantines"] = len(quarantines)
    # ICM refill penalties the *monitoring plane itself* paid — the
    # resource-level damage signal for schemes whose staleness is
    # interval-dominated (push/async) and hides µs-scale penalties.
    row["system_icm_misses"] = plane.registry.system.icm_misses
    attacker = next((t for t in plane.registry if not t.is_system), None)
    row["attacker_denied_ops"] = attacker.denied_ops if attacker else 0
    row["attacker_posted_mb"] = (
        attacker.posted_bytes / 1e6 if attacker else 0.0)
    return row


def run(
    schemes: Optional[Sequence[str]] = None,
    attacks: Sequence[str] = ATTACKS,
    duration: int = DEFAULT_DURATION,
    poll_interval: int = DEFAULT_POLL,
    defense_arms: Sequence[bool] = (False, True),
) -> ExperimentResult:
    """The full matrix: schemes x attacks x defense off/on.

    ``tables`` is keyed ``"{scheme}:{attack}:{off|on}"``; ``series``
    carries per-scheme attacked-window p95 staleness for the defense-off
    arm (the raw damage) and the final-window p95 for defense-on (the
    recovery), aligned with ``xs = attacks``.
    """
    if schemes is None:
        schemes = tuple(ALL_SCHEME_NAMES)
    result = ExperimentResult(
        name="tenant_matrix",
        params={"duration": duration, "poll_interval": poll_interval,
                "defense_arms": list(defense_arms)},
        xs=list(attacks),
    )
    series: Dict[str, List[float]] = {}
    for scheme_name in schemes:
        for arm in defense_arms:
            tag = "on" if arm else "off"
            series[f"{scheme_name}_{tag}_attacked_p95_ms"] = []
            series[f"{scheme_name}_{tag}_final_p95_ms"] = []
    for attack in attacks:
        for scheme_name in schemes:
            for arm in defense_arms:
                row = run_cell(scheme_name, attack, arm,
                               duration=duration, poll_interval=poll_interval)
                tag = "on" if arm else "off"
                result.tables[f"{scheme_name}:{attack}:{tag}"] = row
                series[f"{scheme_name}_{tag}_attacked_p95_ms"].append(
                    row["attacked_staleness_p95_ms"])
                series[f"{scheme_name}_{tag}_final_p95_ms"].append(
                    row["final_staleness_p95_ms"])
    result.series = series
    result.notes = (
        "p95 monitoring staleness (ms) per attack arm. One-sided RDMA "
        "schemes ride the abused NIC resources, so every attack "
        "degrades their attacked-window staleness; socket schemes are "
        "only reliably hurt by the bandwidth hog. With the defense on, "
        "the tenancy plane throttles then quarantines the offender and "
        "the final-window staleness recovers toward the pre-attack "
        "baseline; defense-off stays degraded to the end of the run."
    )
    return result
