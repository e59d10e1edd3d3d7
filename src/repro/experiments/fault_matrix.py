"""Chaos matrix: every monitoring scheme against every fault class.

The paper argues (§4) that one-sided RDMA monitoring is *robust*: a
hung back-end kernel still answers DMA reads of its (frozen) kernel
memory, while socket schemes need the remote CPU and simply stall. This
experiment makes that claim measurable across the whole design space —
5 schemes x 5 fault classes, one deterministic fault window per cell:

=============== ====================================================
``hang``        kernel livelock at the victim; HCA keeps answering
``crash``       victim drops off the fabric entirely
``link``        frontend<->victim link: 20x latency, 10% bandwidth
``partition``   frontend | victim network split
``verb-nak``    victim NIC NAKs half of all RDMA verbs (RNR retry)
=============== ====================================================

Each cell runs one scheme with bounded probes (2 ms timeout, 2 retries,
1 ms backoff) polling every 10 ms, plus the RDMA heartbeat, with the
fault applied over a mid-run window. Reported per cell: per-phase
(before/during/after) query success, latency and staleness for the
victim, the scheme's retry counters, the fault plane's injection
counters, and heartbeat detection/recovery times.

Paper-expected outcomes (asserted by ``tests/faults/test_chaos_matrix.py``):
RDMA-Sync and e-RDMA-Sync keep returning *fresh* load from a hung node
with zero failures; both socket schemes exceed their probe timeout for
the whole window; RDMA-Async survives but serves interval-stale data.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional

from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.faults import FaultPlane, parse_schedule
from repro.hw.cluster import build_cluster
from repro.monitoring import FrontendMonitor, QueryRecord, create_scheme
from repro.monitoring.heartbeat import HeartbeatMonitor, NodeHealth
from repro.sim.units import MILLISECOND as MS

SCHEMES = ("socket-async", "socket-sync", "rdma-async", "rdma-sync", "e-rdma-sync")
FAULT_KINDS = ("hang", "crash", "link", "partition", "verb-nak")

#: the standard probe discipline every cell runs with
PROBE_TIMEOUT = 2 * MS
PROBE_RETRIES = 2
PROBE_BACKOFF = 1 * MS
POLL_INTERVAL = 10 * MS


def schedule_for(fault: str, frontend: str, victim: str,
                 at: int, until: int) -> str:
    """The schedule text for one fault class over [at, until)."""
    if fault == "hang":
        return f"at {at} hang {victim}\nat {until} recover {victim}"
    if fault == "crash":
        return f"at {at} crash {victim}\nat {until} recover {victim}"
    if fault == "link":
        return (f"from {at} to {until} degrade-link {frontend} {victim} "
                f"latency=20 bw=0.1")
    if fault == "partition":
        return f"from {at} to {until} partition {frontend} | {victim}"
    if fault == "verb-nak":
        return f"from {at} to {until} verb-nak {victim} p=0.5"
    raise ValueError(f"unknown fault kind {fault!r}")


def _phase_stats(records, lo: int, hi: int) -> Dict[str, object]:
    """Victim-probe outcomes for probes *issued* in [lo, hi).

    Phased by issue time, not completion: a probe issued inside the
    fault window that exhausts its retry budget shortly after the fault
    lifts belongs to the fault, not to the recovery. Callers keep a
    guard band of one poll interval around each fault edge — a probe
    racing the exact injection instant is neither healthy nor faulted.
    """
    rs = [r for r in records if lo <= r.issued_at < hi]
    ok = [r for r in rs if r.ok]
    return {
        "queries": len(rs),
        "ok": len(ok),
        "failed": len(rs) - len(ok),
        "mean_latency_ms": (
            sum(r.latency for r in ok) / len(ok) / MS if ok else None),
        "max_staleness_ms": max((r.info.staleness for r in rs), default=0) / MS,
        "mean_attempts": (sum(r.attempts for r in rs) / len(rs) if rs else None),
    }


def run_cell(
    scheme_name: str,
    fault: str,
    seed: int = 1,
    fault_at: int = 500 * MS,
    fault_until: int = 1100 * MS,
    duration: int = 1600 * MS,
) -> Dict[str, object]:
    """One (scheme, fault) cell: deterministic fault window mid-run."""
    cfg = SimConfig(num_backends=2, master_seed=seed)
    cfg.monitor.probe_timeout = PROBE_TIMEOUT
    cfg.monitor.probe_retries = PROBE_RETRIES
    cfg.monitor.probe_backoff = PROBE_BACKOFF
    sim = build_cluster(cfg)
    victim = sim.backends[0].name
    plane = FaultPlane(sim, parse_schedule(
        schedule_for(fault, sim.frontend.name, victim, fault_at, fault_until)
    )).install()
    scheme = create_scheme(scheme_name, sim, interval=POLL_INTERVAL)
    victim_records: List[QueryRecord] = []

    def on_probe(record: QueryRecord) -> None:
        if record.backend == 0:
            victim_records.append(record)

    scheme.observers.append(on_probe)
    monitor = FrontendMonitor(scheme)
    monitor.start()
    heartbeat = HeartbeatMonitor(sim, interval=20 * MS, timeout=2 * MS,
                                 hung_after=2)
    sim.run(duration)

    detected = next(
        (t.time for t in heartbeat.transitions
         if t.backend == 0 and t.state is not NodeHealth.ALIVE), None)
    recovered = next(
        (t.time for t in heartbeat.transitions
         if t.backend == 0 and t.state is NodeHealth.ALIVE
         and t.time >= fault_until), None)
    return {
        "scheme": scheme_name,
        "fault": fault,
        "phases": {
            "before": _phase_stats(victim_records, 0, fault_at - POLL_INTERVAL),
            "during": _phase_stats(victim_records, fault_at + POLL_INTERVAL,
                                   fault_until - POLL_INTERVAL),
            "after": _phase_stats(victim_records, fault_until + POLL_INTERVAL,
                                  duration),
        },
        "counters": scheme.fault_stats(),
        "plane": plane.stats(),
        "heartbeat": {
            "detected_ms": None if detected is None else detected / MS,
            "recovered_ms": None if recovered is None else recovered / MS,
            "final_state": heartbeat.state[0].value,
        },
    }


def run(
    smoke: bool = False,
    seed: int = 1,
    schemes=SCHEMES,
    faults=FAULT_KINDS,
) -> ExperimentResult:
    """The full matrix (or a 2x2 smoke subset)."""
    if smoke:
        schemes = ("rdma-sync", "socket-sync")
        faults = ("hang", "crash")
    cells: List[Dict[str, object]] = []
    for fault in faults:
        for scheme_name in schemes:
            cells.append(run_cell(scheme_name, fault, seed=seed))
    result = ExperimentResult(
        name="fault_matrix",
        params={
            "seed": seed,
            "smoke": smoke,
            "probe_timeout_ms": PROBE_TIMEOUT / MS,
            "probe_retries": PROBE_RETRIES,
            "poll_interval_ms": POLL_INTERVAL / MS,
            "schemes": list(schemes),
            "faults": list(faults),
        },
        xs=list(faults),
        tables={"cells": cells},
        notes=(
            "Per-cell phases split victim-probe outcomes into "
            "before/during/after the fault window. The paper's robustness "
            "claim shows up as: hang -> RDMA-Sync/e-RDMA-Sync keep ok "
            "probes with sub-interval staleness while the socket schemes "
            "fail their bounded probes; crash/partition -> every scheme "
            "fails during the window and recovers after it; verb-nak -> "
            "only RDMA schemes see NAKs and retries."
        ),
    )
    # Headline series: during-window failure fraction per scheme, per fault.
    for scheme_name in schemes:
        series = []
        for fault in faults:
            cell = next(c for c in cells
                        if c["scheme"] == scheme_name and c["fault"] == fault)
            during = cell["phases"]["during"]
            total = during["queries"] or 1
            series.append(during["failed"] / total)
        result.series[scheme_name] = series
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="2 schemes x 2 faults only")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="write the result as JSON to this path")
    args = parser.parse_args(argv)
    result = run(smoke=args.smoke, seed=args.seed)
    payload = json.dumps(
        {
            "name": result.name,
            "params": result.params,
            "series": result.series,
            "tables": result.tables,
            "notes": result.notes,
        },
        indent=2, sort_keys=True, default=str,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
