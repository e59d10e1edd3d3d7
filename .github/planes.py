"""Run the CI checks of one optional plane.

Usage, from the repository root::

    PYTHONPATH=src python .github/planes.py <plane>

``PLANES`` maps each plane to its steps, in order. A step is a name and
either a command (an argv list) or a Python function. The run stops at
the first failing step, as a CI job does.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import partial

PY = sys.executable


def pytest(*args: str) -> list:
    return ["pytest", *args]


def run_all(*args: str) -> list:
    return [PY, "-m", "repro.experiments.run_all", *args]


def bench(path: str) -> list:
    return pytest(path, "--benchmark-only", "-s")


def perfbench_smoke(workload: str) -> None:
    """One short benchmark run; its own result checks must pass."""
    out = subprocess.run(
        [PY, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    print(out, end="")
    if json.loads(out.splitlines()[-1]).get("correct") is not True:
        sys.exit("perfbench reported correct != true")


def three_level_fingerprint() -> None:
    """Same-seed runs of a three-level fabric at N=1024 are identical,
    and the root covers every back-end."""
    from repro.config import SimConfig
    from repro.federation import deploy_federation
    from repro.hw.cluster import build_cluster
    from repro.sim.units import ms

    def fingerprint(seed):
        cfg = SimConfig(num_backends=1024, master_seed=seed)
        cfg.federation.enabled = True
        cfg.federation.levels = 3
        cfg.federation.leaf_interval = ms(1)
        cfg.federation.root_interval = ms(1)
        sim = build_cluster(cfg)
        fedn = deploy_federation(sim)
        sim.run(ms(5))
        fp = (sim.env.processed_events, sim.env.now,
              tuple(sorted((i, info.collected_at, info.cpu_util)
                           for i, info in fedn.root.latest.items())))
        fedn.stop()
        return fp

    for seed in (1, 2, 3):
        a, b = fingerprint(seed), fingerprint(seed)
        assert a == b, f"seed {seed}: same-seed runs diverged"
        assert len(a[2]) == 1024, f"seed {seed}: root covers {len(a[2])}"
        print(f"seed {seed}: OK ({a[0]} events, 1024 covered)")


def perfetto_schema() -> None:
    """trace.json is valid Chrome trace-event JSON with span events."""
    from repro.tracing import validate_chrome_trace

    with open("trace.json") as f:
        doc = json.load(f)
    problems = validate_chrome_trace(doc)
    assert not problems, problems
    events = doc["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans, "no span events exported"
    for ev in spans[:1] + spans[-1:]:
        for key in ("ph", "ts", "pid", "tid", "name"):
            assert key in ev, (key, ev)
    print(f"OK: {len(events)} events ({len(spans)} spans) validate")


PLANES = {
    "faults": [
        ("Chaos + property tests with coverage gate",
         pytest("-q", "tests/faults", "tests/properties/test_fault_properties.py",
                "--cov=repro.faults", "--cov-report=term-missing",
                "--cov-fail-under=90")),
        ("Chaos matrix benchmark", bench("benchmarks/test_faults.py")),
    ],
    "federation": [
        ("Federation + property tests",
         pytest("-q", "tests/federation",
                "tests/properties/test_federation_properties.py",
                "tests/experiments/test_federation_scale.py")),
        ("Small-N federated sweep smoke", run_all("federation")),
        ("Flat-vs-federated benchmark (N up to 512)",
         bench("benchmarks/test_federation.py")),
    ],
    "congestion": [
        ("Congestion unit + behaviour + interaction tests",
         pytest("-q", "tests/hw/test_switch.py", "tests/congestion",
                "tests/transport/test_wqe_batch.py",
                "tests/properties/test_congestion_properties.py")),
        ("Small-N incast smoke", run_all("congestion")),
        ("Incast + scheme-matrix benchmark",
         bench("benchmarks/test_congestion.py")),
    ],
    "tenancy": [
        ("Tenancy unit + defense + workload + interaction tests",
         pytest("-q", "tests/tenancy", "tests/congestion/test_monitor_priority.py",
                "tests/properties/test_tenancy_properties.py")),
        ("Small tenant-matrix smoke", run_all("tenant_matrix")),
        ("Tenant-matrix benchmark (6 schemes x 4 attacks x defense)",
         bench("benchmarks/test_tenancy.py")),
    ],
    "replay": [
        ("Trace schema + synth + registry + scaler + membership tests",
         pytest("-q", "tests/workloads/test_traces.py",
                "tests/workloads/test_synth.py", "tests/workloads/test_registry.py",
                "tests/server/test_scaler.py", "tests/federation/test_membership.py")),
        ("Determinism fingerprint (replay/scaler off == absent)",
         pytest("-q", "tests/properties/test_replay_properties.py")),
        ("Small elastic-replay smoke", run_all("replay")),
        ("Elastic-replay benchmark (2 views x scaler on/off)",
         bench("benchmarks/test_replay.py")),
    ],
    "perf": [
        ("Determinism gate (golden fingerprints + engine ordering + verb and "
         "report allocations)",
         pytest("-q", "tests/test_golden_fingerprints.py", "tests/sim/test_pqueue.py",
                "tests/sim/test_engine_ordering.py",
                "tests/transport/test_verb_allocations.py",
                "tests/transport/test_report_allocations.py")),
        ("Repo benchmark smoke, flat poller (its result checks must pass)",
         partial(perfbench_smoke, "n8_planes")),
        ("Repo benchmark smoke, federated report path (its result checks must pass)",
         partial(perfbench_smoke, "n512_federated")),
    ],
    "core-scale": [
        ("Differential core conformance (legacy vs current engine)",
         pytest("-q", "tests/sim/test_core_differential.py",
                "tests/sim/test_engine_ordering.py")),
        ("3-seed determinism fingerprint (three-level fabric, N=1024)",
         three_level_fingerprint),
        ("Multiprocess runner smoke (2 workers, 2 seeds)",
         run_all("congestion", "--jobs", "2", "--seeds", "1,2")),
        ("N=1024 seed-robustness smoke tier",
         pytest("-q", "tests/test_seed_robustness.py::"
                "test_three_level_scale_smoke_n1024_under_any_seed")),
        ("Core A/B + N=4096 three-level benchmark",
         bench("benchmarks/test_perf_core.py")),
    ],
    "obs": [
        ("Format, registry, endpoint, snapshot and report tests",
         pytest("-q", "tests/obs", "tests/telemetry/test_export.py")),
        ("Scrape /metrics over HTTP and validate the exposition",
         [PY, "examples/metrics_endpoint.py", "e-rdma-sync", "1"]),
        ("Observability benchmark (3-seed byte-identity + job report)",
         bench("benchmarks/test_obs.py")),
    ],
    "tracing": [
        ("Trace a RUBiS burst and export Perfetto JSON",
         [PY, "examples/request_autopsy.py", "rdma-sync", "1", "--out", "trace.json"]),
        ("Validate the trace-event schema", perfetto_schema),
    ],
}


def main(argv: list) -> int:
    if len(argv) != 1 or argv[0] not in PLANES:
        print(f"usage: planes.py {{{','.join(PLANES)}}}", file=sys.stderr)
        return 2
    for name, step in PLANES[argv[0]]:
        print(f"::group::{name}", flush=True)
        if callable(step):
            step()
        else:
            code = subprocess.run(step).returncode
            if code:
                print(f"::error::{name} failed (exit {code})", flush=True)
                return code
        print("::endgroup::", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
