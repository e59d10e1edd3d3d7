"""Export determinism and dashboard rendering."""

import json

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.monitoring.heartbeat import HealthRecord, NodeHealth
from repro.monitoring.loadinfo import LoadInfo
from repro.sim.units import MILLISECOND, SECOND
from repro.telemetry.alerts import shard_alert_id, tenant_alert_id
from repro.telemetry.digest import StreamingDigest
from repro.telemetry.export import (NO_DATA, _round, dashboard, sparkline,
                                    to_jsonl, write_jsonl)
from repro.telemetry.pipeline import TelemetryPipeline
from repro.workloads.rubis import RubisWorkload


def fill_pipeline(values=(0.2, 0.5, 0.97, 0.3)) -> TelemetryPipeline:
    pipe = TelemetryPipeline(metrics=("cpu_util", "runq_load", "staleness"))
    for backend in (0, 1):
        for t, v in enumerate(values):
            pipe.observe(backend, LoadInfo(
                backend=f"backend{backend}", collected_at=t * 1000,
                received_at=t * 1000 + 500, cpu_util=v, runq_load=v * 4,
            ))
    pipe.engine.observe_health(HealthRecord(5000, 1, NodeHealth.DEAD))
    return pipe


def test_jsonl_is_valid_and_complete():
    out = to_jsonl(fill_pipeline())
    lines = [json.loads(line) for line in out.strip().split("\n")]
    kinds = [obj["kind"] for obj in lines]
    assert kinds[0] == "meta"
    assert kinds.count("metric") == 6  # 2 backends x 3 metrics
    assert "alert" in kinds
    meta = lines[0]
    assert meta["observations"] == 8
    metric_keys = [obj["key"] for obj in lines if obj["kind"] == "metric"]
    assert metric_keys == sorted(metric_keys)


def test_jsonl_deterministic_across_identical_runs():
    assert to_jsonl(fill_pipeline()) == to_jsonl(fill_pipeline())


def test_jsonl_deterministic_for_same_seed_simulation():
    """Same seed, fresh simulation → byte-identical export."""

    def run_once():
        app = (ClusterBuilder(SimConfig(num_backends=2, master_seed=77))
               .scheme("rdma-sync", interval=50 * MILLISECOND)
               .with_telemetry()
               .build())
        RubisWorkload(app.sim, app.dispatcher, num_clients=8,
                      think_time=3 * MILLISECOND).start()
        app.run(1 * SECOND)
        return to_jsonl(app.telemetry)

    assert run_once() == run_once()


def test_write_jsonl_roundtrip(tmp_path):
    pipe = fill_pipeline()
    path = tmp_path / "telemetry.jsonl"
    write_jsonl(pipe, path)
    assert path.read_text() == to_jsonl(pipe)


def test_sparkline_shapes():
    assert sparkline([]) == NO_DATA
    assert sparkline([1.0, 1.0, 1.0]) == "   "
    ramp = sparkline([0.0, 0.5, 1.0])
    assert len(ramp) == 3
    assert ramp[0] == " " and ramp[-1] == "@"
    assert len(sparkline(list(range(1000)), width=48)) == 48


def test_sparkline_nan_handling():
    nan = float("nan")
    # all-NaN and empty windows are explicit, not empty or raising
    assert sparkline([nan, nan, nan]) == NO_DATA
    # isolated NaN renders as a visible gap, neighbours keep their scale
    ramp = sparkline([0.0, nan, 1.0])
    assert ramp == " ?@"
    # infinities clamp to the ramp ends without poisoning the scale
    assert sparkline([0.0, float("inf"), 1.0])[1] == "@"
    assert sparkline([0.0, float("-inf"), 1.0])[1] == " "


def test_round_non_finite_is_json_null():
    nan = float("nan")
    assert _round(nan) is None
    assert _round(float("inf")) is None
    assert _round(float("-inf")) is None
    # the whole document must stay parseable JSON even if a digest
    # ever surfaces a non-finite summary value
    assert json.loads(json.dumps({"v": _round(nan)})) == {"v": None}


def test_dashboard_sections():
    out = dashboard(fill_pipeline())
    assert "TELEMETRY DASHBOARD" in out
    assert "Per-backend load digests" in out
    assert "backend0" in out and "backend1" in out
    assert "cpu p95" in out
    assert "Alert log" in out
    assert "heartbeat-miss" in out
    assert "Raised by rule:" in out
    assert "Retention: observations=8" in out


def test_alert_log_names_shard_and_tenant_subjects():
    pipe = TelemetryPipeline()
    for t, alert_id in enumerate((3, shard_alert_id(0), tenant_alert_id(2))):
        pipe.engine.observe(alert_id, t, {"cpu_util": 0.97})
    subjects = [a.describe().split()[1] for a in pipe.engine.log]
    assert subjects == ["backend3", "shard0", "tenant2"]
    log = dashboard(pipe).split("Alert log", 1)[1]
    for subject in subjects:
        assert f" {subject} " in log
    assert "backend-" not in log


def test_dashboard_empty_pipeline():
    out = dashboard(TelemetryPipeline())
    assert "Alert log: empty" in out
    assert f"Per-backend load digests: {NO_DATA}" in out
    assert "Retention: observations=0 retained=0 dropped=0" in out


def test_dashboard_empty_digest_shows_no_data():
    """A digest that exists but has seen no samples must not render its
    0.0 placeholder quantiles as measurements."""
    pipe = TelemetryPipeline(metrics=("cpu_util",))
    pipe.observe(0, LoadInfo(backend="backend0", collected_at=0,
                             received_at=500, cpu_util=0.4, runq_load=1.0))
    pipe._digests["b1.cpu_util"] = StreamingDigest()
    out = dashboard(pipe)
    backend1_row = next(line for line in out.splitlines()
                        if line.startswith("backend1"))
    assert NO_DATA in backend1_row
    assert "0.00" not in backend1_row


def test_dashboard_surfaces_dropped_counter():
    pipe = TelemetryPipeline(metrics=("cpu_util",), capacity=4)
    for t in range(16):
        pipe.observe(0, LoadInfo(backend="backend0", collected_at=t * 1000,
                                 received_at=t * 1000 + 1, cpu_util=0.5,
                                 runq_load=1.0))
    out = dashboard(pipe)
    assert "dropped=12" in out
