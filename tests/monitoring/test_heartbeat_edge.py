"""Edge cases for the heartbeat monitor."""

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring.heartbeat import HeartbeatMonitor, NodeHealth
from repro.sim.units import ms, seconds
from repro.workloads import create_workload


def test_stop_halts_probing(cluster2):
    hb = HeartbeatMonitor(cluster2, interval=ms(20))
    cluster2.run(ms(300))
    hb.stop()
    probes = hb.probes
    cluster2.run(cluster2.env.now + ms(500))
    assert hb.probes <= probes + len(cluster2.backends)


def test_no_transitions_recorded_when_stable(cluster2):
    hb = HeartbeatMonitor(cluster2, interval=ms(20))
    cluster2.run(seconds(2))
    assert hb.transitions == []


def test_hung_detection_respects_hung_after(cluster2):
    """With a high hung_after, detection takes proportionally longer."""
    hb = HeartbeatMonitor(cluster2, interval=ms(20), hung_after=5)
    cluster2.run(ms(200))
    cluster2.backends[0].fail("hung")
    fail_at = cluster2.env.now
    cluster2.run(fail_at + ms(60))
    # Too early: fewer than hung_after frozen probes seen.
    assert hb.state[0] is NodeHealth.ALIVE
    cluster2.run(fail_at + ms(400))
    assert hb.state[0] is NodeHealth.HUNG


def test_heartbeat_under_heavy_backend_load(cluster2):
    """Load must never be mistaken for failure (the paper's robustness)."""
    create_workload("background", cluster2, node=cluster2.backends[0],
                    threads=32)
    hb = HeartbeatMonitor(cluster2, interval=ms(20))
    cluster2.run(seconds(3))
    assert hb.state[0] is NodeHealth.ALIVE
    assert hb.transitions == []
