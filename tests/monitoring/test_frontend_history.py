"""FrontendMonitor chunked history trim: exact accounting + observer fan-out.

The bounded history lets the list grow to 2x the limit and slices back —
amortised O(1) per record. These tests pin the exact ``history_dropped``
accounting across multiple grow/slice-back cycles and that the observer
fires for *every* delivered report, trimmed or not.
"""

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring import FrontendMonitor, create_scheme
from repro.monitoring.loadinfo import LoadInfo
from repro.sim.units import ms


def _info(i, t=0):
    return LoadInfo(
        backend=f"backend{i}", collected_at=t, received_at=t, nr_threads=1,
        nr_running=0, runq_load=0.0, cpu_util=0.0, busy_cpus=0,
        loadavg1=0.0, mem_util=0.0, net_rate_mbps=0.0, gauges={},
    )


def _monitor(history_limit):
    """A FrontendMonitor whose _record we drive directly (never started)."""
    sim = build_cluster(SimConfig(num_backends=2))
    scheme = create_scheme("rdma-sync", sim, interval=ms(10))
    return FrontendMonitor(scheme, history_limit=history_limit)


def test_chunked_trim_exact_accounting_across_cycles():
    mon = _monitor(history_limit=10)
    delivered = []
    mon.observers.append(lambda i, info: delivered.append((i, info)))

    for n in range(35):
        mon._record(n % 2, _info(n % 2, t=n))

    # Appends 1..19 leave the list under 2x10; append 20 trims to 10
    # (drops 10); grows to 19 again; append 30 trims (drops 10 more);
    # appends 31..35 leave 15 entries.
    assert mon.history_dropped == 20
    assert len(mon.history) == 15
    # The retained tail is exactly the newest 15 reports, in order.
    assert [info.collected_at for _, info in mon.history] == list(range(20, 35))
    # The observer saw every report, including the 20 trimmed ones.
    assert len(delivered) == 35
    assert [info.collected_at for _, info in delivered] == list(range(35))
    # latest still tracks the freshest report per backend.
    assert mon.latest[0].collected_at == 34
    assert mon.latest[1].collected_at == 33


def test_trim_boundary_is_exactly_two_times_limit():
    mon = _monitor(history_limit=5)
    for n in range(9):
        mon._record(0, _info(0, t=n))
    assert len(mon.history) == 9 and mon.history_dropped == 0
    mon._record(0, _info(0, t=9))  # the 10th append crosses 2x5
    assert len(mon.history) == 5
    assert mon.history_dropped == 5
    assert [info.collected_at for _, info in mon.history] == [5, 6, 7, 8, 9]


def test_unbounded_history_never_drops():
    mon = _monitor(history_limit=0)
    for n in range(100):
        mon._record(0, _info(0, t=n))
    assert len(mon.history) == 100
    assert mon.history_dropped == 0
