"""Tests for LoadInfo records and the LoadCalculator."""

from repro.monitoring.loadinfo import LoadCalculator, LoadInfo


def snapshot(time, user=0, sys=0, irq=0, idle=0, **kw):
    """A two-CPU ``kern.load`` record (layout in repro.kernel.loadavg)."""
    gauges = [item for pair in kw.get("gauges", {}).items() for item in pair]
    return (
        time,
        0,  # ticks
        kw.get("nr_running", 1),
        kw.get("nr_threads", 5),
        kw.get("busy_cpus", 1),
        kw.get("runq_ema", 1.0),
        *kw.get("loadavg", (0.5, 0.4, 0.3)),
        0, 0,  # memory used, total
        0, 0,  # net rx, tx bytes
        2,  # CPUs
        user, sys, irq, idle,
        user, sys, irq, idle,
        *gauges,
    )


def test_staleness_computed():
    info = LoadInfo(backend="b", collected_at=100, received_at=150)
    assert info.staleness == 50


def test_staleness_never_negative():
    info = LoadInfo(backend="b", collected_at=200, received_at=150)
    assert info.staleness == 0


def test_irq_pressure_zero_without_detail():
    info = LoadInfo(backend="b", collected_at=0)
    assert info.irq_pressure == 0.0


def test_irq_pressure_sums_cpus():
    info = LoadInfo(backend="b", collected_at=0, irq_pending=(2, 3))
    assert info.irq_pressure == 5.0


def test_calculator_first_sample_uses_busy_fraction():
    calc = LoadCalculator("b")
    info = calc.compute(snapshot(1000, user=10))
    # First sample: both CPUs have user time > 0 -> busy fraction 1.0.
    assert info.cpu_util == 1.0
    assert info.backend == "b"
    assert info.collected_at == 1000


def test_calculator_derives_utilisation_from_deltas():
    calc = LoadCalculator("b")
    calc.compute(snapshot(0, user=0))
    # After 1000 ns, each CPU accumulated 500 ns busy -> 50 %.
    info = calc.compute(snapshot(1000, user=500))
    assert abs(info.cpu_util - 0.5) < 1e-9


def test_calculator_clamps_utilisation():
    calc = LoadCalculator("b")
    calc.compute(snapshot(0, user=0))
    info = calc.compute(snapshot(100, user=1000))  # impossible > 100 %
    assert info.cpu_util == 1.0


def test_calculator_attaches_irq_detail():
    calc = LoadCalculator("b")
    # (time, then per CPU: pending and handled per vector [TIMER, NIC,
    # CQ, IPI], softirq backlog, bottom halves executed)
    irq_stat = (
        0,
        0, 1, 0, 0, 0, 5, 0, 0, 2, 3,
        0, 0, 0, 0, 0, 9, 0, 0, 1, 4,
    )
    info = calc.compute(snapshot(0), irq_stat)
    assert info.irq_pending == (3, 1)
    assert info.irq_handled == (5, 9)


def test_calculator_copies_gauges():
    calc = LoadCalculator("b")
    info = calc.compute(snapshot(0, gauges={"connections": 7}))
    assert info.gauges == {"connections": 7}
    info = calc.compute(snapshot(10, gauges={"connections": 7, "queue": 2}))
    assert info.gauges == {"connections": 7, "queue": 2}
