"""Tests for node composition and the cluster builder."""

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.hw.node import KERN_IRQSTAT_BYTES, KERN_LOAD_BYTES
from repro.kernel.loadavg import JIFFIES, JIFFY_FIELDS, NR_THREADS, NUM_CPUS
from repro.sim.units import ms


def test_cluster_topology():
    sim = build_cluster(SimConfig(num_backends=3))
    assert len(sim.backends) == 3
    assert sim.frontend.name == "frontend"
    assert sim.clients is not None and sim.clients.name == "clients"
    assert len(sim.nodes) == 5


def test_all_nics_attached():
    sim = build_cluster(SimConfig(num_backends=2))
    for node in sim.nodes:
        assert node.nic.fabric is sim.fabric


def test_client_farm_cpu_override():
    cfg = SimConfig(num_backends=1, client_cpus=6)
    sim = build_cluster(cfg)
    assert sim.clients.num_cpus == 6
    assert sim.backends[0].num_cpus == cfg.cpu.num_cpus


def test_live_kernel_regions_mapped_at_boot():
    sim = build_cluster(SimConfig(num_backends=1))
    be = sim.backends[0]
    load = be.memory.get("kern.load")
    irq = be.memory.get("kern.irq_stat")
    assert load.is_live and load.nbytes == KERN_LOAD_BYTES
    assert irq.is_live and irq.nbytes == KERN_IRQSTAT_BYTES
    snap = load.read()
    assert snap[NUM_CPUS] == be.num_cpus
    assert len(snap) == JIFFIES + JIFFY_FIELDS * be.num_cpus
    assert snap[NR_THREADS] == be.sched.nr_threads()


def test_node_by_name():
    sim = build_cluster(SimConfig(num_backends=2))
    assert sim.node_by_name("backend1").index == 2
    with pytest.raises(KeyError):
        sim.node_by_name("nope")


def test_boot_is_idempotent():
    sim = build_cluster(SimConfig(num_backends=1))
    be = sim.backends[0]
    threads = be.sched.nr_threads()
    be.boot()  # second boot: no duplicate ksoftirqd / regions
    assert be.sched.nr_threads() == threads


def test_ticks_advance_on_every_node():
    sim = build_cluster(SimConfig(num_backends=2))
    sim.run(ms(105))
    for node in sim.nodes:
        assert node.loadacct.ticks == 10, node.name


def test_invalid_cluster_rejected():
    with pytest.raises(ValueError):
        build_cluster(SimConfig(num_backends=0))


def test_node_cpu_validation():
    from repro.hw.node import Node
    from repro.sim.engine import Environment

    with pytest.raises(ValueError):
        Node(Environment(), SimConfig(), "bad", 0, num_cpus=0)


def test_cpu_utilisation_view():
    sim = build_cluster(SimConfig(num_backends=1))
    be = sim.backends[0]
    assert be.cpu_utilisation() == 0.0

    def hog(k):
        while True:
            yield k.compute(ms(1))

    be.spawn("hog", hog)
    sim.run(ms(10))
    assert be.cpu_utilisation() == 0.5


def test_cpuinfo_records():
    sim = build_cluster(SimConfig(num_backends=1))
    be = sim.backends[0]
    info = be.cpu_models[0].cpuinfo()
    assert info["processor"] == 0
    assert "Xeon" in info["model name"]
