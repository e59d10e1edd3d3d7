"""Tests for the Zipf trace, background load and float app."""

import numpy as np
import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.sim.units import ms, seconds
from repro.workloads import create_workload
from repro.workloads.floatapp import FloatApp
from repro.workloads.zipf import ZipfWorkload, zipf_weights


def test_zipf_weights_normalised():
    w = zipf_weights(100, 0.8)
    assert abs(w.sum() - 1.0) < 1e-12
    assert len(w) == 100


def test_zipf_weights_monotone_decreasing():
    w = zipf_weights(50, 0.9)
    assert all(a >= b for a, b in zip(w, w[1:]))


def test_zipf_alpha_zero_is_uniform():
    w = zipf_weights(10, 0.0)
    assert np.allclose(w, 0.1)


def test_zipf_higher_alpha_more_skew():
    w_low = zipf_weights(1000, 0.25)
    w_high = zipf_weights(1000, 0.9)
    assert w_high[0] > w_low[0]
    # Mass in the top-10 documents grows with alpha.
    assert w_high[:10].sum() > w_low[:10].sum()


def test_zipf_weight_validation():
    with pytest.raises(ValueError):
        zipf_weights(0, 0.5)
    with pytest.raises(ValueError):
        zipf_weights(10, -1.0)


def test_zipf_sampling_matches_distribution():
    app = ClusterBuilder(SimConfig(num_backends=1)).scheme("rdma-sync").build()
    wl = ZipfWorkload(app.sim, app.dispatcher, alpha=0.9, num_documents=100)
    samples = [wl.sample_document() for _ in range(5000)]
    top = sum(1 for s in samples if s == 0) / len(samples)
    assert abs(top - wl.weights[0]) < 0.05


def test_zipf_clients_drive_requests():
    app = ClusterBuilder(SimConfig(num_backends=2)).scheme("rdma-sync").build()
    wl = ZipfWorkload(app.sim, app.dispatcher, alpha=0.5, num_clients=6,
                      think_time=ms(5))
    wl.start()
    app.run(seconds(2))
    docs = [r for r in app.dispatcher.stats.completed if r.workload == "zipf"]
    assert len(docs) > 40
    assert all(r.doc_id is not None for r in docs)


def test_zipf_cache_miss_rate_falls_with_alpha():
    rates = {}
    for alpha in (0.25, 0.95):
        app = (ClusterBuilder(SimConfig(num_backends=2))
               .scheme("rdma-sync")
               .build())
        wl = ZipfWorkload(app.sim, app.dispatcher, alpha=alpha, num_clients=8,
                          think_time=ms(3))
        wl.start()
        app.run(seconds(4))
        hits = sum(s.doc_cache.hits for s in app.servers)
        misses = sum(s.doc_cache.misses for s in app.servers)
        rates[alpha] = misses / max(1, hits + misses)
    assert rates[0.95] < rates[0.25], rates


def test_background_load_thread_split():
    sim = build_cluster(SimConfig(num_backends=2))
    node = sim.backends[0]
    before = node.sched.nr_threads()
    tasks = create_workload("background", sim, node=node, threads=8,
                            comm_fraction=0.5)
    assert len(tasks) == 8
    assert node.sched.nr_threads() == before + 8


def test_background_comm_generates_interrupts():
    sim = build_cluster(SimConfig(num_backends=2))
    node = sim.backends[0]
    create_workload("background", sim, node=node, threads=8, comm_fraction=1.0,
                    message_interval=ms(2))
    sim.run(seconds(1))
    assert node.nic.kernel_rx_packets > 100


def test_background_zero_threads():
    sim = build_cluster(SimConfig(num_backends=2))
    assert create_workload("background", sim, node=sim.backends[0], threads=0) == []
    with pytest.raises(ValueError):
        create_workload("background", sim, node=sim.backends[0], threads=-1)


def test_floatapp_unperturbed_delay_near_one():
    sim = build_cluster(SimConfig(num_backends=1))
    app = FloatApp(sim.backends[0], total_compute=ms(200))
    app.start()
    sim.run(seconds(1))
    assert app.finished
    assert 1.0 <= app.normalized_delay() < 1.02


def test_floatapp_perturbed_by_contention():
    sim = build_cluster(SimConfig(num_backends=1))
    node = sim.backends[0]
    app = FloatApp(node, total_compute=ms(200))
    app.start()

    def hog(k):
        while True:
            yield k.compute(ms(1))

    node.spawn("hog0", hog)
    node.spawn("hog1", hog)
    sim.run(seconds(3))
    assert app.finished
    assert app.normalized_delay() > 1.5


def test_floatapp_requires_finish():
    sim = build_cluster(SimConfig(num_backends=1))
    app = FloatApp(sim.backends[0], total_compute=seconds(10))
    app.start()
    sim.run(ms(50))
    with pytest.raises(RuntimeError):
        app.normalized_delay()


def test_floatapp_validation():
    sim = build_cluster(SimConfig(num_backends=1))
    with pytest.raises(ValueError):
        FloatApp(sim.backends[0], total_compute=0)
