"""Tests for the experiment result type and the wiring of a built cluster."""

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.experiments.common import ExperimentResult
from repro.monitoring import FrontendMonitor
from repro.sim.units import ms, seconds


def test_deploy_wires_everything():
    app = (ClusterBuilder(SimConfig(num_backends=3))
           .scheme("rdma-sync", interval=ms(25))
           .build())
    assert len(app.servers) == 3
    assert app.scheme.name == "rdma-sync"
    assert app.balancer.num_backends == 3
    assert app.admission is None
    app.run(seconds(1))
    assert app.monitor.polls > 20
    assert sorted(app.monitor.latest) == [0, 1, 2]


def test_deploy_extended_scheme_enables_irq_scoring():
    app = (ClusterBuilder(SimConfig(num_backends=1))
           .scheme("e-rdma-sync")
           .build())
    assert app.balancer.use_irq_pressure
    app2 = (ClusterBuilder(SimConfig(num_backends=1))
            .scheme("rdma-sync")
            .build())
    assert not app2.balancer.use_irq_pressure


def test_deploy_with_admission():
    app = (ClusterBuilder(SimConfig(num_backends=1))
           .with_admission(max_score=0.5)
           .build())
    assert app.admission is not None
    assert app.admission.max_score == 0.5
    assert app.dispatcher.admission is app.admission


def test_deploy_custom_workers():
    app = ClusterBuilder(SimConfig(num_backends=1)).workers(5).build()
    assert app.servers[0].workers == 5


def test_experiment_result_series_access():
    res = ExperimentResult(name="x", xs=[1, 2], series={"a": [1.0, 2.0]})
    assert res.series_of("a") == [1.0, 2.0]
    with pytest.raises(KeyError):
        res.series_of("missing")


def test_monitor_double_start_rejected():
    app = ClusterBuilder(SimConfig(num_backends=1)).build()
    with pytest.raises(RuntimeError):
        app.monitor.start()


def test_dispatcher_double_start_rejected():
    app = ClusterBuilder(SimConfig(num_backends=1)).build()
    with pytest.raises(RuntimeError):
        app.dispatcher.start()


def test_frontend_monitor_interval_validation():
    app = ClusterBuilder(SimConfig(num_backends=1)).build()
    with pytest.raises(ValueError):
        FrontendMonitor(app.scheme, interval=0)
