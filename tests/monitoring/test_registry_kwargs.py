"""Normalized scheme constructors and registry keyword validation."""

import inspect

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.monitoring.registry import (
    ALL_SCHEME_NAMES,
    create_scheme,
    scheme_class,
    scheme_options,
)
from repro.sim.units import ms


@pytest.fixture
def sim():
    return build_cluster(SimConfig(num_backends=2))


def test_all_constructors_are_keyword_only():
    for name in ALL_SCHEME_NAMES:
        params = inspect.signature(scheme_class(name).__init__).parameters
        for pname, param in params.items():
            if pname in ("self", "sim"):
                continue
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, (name, pname)


def test_common_signature_subset():
    # Every scheme accepts the normalized base pair.
    for name in ALL_SCHEME_NAMES:
        options = scheme_options(name)
        assert "interval" in options, name
        assert "with_irq_detail" in options, name


def test_positional_scheme_args_rejected(sim):
    for name in ALL_SCHEME_NAMES:
        with pytest.raises(TypeError):
            scheme_class(name)(sim, ms(10))


def test_unknown_kwarg_names_the_scheme(sim):
    with pytest.raises(TypeError) as exc:
        create_scheme("rdma-sync", sim, with_irqs=True)
    msg = str(exc.value)
    assert "'rdma-sync'" in msg and "RdmaSyncScheme" in msg
    assert "with_irqs" in msg
    assert "with_irq_detail" in msg  # ... and what it does accept


def test_known_kwarg_forwarded(sim):
    # rdma-sync maps with_irq_detail onto its read_irq_stat behaviour flag
    scheme = create_scheme("rdma-sync", sim, interval=ms(10),
                           with_irq_detail=True, deploy=False)
    assert scheme.read_irq_stat is True
    assert scheme.interval == ms(10)
    assert create_scheme("rdma-sync", sim, deploy=False).read_irq_stat is False


def test_unknown_scheme_name_still_valueerror(sim):
    with pytest.raises(ValueError, match="unknown scheme"):
        create_scheme("carrier-pigeon", sim)


def test_e_rdma_sync_forces_irq_detail(sim):
    scheme = create_scheme("e-rdma-sync", sim, with_irq_detail=False,
                           deploy=False)
    assert scheme.read_irq_stat is True


def test_unknown_kwarg_gets_a_suggestion(sim):
    with pytest.raises(TypeError, match="did you mean 'with_irq_detail'"):
        create_scheme("rdma-sync", sim, with_irq_detial=True)
