"""Cluster builder: the paper's testbed in one call.

``build_cluster`` assembles one lightly-loaded front-end node plus N
back-end server nodes, all attached to a single non-blocking switch,
boots every kernel, and returns a :class:`ClusterSim` handle bundling
the environment, config, RNG registry and span tracer that every other
layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.config import SimConfig
from repro.hw.fabric import Fabric
from repro.hw.node import Node
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.tracing.span import SpanTracer


@dataclass
class ClusterSim:
    """Handle to a built cluster simulation."""

    env: Environment
    cfg: SimConfig
    rng: RngRegistry
    fabric: Fabric
    frontend: Node
    backends: List[Node] = field(default_factory=list)
    #: the client farm — one wide node standing in for the paper's eight
    #: dedicated client machines (never the bottleneck)
    clients: Node | None = None
    #: causal span tracer shared by every node (see repro.tracing)
    spans: SpanTracer | None = None
    #: fault-injection plane, set by FaultPlane.install() (see repro.faults)
    faults: object | None = None
    #: congestion plane, installed when cfg.congestion.enabled (see
    #: repro.congestion); None keeps the fabric byte-identical to history
    congestion: object | None = None
    #: tenancy plane, installed when cfg.tenancy.enabled (see
    #: repro.tenancy); None keeps verb posting byte-identical to history
    tenancy: object | None = None

    @property
    def nodes(self) -> List[Node]:
        """All nodes, front-end first."""
        out = [self.frontend, *self.backends]
        if self.clients is not None:
            out.append(self.clients)
        return out

    def node_by_name(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r}")

    #: monotonically increasing run-phase counter (names profile phases)
    _run_count: int = 0

    def run(self, until: int) -> None:
        """Advance the simulation to absolute time ``until``.

        With ``cfg.profile.enabled`` the advance is wrapped in its own
        cProfile session and a hotspot table for phase ``run<N>`` is
        printed on completion (see :mod:`repro.profiling`). Simulated
        time and event ordering are unaffected.
        """
        pcfg = self.cfg.profile
        if not pcfg.enabled:
            self.env.run(until=until)
            return
        from repro.profiling import profile_phase

        self._run_count += 1
        with profile_phase(pcfg, f"run{self._run_count}:t={until}"):
            self.env.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClusterSim backends={len(self.backends)} t={self.env.now}>"


def build_cluster(cfg: SimConfig | None = None) -> ClusterSim:
    """Build and boot the simulated cluster described by ``cfg``."""
    cfg = cfg if cfg is not None else SimConfig()
    cfg.validate()
    env = Environment()
    rng = RngRegistry(cfg.master_seed)
    spans = SpanTracer(
        env,
        rng=rng.stream("tracing"),
        sample_rate=cfg.tracing.sample_rate,
        max_spans=cfg.tracing.max_spans,
        enabled=cfg.tracing.enabled,
    )
    fabric = Fabric(env, cfg)

    frontend = Node(env, cfg, "frontend", 0)
    backends = [
        Node(env, cfg, f"backend{i}", i + 1)
        for i in range(cfg.num_backends)
    ]
    clients = Node(env, cfg, "clients", cfg.num_backends + 1,
                   num_cpus=cfg.client_cpus)
    for node in [frontend, *backends, clients]:
        fabric.attach(node.nic)
        node.span_tracer = spans
        node.boot()

    congestion = None
    if cfg.congestion.enabled:
        from repro.congestion.plane import CongestionPlane

        congestion = CongestionPlane(
            env, cfg, rng.stream("congestion"), spans=spans).install(fabric)

    tenancy = None
    if cfg.tenancy.enabled:
        from repro.tenancy.plane import TenancyPlane

        tenancy = TenancyPlane(env, cfg, spans=spans).install(
            fabric, [n.nic for n in [frontend, *backends, clients]])

    return ClusterSim(
        env=env,
        cfg=cfg,
        rng=rng,
        fabric=fabric,
        frontend=frontend,
        backends=backends,
        clients=clients,
        spans=spans,
        congestion=congestion,
        tenancy=tenancy,
    )
