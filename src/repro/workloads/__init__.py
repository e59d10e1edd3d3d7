"""Workload generators: RUBiS, Zipf, traces, background and tenant load.

Every generator is a registry entry: a :class:`WorkloadSpec`
instantiated by name through :func:`create_workload` — or, one level
up, through ``ClusterBuilder.workload(name, **kwargs)``, which starts it
as part of ``build()``. Keyword arguments are schema-audited with
did-you-mean hints, node-valued parameters accept either a
:class:`~repro.hw.node.Node` or a back-end index, and unknown workload
names raise with a suggestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import get_close_matches
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.config import audit_keywords
from repro.workloads.rubis import RUBIS_QUERIES, RubisWorkload, QueryClass
from repro.workloads.zipf import ZipfWorkload, zipf_weights
from repro.workloads.background import _spawn_background_load
from repro.workloads.floatapp import FloatApp
from repro.workloads.openloop import OpenLoopWorkload
from repro.workloads.tenants import (
    _spawn_cache_thrash_walker,
    _spawn_incast_tenants,
    _spawn_qp_churn_flood,
    _spawn_read_blaster,
)
from repro.workloads.traces import (
    TRACE_SCHEMA_VERSION,
    TraceEntry,
    TraceFormatError,
    TraceRecorder,
    TraceReplayer,
)
from repro.workloads.synth import (
    synthesize_diurnal,
    synthesize_flash_crowd,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload: how to build it and what it accepts."""

    name: str
    factory: Callable
    #: accepted keyword parameters (audited with did-you-mean)
    params: Tuple[str, ...]
    #: parameters that must be supplied
    required: Tuple[str, ...] = ()
    #: instance exposes ``.start()`` that must be called (class workloads)
    needs_start: bool = False
    #: factory signature is ``(sim, dispatcher, **kwargs)``
    needs_dispatcher: bool = False
    description: str = ""


#: name → spec; see :func:`register_workload`
WORKLOADS: Dict[str, WorkloadSpec] = {}


def register_workload(
    name: str,
    factory: Callable,
    *,
    params: Tuple[str, ...],
    required: Tuple[str, ...] = (),
    needs_start: bool = False,
    needs_dispatcher: bool = False,
    description: str = "",
) -> WorkloadSpec:
    """Register (or replace) a workload under ``name``."""
    spec = WorkloadSpec(name=name, factory=factory, params=tuple(params),
                        required=tuple(required), needs_start=needs_start,
                        needs_dispatcher=needs_dispatcher,
                        description=description)
    WORKLOADS[name] = spec
    return spec


def workload_names() -> List[str]:
    return sorted(WORKLOADS)


def get_workload_spec(name: str) -> WorkloadSpec:
    """The spec for ``name``; unknown names raise with a suggestion."""
    try:
        return WORKLOADS[name]
    except KeyError:
        matches = get_close_matches(name, WORKLOADS, n=1, cutoff=0.6)
        hint = f" — did you mean {matches[0]!r}?" if matches else ""
        raise KeyError(
            f"unknown workload {name!r}{hint} "
            f"(registered: {', '.join(workload_names())})") from None


def _audit_workload_kwargs(spec: WorkloadSpec, kwargs: dict) -> None:
    """Schema-audit create_workload keywords, with a did-you-mean hint."""
    audit_keywords(f"workload {spec.name!r}", kwargs, spec.params)
    missing = [k for k in spec.required if k not in kwargs]
    if missing:
        raise TypeError(
            f"workload {spec.name!r} missing required argument(s): "
            f"{', '.join(missing)}")


def _resolve_node(sim: "ClusterSim", value, param: str):
    """Node-valued parameters accept a Node or a back-end index."""
    if not isinstance(value, int):
        return value
    n = len(sim.backends)
    if isinstance(value, bool) or not 0 <= value < n:
        raise ValueError(f"{param} must be a Node or a back-end index "
                         f"in [0, {n}), got {value!r}")
    return sim.backends[value]


def _resolve_nodes(sim: "ClusterSim", values, param: str):
    return [_resolve_node(sim, v, param) for v in values]


def create_workload(name: str, sim: "ClusterSim", dispatcher=None, **kwargs):
    """Instantiate the registered workload ``name`` on ``sim``.

    Returns whatever the factory returns: spawned task(s) for the
    task-spawning generators, or a workload object (call
    ``.start()``, or let ``ClusterBuilder.workload`` do it) when the
    spec says ``needs_start``. Unknown names and keywords raise with
    did-you-mean hints; node-valued keywords accept back-end indices.
    """
    spec = get_workload_spec(name)
    _audit_workload_kwargs(spec, kwargs)
    if spec.needs_dispatcher:
        if dispatcher is None:
            raise TypeError(f"workload {name!r} needs a dispatcher")
        return spec.factory(sim, dispatcher, **kwargs)
    return spec.factory(sim, **kwargs)


# ----------------------------------------------------------------------
# the stock registry
# ----------------------------------------------------------------------
def _background(sim, node, **kw):
    return _spawn_background_load(sim, _resolve_node(sim, node, "node"), **kw)


def _incast(sim, target, sources, **kw):
    return _spawn_incast_tenants(sim, _resolve_node(sim, target, "target"),
                                 _resolve_nodes(sim, sources, "sources"), **kw)


def _qp_churn(sim, src, target, **kw):
    return _spawn_qp_churn_flood(sim, _resolve_node(sim, src, "src"),
                                 _resolve_node(sim, target, "target"), **kw)


def _read_blaster(sim, src, target, **kw):
    return _spawn_read_blaster(sim, _resolve_node(sim, src, "src"),
                               _resolve_node(sim, target, "target"), **kw)


def _cache_thrash(sim, src, target, **kw):
    return _spawn_cache_thrash_walker(sim, _resolve_node(sim, src, "src"),
                                      _resolve_node(sim, target, "target"),
                                      **kw)


def _float(sim, node, **kw):
    return FloatApp(_resolve_node(sim, node, "node"), **kw)


register_workload(
    "background", _background,
    params=("node", "threads", "comm_fraction", "compute_chunk",
            "message_interval", "message_bytes", "burst"),
    required=("node", "threads"),
    description="compute hogs + communication echo pairs (§5.1.1)")
register_workload(
    "incast", _incast,
    params=("target", "sources", "flows_per_source", "message_bytes",
            "interval", "label"),
    required=("target", "sources"),
    description="open-loop one-sided-write incast onto one port")
register_workload(
    "qp-churn", _qp_churn,
    params=("src", "target", "interval", "burst", "hold_max",
            "message_bytes", "start_after", "stop_after", "label"),
    required=("src", "target"),
    description="QP/CQ-exhaustion noisy-neighbor attack")
register_workload(
    "read-blaster", _read_blaster,
    params=("src", "target", "message_bytes", "interval", "flows",
            "start_after", "stop_after", "label"),
    required=("src", "target"),
    description="bandwidth-hog attack: open-loop large one-sided reads")
register_workload(
    "cache-thrash", _cache_thrash,
    params=("src", "target", "regions", "message_bytes", "interval",
            "start_after", "stop_after", "label"),
    required=("src", "target"),
    description="ICM context-cache thrash attack")
register_workload(
    "float", _float,
    params=("node", "total_compute", "chunk", "instances"),
    required=("node",), needs_start=True,
    description="fixed-budget compute app (perturbation probe)")
register_workload(
    "rubis", RubisWorkload,
    params=("num_clients", "think_time", "demand_cv", "burst_length",
            "idle_factor", "deadline", "persistence", "rng_name"),
    needs_start=True, needs_dispatcher=True,
    description="closed-loop RUBiS session emulator (Table 1 mix)")
register_workload(
    "zipf", ZipfWorkload,
    params=("alpha", "num_clients", "think_time", "num_documents",
            "burst_length", "idle_factor", "rng_name"),
    needs_start=True, needs_dispatcher=True,
    description="Zipf document trace with per-node LRU caches (Fig 7)")
register_workload(
    "openloop", OpenLoopWorkload,
    params=("rate_rps", "deadline", "demand_cv", "injectors", "rng_name"),
    required=("rate_rps",), needs_start=True, needs_dispatcher=True,
    description="Poisson open-loop RUBiS-mix arrivals at a fixed rate")
register_workload(
    "replay", TraceReplayer,
    params=("trace", "time_scale", "load_scale", "injectors",
            "drain_timeout"),
    required=("trace",), needs_start=True, needs_dispatcher=True,
    description="open-loop replay of a recorded/synthesised trace")


__all__ = [
    "FloatApp",
    "OpenLoopWorkload",
    "QueryClass",
    "RUBIS_QUERIES",
    "RubisWorkload",
    "TRACE_SCHEMA_VERSION",
    "TraceEntry",
    "TraceFormatError",
    "TraceRecorder",
    "TraceReplayer",
    "WORKLOADS",
    "WorkloadSpec",
    "ZipfWorkload",
    "create_workload",
    "get_workload_spec",
    "register_workload",
    "synthesize_diurnal",
    "synthesize_flash_crowd",
    "workload_names",
    "zipf_weights",
]
