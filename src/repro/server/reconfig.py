"""Dynamic server reconfiguration (the paper's §7 future work).

"We plan to extend the knowledge gained in this study to implement a
full-fledged reconfiguration module coupled with accurate resource
monitoring." — this module is that extension, in the style of the
authors' earlier shared-data-center work ([8, 9] in the paper).

Two services share the cluster; each back-end is assigned to one pool.
The :class:`ReconfigurationManager` watches the per-pool load through a
monitoring scheme and migrates a server from the under-loaded pool to
the overloaded one when the imbalance persists. Reaction time — and
therefore how much load a burst dumps on an overwhelmed pool — is
bounded below by the monitoring granularity and staleness, so the
quality of the monitoring scheme is directly measurable as
reconfiguration lag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set

from repro.monitoring.loadinfo import LoadInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim
    from repro.monitoring.base import MonitoringScheme


def load_score(info) -> float:
    """One back-end's scalar load: run-queue pressure blended with CPU.

    The formula the pool rebalancer has always used, shared with the
    elastic scaler so both reconfiguration policies agree on what
    "loaded" means. ``info`` only needs ``runq_load`` and ``cpu_util``
    (duck-typed — coarse Ganglia-derived views qualify too).
    """
    return min(1.0, info.runq_load / 8.0) * 0.5 + info.cpu_util * 0.5


@dataclass
class ReconfigEvent:
    """One pool-membership change."""

    time: int
    backend: int
    from_pool: str
    to_pool: str
    trigger_load: float


class ReconfigurationManager:
    """Threshold-based pool rebalancer driven by monitored load."""

    def __init__(
        self,
        scheme: "MonitoringScheme",
        pools: Dict[str, List[int]],
        interval: Optional[int] = None,
        high_water: float = 0.75,
        low_water: float = 0.35,
        min_pool_size: int = 1,
        cooldown: int = 0,
    ) -> None:
        """``pools``: initial pool name → list of backend indices.

        A backend migrates from the pool whose mean load is below
        ``low_water`` to one above ``high_water``; ``cooldown`` ns must
        elapse between consecutive migrations.
        """
        if not pools or any(not members for members in pools.values()):
            raise ValueError("every pool needs at least one backend")
        seen: set = set()
        for members in pools.values():
            for b in members:
                if b in seen:
                    raise ValueError(f"backend {b} assigned to two pools")
                seen.add(b)
        if not 0 <= low_water < high_water:
            raise ValueError("need 0 <= low_water < high_water")
        self.scheme = scheme
        self.pools: Dict[str, List[int]] = {k: list(v) for k, v in pools.items()}
        self.interval = interval if interval is not None else scheme.interval
        self.high_water = high_water
        self.low_water = low_water
        self.min_pool_size = min_pool_size
        self.cooldown = cooldown
        self.events: List[ReconfigEvent] = []
        self._last_move = -(10**18)
        self._stopped = False
        scheme.frontend.spawn("reconfig-manager", self._body)

    # ------------------------------------------------------------------
    def pool_of(self, backend: int) -> Optional[str]:
        for name, members in self.pools.items():
            if backend in members:
                return name
        return None

    def members(self, pool: str) -> List[int]:
        return list(self.pools[pool])

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    def _pool_load(self, infos: Dict[int, LoadInfo], pool: str) -> float:
        members = self.pools[pool]
        loads = [load_score(infos[i]) for i in members if i in infos]
        return sum(loads) / len(loads) if loads else 0.0

    def _body(self, k):
        while not self._stopped:
            infos = yield from self.scheme.query_all(k)
            self._maybe_migrate(k.now, infos)
            yield k.sleep(self.interval)

    def _maybe_migrate(self, now: int, infos: Dict[int, LoadInfo]) -> None:
        if now - self._last_move < self.cooldown:
            return
        loads = {name: self._pool_load(infos, name) for name in self.pools}
        hot = max(loads, key=lambda n: loads[n])
        cold = min(loads, key=lambda n: loads[n])
        if hot == cold:
            return
        if loads[hot] < self.high_water or loads[cold] > self.low_water:
            return
        if len(self.pools[cold]) <= self.min_pool_size:
            return
        # Move the least-loaded member of the cold pool to the hot pool.
        donor = min(
            self.pools[cold],
            key=lambda i: infos[i].cpu_util if i in infos else 0.0,
        )
        self.pools[cold].remove(donor)
        self.pools[hot].append(donor)
        self._last_move = now
        self.events.append(
            ReconfigEvent(now, donor, cold, hot, loads[hot])
        )


@dataclass
class ScaleEvent:
    """One elastic membership change."""

    time: int
    direction: str  # "up" | "down"
    backend: int
    mean_load: float
    active_after: int


class ElasticScaler:
    """Watermark-driven elastic sizing of the serving set.

    The §7 reconfiguration vision, applied to capacity instead of pool
    membership: a reserve of **parked** back-ends is held out of
    dispatch, and the scaler releases them (scale *up*) or returns the
    most recently added server to the reserve (scale *down*) as the
    mean load of the active set crosses the watermarks. Reaction time
    is bounded below by the staleness of the driving view, so the same
    flash crowd measurably separates fine-grained RDMA monitoring from
    gmetad-grade polling (``experiments/elastic_replay.py``).

    ``view`` is duck-typed: anything with a ``latest`` mapping of
    global back-end index → an object with ``runq_load``/``cpu_util``
    qualifies — the flat :class:`~repro.monitoring.frontend.FrontendMonitor`,
    a federated root, or a :class:`~repro.ganglia.view.GangliaLoadView`.

    The scaler implements the dispatcher's health contract
    (``healthy_backends()`` / ``quarantined()``), chaining an optional
    ``health`` provider (the heartbeat monitor), so parked back-ends
    are excluded from routing through the existing recover/quarantine
    machinery rather than a parallel one. With a ``federation``
    deployed, every membership change quarantines/releases the
    back-end in the shard topology — triggering its ``rebalance`` so
    leaves stop (or resume) polling it. Each change emits a
    ``scale:up``/``scale:down`` span and an observer event (telemetry's
    ``scaler.*`` series and the obs collectors hook in there).

    ``interval`` is the evaluation period (``None``: the monitoring
    interval); ``initial_active`` (back-ends serving at t=0) and
    ``max_active`` default to every back-end when 0; ``up_after`` /
    ``down_after`` count consecutive evaluations past a watermark, and
    ``cooldown`` ns must pass between membership changes.
    """

    def __init__(
        self,
        sim: "ClusterSim",
        view,
        interval: Optional[int] = None,
        high_water: float = 0.75,
        low_water: float = 0.35,
        initial_active: int = 0,
        min_active: int = 1,
        max_active: int = 0,
        up_after: int = 1,
        down_after: int = 3,
        cooldown: int = 0,
        federation=None,
        health=None,
    ) -> None:
        n = len(sim.backends)
        if interval is None:
            interval = sim.cfg.monitor.interval
        if interval <= 0:
            raise ValueError("scaler interval must be positive")
        if not 0 <= low_water < high_water:
            raise ValueError("need 0 <= low_water < high_water")
        if min_active < 1:
            raise ValueError("min_active must be >= 1")
        max_active = max_active or n
        if not min_active <= max_active <= n:
            raise ValueError("need min_active <= max_active <= num_backends")
        initial_active = initial_active or n
        if not min_active <= initial_active <= max_active:
            raise ValueError("initial_active must lie within [min, max]_active")
        if up_after < 1 or down_after < 1:
            raise ValueError("up_after/down_after must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.sim = sim
        self.view = view
        self.interval = interval
        self.high_water = high_water
        self.low_water = low_water
        self.min_active = min_active
        self.max_active = max_active
        self.cooldown = cooldown
        self.up_after = up_after
        self.down_after = down_after
        self.federation = federation
        self.health = health
        #: called in order with each evaluation and scale-move event dict
        self.observers: List[Callable[[dict], None]] = []
        #: serving set (low indices first, like the static assignment)
        self.active: Set[int] = set(range(initial_active))
        #: the reserve, released lowest-index first
        self.parked: Set[int] = set(range(initial_active, n))
        self.events: List[ScaleEvent] = []
        #: mean active load at the latest evaluation (None before the first)
        self.mean_load: Optional[float] = None
        self.evaluations = 0
        self._over = 0
        self._under = 0
        self._last_move = -(10**18)
        self._stopped = False
        if federation is not None:
            # Park the reserve in the shard topology so leaves never
            # poll it; one rebalance covers the whole initial parking.
            for b in sorted(self.parked):
                federation.topology.quarantined.add(b)
            if self.parked:
                federation.topology.rebalance()
        sim.frontend.spawn("elastic-scaler", self._body)

    def stop(self) -> None:
        self._stopped = True

    # -- dispatcher health contract ------------------------------------
    def healthy_backends(self) -> List[int]:
        """Active back-ends, intersected with the chained health view."""
        active = sorted(self.active)
        if self.health is not None:
            alive = set(self.health.healthy_backends())
            active = [b for b in active if b in alive]
        return active

    def quarantined(self) -> List[int]:
        """Parked back-ends plus whatever the chained health holds out."""
        out = set(self.parked)
        if self.health is not None:
            out.update(self.health.quarantined())
        return sorted(out)

    # ------------------------------------------------------------------
    def mean_active_load(self) -> Optional[float]:
        """Mean :func:`load_score` over active members the view covers.

        ``None`` while the view covers *no* active member (cold-start:
        the first Ganglia aggregation cycle has not landed yet) — the
        scaler must not mistake "no data" for "idle" and park half the
        pool before the first real sample arrives.
        """
        infos = self.view.latest
        loads = [load_score(infos[b]) for b in self.active if b in infos]
        return sum(loads) / len(loads) if loads else None

    def _body(self, k):
        while not self._stopped:
            self._evaluate(k.now)
            yield k.sleep(self.interval)

    def _evaluate(self, now: int) -> None:
        mean = self.mean_active_load()
        if mean is None:
            return  # no coverage yet: not an observation of idleness
        self.evaluations += 1
        self.mean_load = mean
        if self.observers:
            event = {"kind": "eval", "t": now, "mean_load": mean,
                     "active": len(self.active)}
            for fn in self.observers:
                fn(event)
        if mean > self.high_water:
            self._over += 1
            self._under = 0
        elif mean < self.low_water:
            self._under += 1
            self._over = 0
        else:
            self._over = self._under = 0
        if now - self._last_move < self.cooldown:
            return
        if self._over >= self.up_after and self.parked \
                and len(self.active) < self.max_active:
            self._scale("up", min(self.parked), mean, now)
        elif self._under >= self.down_after \
                and len(self.active) > self.min_active:
            self._scale("down", max(self.active), mean, now)

    def _scale(self, direction: str, backend: int, mean: float, now: int) -> None:
        if direction == "up":
            self.parked.discard(backend)
            self.active.add(backend)
        else:
            self.active.discard(backend)
            self.parked.add(backend)
        self._over = self._under = 0
        self._last_move = now
        event = ScaleEvent(now, direction, backend, mean, len(self.active))
        self.events.append(event)
        if self.federation is not None:
            topo = self.federation.topology
            if direction == "up":
                topo.release(backend)
            else:
                topo.quarantine(backend)
        tracer = getattr(self.sim, "spans", None)
        if tracer is not None and tracer.enabled:
            span = tracer.start_trace(
                f"scale:{direction}", node=self.sim.frontend.name,
                component="scaler",
                attrs={"backend": backend, "mean_load": round(mean, 4),
                       "active": len(self.active)})
            tracer.end(span)
        if self.observers:
            event = {"kind": "scale", "t": now, "direction": direction,
                     "backend": backend, "mean_load": mean,
                     "active": len(self.active)}
            for fn in self.observers:
                fn(event)


class PooledBalancer:
    """Routes each request to its service's pool via an inner balancer.

    Wraps a :class:`~repro.server.loadbalancer.LeastLoadedBalancer`-style
    scorer but restricts candidates to the live members of the service's
    pool as maintained by the :class:`ReconfigurationManager`.
    """

    def __init__(self, inner, manager: ReconfigurationManager, service_of) -> None:
        """``service_of(request) -> pool name``."""
        self.inner = inner
        self.manager = manager
        self.service_of = service_of
        self._current_request = None

    # Dispatcher protocol -------------------------------------------------
    def set_request(self, request) -> None:
        self._current_request = request

    def choose(self, loads: Dict[int, LoadInfo],
               exclude: Optional[Sequence[int]] = None) -> int:
        """Pick within the request's pool; ``exclude`` is the dispatcher's
        health re-pick, honoured while any other pool member remains."""
        request = self._current_request
        pool = self.service_of(request) if request is not None else None
        members = (
            self.manager.members(pool)
            if pool is not None and pool in self.manager.pools
            else None
        )
        if not members:
            return self.inner.choose(loads, exclude)
        excluded = set(exclude) if exclude else set()
        allowed = [i for i in members if i not in excluded] or members
        restricted = {i: info for i, info in loads.items() if i in members}
        if not restricted:
            # No data for this pool yet: rotate within the pool.
            idx = self.inner.choose({})
            return allowed[idx % len(allowed)]
        choice = self.inner.choose(restricted, exclude)
        if choice not in allowed:
            # Inner fell back outside the pool: clamp.
            choice = min(
                allowed,
                key=lambda i: self.inner.score(loads[i]) if i in loads else 0.0,
            )
        return choice

    def score(self, info: LoadInfo) -> float:
        return self.inner.score(info)

    def note_assigned(self, backend: int) -> None:
        self.inner.note_assigned(backend)

    def note_completed(self, backend: int) -> None:
        self.inner.note_completed(backend)
