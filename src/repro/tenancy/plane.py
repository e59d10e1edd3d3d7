"""The tenancy plane: shared-NIC resources, policing, and defense.

Installed on the fabric when ``cfg.tenancy.enabled``; every NIC gains a
bounded QP table and an ICM context cache (:class:`repro.hw.nic.IcmCache`)
shared across tenants, and :mod:`repro.transport.verbs` consults the
plane at QP creation and verb-post time:

* ``on_qp_create`` — admission: quarantined tenants, full QP tables and
  exceeded quotas all reject the QP (``TenancyError``);
* ``police`` — rate policing: a tenant over its byte rate has its post
  delayed (token spacing), a quarantined tenant's post completes with
  ``WcStatus.TENANT_DENIED``;
* ``icm_touch`` — working-set model: a QP/MR whose context is not in
  the NIC cache pays ``cfg.tenancy.icm_miss_penalty`` (the PCIe refill)
  and may evict another tenant's hot entry.

The **defense loop** ticks every ``defense_interval``: per-tenant
*attempted* rates (bytes posted + denied, QP creates + denials, ICM
misses) are compared against the ``offend_*`` thresholds. An offender
is first throttled (``police_bps`` = observed rate × ``throttle_factor``,
span ``tenancy:throttle``) and, after ``quarantine_after`` cumulative
offending windows, quarantined (span ``tenancy:evict``) — which also
asks the federation to rebalance shard assignments. ``release_after``
consecutive clean windows lift a *throttle* (span ``tenancy:release``)
but strikes persist, so a throttle–release–re-offend oscillator still
accumulates its way into quarantine; quarantine is sticky until the
operator path (:meth:`TenancyPlane.release`) re-admits the tenant.
The ticker runs whenever the plane is installed — detection telemetry
is always produced; only the *sanctions* are gated on
``cfg.tenancy.defense`` — so attaching observers never changes event
counts.

The plane draws no random numbers and keys everything by stable
integer tenant ids, so enabled runs are deterministic and disabled
runs are byte-identical to the plane's absence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.hw.nic import IcmCache
from repro.sim.events import EventPriority
from repro.tenancy.registry import Tenant, TenantRegistry
from repro.transport.verbs import TenancyError

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import SimConfig
    from repro.hw.fabric import Fabric
    from repro.hw.nic import Nic
    from repro.sim.core import Environment
    from repro.tracing.span import SpanTracer


class _NicState:
    """Per-NIC shared resources (QP table occupancy + ICM cache)."""

    __slots__ = ("qp_count", "icm")

    def __init__(self, icm_entries: int) -> None:
        self.qp_count = 0
        self.icm = IcmCache(icm_entries)


class TenancyPlane:
    """Owns the tenant registry, NIC resource state and defense loop."""

    def __init__(
        self,
        env: "Environment",
        cfg: "SimConfig",
        spans: "Optional[SpanTracer]" = None,
    ) -> None:
        self.env = env
        self.cfg = cfg
        self.spans = spans
        self.registry = TenantRegistry()
        self.fabric: Optional["Fabric"] = None
        #: federation handle (set by the builder) — quarantine triggers
        #: a shard rebalance when present
        self.federation = None
        #: called in order with one dict per tenant per defense window
        #: ({"kind": "tenant", ...}) and per sanction action
        self.observers: List[Callable[[dict], None]] = []
        #: sanction log: {"t", "kind": throttle|quarantine|release, "tenant"}
        self.actions: List[dict] = []
        self._nics: Dict[str, _NicState] = {}
        #: per-tenant cumulative cursors from the previous defense window
        self._win: Dict[int, tuple] = {}
        self._ticking = False

    # ------------------------------------------------------------------
    def install(self, fabric: "Fabric", nics=()) -> "TenancyPlane":
        """Attach to ``fabric``; NICs added later (federation leaves,
        region heads) pick the plane up via ``Fabric.attach``."""
        fabric.tenancy = self
        self.fabric = fabric
        for nic in nics:
            nic.tenancy = self
        if not self._ticking:
            self._ticking = True
            self.env.call_later(self.cfg.tenancy.defense_interval,
                                self._tick, priority=EventPriority.HIGH)
        return self

    def _state(self, nic: "Nic") -> _NicState:
        state = self._nics.get(nic.name)
        if state is None:
            state = self._nics[nic.name] = _NicState(self.cfg.tenancy.icm_entries)
        return state

    # ------------------------------------------------------------------
    # tenant management
    # ------------------------------------------------------------------
    def create_tenant(
        self,
        name: str,
        node=None,
        qp_quota: Optional[int] = None,
        rate_bps: Optional[int] = None,
    ) -> Tenant:
        """Create a tenant (quota/rate default from ``cfg.tenancy``) and
        optionally bind it as the owner of ``node``'s future QPs/MRs."""
        tn = self.cfg.tenancy
        tenant = self.registry.create(
            name,
            qp_quota=tn.default_qp_quota if qp_quota is None else qp_quota,
            rate_bps=tn.default_rate_bps if rate_bps is None else rate_bps,
        )
        if node is not None:
            self.registry.bind_node(node.name, tenant)
        return tenant

    # ------------------------------------------------------------------
    # QP lifecycle (called from QueuePair.__init__ / .destroy())
    # ------------------------------------------------------------------
    def on_qp_create(self, qp) -> None:
        tenant = getattr(qp, "tenant", None)
        if tenant is None:
            tenant = self.registry.tenant_for_node(qp.local.name)
            qp.tenant = tenant
        if tenant.quarantined and not tenant.is_system:
            tenant.qp_denied += 1
            raise TenancyError(
                f"tenant {tenant.name!r} is quarantined: QP creation denied")
        state = self._state(qp.local.nic)
        if state.qp_count >= self.cfg.tenancy.qp_table_size:
            tenant.qp_denied += 1
            raise TenancyError(
                f"{qp.local.nic.name}: QP table full "
                f"({self.cfg.tenancy.qp_table_size} entries)")
        if (not tenant.is_system and tenant.qp_quota
                and tenant.qps_active >= tenant.qp_quota):
            tenant.qp_denied += 1
            raise TenancyError(
                f"tenant {tenant.name!r} exceeds its QP quota "
                f"({tenant.qp_quota})")
        state.qp_count += 1
        tenant.qps_active += 1
        tenant.qp_creates += 1

    def on_qp_destroy(self, qp) -> None:
        tenant = getattr(qp, "tenant", None)
        state = self._nics.get(qp.local.nic.name)
        if state is not None:
            state.qp_count -= 1
            state.icm.invalidate(("qp", qp.local.name, qp.qpn))
        if tenant is not None:
            tenant.qps_active -= 1
            tenant.qp_destroys += 1

    # ------------------------------------------------------------------
    # verb-post hooks (called from the hot path in transport/verbs.py)
    # ------------------------------------------------------------------
    def police(self, qp, nbytes: int) -> int:
        """Admission decision for one posted verb.

        Returns ``-1`` to deny (quarantined owner), ``0`` to proceed
        immediately, or a positive delay in ns (rate policing: the post
        is held back until the tenant's token spacing allows it).
        """
        tenant = qp.tenant
        if tenant.quarantined and not tenant.is_system:
            tenant.denied_ops += 1
            tenant.denied_bytes += nbytes
            return -1
        tenant.posted_ops += 1
        tenant.posted_bytes += nbytes
        if tenant.is_system:
            return 0
        bps = tenant.police_bps or tenant.rate_bps
        if bps <= 0:
            return 0
        now = self.env.now
        start = now if now > tenant.allowed_at else tenant.allowed_at
        # token spacing: one verb of nbytes occupies nbytes/bps seconds
        tenant.allowed_at = start + max(1, (nbytes * 1_000_000_000 + bps - 1) // bps)
        return start - now

    def icm_touch(self, nic: "Nic", key: tuple, tenant: Tenant) -> int:
        """Charge one context-cache access; returns the refill penalty."""
        missed, evicted = self._state(nic).icm.access(key, tenant.tid)
        if not missed:
            return 0
        tenant.icm_misses += 1
        if evicted is not None and evicted[1] != tenant.tid:
            tenant.icm_evictions_inflicted += 1
        return self.cfg.tenancy.icm_miss_penalty

    # ------------------------------------------------------------------
    # defense loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        tn = self.cfg.tenancy
        now = self.env.now
        window = tn.defense_interval
        for tenant in self.registry:
            if tenant.is_system:
                continue
            cur = (tenant.posted_bytes + tenant.denied_bytes,
                   tenant.qp_creates + tenant.qp_denied,
                   tenant.icm_misses,
                   tenant.denied_ops)
            prev = self._win.get(tenant.tid, (0, 0, 0, 0))
            self._win[tenant.tid] = cur
            d_bytes = cur[0] - prev[0]
            d_creates = cur[1] - prev[1]
            d_misses = cur[2] - prev[2]
            d_denied = cur[3] - prev[3]
            # attempted byte rate over the window, in MB/s
            mbps = d_bytes * 1000 / window
            offending = (mbps > tn.offend_mbps
                         or d_creates > tn.offend_qp_creates
                         or d_misses > tn.offend_icm_misses)
            if self.observers:
                event = {
                    "kind": "tenant", "t": now, "tenant": tenant.tid,
                    "name": tenant.name, "posted_mbps": mbps,
                    "qp_creates": float(d_creates),
                    "icm_misses": float(d_misses),
                    "denied": float(d_denied),
                    "offending": 1.0 if offending else 0.0,
                }
                for fn in self.observers:
                    fn(event)
            if not tn.defense:
                continue
            if offending:
                tenant.strikes += 1
                tenant.clean = 0
                if not tenant.quarantined and tenant.police_bps == 0:
                    observed_bps = d_bytes * 1_000_000_000 // window
                    tenant.police_bps = max(
                        1, int(observed_bps * tn.throttle_factor))
                    self._sanction("throttle", tenant, now,
                                   {"police_bps": tenant.police_bps})
                if not tenant.quarantined and tenant.strikes >= tn.quarantine_after:
                    tenant.quarantined = True
                    self._sanction("quarantine", tenant, now, {})
                    if self.federation is not None:
                        self.federation.topology.rebalance()
            else:
                tenant.clean += 1
                if (tenant.clean >= tn.release_after and tenant.police_bps
                        and not tenant.quarantined):
                    # Lift the throttle but keep the strike history: a
                    # repeat offender that goes quiet under throttle and
                    # resumes on release accumulates strikes across the
                    # cycles and still reaches quarantine. Quarantine
                    # itself is sticky — an offender that earned the
                    # terminal sanction is only re-admitted explicitly
                    # (:meth:`release`, the operator path).
                    tenant.police_bps = 0
                    tenant.clean = 0
                    self._sanction("release", tenant, now, {})
        self.env.call_later(window, self._tick, priority=EventPriority.HIGH)

    def release(self, tenant: Tenant) -> None:
        """Operator re-admission: lift every sanction and clear history."""
        tenant.quarantined = False
        tenant.police_bps = 0
        tenant.strikes = 0
        tenant.clean = 0
        self._sanction("release", tenant, self.env.now, {"manual": True})

    def _sanction(self, kind: str, tenant: Tenant, now: int, attrs: dict) -> None:
        self.actions.append({"t": now, "kind": kind, "tenant": tenant.tid})
        spans = self.spans
        if spans is not None and spans.enabled:
            name = {"throttle": "tenancy:throttle",
                    "quarantine": "tenancy:evict",
                    "release": "tenancy:release"}[kind]
            span = spans.start_trace(
                name, node=tenant.name, component="tenancy",
                attrs={"tenant": tenant.tid, **attrs})
            if span is not None:
                spans.end(span)
        if self.observers:
            event = {"kind": "action", "t": now, "action": kind,
                     "tenant": tenant.tid, **attrs}
            for fn in self.observers:
                fn(event)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Plane-wide snapshot for the obs registry and tests."""
        return {
            "tenants": {
                t.tid: {
                    "name": t.name,
                    "qps_active": t.qps_active,
                    "qp_creates": t.qp_creates,
                    "qp_denied": t.qp_denied,
                    "posted_ops": t.posted_ops,
                    "posted_bytes": t.posted_bytes,
                    "denied_ops": t.denied_ops,
                    "denied_bytes": t.denied_bytes,
                    "icm_misses": t.icm_misses,
                    "icm_evictions_inflicted": t.icm_evictions_inflicted,
                    "police_bps": t.police_bps,
                    "quarantined": t.quarantined,
                }
                for t in self.registry
            },
            "nics": {
                name: {"qp_count": s.qp_count, "icm_hits": s.icm.hits,
                       "icm_misses": s.icm.misses,
                       "icm_evictions": s.icm.evictions}
                for name, s in sorted(self._nics.items())
            },
            "actions": list(self.actions),
        }
