"""Front-end request dispatcher.

Runs on the front-end node. Client requests arrive on the dispatcher's
socket buffer; for each one the dispatcher consults the admission
controller and the load balancer (both fed by the monitoring scheme's
cache) and forwards the request to the chosen back-end over a persistent
connection. Dispatch consumes real front-end CPU — receive syscalls,
the balancing computation, the forward TX path — but the front-end is
deliberately under-loaded, as in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.server.request import Request, RequestStats
from repro.server.webserver import BackendServer
from repro.sim.resources import Store
from repro.tracing.span import STATUS_ERROR, STATUS_OK, tracer_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.federation.aggregator import FederatedMonitor
    from repro.hw.node import Node
    from repro.kernel.task import Task
    from repro.monitoring.frontend import FrontendMonitor


class Dispatcher:
    """The front-end request router."""

    #: CPU cost of one balancing decision
    DECISION_COST = 2_000  # 2 us

    def __init__(
        self,
        frontend: "Node",
        servers: List[BackendServer],
        balancer,
        monitor: Union["FrontendMonitor", "FederatedMonitor"],
        admission=None,
        health=None,
        telemetry=None,
        num_tasks: int = 2,
        request_bytes: int = 512,
    ) -> None:
        """``health``: optional
        :class:`~repro.monitoring.heartbeat.HeartbeatMonitor`; back-ends
        it marks unhealthy are excluded from routing until they recover.

        ``telemetry``: optional
        :class:`~repro.telemetry.pipeline.TelemetryPipeline`; back-ends
        with an active critical shedding alert (overload,
        heartbeat-miss) are routed around while at least one clean
        back-end remains — opt-in alert-aware routing.
        """
        if not servers:
            raise ValueError("dispatcher needs at least one back-end server")
        self.frontend = frontend
        self.servers = servers
        self.balancer = balancer
        self.monitor = monitor
        self.admission = admission
        self.health = health
        self.telemetry = telemetry
        self.rerouted_by_alert = 0
        self.rerouted_by_health = 0
        self.num_tasks = num_tasks
        self.request_bytes = request_bytes
        #: client requests land here (the dispatcher's listening socket)
        self.inbox: Store = Store(frontend.env, name="dispatcher-inbox")
        self.stats = RequestStats()
        self.forwarded = 0
        #: monitoring-view epoch the latest routing decision consulted
        #: (None until the first routing decision)
        self.last_view_epoch: Optional[int] = None
        self._tasks: List["Task"] = []
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._tasks:
            raise RuntimeError("dispatcher already started")
        for i in range(self.num_tasks):
            self._tasks.append(
                self.frontend.spawn(f"dispatcher:{i}", self._body)
            )

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    def _loads(self) -> Dict[int, "object"]:
        """The monitoring cache consulted for the next decision.

        Duck-typed: a flat :class:`FrontendMonitor` and a federated
        :class:`~repro.federation.aggregator.FederatedMonitor` both
        expose ``latest`` (global back-end index → LoadInfo) and an
        ``epoch`` stamp, which is recorded for view-age diagnostics.
        """
        self.last_view_epoch = self.monitor.epoch
        return self.monitor.latest

    def _body(self, k):
        while not self._stopped:
            request: Request
            request, _nbytes = yield k.wait(self.inbox.get())
            tracer = tracer_for(self.frontend, request.trace)
            dspan = None
            if tracer is not None:
                dspan = tracer.start_span(
                    "dispatch", request.trace,
                    node=self.frontend.name, component="dispatcher")
            yield k.syscall(k.copy_cost(self.request_bytes))
            loads = self._loads()
            if self.admission is not None and not self.admission.admit(loads, ctx=dspan):
                request.rejected = True
                request.completed_at = k.now
                self.stats.record(request)
                # Tell the client immediately (tiny error response).
                if request.reply_store is not None:
                    yield from self.frontend.netstack.send(
                        k, request.reply_node, request.reply_store, request, 128
                    )
                if tracer is not None:
                    tracer.end(dspan, status=STATUS_ERROR,
                               attrs={"rejected": True})
                continue
            yield k.compute(self.DECISION_COST)
            set_request = getattr(self.balancer, "set_request", None)
            if set_request is not None:
                set_request(request)
            choice = self.balancer.choose(loads)
            if self.health is not None:
                healthy = self.health.healthy_backends()
                if healthy and choice not in healthy:
                    # Re-pick among live servers only: quarantined
                    # back-ends are excluded until Node.recover() lets
                    # the heartbeat re-mark them ALIVE.
                    quarantined = self.health.quarantined()
                    choice = self.balancer.choose(loads, exclude=quarantined)
                    if choice not in healthy:
                        choice = healthy[self.forwarded % len(healthy)]
                    self.rerouted_by_health += 1
            if self.telemetry is not None:
                shed = self.telemetry.engine.shed_backends()
                if shed and choice in shed and len(shed) < len(self.servers):
                    # Exclude rather than drop the shed back-ends' reports:
                    # a back-end without a report scores as idle.
                    choice = self.balancer.choose(loads, exclude=shed)
                    if choice in shed:
                        clean = [i for i in range(len(self.servers))
                                 if i not in shed]
                        choice = clean[self.forwarded % len(clean)]
                    self.rerouted_by_alert += 1
            request.backend = choice
            request.dispatched_at = k.now
            self.balancer.note_assigned(choice)
            self.forwarded += 1
            server = self.servers[choice]
            yield from self.frontend.netstack.send(
                k, server.node, server.request_queue, request, self.request_bytes
            )
            if tracer is not None:
                tracer.end(dspan, attrs={"backend": choice})

    # ------------------------------------------------------------------
    def on_response(self, request: Request) -> None:
        """Client-side completion hook: records stats and frees the slot."""
        request.completed_at = self.frontend.env.now
        self.balancer.note_completed(request.backend)
        self.stats.record(request)
        if request.trace is not None:
            tracer = getattr(self.frontend, "span_tracer", None)
            if tracer is not None and tracer.enabled:
                status = (STATUS_ERROR if request.rejected or request.timed_out
                          else STATUS_OK)
                tracer.end(request.trace, status=status,
                           attrs={"backend": request.backend})
            request.trace = None  # the trace is closed; guard re-delivery
