"""Back-end web server: an Apache-prefork-style worker pool.

Each back-end runs ``workers_per_server`` worker tasks pulling requests
from the dispatcher connection. A worker:

1. bumps the node's ``connections`` gauge (kernel-visible, so every
   monitoring scheme can report it — the WebSphere algorithm's
   "connection load" index),
2. burns the request's PHP CPU demand through the kernel scheduler,
3. runs the DB stage,
4. for document requests, consults the node's LRU document cache
   (miss → disk stall — the heterogeneity that makes load balancing
   matter at low Zipf α),
5. pays the TX path to send the response straight back to the client.

All CPU consumption flows through the same scheduler the monitoring
daemons compete in, so monitoring perturbation (the paper's Fig 4/8)
falls out of the model.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, List, Optional

from repro.server.database import DatabaseStage
from repro.server.request import Request
from repro.sim.resources import Resource, Store
from repro.tracing.span import tracer_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node
    from repro.kernel.task import Task
    from repro.sim.rng import RngRegistry


class LruDocCache:
    """Fixed-size LRU cache of document ids."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, doc_id: int) -> bool:
        """Touch ``doc_id``; returns True on hit."""
        if doc_id in self._entries:
            self._entries.move_to_end(doc_id)
            self.hits += 1
            return True
        self.misses += 1
        self._entries[doc_id] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False

    def __len__(self) -> int:
        return len(self._entries)


class BackendServer:
    """The server processes hosted on one back-end node."""

    def __init__(self, node: "Node", rngs: "RngRegistry", workers: Optional[int] = None) -> None:
        self.node = node
        cfg = node.cfg.server
        self.workers = workers if workers is not None else cfg.workers_per_server
        #: requests forwarded by the dispatcher land here (the persistent
        #: dispatcher→server connection's receive buffer)
        self.request_queue: Store = Store(node.env, name=f"reqq:{node.name}")
        self.doc_cache = LruDocCache(cfg.doc_cache_entries)
        #: one disk spindle per server: cache misses queue behind each
        #: other, so a burst of misses makes a server transiently awful —
        #: the placement-sensitive heterogeneity of the Zipf workload
        self.disk = Resource(node.env, capacity=1, name=f"disk:{node.name}")
        self.db = DatabaseStage(node, rngs)
        self.served = 0
        self._tasks: List["Task"] = []
        self._stopped = False
        node.gauges.setdefault("connections", 0)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker pool."""
        if self._tasks:
            raise RuntimeError("server already started")
        for w in range(self.workers):
            self._tasks.append(
                self.node.spawn(f"httpd:{self.node.name}:{w}", self._worker_body,
                                rss_bytes=8 * 1024 * 1024)  # Apache+PHP child
            )

    def stop(self) -> None:
        self._stopped = True

    @property
    def active_connections(self) -> int:
        return int(self.node.gauges.get("connections", 0))

    # ------------------------------------------------------------------
    def _worker_body(self, k):
        node = self.node
        scfg = node.cfg.server
        while not self._stopped:
            request: Request
            request, _nbytes = yield k.wait(self.request_queue.get())
            node.gauges["connections"] = node.gauges.get("connections", 0) + 1
            request.started_at = k.now
            tracer = tracer_for(node, request.trace)
            svc = None
            if tracer is not None:
                # The queue span is retroactive: both boundaries are
                # timestamps the request already carries.
                tracer.record("queue", request.trace,
                              request.dispatched_at, k.now,
                              node=node.name, component="httpd")
                svc = tracer.start_span("service", request.trace,
                                        node=node.name, component="httpd",
                                        attrs={"query": request.query})
            # Accept + parse overhead.
            yield k.syscall(2_000)
            try:
                if request.web_cpu > 0:
                    t_web = k.now
                    yield k.compute(request.web_cpu, mode="user")
                    if tracer is not None:
                        tracer.record("web", svc, t_web, k.now,
                                      node=node.name, component="httpd")
                if request.db_cpu > 0:
                    yield from self.db.execute(k, request, ctx=svc)
                if request.doc_id is not None:
                    t_doc = k.now
                    hit = self.doc_cache.access(request.doc_id)
                    if hit:
                        yield k.compute(scfg.static_serve, mode="user")
                    else:
                        with self.disk.request() as disk_req:
                            yield k.wait(disk_req)
                            yield k.sleep(scfg.disk_fetch)
                        yield k.compute(scfg.static_serve, mode="user")
                    if tracer is not None:
                        tracer.record("doc", svc, t_doc, k.now,
                                      node=node.name, component="httpd",
                                      attrs={"hit": hit})
                # Send the response straight back to the client node.
                request.completed_at_backend = k.now  # type: ignore[attr-defined]
                if request.reply_store is not None and request.reply_node is not None:
                    t_tx = k.now
                    yield from node.netstack.send(
                        k, request.reply_node, request.reply_store,
                        request, request.response_bytes,
                    )
                    if tracer is not None:
                        tracer.record("respond", svc, t_tx, k.now,
                                      node=node.name, component="httpd")
                self.served += 1
                if tracer is not None:
                    tracer.end(svc)
            finally:
                node.gauges["connections"] = node.gauges.get("connections", 0) - 1
