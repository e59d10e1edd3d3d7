"""Database stage cost model.

The paper's back-ends run MySQL next to Apache/PHP; for the evaluation
what matters is that DB-heavy queries consume more back-end CPU and
occasionally stall on buffer-pool misses. The stage charges the
request's ``db_cpu`` demand (system time — MySQL is another process, but
it contends for the same CPUs, so charging the worker keeps the node's
total demand exact) plus a probabilistic disk stall.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.sim.units import MILLISECOND
from repro.tracing.span import tracer_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node
    from repro.kernel.task import TaskContext
    from repro.server.request import Request
    from repro.sim.rng import RngRegistry


class DatabaseStage:
    """Per-back-end database cost stage."""

    #: probability a query misses the buffer pool and stalls on disk
    MISS_PROBABILITY = 0.03
    #: disk stall duration on a miss
    MISS_STALL = 4 * MILLISECOND

    def __init__(self, node: "Node", rngs: "RngRegistry") -> None:
        self.node = node
        self._rngs = rngs
        self._rng: Optional[np.random.Generator] = None
        self.queries = 0
        self.misses = 0

    @property
    def rng(self) -> np.random.Generator:
        """The stage's miss stream, ``db:<node>``, made on first draw.

        The registry derives a stream from its name alone, so a stream
        made at the first miss draw is the one a build would have made
        up front; a back-end that never runs a DB query never pays for
        one.
        """
        rng = self._rng
        if rng is None:
            rng = self._rng = self._rngs.stream(f"db:{self.node.name}")
        return rng

    def execute(self, k: "TaskContext", request: "Request", ctx=None) -> Generator:
        """Run the request's DB work in the calling worker's context."""
        self.queries += 1
        tracer = tracer_for(self.node, ctx)
        span = None
        if tracer is not None:
            span = tracer.start_span("db", ctx, node=self.node.name,
                                     component="db",
                                     attrs={"db_cpu": request.db_cpu})
        miss = False
        if request.db_cpu > 0:
            yield k.compute(request.db_cpu, mode="sys")
            if self.rng.random() < self.MISS_PROBABILITY:
                self.misses += 1
                miss = True
                yield k.sleep(self.MISS_STALL)
        if tracer is not None:
            tracer.end(span, attrs={"miss": miss})
        return None
