"""Per-layer accounting for the traced benchmark run.

Four ledgers, all gathered from outside the simulator so the program
under test is unchanged:

* host time per layer, by statistical sampling: a ``SIGPROF`` timer
  fires every ``SAMPLE_INTERVAL_S`` of process CPU time while the
  simulation advances, and each sample is charged to the innermost
  stack frame that belongs to a ``repro`` module. The package that
  frame lives in names the layer (``repro/kernel/...`` -> ``kernel``).
  A discrete-event simulator interleaves its layers event by event, so
  sampling the owner of the running frame is the cheap way to learn a
  layer's self time;
* host time in Python's cyclic garbage collector, timed exactly through
  ``gc.callbacks`` on the same process-CPU clock the timer counts. The
  timer keeps running during a collection, but the Python handler only
  runs once the collection is over, charged to whatever frame
  allocated. The sampler therefore drops the one sample whose expiry
  fell inside a collection, and the sampled layers share the non-GC
  time; at thousands of nodes full collections take a third of the run;
* work counts per layer (events, context switches, RDMA operations,
  kernel packets, monitoring rounds, requests) and simulated CPU busy
  time, read from the simulator's own counters at the start and end of
  the measured window;
* the simulated latency of a monitoring probe split along its critical
  path (:func:`probe_split`): host-side posting, NIC work-request
  fetch, wire, DMA, completion interrupt, waiting for the polling task,
  and composing the load record. The parts sum exactly to the probe's
  latency. This is the split the paper uses to explain its Fig. 3.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from collections import defaultdict, deque
from pathlib import Path
from typing import Dict, List, Tuple

#: sampling period of the host-time profiler (process CPU seconds)
SAMPLE_INTERVAL_S = 0.002

#: ``repro`` sub-package -> layer name; unlisted packages are "other"
PACKAGE_LAYER = {
    "sim": "engine",
    "kernel": "kernel",
    "hw": "hw",
    "transport": "transport",
    "monitoring": "monitoring",
    "federation": "federation",
    "server": "server",
    "workloads": "workloads",
    "telemetry": "planes",
    "tracing": "planes",
    "obs": "planes",
}

SAMPLED_LAYERS = ("engine", "kernel", "hw", "transport", "monitoring",
                  "federation", "server", "workloads", "planes", "other")
LAYERS = SAMPLED_LAYERS + ("gc",)


class LayerSampler:
    """Charges the simulator's host time to its layers and to the GC.

    Only armed between :meth:`start` and :meth:`stop`, so time spent in
    the benchmark's own code (set-up, reference loop, result checks) is
    never counted.
    """

    def __init__(self, repro_dir: Path) -> None:
        self._prefix = str(repro_dir) + os.sep
        self._layer_of_file: Dict[str, str] = {}
        self.samples: Dict[str, int] = {layer: 0 for layer in SAMPLED_LAYERS}
        self._armed = False
        self._armed_at = 0.0
        self._gc_started = 0.0
        #: process CPU time left to the next timer expiry when a
        #: collection started
        self._gc_timer_left = 0.0
        #: the sample pending from a collection was already dropped
        self._gc_sample_dropped = False
        self._drop_next = False
        #: process CPU seconds armed, and spent in the collector
        self.armed_s = 0.0
        self.gc_s = 0.0
        signal.signal(signal.SIGPROF, self._on_sample)
        gc.callbacks.append(self._on_gc)

    def _layer(self, filename: str) -> str:
        layer = self._layer_of_file.get(filename)
        if layer is None:
            if filename.startswith(self._prefix):
                package = filename[len(self._prefix):].split(os.sep, 1)[0]
                layer = PACKAGE_LAYER.get(package, "other")
            else:
                layer = ""
            self._layer_of_file[filename] = layer
        return layer

    def _on_sample(self, signum, frame) -> None:
        if frame is not None and frame.f_code is _ON_GC_CODE:
            # Delivered inside a GC callback: the expiry belongs to the
            # collection, whose time gc_s already holds.
            self._gc_sample_dropped = True
            return
        if self._drop_next:
            self._drop_next = False
            return
        while frame is not None:
            layer = self._layer(frame.f_code.co_filename)
            if layer:
                self.samples[layer] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._armed:
            return
        now = time.process_time()
        if phase == "start":
            self._gc_started = now
            self._gc_timer_left = signal.getitimer(signal.ITIMER_PROF)[0]
            self._gc_sample_dropped = False
        else:
            spent = now - self._gc_started
            self.gc_s += spent
            # The timer expired during the collection: the handler runs
            # next, on the frame that triggered the collection.
            if spent >= self._gc_timer_left and not self._gc_sample_dropped:
                self._drop_next = True

    def start(self) -> None:
        self._armed = True
        self._armed_at = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._armed:
            self.armed_s += time.process_time() - self._armed_at
        self._armed = False
        self._drop_next = False

    def shares(self) -> Dict[str, float]:
        """Percentage of armed process CPU time per layer, GC included."""
        gc_share = self.gc_s / self.armed_s if self.armed_s else 0.0
        total = sum(self.samples.values())
        out = {layer: (100.0 * (1.0 - gc_share) * n / total if total else 0.0)
               for layer, n in self.samples.items()}
        out["gc"] = 100.0 * gc_share
        return out

    def close(self) -> None:
        self.stop()
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        gc.callbacks.remove(self._on_gc)


_ON_GC_CODE = LayerSampler._on_gc.__code__


def work_counts(cluster) -> Dict[str, int]:
    """Cumulative work counters of every layer, summed over all nodes."""
    sim = cluster.sim
    counts = {
        "events": sim.env.processed_events,
        "cancelled": sim.env.cancelled_events,
        "ctx_switches": 0,
        "wakeups": 0,
        "rdma_ops": 0,
        "kernel_pkts": 0,
        "view_rounds": cluster.dispatcher.monitor.epoch,
        "requests": cluster.dispatcher.stats.count(),
    }
    for node in sim.nodes:
        sched = node.sched
        counts["ctx_switches"] += sum(cpu.ctx_switches for cpu in sched.cpus)
        counts["wakeups"] += sched.total_wakeups
        counts["rdma_ops"] += node.nic.rdma_ops_serviced
        counts["kernel_pkts"] += node.nic.kernel_rx_packets
    return counts


def cpu_busy(cluster) -> Dict[str, Tuple[int, int]]:
    """Simulated CPU busy ns (user + sys + IRQ) and CPU count, per tier."""

    def busy(nodes) -> Tuple[int, int]:
        cpus = [cpu for node in nodes for cpu in node.sched.cpus]
        return sum(c.user_ns + c.sys_ns + c.irq_ns for c in cpus), len(cpus)

    return {"frontend": busy([cluster.dispatcher.frontend]),
            "backends": busy(cluster.sim.backends)}


# ----------------------------------------------------------------------
# monitoring-probe latency split
# ----------------------------------------------------------------------
#: parts of a probe's latency, in the order they occur
PROBE_PARTS = ("post", "nic", "wire", "dma", "irq", "wait", "compose")


class CqIrqLog:
    """When each completion-queue interrupt was raised and handled.

    Wraps every node NIC's ``raise_cq_interrupt`` so the handler's
    action is stamped with the simulated time it runs; the simulation
    itself is untouched.
    """

    def __init__(self, nodes) -> None:
        #: (node name, raise time) -> handler-done times, in raise order
        self.handled: Dict[Tuple[str, int], deque] = defaultdict(deque)
        for node in nodes:
            self._wrap(node)

    def _wrap(self, node) -> None:
        raise_cq = node.nic.raise_cq_interrupt
        env, name, handled = node.env, node.name, self.handled

        def wrapped(fn) -> None:
            times = handled[(name, env.now)]

            def action() -> None:
                times.append(env.now)
                fn()

            raise_cq(action)

        node.nic.raise_cq_interrupt = wrapped

    def handled_at(self, node: str, raised: int, default: int) -> int:
        times = self.handled.get((node, raised))
        return times.popleft() if times else default


def probe_split(spans, irq_log: CqIrqLog, cfg, root_name: str,
                since: int) -> Tuple[Dict[str, List[int]], List[str]]:
    """Split each sampled probe's latency along its critical path.

    For every finished, successful ``root_name`` trace started at or
    after ``since``, the critical path (:func:`repro.tracing.analysis.
    critical_path`) runs through the verb segment spans; the probe's
    latency ``root.end - root.start`` is then cut into:

    * ``post``: root time before the last verb's completion not covered
      by a segment: the polling task posting work requests and ringing
      doorbells (user space; the RDMA path makes no system call);
    * ``nic``: the initiator NIC fetching the work request;
    * ``wire``: request and response flights, fabric queueing included;
    * ``dma``: the target NIC's DMA of the kernel record plus the
      initiator's completion-queue entry write;
    * ``irq``: completion interrupt, from the CQE landing to the
      handler waking the waiter (queueing behind other interrupts
      included);
    * ``wait``: from the wake-up until the polling task resumes the
      probe: run-queue wait, and handling of the probes ahead of it;
    * ``compose``: deriving the load record on the polling host.

    Returns the per-probe parts (ns, one list per part plus
    ``latency``) and a line for each probe with a negative part (a
    critical path leaving its root or overlapping itself) or parts that
    do not sum to its latency.
    """
    from repro.tracing.analysis import critical_path

    by_trace: Dict[int, list] = defaultdict(list)
    for span in spans:
        by_trace[span.trace_id].append(span)
    parts: Dict[str, List[int]] = {name: [] for name in PROBE_PARTS + ("latency",)}
    problems: List[str] = []
    cqe = cfg.net.cqe_cost
    compose_cost = cfg.monitor.compose_cost
    roots = sorted((s for s in spans if s.parent_id is None and s.name == root_name
                    and s.finished and s.status == "ok" and s.start >= since),
                   key=lambda s: (s.end, s.span_id))
    for root in roots:
        path = critical_path(by_trace[root.trace_id], root)
        if not path or path[0] is root:
            problems.append(f"probe trace {root.trace_id} has no verb on its critical path")
            continue
        seg = {"post": 0, "at_target": 0, "dma": 0, "completion": 0}
        for leaf in path:
            seg[leaf.name.rsplit(".", 1)[1]] += leaf.duration
        completions = sum(1 for leaf in path if leaf.name.endswith(".completion"))
        last_end = path[-1].end
        handled = irq_log.handled_at(path[-1].node, last_end, last_end)
        handled = min(max(handled, last_end), root.end)
        compose = min(compose_cost, root.end - handled)
        p = {
            "nic": seg["post"],
            "wire": seg["at_target"] + seg["completion"] - completions * cqe,
            "dma": seg["dma"] + completions * cqe,
            "irq": handled - last_end,
            "wait": root.end - handled - compose,
            "compose": compose,
        }
        p["post"] = (last_end - root.start) - sum(leaf.duration for leaf in path)
        latency = root.end - root.start
        if sum(p.values()) != latency or min(p.values()) < 0:
            problems.append(f"probe trace {root.trace_id}: parts {p} do not sum to {latency} ns")
        for name in PROBE_PARTS:
            parts[name].append(p[name])
        parts["latency"].append(latency)
    return parts, problems
