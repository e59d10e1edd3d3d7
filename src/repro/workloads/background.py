"""Background load for the micro-benchmarks (the paper's §5.1.1).

"We emulate the loaded conditions by performing background computation
and communication operations on the server." Each unit of background
load is one **compute thread** (a CPU hog) plus, for every second unit,
one **communication pair**: a partner task on a neighbouring node sends
messages to an echo thread on the loaded server — generating the NIC
interrupts and softirq processing that two-sided monitoring must queue
behind.

This is the ``"background"`` workload of the registry
(``create_workload("background", sim, node=..., threads=...)``).
Tenant-shaped RDMA load (the incast tenant and the noisy-neighbor
attacks) lives in :mod:`repro.workloads.tenants`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.sim.units import MICROSECOND, MILLISECOND
from repro.transport.sockets import socket_pair

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim
    from repro.hw.node import Node
    from repro.kernel.task import Task


def _spawn_background_load(
    sim: "ClusterSim",
    node: "Node",
    threads: int,
    comm_fraction: float = 0.5,
    compute_chunk: int = 1 * MILLISECOND,
    message_interval: int = 5 * MILLISECOND,
    message_bytes: int = 1024,
    burst: int = 1,
) -> List["Task"]:
    """Load ``node`` with ``threads`` background threads.

    ``comm_fraction`` of them are communication echo threads (each with a
    partner task on another node that keeps traffic flowing); the rest
    are pure compute hogs. ``burst`` > 1 makes each partner send that
    many back-to-back messages per round — piling interrupts up on the
    NIC-affinity CPU (used by the Fig 6 experiment). Returns the tasks
    created on ``node``.
    """
    if threads < 0:
        raise ValueError("thread count must be non-negative")
    tasks: List["Task"] = []
    n_comm = int(round(threads * comm_fraction))
    n_comp = threads - n_comm

    def hog_body(k):
        while True:
            yield k.compute(compute_chunk)

    for i in range(n_comp):
        tasks.append(node.spawn(f"bg-comp:{node.name}:{i}", hog_body))

    peers = [n for n in sim.backends if n is not node] or [sim.frontend]
    for i in range(n_comm):
        peer = peers[i % len(peers)]
        local_end, peer_end = socket_pair(node, peer, label=f"bg:{node.name}:{i}")

        def echo_body(k, end=local_end):
            while True:
                msg = yield from end.recv(k)
                # A little processing per message, then echo back.
                yield k.compute(200 * MICROSECOND)
                yield from end.send(k, msg, message_bytes)

        def pump_body(k, end=peer_end, salt=i):
            rng = sim.rng.stream(f"bg-pump:{node.name}:{salt}")
            yield k.sleep(int(rng.integers(0, max(1, message_interval))))
            while True:
                for _ in range(max(1, burst)):
                    yield from end.send(k, "bg", message_bytes)
                for _ in range(max(1, burst)):
                    yield from end.recv(k)
                yield k.sleep(int(rng.exponential(message_interval)) + 1)

        tasks.append(node.spawn(f"bg-comm:{node.name}:{i}", echo_body))
        peer.spawn(f"bg-pump:{peer.name}:{node.name}:{i}", pump_body)
    return tasks
