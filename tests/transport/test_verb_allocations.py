"""Allocation guard: what an in-flight verb keeps alive.

A monitoring read lives for a few hundred simulated microseconds, long
enough to survive a young-generation collection, so every object it
holds is promoted and later walked by full collections. These tests
pin the per-post footprint: a posted verb holds its work-request
object, its completion event with the event's callback list, and the
bound method of its current stage (plus its work completion once the
target DMA ran), and a pending ``call_later`` reuses a pooled carrier
and heap entry.
"""

import gc

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.sim.units import ms
from repro.transport.verbs import AccessFlags, ProtectionDomain, connect_qp

#: posts per verb in one measurement
POSTS = 200
#: tracked objects a posted verb may hold
PER_POST = 5


def _noop():
    pass


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


@pytest.fixture
def warm():
    """A cluster with a QP, one MR per verb, and a warm Hook pool."""
    sim = build_cluster(SimConfig(num_backends=1))
    fe, be = sim.frontend, sim.backends[0]
    pd = ProtectionDomain.for_node(be)
    flags = AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE
    buf = pd.register(be.memory.alloc("buf", 64, value=0), flags)
    ctr = pd.register(be.memory.alloc("ctr", 8, value=0), AccessFlags.REMOTE_ATOMIC)
    qp, _ = connect_qp(fe, be)
    posts = {
        "read": lambda: qp._post_read(buf.rkey, 64),
        "write": lambda: qp._post_write(buf.rkey, 1, 64),
        "atomic": lambda: qp._post_atomic(ctr.rkey, "fetch-add", 1, None),
    }
    # One completed round of each verb, then enough pooled carriers for
    # every stage of every measured post.
    for post in posts.values():
        post()
    for _ in range(4 * POSTS):
        sim.env.call_later(1, _noop)
    sim.run(sim.env.now + ms(5))
    return sim, posts


@pytest.mark.parametrize("verb", ["read", "write", "atomic"])
def test_posted_verb_holds_few_tracked_objects(warm, verb):
    sim, posts = warm
    post = posts[verb]
    before = _tracked()
    events = [post() for _ in range(POSTS)]
    held = _tracked() - before - 1  # the list of events
    assert held <= PER_POST * POSTS, f"{held / POSTS:.1f} tracked objects per {verb}"
    sim.run(sim.env.now + ms(20))
    assert all(ev.value.ok for ev in events)


def test_pending_call_later_allocates_nothing_with_a_warm_pool(warm):
    sim, _ = warm
    before = _tracked()
    sim.env.call_later(10, _noop)
    assert _tracked() == before
