"""Differential conformance: the frozen legacy core vs the current engine.

The lockdown harness for any change to the scheduler. Randomized
schedule/cancel/reschedule workloads are pre-generated as pure data,
so every engine executes the exact same operation sequence, and are
replayed through the frozen pre-overhaul core in
``benchmarks/_legacy_core.py`` and through the current
:class:`~repro.sim.engine.Environment`. The current engine replays each
workload twice: in one ``run_until_quiet`` call, and sliced by a list of
``run(until=t)`` horizons that land on firing times, next to them and
between them. Firing logs must match, and each slice must stop with
exactly the firings at or before its horizon done — the bounded pop
(look at the head, drop tombstones, stop past the horizon) is checked
on every slice.

Whitelisted divergence (the only one): the legacy core has **no
cancel** — ``Environment.cancel`` post-dates it — so in scripts that
cancel, the cancelled firings still happen on legacy. The comparison
therefore removes, from the legacy log, exactly the labels the current
engine *successfully* cancelled (reschedule copies carry distinct
labels, so nothing else is masked). Everything outside that set must
match event-for-event.
"""

import bisect
import importlib.util
import pathlib
import random

import pytest

from repro.sim.engine import Environment
from repro.sim.events import EventPriority

_LEGACY_PATH = (pathlib.Path(__file__).resolve().parents[2]
                / "benchmarks" / "_legacy_core.py")


def _load_legacy():
    spec = importlib.util.spec_from_file_location("_legacy_core", _LEGACY_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


legacy = _load_legacy()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _make_workload(seed, n_roots=60):
    """Pre-generate a schedule/cancel/reschedule workload as pure data.

    Returns (roots, children, cancels):

    * roots: [(label, delay, priority)] scheduled up-front at t=0;
    * children: label -> [(child_label, delay, priority)] scheduled from
      the parent's firing callback;
    * cancels: [(canceller_delay, target_label, re_delay, re_priority)]
      — at its predetermined time the canceller cancels ``target_label``
      if still pending (no-op on the legacy core) and unconditionally
      schedules a fresh ``<target>r`` copy, so the operation sequence —
      and with it every sequence number — is identical on every engine.
    """
    rnd = random.Random(seed)
    prios = [EventPriority.HIGH, EventPriority.NORMAL, EventPriority.NORMAL,
             EventPriority.LOW]
    delays = lambda: rnd.choice(
        [0, 0, 1, rnd.randrange(50), rnd.randrange(5_000),
         rnd.randrange(1 << 21), rnd.randrange(1 << 28)])
    roots, children, cancels = [], {}, []
    labels = []
    for i in range(n_roots):
        label = f"t{i}"
        roots.append((label, delays(), rnd.choice(prios)))
        labels.append(label)
        kids = []
        for j in range(rnd.randrange(0, 4)):
            child = f"{label}.{j}"
            kids.append((child, delays(), rnd.choice(prios)))
            labels.append(child)
        children[label] = kids
    # Cancel targets are restricted to *childless* labels. A cancelled
    # parent never runs its callback on the current core, so its
    # children are never scheduled — but on the no-cancel legacy core
    # they are, shifting every later sequence number and with it the
    # tie-break order of the whole remaining run. Leaf-only cancels keep
    # the operation sequence identical on every engine, so the legacy
    # divergence is exactly the cancelled firings themselves (the
    # documented whitelist) and nothing cascades. Parent cancellation is
    # covered by the engine's own tests (tests/sim/test_pqueue.py).
    leaves = [label for label in labels if not children.get(label)]
    for label in rnd.sample(leaves, len(leaves) // 3):
        cancels.append((delays(), label, delays(), rnd.choice(prios)))
    return roots, children, cancels


def _replay(env, workload, cancellable, slices=()):
    """Run one workload; returns (firing_log, cancelled_labels, marks).

    The run advances through each ``run(until=t)`` horizon in
    ``slices`` (ascending) before draining the rest; ``marks`` holds the
    log length after each slice.
    """
    roots, children, cancels = workload
    log = []
    handles = {}
    cancelled = set()

    def fire(label):
        def callback(ev):
            log.append((env.now, label))
            handles.pop(label, None)
            for child, delay, prio in children.get(label, ()):
                schedule(child, delay, prio)
        return callback

    def schedule(label, delay, prio):
        t = env.timeout(delay, priority=prio)
        t.callbacks.append(fire(label))
        handles[label] = t

    for label, delay, prio in roots:
        schedule(label, delay, prio)
    for c_delay, target, re_delay, re_prio in cancels:
        def canceller(ev, target=target, re_delay=re_delay, re_prio=re_prio):
            if cancellable:
                t = handles.pop(target, None)
                if t is not None and env.cancel(t):
                    cancelled.add(target)
            # Unconditional on every engine: keeps the op sequence —
            # and with it seq numbering — identical across engines.
            schedule(target + "r", re_delay, re_prio)
        t = env.timeout(c_delay, priority=EventPriority.NORMAL)
        t.callbacks.append(canceller)
    marks = []
    for horizon in slices:
        env.run(until=horizon)
        assert env.now == horizon
        marks.append(len(log))
    env.run_until_quiet(2**61)
    return log, cancelled, marks


def _slice_points(seed, legacy_log, n=40):
    """Ascending ``run(until=t)`` horizons for one workload.

    Drawn around the legacy log's firing times, which include the
    firings the current engine cancels, so a slice often stops with a
    tombstone at the head: exact firing times (dispatch at the
    horizon), one ns either side, repeats, and uniform points.
    """
    rnd = random.Random(seed)
    times = [t for t, _ in legacy_log]
    points = []
    for _ in range(n):
        t = rnd.choice(times)
        points.append(rnd.choice(
            [t - 1, t, t, t + 1, rnd.randrange(times[-1] + 1)]))
    return sorted(p for p in points if p >= 0)


def _check_sliced(workload, slices, log, cancelled):
    """The sliced replay matches the one-shot log, slice by slice."""
    sliced_log, sliced_cancelled, marks = _replay(
        Environment(), workload, cancellable=True, slices=slices)
    assert sliced_log == log
    assert sliced_cancelled == cancelled
    times = [t for t, _ in log]
    assert marks == [bisect.bisect_right(times, h) for h in slices]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_three_engines_agree_on_schedule_cancel_reschedule(seed):
    """Legacy, current one-shot and current sliced runs agree."""
    workload = _make_workload(seed)
    legacy_log, _, _ = _replay(
        legacy.Environment(), workload, cancellable=False)
    log, cancelled, _ = _replay(Environment(), workload, cancellable=True)
    assert cancelled, "workload cancelled nothing"

    # Whitelisted divergence vs legacy: no cancel support, so the
    # successfully-cancelled firings still happen there. Everything
    # else — order, timestamps, reschedule copies — must match.
    filtered = [(t, label) for t, label in legacy_log
                if label not in cancelled]
    assert log == filtered
    # The whitelist is tight: legacy fired exactly the cancelled set on
    # top of the common log, nothing more.
    assert len(legacy_log) - len(filtered) == len(cancelled)

    _check_sliced(workload, _slice_points(seed, legacy_log), log, cancelled)


@pytest.mark.parametrize("seed", [6, 7])
def test_engines_agree_without_cancellation(seed):
    """With no cancels in play all three logs are identical, verbatim."""
    roots, children, _ = _make_workload(seed)
    workload = (roots, children, [])
    legacy_log, _, _ = _replay(legacy.Environment(), workload, False)
    log, _, _ = _replay(Environment(), workload, True)
    assert log == legacy_log
    _check_sliced(workload, _slice_points(seed, legacy_log), log, set())
