"""Tests for the CPU scheduler: dispatch, preemption, accounting."""

import gc

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.kernel.task import TaskState
from repro.sim.events import Timeout
from repro.sim.units import ms, us


def spawn_hog(node, name="hog", nice=0):
    def hog(k):
        while True:
            yield k.compute(us(1000))

    return node.spawn(name, hog, nice=nice)


def test_single_task_runs_to_completion(cluster1):
    be = cluster1.backends[0]
    done = []

    def body(k):
        yield k.compute(us(100))
        done.append(k.now)
        return "finished"

    task = be.spawn("worker", body)
    cluster1.run(ms(1))
    assert done and done[0] >= us(100)
    assert task.done.processed
    assert task.done.value == "finished"


def test_compute_accounts_user_time(cluster1):
    be = cluster1.backends[0]

    def body(k):
        yield k.compute(us(500))

    task = be.spawn("worker", body)
    cluster1.run(ms(2))
    assert task.user_ns == us(500)


def test_sys_mode_accounts_separately(cluster1):
    be = cluster1.backends[0]

    def body(k):
        yield k.compute(us(200), mode="sys")
        yield k.compute(us(300), mode="user")

    task = be.spawn("worker", body)
    cluster1.run(ms(2))
    assert task.sys_ns == us(200)
    assert task.user_ns == us(300)


def test_two_cpus_run_two_tasks_in_parallel(cluster1):
    be = cluster1.backends[0]
    ends = []

    def body(k):
        yield k.compute(ms(5))
        ends.append(k.now)

    be.spawn("a", body)
    be.spawn("b", body)
    cluster1.run(ms(20))
    # Both finish around 5 ms: they did not serialise.
    assert len(ends) == 2
    assert all(t < ms(6) for t in ends)


def test_three_tasks_on_two_cpus_contend(cluster1):
    be = cluster1.backends[0]
    ends = {}

    def body(name):
        def inner(k):
            yield k.compute(ms(30))
            ends[name] = k.now

        return inner

    for name in ("a", "b", "c"):
        be.spawn(name, body(name))
    cluster1.run(ms(120))
    assert len(ends) == 3
    # 90 ms of work over 2 CPUs: no one can finish before 30 ms and the
    # total span must be at least 45 ms.
    assert min(ends.values()) >= ms(30)
    assert max(ends.values()) >= ms(45)


def test_sleep_blocks_without_consuming_cpu(cluster1):
    be = cluster1.backends[0]
    wake_times = []

    def sleeper(k):
        yield k.sleep(ms(10))
        wake_times.append(k.now)

    task = be.spawn("sleeper", sleeper)
    cluster1.run(ms(50))
    assert wake_times and wake_times[0] >= ms(10)
    assert task.user_ns == 0


def test_sleeper_wakes_promptly_on_idle_node(cluster1):
    be = cluster1.backends[0]
    wake_times = []

    def sleeper(k):
        yield k.sleep(ms(10))
        wake_times.append(k.now)

    be.spawn("sleeper", sleeper)
    cluster1.run(ms(50))
    # Wakeup-to-run latency on an idle node is only scheduling overhead.
    assert wake_times[0] - ms(10) < us(50)


def test_woken_interactive_task_preempts_hogs(cluster1):
    be = cluster1.backends[0]
    latencies = []

    def sleeper(k):
        for _ in range(5):
            yield k.sleep(ms(20))
            t0 = k.now
            yield k.compute(us(10))
            latencies.append(k.now - t0)

    for i in range(4):
        spawn_hog(be, f"hog{i}")
    be.spawn("interactive", sleeper)
    cluster1.run(ms(400))
    assert len(latencies) == 5
    # A freshly-woken sleeper has accumulated counter: it should usually
    # preempt a compute hog rather than wait a full timeslice.
    assert sorted(latencies)[len(latencies) // 2] < ms(5)


def test_nice_affects_timeslice(cluster1):
    be = cluster1.backends[0]
    progress = {"fav": 0, "unfav": 0}

    def worker(name):
        def inner(k):
            while True:
                yield k.compute(us(500))
                progress[name] += 1

        return inner

    # Saturate both CPUs so priorities matter.
    for i in range(2):
        spawn_hog(be, f"hog{i}")
    be.spawn("fav", worker("fav"), nice=-10)
    be.spawn("unfav", worker("unfav"), nice=10)
    cluster1.run(ms(600))
    assert progress["fav"] > progress["unfav"] * 1.3


def test_nr_running_and_threads(cluster1):
    be = cluster1.backends[0]

    def sleeper(k):
        yield k.sleep(ms(100))

    # Spawn the sleeper first so it reaches its sleep before the hogs
    # saturate the CPUs (a fresh spawn has to win the run queue).
    be.spawn("sleeper", sleeper)
    cluster1.run(ms(5))
    for i in range(3):
        spawn_hog(be, f"hog{i}")
    cluster1.run(ms(15))
    # 3 hogs runnable; sleeper blocked; 2 ksoftirqd blocked.
    assert be.sched.nr_running() == 3
    assert be.sched.nr_threads() == 6


def test_task_exit_removes_from_accounting(cluster1):
    be = cluster1.backends[0]

    def quick(k):
        yield k.compute(us(10))

    before = be.sched.nr_threads()
    be.spawn("quick", quick)
    cluster1.run(ms(5))
    assert be.sched.nr_threads() == before


def test_task_exception_fails_done_event(cluster1):
    be = cluster1.backends[0]

    def bad(k):
        yield k.compute(us(10))
        raise ValueError("task crashed")

    task = be.spawn("bad", bad)
    caught = []

    def watcher(k):
        try:
            yield k.wait(task.done)
        except ValueError as exc:
            caught.append(str(exc))

    be.spawn("watcher", watcher)
    cluster1.run(ms(5))
    assert caught == ["task crashed"]


def test_yield_cpu_round_robins(cluster1):
    be = cluster1.backends[0]
    order = []

    def polite(name):
        def inner(k):
            for _ in range(3):
                yield k.compute(us(10))
                order.append(name)
                yield k.yield_cpu()

        return inner

    # Fill both CPUs with hogs so the polite tasks share one slot.
    be.spawn("p1", polite("p1"))
    be.spawn("p2", polite("p2"))
    cluster1.run(ms(10))
    assert order.count("p1") == 3 and order.count("p2") == 3


def test_jiffies_idle_accumulates(cluster1):
    be = cluster1.backends[0]
    cluster1.run(ms(100))
    j = be.sched.jiffies(0)
    # An idle node: idle dominates; only tick interrupts charge anything.
    assert j["idle"] > ms(95)
    assert j["user"] == 0


def test_jiffies_busy_node(cluster1):
    be = cluster1.backends[0]
    spawn_hog(be)
    spawn_hog(be, "hog2")
    cluster1.run(ms(100))
    be.sched.sync()
    total_user = sum(be.sched.jiffies(i)["user"] for i in range(2))
    assert total_user > ms(180)  # two CPUs nearly saturated


def test_sync_mid_burst_is_exact(cluster1):
    be = cluster1.backends[0]

    def worker(k):
        yield k.compute(ms(20))

    task = be.spawn("worker", worker)
    cluster1.run(ms(10))
    be.sched.sync()
    # Half the burst should be charged (modulo overheads).
    assert ms(9) < task.user_ns < ms(11)


def test_timeslice_expiry_rotates_hogs(cluster1):
    be = cluster1.backends[0]
    # 4 hogs on 2 CPUs: each must make progress via timeslice rotation.
    tasks = [spawn_hog(be, f"hog{i}") for i in range(4)]
    cluster1.run(ms(500))
    be.sched.sync()
    times = [t.user_ns for t in tasks]
    assert all(t > ms(50) for t in times), times
    assert max(times) < 3 * min(times), times


def test_epoch_recalc_happens(cluster1):
    be = cluster1.backends[0]
    for i in range(3):
        spawn_hog(be, f"hog{i}")
    cluster1.run(ms(500))
    assert be.sched.total_epochs > 0


def test_spawn_nice_validation(cluster1):
    be = cluster1.backends[0]

    def body(k):
        yield k.compute(1)

    with pytest.raises(ValueError):
        be.spawn("bad", body, nice=42)


def test_wait_event_delivers_value(cluster1):
    be = cluster1.backends[0]
    got = []
    ev = cluster1.env.event()

    def waiter(k):
        value = yield k.wait(ev)
        got.append((k.now, value))

    def firer():
        yield cluster1.env.timeout(ms(5))
        ev.succeed("hello")

    be.spawn("waiter", waiter)
    cluster1.env.process(firer())
    cluster1.run(ms(20))
    assert got and got[0][1] == "hello"
    assert got[0][0] >= ms(5)


def test_wait_on_already_fired_event(cluster1):
    be = cluster1.backends[0]
    ev = cluster1.env.event()
    ev.succeed("early")
    got = []

    def waiter(k):
        yield k.sleep(ms(2))
        value = yield k.wait(ev)
        got.append(value)

    be.spawn("waiter", waiter)
    cluster1.run(ms(20))
    assert got == ["early"]


@pytest.mark.parametrize("op", ["wait", "sleep"])
def test_blocked_wait_holds_one_tracked_object(cluster1, op):
    """What a blocked task leaves on the event it waits for is one
    tracked object: at build, every worker of every back-end is blocked
    this way."""
    env = cluster1.env
    ev = env.event()
    nap = ms(7)

    def body(k):
        if op == "wait":
            yield k.wait(ev)
        else:
            yield k.sleep(nap)

    task = cluster1.backends[0].spawn("blocked", body)
    cluster1.run(ms(1))
    assert task.state is TaskState.BLOCKED
    if op == "wait":
        callbacks = ev.callbacks
    else:
        [timer] = [e[3] for e in env._queue
                   if type(e[3]) is Timeout and e[3].delay == nap]
        callbacks = timer.callbacks
    assert len(callbacks) == 1
    gc.collect()
    before = len(gc.get_objects())
    callbacks.clear()
    gc.collect()
    assert before - len(gc.get_objects()) <= 1


def _processed_after(body):
    sim = build_cluster(SimConfig(num_backends=1))
    task = sim.backends[0].spawn("t", body)
    sim.run(ms(5))
    return sim.env.processed_events, task


def test_exit_with_no_joiner_processes_one_completion_event():
    def returns(k):
        yield k.compute(us(10))
        return "finished"

    def blocks(k):
        yield k.compute(us(10))
        yield k.wait(k.env.event())

    exited, task = _processed_after(returns)
    blocked, _ = _processed_after(blocks)
    assert exited - blocked == 1
    assert task.done.processed and task.done.value == "finished"


def test_unjoined_crash_raises_out_of_run(cluster1):
    def bad(k):
        yield k.compute(us(10))
        raise ValueError("task crashed")

    cluster1.backends[0].spawn("bad", bad)
    with pytest.raises(ValueError, match="task crashed"):
        cluster1.run(ms(5))


def test_done_read_after_exit_carries_the_return_value(cluster1):
    def body(k):
        yield k.sleep(us(50))
        return 42

    task = cluster1.backends[0].spawn("quick", body)
    cluster1.run(ms(1))
    assert task.state is TaskState.EXITED
    assert task.done.processed and task.done.ok
    assert task.done.value == 42
