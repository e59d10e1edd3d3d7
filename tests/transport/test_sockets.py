"""Tests for the socket transport: round trips, blocking, load effects."""

from repro.kernel.loadavg import NR_THREADS
from repro.sim.units import ms, us
from repro.transport.sockets import Listener, socket_pair


def test_send_recv_roundtrip(cluster2):
    a, b = cluster2.backends
    ea, eb = socket_pair(a, b)
    got = []

    def server(k):
        req = yield from eb.recv(k)
        yield from eb.send(k, f"reply-to-{req}", 32)

    def client(k):
        yield from ea.send(k, "ping", 16)
        reply = yield from ea.recv(k)
        got.append((k.now, reply))

    b.spawn("server", server)
    a.spawn("client", client)
    cluster2.run(ms(10))
    assert got and got[0][1] == "reply-to-ping"


def test_roundtrip_latency_order_of_magnitude(cluster2):
    """Unloaded IPoIB round trip: tens of microseconds."""
    a, b = cluster2.backends
    ea, eb = socket_pair(a, b)
    lat = []

    def server(k):
        while True:
            yield from eb.recv(k)
            yield from eb.send(k, "pong", 16)

    def client(k):
        for _ in range(5):
            yield k.sleep(ms(5))
            t0 = k.now
            yield from ea.send(k, "ping", 16)
            yield from ea.recv(k)
            lat.append(k.now - t0)

    b.spawn("server", server)
    a.spawn("client", client)
    cluster2.run(ms(100))
    avg = sum(lat) / len(lat)
    assert us(40) < avg < us(400), avg


def test_recv_blocks_until_message(cluster2):
    a, b = cluster2.backends
    ea, eb = socket_pair(a, b)
    got = []

    def server(k):
        msg = yield from eb.recv(k)
        got.append((k.now, msg))

    def client(k):
        yield k.sleep(ms(20))
        yield from ea.send(k, "late", 8)

    b.spawn("server", server)
    a.spawn("client", client)
    cluster2.run(ms(50))
    assert got and got[0][0] >= ms(20)


def test_messages_preserve_order(cluster2):
    a, b = cluster2.backends
    ea, eb = socket_pair(a, b)
    got = []

    def client(k):
        for i in range(5):
            yield from ea.send(k, i, 8)

    def server(k):
        for _ in range(5):
            msg = yield from eb.recv(k)
            got.append(msg)

    b.spawn("server", server)
    a.spawn("client", client)
    cluster2.run(ms(20))
    assert got == [0, 1, 2, 3, 4]


def test_wrong_node_task_rejected(cluster2):
    a, b = cluster2.backends
    ea, _eb = socket_pair(a, b)
    errors = []

    def impostor(k):
        try:
            yield from ea.send(k, "x", 8)
        except RuntimeError:
            errors.append(True)

    b.spawn("impostor", impostor)  # runs on b, uses a's endpoint
    cluster2.run(ms(5))
    assert errors == [True]


def test_receiver_consumes_cpu_on_delivery(cluster2):
    """Socket delivery costs the receiving node interrupt + softirq time."""
    a, b = cluster2.backends
    ea, eb = socket_pair(a, b)

    def client(k):
        for _ in range(50):
            yield from ea.send(k, "spam", 64)

    def server(k):
        while True:
            yield from eb.recv(k)

    b.spawn("server", server)
    a.spawn("client", client)
    cluster2.run(ms(50))
    b.sched.sync()
    irq_ns = sum(b.sched.jiffies(i)["irq"] for i in range(2))
    # 50 packets * (irq entry + handler + softirq) >> 500us.
    assert irq_ns > us(400), irq_ns


def test_listener_accept_flow(cluster2):
    a, b = cluster2.backends
    listener = Listener(b, "web")
    got = []

    def server(k):
        conn = yield from listener.accept(k)
        msg = yield from conn.recv(k)
        yield from conn.send(k, msg * 2, 16)

    def client(k):
        conn = listener.connect_from(a)
        yield from conn.send(k, 21, 8)
        reply = yield from conn.recv(k)
        got.append(reply)

    b.spawn("server", server)
    a.spawn("client", client)
    cluster2.run(ms(20))
    assert got == [42]


def test_socket_latency_grows_under_receiver_load(cluster2):
    """The two-sided penalty: a loaded receiver delays the reply."""
    fe = cluster2.frontend
    be = cluster2.backends[0]
    ea, eb = socket_pair(fe, be)
    lat = {}

    def server(k):
        while True:
            yield from eb.recv(k)
            stats = yield from be.procfs.read_stat(k)
            yield from eb.send(k, stats[NR_THREADS], 64)

    def measure(tag, n=10):
        def body(k):
            total = 0
            for _ in range(n):
                yield k.sleep(ms(10))
                t0 = k.now
                yield from ea.send(k, "req", 16)
                yield from ea.recv(k)
                total += k.now - t0
            lat[tag] = total / n

        return body

    be.spawn("server", server)
    fe.spawn("m1", measure("idle"))
    cluster2.run(ms(200))

    def hog(k):
        while True:
            yield k.compute(us(1000))

    for i in range(32):
        be.spawn(f"hog{i}", hog)
    fe.spawn("m2", measure("loaded"))
    cluster2.run(ms(2500))
    # /proc scan over 32 extra tasks plus scheduling delays: clearly slower.
    assert lat["loaded"] > lat["idle"] + us(50), lat
