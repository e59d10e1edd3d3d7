"""The /metrics scrape endpoint: routes, content type, live reads."""

import urllib.error
import urllib.request

import pytest

from repro.obs.httpd import MetricsServer
from repro.obs.openmetrics import CONTENT_TYPE, validate_exposition
from repro.obs.registry import MetricsRegistry


class FakeReport:
    def to_json(self):
        return '{"job":"test"}'


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    state = {"polls": 0}

    def collector():
        state["polls"] += 1  # observable from the scrape: renders are live
        fam = reg.family("polls", "counter", "scrape-side render counter")
        fam.add(state["polls"])
        return [fam]

    reg.register(collector)
    return reg


def get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers, resp.read().decode()


def test_scrape_serves_valid_openmetrics(registry):
    with MetricsServer(registry) as server:
        status, headers, body = get(server.url + "/metrics")
    assert status == 200
    assert headers["Content-Type"] == CONTENT_TYPE
    assert validate_exposition(body) == []
    assert "repro_polls_total 1" in body


def test_each_scrape_renders_fresh(registry):
    with MetricsServer(registry) as server:
        _, _, first = get(server.url + "/metrics")
        _, _, second = get(server.url + "/metrics")
    assert "repro_polls_total 1" in first
    assert "repro_polls_total 2" in second


def test_ephemeral_port_resolves(registry):
    with MetricsServer(registry, port=0) as server:
        assert server.port != 0
        assert str(server.port) in server.url


def test_report_route(registry):
    with MetricsServer(registry, report_provider=FakeReport) as server:
        status, headers, body = get(server.url + "/report")
    assert status == 200
    assert "application/json" in headers["Content-Type"]
    assert body == '{"job":"test"}\n'


def test_report_route_without_provider_is_404(registry):
    with MetricsServer(registry) as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/report")
    assert err.value.code == 404


def test_healthz_and_index_and_404(registry):
    with MetricsServer(registry) as server:
        assert get(server.url + "/healthz")[2] == "ok\n"
        assert "/metrics" in get(server.url + "/")[2]
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/nope")
        assert err.value.code == 404


def test_render_failure_returns_500(registry):
    registry.register(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
    with MetricsServer(registry) as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/metrics")
    assert err.value.code == 500
    assert "boom" in err.value.read().decode()


def test_double_start_rejected(registry):
    server = MetricsServer(registry).start()
    try:
        with pytest.raises(RuntimeError):
            server.start()
    finally:
        server.stop()
    # stop is idempotent
    server.stop()


def test_port_out_of_range_rejected(registry):
    for bad in (-1, 65536):
        with pytest.raises(ValueError, match="port"):
            MetricsServer(registry, port=bad)
