"""QueryHTTPServer: request discipline (shed / ratelimit / breaker /
404), real HTTP round-trips, and the concurrent-load smoke test
(ISSUE satellite: threads hammering every route, zero 5xx, bodies
byte-identical to the export)."""

import json
import threading
import urllib.error
import urllib.request

from repro.query import QueryHTTPServer


def handle_json(server, path, **kwargs):
    status, body, headers, route = server.handle(path, **kwargs)
    return status, json.loads(body) if body else None, headers, route


def fetch(url, if_none_match=None):
    request = urllib.request.Request(url)
    if if_none_match:
        request.add_header("If-None-Match", if_none_match)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read(), dict(
                response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


class TestRequestDiscipline:
    def test_unknown_path_is_json_404(self, server):
        status, payload, _headers, route = handle_json(server, "/nope")
        assert status == 404
        assert payload["status"] == 404
        assert route == "unknown"

    def test_rate_limit_answers_429_with_positive_retry_after(
            self, service):
        server = QueryHTTPServer(service, rate_per_second=0.0001,
                                 burst=1)
        assert server.handle("/v1/ixps")[0] == 200
        status, _body, headers, _route = server.handle("/v1/ixps")
        assert status == 429
        assert float(headers["Retry-After"]) > 0

    def test_ops_plane_bypasses_the_rate_limit(self, service):
        server = QueryHTTPServer(service, rate_per_second=0.0001,
                                 burst=1)
        assert server.handle("/v1/ixps")[0] == 200  # bucket now empty
        assert server.handle("/healthz")[0] == 200
        assert server.handle("/metrics")[0] == 200
        assert server.handle("/v1/ixps")[0] == 429

    def test_overload_sheds_503(self, server):
        server.max_inflight = 0
        with server._track():  # one request already in flight
            status, _body, headers, _route = server.handle("/v1/ixps")
        assert status == 503
        assert headers["Retry-After"] == "1"
        # and recovers once the in-flight request finishes
        assert server.handle("/v1/ixps")[0] == 200

    def test_breaker_opens_after_repeated_view_failures(
            self, server, monkeypatch):
        def explode(*_args, **_kwargs):
            raise RuntimeError("store on fire")

        monkeypatch.setattr(server.service, "respond", explode)
        for _ in range(server.breaker.failure_threshold):
            assert server.handle("/v1/keys")[0] == 500
        status, _body, headers, _route = server.handle("/v1/keys")
        assert status == 503
        assert float(headers["Retry-After"]) > 0

    def test_breaker_closes_after_recovery(self, service):
        server = QueryHTTPServer(service, breaker_threshold=2,
                                 breaker_reset=0.05)
        original = service.respond
        broken = {"on": True}

        def flaky(*args, **kwargs):
            if broken["on"]:
                raise RuntimeError("transient")
            return original(*args, **kwargs)

        service.respond = flaky
        assert server.handle("/v1/keys")[0] == 500
        assert server.handle("/v1/keys")[0] == 500
        assert server.handle("/v1/keys")[0] == 503  # open
        broken["on"] = False
        import time
        time.sleep(0.06)  # reset window elapses; half-open probe
        assert server.handle("/v1/keys")[0] == 200

    def test_etag_header_is_quoted(self, server):
        _status, _body, headers, _route = server.handle("/v1/keys")
        assert headers["ETag"].startswith('"')
        assert headers["ETag"].endswith('"')
        assert headers["Cache-Control"] == "no-cache"


class TestHTTPRoundTrip:
    def test_get_and_conditional_get(self, server):
        with server.serve() as url:
            status, body, headers = fetch(url + "/v1/export")
            assert status == 200
            etag = headers["ETag"]
            status, body, headers = fetch(url + "/v1/export",
                                          if_none_match=etag)
            assert status == 304
            assert body == b""
            assert headers["ETag"] == etag

    def test_head_carries_content_length_without_body(self, server):
        import http.client

        with server.serve():
            connection = http.client.HTTPConnection(server.host,
                                                    server.port,
                                                    timeout=30)
            connection.request("HEAD", "/v1/keys")
            response = connection.getresponse()
            assert response.status == 200
            assert int(response.headers["Content-Length"]) > 0
            assert response.read() == b""
            connection.close()

    def test_served_connection_disables_nagle(self, server, monkeypatch):
        """Headers and body go out as separate writes; with Nagle on,
        back-to-back keep-alive reads stall on the client's delayed
        ACK. The accepted socket must carry TCP_NODELAY."""
        import http.client
        import socket

        make_handler = server._make_handler
        nodelay = []

        def probing_handler():
            base = make_handler()

            class Probe(base):
                def setup(self):
                    super().setup()
                    nodelay.append(self.connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY))

            return Probe

        monkeypatch.setattr(server, "_make_handler", probing_handler)
        with server.serve():
            connection = http.client.HTTPConnection(server.host,
                                                    server.port,
                                                    timeout=30)
            for _ in range(2):  # two reads over one keep-alive socket
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            connection.close()
        assert len(nodelay) == 1 and nodelay[0] != 0

    def test_graceful_stop_drains(self, server):
        with server.serve() as url:
            assert fetch(url + "/healthz")[0] == 200
        # after the context exits the port is closed
        try:
            fetch(url + "/healthz")
            raised = False
        except (urllib.error.URLError, OSError):
            raised = True
        assert raised


class TestConcurrentLoad:
    def test_many_threads_zero_5xx_byte_identical(self, server):
        """Threads hammer every route concurrently; nothing 5xxes and
        every 200 for a given route is byte-for-byte identical."""
        paths = ["/healthz", "/v1/ixps", "/v1/keys", "/v1/tables",
                 "/v1/tables/1", "/v1/tables/2", "/v1/tables/3",
                 "/v1/tables/4", "/v1/figures", "/v1/figures/fig1",
                 "/v1/ixps/linx/v4/aggregate",
                 "/v1/ixps/decix-fra/v6/aggregate", "/v1/export"]
        failures = []
        bodies = {}
        lock = threading.Lock()

        def worker(offset: int) -> None:
            for i in range(3 * len(paths)):
                path = paths[(offset + i) % len(paths)]
                status, body, _headers = fetch(server.base_url + path)
                if status >= 500:
                    failures.append((path, status))
                    continue
                with lock:
                    seen = bodies.setdefault(path, body)
                if seen != body:
                    failures.append((path, "body drift"))

        with server.serve():
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert failures == []
        assert set(bodies) == set(paths)

    def test_export_bytes_under_load_match_the_export_file(
            self, qstore, server, tmp_path):
        from repro.core import Study
        from repro.core.engine import AggregateCache
        from repro.core.export import export_study_json

        from .conftest import FAMILIES, IXPS

        study = Study.from_store(qstore, ixps=IXPS, families=FAMILIES,
                                 cache=AggregateCache(qstore))
        expected = export_study_json(
            study, tmp_path / "bundle.json", FAMILIES).read_bytes()
        results = []

        def worker() -> None:
            results.append(fetch(server.base_url + "/v1/export")[1])

        with server.serve():
            threads = [threading.Thread(target=worker)
                       for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert all(body == expected for body in results)
