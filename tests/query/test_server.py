"""QueryHTTPServer: request discipline (shed / ratelimit / breaker /
404), real HTTP round-trips, raw-socket exchanges with the event-loop
front end, and the concurrent-load smoke test
(ISSUE satellite: threads hammering every route, zero 5xx, bodies
byte-identical to the export)."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.net.httpserver import LoopHTTPServer
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
        """Back-to-back keep-alive reads must not stall on the client's
        delayed ACK: the accepted socket carries TCP_NODELAY."""
        import http.client

        adopt = LoopHTTPServer._adopt
        nodelay = []

        def probing_adopt(sock):
            adopt(sock)
            nodelay.append(sock.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY))

        monkeypatch.setattr(LoopHTTPServer, "_adopt",
                            staticmethod(probing_adopt))
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


def read_response(stream):
    """One framed response from a socket's ``makefile("rb")``:
    ``(status, headers, body)``; None on EOF before a status line."""
    status_line = stream.readline()
    if not status_line:
        return None
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = stream.readline().rstrip(b"\r\n")
        if not line:
            break
        name, _, value = line.partition(b":")
        headers[name.decode().lower()] = value.strip().decode()
    body = stream.read(int(headers.get("content-length", 0)))
    return status, headers, body


@pytest.fixture()
def served(server):
    """A running server; after the test, a fresh connection must still
    get /healthz (one bad client never takes the loop down)."""
    with server.serve() as url:
        yield server
        assert fetch(url + "/healthz")[0] == 200


def connect(server, rcvbuf=None):
    sock = socket.socket()
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(5)
    sock.connect((server.host, server.port))
    return sock


class TestWire:
    """Raw-socket exchanges with the event-loop front end."""

    def test_garbage_request_line_gets_400_and_close(self, served):
        with connect(served) as sock:
            sock.sendall(b"this is not http\r\n\r\n")
            stream = sock.makefile("rb")
            status, headers, body = read_response(stream)
            assert status == 400
            assert headers["connection"] == "close"
            assert json.loads(body)["status"] == 400
            assert stream.read() == b""

    def test_oversized_head_gets_431(self, served):
        with connect(served) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Big: "
                         + b"a" * (70 * 1024) + b"\r\n\r\n")
            stream = sock.makefile("rb")
            assert read_response(stream)[0] == 431
            assert stream.read() == b""

    def test_post_gets_501(self, served):
        with connect(served) as sock:
            sock.sendall(b"POST /v1/keys HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 2\r\n\r\n{}")
            stream = sock.makefile("rb")
            assert read_response(stream)[0] == 501
            assert stream.read() == b""

    def test_request_body_is_discarded_without_desync(self, served):
        with connect(served) as sock:
            stream = sock.makefile("rb")
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 5\r\n\r\nhello")
            status, _headers, body = read_response(stream)
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            sock.sendall(b"GET /v1/keys HTTP/1.1\r\nHost: x\r\n\r\n")
            status, _headers, body = read_response(stream)
            assert status == 200
            assert body == fetch(served.base_url + "/v1/keys")[1]

    def test_pipelined_requests_answer_in_order(self, served):
        with connect(served) as sock:
            stream = sock.makefile("rb")
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                         b"GET /v1/keys HTTP/1.1\r\nHost: x\r\n\r\n")
            first = read_response(stream)
            second = read_response(stream)
        assert first[0] == second[0] == 200
        assert json.loads(first[2])["status"] == "ok"
        assert second[2] == fetch(served.base_url + "/v1/keys")[1]

    def test_http10_closes_after_the_response(self, served):
        with connect(served) as sock:
            sock.sendall(b"GET /v1/ixps HTTP/1.0\r\n\r\n")
            stream = sock.makefile("rb")
            status, headers, body = read_response(stream)
            assert status == 200
            assert len(body) == int(headers["content-length"])
            assert stream.read() == b""  # EOF, not the idle timeout

    def test_half_close_mid_head_gets_no_answer(self, served):
        with connect(served) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHo")
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1024) == b""

    def test_head_matches_get_headers_without_body(self, served):
        with connect(served) as sock:
            stream = sock.makefile("rb")
            sock.sendall(b"HEAD /v1/keys HTTP/1.1\r\nHost: x\r\n\r\n"
                         b"GET /v1/keys HTTP/1.1\r\nHost: x\r\n\r\n")
            head_line = stream.readline()
            head = {}
            while True:
                line = stream.readline().rstrip(b"\r\n")
                if not line:
                    break
                name, _, value = line.partition(b":")
                head[name.decode().lower()] = value.strip().decode()
            status, get_headers, body = read_response(stream)
        assert head_line.split()[1] == b"200" and status == 200
        for name in ("content-type", "content-length", "etag",
                     "cache-control"):
            assert head[name] == get_headers[name]
        assert int(head["content-length"]) == len(body)

    def test_idle_keepalive_connection_times_out(self, served,
                                                 monkeypatch):
        from repro.net import httpserver

        monkeypatch.setattr(httpserver, "IDLE_TIMEOUT", 0.2)
        with connect(served) as sock:
            stream = sock.makefile("rb")
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert read_response(stream)[0] == 200
            started = time.monotonic()
            assert stream.read() == b""
        assert time.monotonic() - started < 3.0

    def test_slow_reader_arrives_whole_while_others_are_served(
            self, served, monkeypatch):
        expected = fetch(served.base_url + "/v1/export")[1]
        adopt = LoopHTTPServer._adopt

        def small_send_buffer(sock):
            adopt(sock)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

        # small buffers at both ends: the ~60 KB export takes many
        # partial writes.
        monkeypatch.setattr(LoopHTTPServer, "_adopt",
                            staticmethod(small_send_buffer))
        with connect(served, rcvbuf=4096) as slow:
            slow.sendall(b"GET /v1/export HTTP/1.1\r\nHost: x\r\n\r\n")
            stream = slow.makefile("rb", buffering=0)
            received = bytearray(stream.read(1024))
            # the server cannot hand the whole export to the kernel at
            # once: the request is still in flight.
            assert served._inflight == 1
            for _ in range(3):
                assert fetch(served.base_url + "/healthz")[0] == 200
            while True:
                chunk = stream.read(4096)
                if not chunk:
                    break
                received += chunk
                time.sleep(0.001)
                if received.endswith(expected):
                    break
        assert bytes(received).endswith(b"\r\n\r\n" + expected)
        assert served._inflight == 0

    def test_failing_socket_option_loses_only_that_connection(
            self, served, monkeypatch):
        adopt = LoopHTTPServer._adopt
        failures = []

        def fail_once(sock):
            if not failures:
                failures.append(sock)
                raise OSError(22, "Invalid argument")
            adopt(sock)

        monkeypatch.setattr(LoopHTTPServer, "_adopt",
                            staticmethod(fail_once))
        with connect(served) as sock:
            assert sock.recv(1024) == b""  # closed by the server
        assert failures and failures[0].fileno() == -1  # not leaked
        # the accept task lives on: the next connection is served.
        assert fetch(served.base_url + "/healthz")[0] == 200

    def test_application_error_gets_500_and_a_traceback(self, served,
                                                        capsys):
        with connect(served) as sock:
            # urlparse raises ValueError on this target inside handle()
            sock.sendall(b"GET //[x HTTP/1.1\r\nHost: x\r\n\r\n")
            stream = sock.makefile("rb")
            status, headers, body = read_response(stream)
            assert status == 500
            assert headers["connection"] == "close"
            assert json.loads(body)["status"] == 500
            assert stream.read() == b""
        assert served._inflight == 0
        err = capsys.readouterr().err
        assert "GET '//[x'" in err
        assert "ValueError: Invalid IPv6 URL" in err

    def test_stop_closes_an_idle_keepalive_connection(self, server):
        server.start()
        with connect(server) as sock:
            stream = sock.makefile("rb")
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert read_response(stream)[0] == 200
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
            assert stream.read() == b""
        assert elapsed < 2.0  # not the 10 s idle timeout


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
