"""The HTTP/1.1 server codec: request heads from bytes, responses as
one buffer, without sockets; and the app contract of the loop server
over one."""

import contextlib
import socket

import pytest

from repro.net import aio
from repro.net.httpserver import (
    MAX_HEAD_BYTES,
    BadRequest,
    LoopHTTPServer,
    parse_request,
    render_response,
)


def parse(raw: bytes):
    parsed = parse_request(raw)
    assert parsed is not None
    return parsed


class TestParseRequest:
    def test_request_line_and_headers(self):
        raw = (b"GET /v1/keys?x=1 HTTP/1.1\r\nHost: a\r\n"
               b"If-None-Match:  \"abc\" \r\n\r\n")
        request, consumed = parse(raw)
        assert consumed == len(raw)
        assert (request.method, request.target) == ("GET", "/v1/keys?x=1")
        assert request.headers == {"host": "a",
                                   "if-none-match": '"abc"'}
        assert request.keep_alive
        assert request.body_length == 0

    def test_incomplete_head_waits_for_more(self):
        assert parse_request(b"GET / HTTP/1.1\r\nHost: a\r\n") is None
        assert parse_request(b"") is None

    def test_pipelined_heads_parse_one_at_a_time(self):
        first = b"GET /a HTTP/1.1\r\n\r\n"
        second = b"HEAD /b HTTP/1.1\r\n\r\n"
        buffer = first + second
        request, consumed = parse(buffer)
        assert (request.target, consumed) == ("/a", len(first))
        request, consumed = parse(buffer[consumed:])
        assert (request.method, request.target) == ("HEAD", "/b")

    def test_leading_empty_lines_are_skipped(self):
        raw = b"\r\n\r\nGET / HTTP/1.1\r\n\r\n"
        request, consumed = parse(raw)
        assert request.target == "/"
        assert consumed == len(raw)

    def test_connection_close_and_http10_do_not_keep_alive(self):
        closing, _ = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        old, _ = parse(b"GET / HTTP/1.0\r\n\r\n")
        old_keep, _ = parse(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        assert not closing.keep_alive
        assert not old.keep_alive
        assert not old_keep.keep_alive

    def test_repeated_headers_are_joined(self):
        request, _ = parse(b"GET / HTTP/1.1\r\nIf-None-Match: \"a\"\r\n"
                           b"If-None-Match: \"b\"\r\n\r\n")
        assert request.headers["if-none-match"] == '"a", "b"'

    def test_content_length_is_the_body_length(self):
        request, consumed = parse(
            b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
        assert request.body_length == 5
        assert consumed == len(b"GET / HTTP/1.1\r\nContent-Length: 5"
                               b"\r\n\r\n")

    @pytest.mark.parametrize("raw", [
        b"garbage\r\n\r\n",
        b"GET /\r\n\r\n",
        b"GET / HTTP/2.0\r\n\r\n",
        b"GET  / HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\nNo colon here\r\n\r\n",
        b"GET / HTTP/1.1\r\n folded: header\r\n\r\n",
        b"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: 5, 6\r\n\r\n",
        b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    ])
    def test_malformed_heads_are_400(self, raw):
        with pytest.raises(BadRequest) as excinfo:
            parse_request(raw)
        assert excinfo.value.status == 400

    def test_oversized_head_is_431_complete_or_not(self):
        header = b"X-Big: " + b"a" * MAX_HEAD_BYTES + b"\r\n"
        for raw in (b"GET / HTTP/1.1\r\n" + header,
                    b"GET / HTTP/1.1\r\n" + header + b"\r\n"):
            with pytest.raises(BadRequest) as excinfo:
                parse_request(raw)
            assert excinfo.value.status == 431


class TestRenderResponse:
    def split(self, data: bytes):
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = [tuple(line.split(": ", 1)) for line in lines[1:]]
        return lines[0], headers, body

    def test_one_buffer_with_length_and_headers_in_order(self):
        data = render_response(200, [("Content-Type", "application/json"),
                                     ("ETag", '"x"')], b"{}")
        status_line, headers, body = self.split(data)
        assert status_line == "HTTP/1.1 200 OK"
        names = [name for name, _value in headers]
        assert names == ["Server", "Date", "Content-Type", "ETag",
                         "Content-Length"]
        assert dict(headers)["Content-Length"] == "2"
        assert body == b"{}"

    def test_head_keeps_length_drops_body(self):
        data = render_response(200, [], b"hello", send_body=False)
        _status, headers, body = self.split(data)
        assert dict(headers)["Content-Length"] == "5"
        assert body == b""

    def test_close_is_announced(self):
        _status, headers, _body = self.split(
            render_response(400, [], b"", close=True))
        assert dict(headers)["Connection"] == "close"

    def test_reason_phrases(self):
        for status, phrase in ((304, "Not Modified"),
                               (429, "Too Many Requests"),
                               (431, "Request Header Fields Too Large"),
                               (501, "Not Implemented")):
            assert self.split(render_response(status, [], b""))[0] == \
                f"HTTP/1.1 {status} {phrase}"


class TestAppContract:
    """One app for the loop server: a scope per connection, a waiting
    ``respond``, an answer that closes, and no answer at all."""

    @staticmethod
    def serve(respond, scopes):
        @contextlib.contextmanager
        def app():
            scopes.append("open")
            try:
                yield respond
            finally:
                scopes.append("closed")
        server = LoopHTTPServer(socket.create_server(("127.0.0.1", 0)), app)
        server.start()
        return server

    @staticmethod
    def exchange(server, raw):
        port = server.sock.getsockname()[1]
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as sock:
            sock.sendall(raw)
            return sock.makefile("rb").read()

    def test_waits_then_answers_and_closes(self):
        def respond(request, answer):
            yield from aio.sleep(0.01)
            yield from answer(200, [("X-Path", request.target)], b"ok",
                              close=True)
        scopes = []
        server = self.serve(respond, scopes)
        try:
            reply = self.exchange(server, b"GET /a HTTP/1.1\r\n\r\n")
        finally:
            server.stop()
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"X-Path: /a\r\n" in reply
        assert b"Connection: close\r\n" in reply
        assert reply.endswith(b"\r\n\r\nok")
        assert scopes == ["open", "closed"]

    def test_respond_without_answer_is_500(self, capsys):
        def respond(request, answer):
            yield from aio.sleep(0)
        scopes = []
        server = self.serve(respond, scopes)
        try:
            reply = self.exchange(server, b"GET /a HTTP/1.1\r\n\r\n")
        finally:
            server.stop()
        assert reply.startswith(b"HTTP/1.1 500 ")
        assert "request left unanswered" in capsys.readouterr().err
        assert scopes == ["open", "closed"]
