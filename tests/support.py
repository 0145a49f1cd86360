"""Shared test helpers.

Bare ``time.sleep`` polling loops are the classic source of flaky
tests: too short an interval burns CPU, too long a fixed sleep either
wastes wall-clock on fast machines or still races on slow ones.
:func:`wait_until` centralises the pattern — poll a predicate with a
bounded deadline and fail with a useful message instead of hanging or
asserting on stale state.

:class:`StubLookingGlass` serves canned Looking Glass answers,
including ones the simulated LG never gives (wrong-shape JSON, broken
HTTP framing).

:func:`encode_v1_artefact` and :func:`writing_v1` write artefacts in
the version-1 envelope format, for building stores as older writers
left them.
"""

import contextlib
import gzip
import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, TypeVar
from unittest import mock
from urllib.parse import urlsplit

from repro.collector import integrity

T = TypeVar("T")


def wait_until(predicate: Callable[[], T], *,
               timeout: float = 30.0,
               interval: float = 0.02,
               message: Optional[str] = None) -> T:
    """Poll *predicate* until it returns a truthy value.

    Returns the first truthy result (so ``wait_until(lambda:
    server.port or None)`` yields the port). Exceptions raised by the
    predicate propagate immediately — a broken probe should fail the
    test, not be retried into a timeout. Raises ``AssertionError``
    after *timeout* seconds of falsy results.
    """
    deadline = time.monotonic() + timeout
    while True:
        result = predicate()
        if result:
            return result
        if time.monotonic() >= deadline:
            raise AssertionError(
                message or f"condition never became true "
                           f"within {timeout:.0f}s")
        time.sleep(interval)


def wait_for_http(url: str, timeout: float = 30.0) -> None:
    """Wait until *url* answers any HTTP response at all."""
    def probe() -> bool:
        try:
            with urllib.request.urlopen(url, timeout=5):
                return True
        except (urllib.error.URLError, OSError):
            return False

    wait_until(probe, timeout=timeout, interval=0.05,
               message=f"{url} never came up")


class StubLookingGlass:
    """Canned alice-dialect answers per ``/<ixp>/v4/api/v1`` resource,
    given as ``{ixp: {resource: body}}``; the query string is ignored
    (every peer has a single page).

    A body is JSON-encoded and served with status 200; a resource with
    no body answers 404. A ``bytes`` body is instead written to the
    socket as it stands, in place of a whole HTTP response, and the
    connection is closed — how a real LG's transport faults look.
    """

    def __init__(self, mounts: Dict[str, Dict[str, Any]]) -> None:
        bodies = {f"/{ixp}/v4/api/v1{resource}": body
                  for ixp, paths in mounts.items()
                  for resource, body in paths.items()}

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                body = bodies.get(urlsplit(self.path).path)
                if isinstance(body, bytes):
                    self.wfile.write(body)
                    self.close_connection = True
                    return
                status = 200 if body is not None else 404
                payload = json.dumps(body if body is not None
                                     else {}).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)

    def __enter__(self) -> str:
        self.thread.start()
        return f"http://127.0.0.1:{self.httpd.server_address[1]}"

    def __exit__(self, *exc) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join()


def encode_v1_artefact(payload: Any, kind: str, *, gz: bool,
                       compresslevel: int = 9) -> Tuple[bytes, str]:
    """The version-1 envelope writer: the same signature and file
    layout as :func:`repro.collector.integrity.encode_artefact`, but
    ``"version":1`` and a digest over the payload's canonical
    (sorted-key) JSON rather than over its bytes as written."""
    if isinstance(payload, integrity.EncodedJSON):
        payload = json.loads(b"".join(payload.parts))
    digest = integrity.payload_digest(payload)
    body = json.dumps({
        "artefact": integrity.ARTEFACT_MAGIC, "version": 1,
        "kind": kind, "sha256": digest, "payload": payload,
    }, separators=(",", ":")).encode("utf-8")
    if gz:
        body = gzip.compress(body, compresslevel=compresslevel, mtime=0)
    return body, digest


@contextlib.contextmanager
def writing_v1() -> Iterator[None]:
    """Every store, manifest and dispatch write in the block produces
    version-1 envelopes."""
    with contextlib.ExitStack() as stack:
        for module in ("integrity", "store", "manifest", "dispatch"):
            stack.enter_context(mock.patch(
                f"repro.collector.{module}.encode_artefact",
                encode_v1_artefact))
        yield


def envelope_version(data: bytes) -> int:
    """The envelope version of an artefact's file bytes."""
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    return json.loads(data)["version"]
