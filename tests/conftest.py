"""Shared fixtures: bundled corpora paths and a canned geocoder stub."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

CORPORA_DIR = Path(__file__).resolve().parent.parent / "src" / "vitamap" / "corpora"

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        doc = item.function.__doc__ or item.name
        criterion = doc.strip().splitlines()[0]
        _ACCEPTANCE_RESULTS.append((criterion, "PASS" if report.passed else "FAIL"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, outcome in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{outcome}  {criterion}")


# Seconds the /stall route waits after its headers before it closes the
# reply unwritten; a test that asks it gives remote_resolve a shorter timeout.
STALL_SECONDS = 0.5

# Bodies sent as they stand, none of them a JSON object of four fields:
# text that is not JSON; a lat of 1e400, past a float; a lat of 5 000
# digits, past the interpreter's int digit limit; and arrays nested past
# the recursion limit.
_RAW_BODIES = {
    "/not-json": b"<html>nope</html>",
    "/huge-lat": b'{"key": "x", "display_name": "X", "lat": 1' + b"0" * 400 + b', "lon": 1}',
    "/long-lat": b'{"key": "x", "display_name": "X", "lat": ' + b"1" * 5000 + b', "lon": 1}',
    "/deep": b"[" * 100_000,
}

# Endpoints whose request or reply fails, each with the message that
# remote_resolve gives; one with no {stub} in it is asked of no server.
# A lat past the int digit limit fails the JSON decode; where the
# interpreter has no such limit, it fails float() instead.
GEOCODER_ESCAPES = {
    "unknown-scheme": ("nonsense", "^geocoder unreachable: unknown url type: "),
    "bad-ipv6-host": ("http://[::1", "^geocoder unreachable: Invalid IPv6 URL$"),
    "short-reply": ("{stub}/short", r"^geocoder unreachable: IncompleteRead\("),
    "huge-lat": ("{stub}/huge-lat", "^malformed geocoder response: int too large to convert "),
    "long-lat": ("{stub}/long-lat", "^malformed geocoder response: "),
    "deep-json": ("{stub}/deep", "^malformed geocoder response: not a JSON object$"),
}


class _GeocoderHandler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        name = query.get("q", [""])[0]
        route = parsed.path

        if route == "/ok":
            self._reply(
                200,
                {"key": "assiut", "display_name": "Assiut", "lat": 27.18, "lon": 31.18},
            )
        elif route == "/echo":
            key = name.lower().replace(" ", "-") or "empty"
            self._reply(200, {"key": key, "display_name": name, "lat": 1.5, "lon": 2.5})
        elif route == "/named":  # the query as the display name of a fixed key
            self._reply(200, {"key": "x", "display_name": name, "lat": 1.5, "lon": 2.5})
        elif route == "/string-lat":
            self._reply(200, {"key": "x", "display_name": "X", "lat": "1.0", "lon": 1.0})
        elif route == "/far-lat":
            self._reply(200, {"key": "x", "display_name": "X", "lat": 91.0, "lon": 1.0})
        elif route == "/notfound":
            self.send_response(404)
            self.end_headers()
        elif route == "/error":
            self.send_response(500)
            self.end_headers()
        elif route == "/missing-lat":
            self._reply(200, {"key": "x", "display_name": "X", "lon": 1.0})
        elif route == "/extra-field":
            self._reply(
                200,
                {"key": "x", "display_name": "X", "lat": 1.0, "lon": 1.0, "bonus": 1},
            )
        elif route in _RAW_BODIES:
            body = _RAW_BODIES[route]
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif route == "/short":  # a reply cut short of its Content-Length
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"key": "x"')
        elif route == "/stall":  # headers, then nothing until the timeout is past
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            time.sleep(STALL_SECONDS)
        else:
            self.send_response(404)
            self.end_headers()

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep test output clean
        pass


@pytest.fixture(scope="session")
def geocoder_stub():
    server = HTTPServer(("127.0.0.1", 0), _GeocoderHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture(scope="session")
def newton_path() -> Path:
    return CORPORA_DIR / "newton.vita"


@pytest.fixture(scope="session")
def schiaparelli_path() -> Path:
    return CORPORA_DIR / "schiaparelli.vita"


@pytest.fixture(scope="session")
def gazetteer_path() -> Path:
    return CORPORA_DIR / "gazetteer.tsv"
