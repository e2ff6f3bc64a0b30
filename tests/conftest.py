"""Shared fixtures: bundled corpora paths and a canned geocoder stub."""

from __future__ import annotations

import json
import threading
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
        elif route == "/not-json":
            body = b"<html>nope</html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
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
