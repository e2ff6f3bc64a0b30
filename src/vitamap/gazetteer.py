"""Offline gazetteer: place keys to coordinates, plus the optional
remote-resolver client.

The gazetteer file is UTF-8 TSV with exactly five columns per line:

    key<TAB>display_name<TAB>lat<TAB>lon<TAB>region

Lines starting with ``#`` are comments, blank lines are skipped, there
is no header row. Keys are unique and follow ``[a-z0-9][a-z0-9-]*``
without a trailing ``-``, which no place name folds to. The bundled
file is the source of truth; the remote resolver only ever *suggests*
a row to paste in, so compiled outputs stay reproducible offline.
"""

from __future__ import annotations

import json
from collections.abc import Container
from dataclasses import dataclass

from .model import (
    Diagnostic,
    GeoPoint,
    LifeEvent,
    fold_key,
    is_token,
    parse_coordinate,
    split_lines,
)


@dataclass(frozen=True, slots=True)
class GazetteerEntry:
    """One gazetteer row; slotted, as a gazetteer holds thousands."""

    key: str
    display_name: str
    point: GeoPoint
    region: str = ""


class GazetteerParseError(Exception):
    """Gazetteer file failure carrying all diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = sorted(diagnostics, key=lambda d: (d.line, d.column))
        first = self.diagnostics[0]
        super().__init__(f"line {first.line}: {first.message}")


class UnknownPlace(Exception):
    """A place key that neither the event nor the gazetteer can resolve;
    ``line`` is the event's ``[event]`` header line, when it has one."""

    def __init__(
        self,
        key: str,
        event_id: str | None = None,
        reason: str | None = None,
        line: int | None = None,
    ):
        self.key = key
        self.event_id = event_id
        self.line = line
        message = reason or f"unknown place '{key}'"
        if event_id is not None:
            message += f" (event '{event_id}')"
        super().__init__(message)


class GeocoderError(Exception):
    """Remote resolver failure: network, HTTP status or malformed body."""


def load_gazetteer(
    source: str, keys: Container[str] | None = None
) -> dict[str, GazetteerEntry]:
    """Parse gazetteer TSV text into an ordered key -> entry map.

    Every row is checked, whatever ``keys`` is: GazetteerParseError
    lists every malformed row, looked up or not. In the same scan an
    entry is built only for ``keys`` (a set of folded place keys; keys
    the file lacks are ignored), in file order, or for every row when
    ``keys`` is None. An empty file is a valid empty gazetteer.
    """
    first_lines: dict[str, int] = {}  # key -> line of its first valid row
    entries: dict[str, GazetteerEntry] = {}
    diags: list[Diagnostic] = []

    def reject(message: str) -> None:  # the row at ``lineno``
        diags.append(Diagnostic("error", None, message, lineno, 1))

    for lineno, line in enumerate(split_lines(source), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 5:
            reject(f"expected 5 tab-separated columns, got {len(columns)}")
            continue
        key, display_name, lat_text, lon_text, region = columns
        if not is_token(key) or key.endswith("-"):  # no place folds to it
            reject(f"invalid key '{key}'")
            continue
        first = first_lines.get(key)
        if first is not None:
            reject(f"duplicate key '{key}' (first defined on line {first})")
            continue
        if not display_name:
            reject("empty display_name")
            continue
        try:
            lat = parse_coordinate(lat_text)
        except ValueError:
            reject(f"unparsable latitude '{lat_text}'")
            continue
        try:
            lon = parse_coordinate(lon_text)
        except ValueError:
            reject(f"unparsable longitude '{lon_text}'")
            continue
        # NaN is out of range too. Unlike GeoPoint, which normalizes an
        # out-of-range longitude, the gazetteer rejects it.
        if not -90.0 <= lat <= 90.0:
            reject("latitude out of range")
            continue
        if not -180.0 < lon <= 180.0:
            reject("longitude out of range")
            continue
        first_lines[key] = lineno
        if keys is None or key in keys:
            entries[key] = GazetteerEntry(key, display_name, GeoPoint(lat, lon), region)

    if diags:
        raise GazetteerParseError(diags)
    return entries


def gazetteer_row(entry: GazetteerEntry) -> str:
    """Render one entry as a TSV row (no trailing newline)."""
    return "\t".join(
        (
            entry.key,
            entry.display_name,
            f"{entry.point.lat:.6f}",
            f"{entry.point.lon:.6f}",
            entry.region,
        )
    )


def normalize_key(name: str) -> str:
    """Fold a display name into a lookup key with :func:`fold_key`.

    Idempotent. Raises UnknownPlace when nothing is left.
    """
    key = fold_key(name)
    if not key:
        raise UnknownPlace(name, reason=f"name normalizes to empty key: {name!r}")
    return key


def resolve(event: LifeEvent, gazetteer: dict[str, GazetteerEntry]) -> GeoPoint:
    """Resolve an event's location: inline point wins, else the entry at ``event.key``.

    Raises UnknownPlace (carrying the event id and header line) when
    neither path yields a point.
    """
    if event.point is not None:
        return event.point
    entry = gazetteer.get(event.key)
    if entry is None:
        raise UnknownPlace(event.key, event_id=event.id, line=event.line)
    return entry.point


def remote_resolve(name: str, endpoint: str, timeout: float = 10.0) -> GazetteerEntry:
    """Ask a remote geocoder for a suggested gazetteer entry.

    Issues one GET ``endpoint?q=<url-encoded name>`` and expects a JSON
    object with exactly the fields key, display_name, lat and lon. The
    result is returned for display; it is never merged into a loaded
    gazetteer. Never called unless the caller explicitly enabled it.
    """
    # Imported here: only ``geocode`` needs them, and urllib.request alone
    # is a few dozen modules on every other command's start-up.
    import urllib.error
    import urllib.parse
    import urllib.request

    url = f"{endpoint}?q={urllib.parse.quote(name)}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            body = response.read()
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise GeocoderError("place not found at endpoint") from exc
        raise GeocoderError(f"geocoder returned status {exc.code}") from exc
    except urllib.error.URLError as exc:
        raise GeocoderError(f"geocoder unreachable: {exc.reason}") from exc

    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GeocoderError("malformed geocoder response: not a JSON object") from exc
    if not isinstance(payload, dict) or set(payload) != {"key", "display_name", "lat", "lon"}:
        raise GeocoderError(
            "malformed geocoder response: expected exactly key, display_name, lat, lon"
        )
    key, display_name = payload["key"], payload["display_name"]
    lat, lon = payload["lat"], payload["lon"]
    if not isinstance(key, str) or not is_token(key) or key.endswith("-"):
        raise GeocoderError("malformed geocoder response: bad key")
    if not isinstance(display_name, str) or not display_name:
        raise GeocoderError("malformed geocoder response: bad display_name")
    for value in (lat, lon):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise GeocoderError("malformed geocoder response: lat/lon must be numbers")
    try:
        point = GeoPoint(float(lat), float(lon))
    except ValueError as exc:
        raise GeocoderError(f"malformed geocoder response: {exc}") from exc
    return GazetteerEntry(key=key, display_name=display_name, point=point, region="")
