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

import re
from collections.abc import Container, Iterable
from dataclasses import dataclass
from itertools import islice

from .model import (
    Diagnostic,
    GeoPoint,
    LifeEvent,
    _unchecked,
    fold_key,
    iter_lines,
    parse_coordinate,
)

# A key is a token (vitamap.model.is_token) that does not end in "-": the
# one key rule, stated once. _KEY tests one key (row findings and
# remote_resolve); _KEYS tests a chunk of keys, each followed by a tab,
# which no key holds, with one fullmatch (load_gazetteer, after its scan).
_KEY_RULE = r"[a-z0-9][a-z0-9-]*(?<!-)"
_KEY = re.compile(_KEY_RULE + r"\Z")
_KEYS = re.compile(rf"(?:{_KEY_RULE}\t)*")
# Keys per _KEYS fullmatch. sre keeps state for each repetition, so a
# larger chunk raises the load's peak memory; 256 keeps it at the scan's.
_KEY_CHUNK = 256
_INVALID_KEY = "invalid key '{}'"


@dataclass(frozen=True, slots=True)
class GazetteerEntry:
    """One gazetteer row; slotted, as a gazetteer holds thousands."""

    key: str
    display_name: str
    point: GeoPoint
    region: str = ""


_Entry = _unchecked(GazetteerEntry)
_Point = _unchecked(GeoPoint)


def _loaded_entry(
    key: str, display_name: str, lat: float, lon: float, region: str
) -> GazetteerEntry:
    """The entry of a row that passed load_gazetteer's valid-row test,
    built with its point from their :func:`vitamap.model._unchecked`
    twins, without ``__init__`` or ``__post_init__``. That test holds
    every GeoPoint check, and a longitude it passes is one GeoPoint
    would not normalize, so both equal the constructed ones."""
    point = _Point()
    point.lat = lat
    point.lon = lon
    point.__class__ = GeoPoint
    entry = _Entry()
    entry.key = key
    entry.display_name = display_name
    entry.point = point
    entry.region = region
    entry.__class__ = GazetteerEntry
    return entry


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
    source: str | Iterable[str], keys: Container[str] | None = None
) -> dict[str, GazetteerEntry]:
    """Parse gazetteer TSV text into an ordered key -> entry map.

    ``source`` is the text, or its lines as
    :func:`vitamap.model.split_lines` splits them, drawn one at a time;
    what drawing a line raises passes through.

    Every row is checked, whatever ``keys`` is: GazetteerParseError
    lists every malformed row, looked up or not. In the same scan an
    entry is built only for ``keys`` (a set of folded place keys; keys
    the file lacks are ignored), in file order, or for every row when
    ``keys`` is None. It is built from the row's own test, by
    :func:`_loaded_entry`, which runs no GeoPoint or GazetteerEntry
    check, and equals the constructed entry. An empty file is a valid
    empty gazetteer.

    A valid row passes one test. A row that fails it, and is not blank
    or a comment, gets one finding: the first of, in this order, the
    column count, the key, a duplicate key, an empty display_name, the
    latitude text, the longitude text, the latitude range and the
    longitude range. Only a valid row defines its key, so a later row
    with the key of a rejected one is its first definition.

    The key rule is the one part of that test run after the scan. The
    scan takes any key without a ``#``, so that a comment row stays
    silent, and then tests the defined keys in bulk, one regex match per
    chunk, giving each key that fails its finding at its row. The
    findings are the same: an invalid key never equals a valid one, so
    defining it changes no other row's verdict; a later row with it gets
    the row finding, whose key test comes first; and the load raises, so
    no entry built for it is returned.
    """
    first_lines: dict[str, int] = {}  # key -> line of its first valid row
    entries: dict[str, GazetteerEntry] = {}
    diags: list[Diagnostic] = []

    lines = iter_lines(source) if isinstance(source, str) else source
    for lineno, line in enumerate(lines, start=1):
        try:
            key, display_name, lat_text, lon_text, region = line.split("\t")
            lat, lon = float(lat_text), float(lon_text)
        except ValueError:
            pass
        else:
            # The last four tests are parse_coordinate's rule. NaN fails the
            # range tests; unlike GeoPoint, which normalizes an out-of-range
            # longitude, the gazetteer rejects it.
            if (
                "#" not in key
                and key not in first_lines
                and display_name
                and -90.0 <= lat <= 90.0
                and -180.0 < lon <= 180.0
                and lat_text.isascii()
                and lon_text.isascii()
                and "_" not in lat_text
                and "_" not in lon_text
            ):
                first_lines[key] = lineno
                if keys is None or key in keys:
                    entries[key] = _loaded_entry(key, display_name, lat, lon, region)
                continue
        if line.strip() and not line.startswith("#"):
            diags.append(Diagnostic("error", None, _row_finding(line, first_lines), lineno, 1))

    defined = iter(first_lines)
    while chunk := list(islice(defined, _KEY_CHUNK)):
        if not _KEYS.fullmatch("\t".join(chunk) + "\t"):
            for key in chunk:
                if not _KEY.match(key):
                    message = _INVALID_KEY.format(key)
                    diags.append(Diagnostic("error", None, message, first_lines[key], 1))

    if diags:
        raise GazetteerParseError(diags)
    return entries


def _row_finding(line: str, first_lines: dict[str, int]) -> str:
    """The message for a row that failed load_gazetteer's valid-row test."""
    columns = line.split("\t")
    if len(columns) != 5:
        return f"expected 5 tab-separated columns, got {len(columns)}"
    key, display_name, lat_text, lon_text, _ = columns
    if not _KEY.match(key):
        return _INVALID_KEY.format(key)
    first = first_lines.get(key)
    if first is not None:
        return f"duplicate key '{key}' (first defined on line {first})"
    if not display_name:
        return "empty display_name"
    try:
        lat = parse_coordinate(lat_text)
    except ValueError:
        return f"unparsable latitude '{lat_text}'"
    try:
        parse_coordinate(lon_text)
    except ValueError:
        return f"unparsable longitude '{lon_text}'"
    if not -90.0 <= lat <= 90.0:
        return "latitude out of range"
    return "longitude out of range"  # the one test left that the row can fail


def gazetteer_row(entry: GazetteerEntry) -> str:
    """Render one entry as a TSV row (no trailing newline) that load_gazetteer takes."""
    return "\t".join(
        (
            entry.key,
            entry.display_name,
            f"{entry.point.lat:.6f}",
            # A longitude just above -180 rounds to -180.000000, which the
            # loader refuses: that meridian is written as +180.
            f"{entry.point.lon:.6f}".replace("-180.", "180."),
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
    object with exactly the fields key, display_name, lat and lon; any
    failure of the request or the reply raises GeocoderError. The
    result is returned for display; it is never merged into a loaded
    gazetteer. Never called unless the caller explicitly enabled it.
    """
    # Imported here: only ``geocode`` needs them, and urllib.request alone
    # is a few dozen modules on every other command's start-up.
    import http.client
    import json
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
    except (OSError, ValueError, http.client.HTTPException) as exc:
        # URLError and a timeout are OSErrors, an unknown scheme or a bad
        # host a ValueError, and a reply cut short an HTTPException.
        raise GeocoderError(f"geocoder unreachable: {getattr(exc, 'reason', exc)}") from exc

    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # A bad byte, bad JSON and an int past the digit limit are
        # ValueErrors; arrays nested too deep are a RecursionError.
        raise GeocoderError("malformed geocoder response: not a JSON object") from exc
    if not isinstance(payload, dict) or set(payload) != {"key", "display_name", "lat", "lon"}:
        raise GeocoderError(
            "malformed geocoder response: expected exactly key, display_name, lat, lon"
        )
    key, display_name = payload["key"], payload["display_name"]
    lat, lon = payload["lat"], payload["lon"]
    if not isinstance(key, str) or not _KEY.match(key):
        raise GeocoderError("malformed geocoder response: bad key")
    # A tab, CR or LF would split the row that gazetteer_row prints.
    if not isinstance(display_name, str) or not display_name or set("\t\r\n") & set(display_name):
        raise GeocoderError("malformed geocoder response: bad display_name")
    for value in (lat, lon):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise GeocoderError("malformed geocoder response: lat/lon must be numbers")
    try:
        point = GeoPoint(float(lat), float(lon))
    except (ValueError, OverflowError) as exc:  # an int too large for a float
        raise GeocoderError(f"malformed geocoder response: {exc}") from exc
    return GazetteerEntry(key=key, display_name=display_name, point=point, region="")
