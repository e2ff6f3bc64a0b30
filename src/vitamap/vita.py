"""Parser and serializer for the VITA biography file format.

VITA is a line-oriented UTF-8 text format:

* ``#`` starts a comment that runs to the end of the line.
* A block opens with ``[biography]`` or ``[event]`` on its own line.
  The ``[biography]`` block comes first and appears exactly once.
* Inside a block each line is ``key = value``. Values are taken verbatim
  after trimming surrounding ASCII whitespace; there is no quoting.
* Biography keys: ``title``, ``id``, ``gazetteer`` (optional relative
  path to a gazetteer TSV).
* Event keys: ``id``, ``kind`` (default ``other``), ``start``,
  ``end`` (default: same expression as ``start``), ``place`` (gazetteer
  key; it must not normalize to an empty key), ``lat``/``lon`` (inline
  point, both or neither), ``label`` (default: the place key, else the
  event id), ``note`` and ``attach`` (repeatable, relative paths).
  Unknown keys are errors so typos are caught instead of ignored.
* Date expressions are ``YYYY``, ``YYYY-MM`` or ``YYYY-MM-DD``,
  optionally prefixed with ``c.`` for approximate dates. A bare year
  covers Jan 1 to Dec 31 and a bare month covers the whole month, so
  ``start = 1904`` means the interval [1904-01-01, 1904-12-31].

Parsing never raises anything but :class:`VitaParseError`; when a block
is broken the parser records diagnostics and resumes at the next block
header, so one bad event produces localized messages instead of hiding
the rest of the file.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from datetime import date

from .model import (
    Biography,
    DateInterval,
    Diagnostic,
    EVENT_KINDS,
    GeoPoint,
    LifeEvent,
    ParseDiagnostic,
    _parsed_event,
    _parsed_interval,
    days_in_month,
    fold_key,
    is_token,
    iter_lines,
    parse_coordinate,
)

_ASCII_WS = " \t\r\f\v"

# The keys each block sets at most once: ``attach``, an event's one
# repeatable key, is not among them. A header that is broken opens the
# "skip" block, and None is the block before the first header.
_KEYS: dict[str | None, frozenset[str]] = {
    None: frozenset(),
    "biography": frozenset({"title", "id", "gazetteer"}),
    "event": frozenset({"id", "kind", "start", "end", "place", "lat", "lon", "label", "note"}),
    "skip": frozenset(),
}
_EMPTY_OK_KEYS = frozenset({"note", "label"})

# Each kind's one string, which every event of that kind holds.
_KINDS = {kind: kind for kind in EVENT_KINDS}

_DATE_EXPR_RE = re.compile(r"(c\.)?[ \t]*([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2}))?)?\Z")

# A key's value, its line number, and that line with its comment cut; the
# value's column is worked out from the line only when a finding needs it.
_Pair = tuple[str, int, str]


class VitaParseError(Exception):
    """Parse failure carrying all diagnostics, sorted by (line, column)."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = sorted(diagnostics, key=lambda d: (d.line, d.column))
        first = self.diagnostics[0]
        super().__init__(f"{first.line}:{first.column}: {first.message}")


def parse_date_expr(expr: str) -> DateInterval:
    """Expand a date expression into an inclusive day interval."""
    return DateInterval(*_date_range(expr.strip(_ASCII_WS)))


def _date_range(expr: str) -> tuple[date, date, bool]:
    """The first day, last day and circa flag of a stripped date expression."""
    # A YYYY-MM-DD day goes straight to date.fromisoformat. No other ISO form
    # passes this guard, and what it refuses (a day out of range, a digit
    # that is not ASCII) takes the regex path, which names the finding.
    if len(expr) == 10 and expr[4] == expr[7] == "-":
        try:
            day = date.fromisoformat(expr)
            return day, day, False
        except ValueError:
            pass
    if not expr:
        raise ValueError("empty date expression")
    m = _DATE_EXPR_RE.match(expr)
    if not m:
        raise ValueError(f"malformed date expression '{expr}'")
    circa, year_text, month_text, day_text = m.groups()
    year = int(year_text)
    if year < 1:
        raise ValueError(f"year out of range in '{expr}'")
    if month_text is None:
        return date(year, 1, 1), date(year, 12, 31), circa is not None
    month = int(month_text)
    if not 1 <= month <= 12:
        raise ValueError(f"month out of range in '{expr}'")
    if day_text is None:
        last = date(year, month, days_in_month(year, month))
        return date(year, month, 1), last, circa is not None
    try:
        d = date(year, month, int(day_text))
    except ValueError:
        raise ValueError(f"day out of range in '{expr}'") from None
    return d, d, circa is not None


def parse_biography(source: str | Iterable[str]) -> Biography:
    """Parse VITA text into a Biography.

    ``source`` is the text, or its lines as
    :func:`vitamap.model.split_lines` splits them, drawn one at a time.
    Raises VitaParseError with every diagnostic found; any text yields
    either a Biography or at least one diagnostic, never a crash. What
    drawing a line raises passes through.
    """
    diags: list[Diagnostic] = []
    events: list[LifeEvent | None] = []  # None for an event with findings
    bio_line = 0  # line of the [biography] header; 0 until one is seen
    bio_pairs: dict[str, _Pair] = {}
    event_line = 0  # header line of the open [event] block; 0 when none is open
    pairs: dict[str, _Pair] = {}  # the open block's keys
    attachments: list[_Pair] = []  # the open [event] block's attach values
    block: str | None = None  # a key of _KEYS
    keys = _KEYS[block]  # set at each header
    header_missing_reported = False
    # Within this parse, events share equal values: one string and one key
    # per place text, one GeoPoint per (lat text, lon text).
    places: dict[str, tuple[str, str]] = {}
    points: dict[tuple[str, str], GeoPoint] = {}

    def report_missing_header() -> None:
        nonlocal header_missing_reported
        if not header_missing_reported:
            diags.append(ParseDiagnostic(1, 1, "missing [biography] header"))
            header_missing_reported = True

    # Each non-blank line takes exactly one branch of this chain; only a
    # line that stores nothing is stripped whole.
    lines = iter_lines(source) if isinstance(source, str) else source
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.partition("#")[0]
        raw_key, eq, rest = line.partition("=")
        key = raw_key.strip(_ASCII_WS)
        value = rest.strip(_ASCII_WS)
        if key in keys and key not in pairs and (value or eq and key in _EMPTY_OK_KEYS):
            pairs[key] = (value, lineno, line)
        elif value and key == "attach" and block == "event":
            attachments.append((value, lineno, line))
        elif not (body := line.strip(_ASCII_WS)):
            continue
        elif len(body) > 1 and body[0] == "[" and body[-1] == "]":
            block = body[1:-1]
            if event_line:
                events.append(_finish_event(event_line, pairs, attachments, diags, places, points))
                event_line = 0
            if block == "event":
                if not bio_line:
                    report_missing_header()
                event_line, pairs, attachments = lineno, {}, []
            elif block == "biography" and not bio_line:
                bio_line, pairs = lineno, bio_pairs
            else:
                if block == "biography":
                    message = "duplicate [biography] block"
                else:
                    message = f"unknown block header '[{block}]'"
                diags.append(ParseDiagnostic(lineno, _first_column(line), message))
                block = "skip"
            keys = _KEYS[block]
        elif block is None:
            report_missing_header()
        elif block != "skip":  # a key line that stores nothing: one finding
            col = _first_column(line)
            if not eq or not key:
                message = "expected 'key = value'"
            elif key not in keys and not (key == "attach" and block == "event"):
                message = f"unknown key '{key}' in [{block}]"
            elif not value and key not in _EMPTY_OK_KEYS:
                col = len(raw_key) + 1  # the '='
                message = f"empty value for key '{key}'"
            else:
                message = f"duplicate key '{key}'"
            diags.append(ParseDiagnostic(lineno, col, message))

    if event_line:
        events.append(_finish_event(event_line, pairs, attachments, diags, places, points))

    if not bio_line:
        report_missing_header()
        raise VitaParseError(diags)

    _check_biography(bio_line, bio_pairs, diags)
    if not events:  # located at the last line, which the loop left in lineno
        diags.append(ParseDiagnostic(lineno, 1, "biography has no events"))
    if diags:
        raise VitaParseError(diags)
    hint = bio_pairs["gazetteer"][0] if "gazetteer" in bio_pairs else None
    return Biography(bio_pairs["title"][0], bio_pairs["id"][0], tuple(filter(None, events)), hint)


def _first_column(line: str) -> int:
    """The 1-based column of the first non-blank character of a line."""
    return len(line) - len(line.lstrip(_ASCII_WS)) + 1


def _at(pair: _Pair, message: str) -> Diagnostic:
    """A finding at the value of a (value, line number, line) pair. The
    value ends its comment-cut line once trailing blanks are stripped."""
    value, lineno, line = pair
    return ParseDiagnostic(lineno, len(line.rstrip(_ASCII_WS)) - len(value) + 1, message)


def _check_biography(header_line: int, pairs: dict[str, _Pair], diags: list[Diagnostic]) -> None:
    """Check the [biography] block; append its findings to diags."""
    bio_id = pairs.get("id")
    hint = pairs.get("gazetteer")
    if "title" not in pairs:
        diags.append(ParseDiagnostic(header_line, 1, "missing required key 'title'"))
    if bio_id is None:
        diags.append(ParseDiagnostic(header_line, 1, "missing required key 'id'"))
    elif not is_token(bio_id[0]):
        diags.append(_at(bio_id, f"invalid biography id '{bio_id[0]}'"))
    if hint is not None and hint[0].startswith("/"):
        diags.append(_at(hint, "gazetteer path must be relative"))


def _finish_event(
    header_line: int,
    pairs: dict[str, _Pair],
    attachments: list[_Pair],
    diags: list[Diagnostic],
    places: dict[str, tuple[str, str]],
    points: dict[tuple[str, str], GeoPoint],
) -> LifeEvent | None:
    """Check one [event] block: its event, or None with its findings in diags."""
    before = len(diags)

    event_id = pairs.get("id")
    if event_id is None:
        diags.append(ParseDiagnostic(header_line, 1, "event missing required key 'id'"))
    elif not is_token(event_id[0]):
        diags.append(_at(event_id, f"invalid event id '{event_id[0]}'"))

    kind = pairs.get("kind")
    if kind is not None and kind[0] not in EVENT_KINDS:
        diags.append(_at(kind, f"unknown kind '{kind[0]}'"))

    start = pairs.get("start")
    bounds = None
    if start is None:
        diags.append(ParseDiagnostic(header_line, 1, "event missing required key 'start'"))
    else:
        try:
            bounds = _date_range(start[0])
        except ValueError as exc:
            diags.append(_at(start, str(exc)))
    end = pairs.get("end")
    if end is not None:
        try:
            _, last, circa = _date_range(end[0])
            if bounds is not None:  # else the start is already reported
                if last < bounds[0]:
                    raise ValueError("interval end precedes start")
                bounds = (bounds[0], last, bounds[2] or circa)
        except ValueError as exc:  # a malformed end, or one before the start
            diags.append(_at(end, str(exc)))

    lat = pairs.get("lat")
    lon = pairs.get("lon")
    point = None
    if (lat is None) != (lon is None):
        present = lat if lat is not None else lon
        assert present is not None
        diags.append(_at(present, "lat and lon must be given together"))
    elif lat is not None and lon is not None:
        # Keyed by the texts, not the floats: "0" and "-0" are two points.
        point = points.get((lat[0], lon[0]))
        if point is None:
            point = _parse_point(lat, lon, diags)
            if point is not None:  # a bad value is reported at each of its lines
                points[lat[0], lon[0]] = point

    place = pairs.get("place")
    text = key = None
    if place is not None:  # one fold per place text
        if place[0] not in places:
            places[place[0]] = (place[0], fold_key(place[0]))
        text, key = places[place[0]]
    if place is None and point is None and before == len(diags):
        diags.append(ParseDiagnostic(header_line, 1, "event needs a place or inline lat/lon"))
    elif place is not None and not key:
        diags.append(_at(place, f"name normalizes to empty key: {place[0]!r}"))

    for path in attachments:
        if path[0].startswith("/"):
            diags.append(_at(path, "attachment path must be relative"))

    if len(diags) > before:
        return None
    assert event_id is not None and bounds is not None
    label = pairs.get("label")
    note = pairs.get("note")
    # Every rule LifeEvent checks is checked above, located, so the event is
    # built from these values without checking them again; its label
    # defaults as LifeEvent's does.
    return _parsed_event(
        event_id[0],
        _KINDS[kind[0]] if kind else "other",
        _parsed_interval(*bounds),
        text,
        point,
        (label[0] if label else "") or text or event_id[0],
        note[0] if note else "",
        tuple([path for path, _, _ in attachments]) if attachments else (),
        header_line,
        key,
    )


def _parse_point(lat: _Pair, lon: _Pair, diags: list[Diagnostic]) -> GeoPoint | None:
    values: list[float] = []
    for name, pair in (("latitude", lat), ("longitude", lon)):
        try:
            values.append(parse_coordinate(pair[0]))
        except ValueError:
            diags.append(_at(pair, f"invalid {name} '{pair[0]}'"))
            return None
    try:
        return GeoPoint(values[0], values[1])
    except ValueError as exc:
        culprit = lat if "latitude" in str(exc) else lon
        diags.append(_at(culprit, str(exc).split(":")[0]))
        return None


# ---------------------------------------------------------------------------
# Serialization


def serialize_biography(biography: Biography) -> str:
    """Render a Biography as canonical VITA text.

    The output is byte-deterministic: keys in grammar order, LF line
    endings, no trailing whitespace, defaults omitted. Parsing the
    result reproduces the input field for field. Values that the format
    cannot carry (newlines, ``#``) raise ValueError.
    """
    lines = ["[biography]"]
    lines.append(f"title = {_serializable('title', biography.title)}")
    lines.append(f"id = {biography.id}")
    if biography.gazetteer_hint is not None:
        lines.append(f"gazetteer = {_serializable('gazetteer', biography.gazetteer_hint)}")
    for event in biography.events:
        lines.append("")
        lines.append("[event]")
        lines.append(f"id = {event.id}")
        lines.append(f"kind = {event.kind}")
        lines.extend(_interval_lines(event.when))
        if event.place_key is not None:
            lines.append(f"place = {_serializable('place', event.place_key)}")
        if event.point is not None:
            lines.append(f"lat = {event.point.lat!r}")
            lines.append(f"lon = {event.point.lon!r}")
        if event.label != (event.place_key or event.id):
            lines.append(f"label = {_serializable('label', event.label)}")
        if event.note:
            lines.append(f"note = {_serializable('note', event.note)}")
        for path in event.attachments:
            lines.append(f"attach = {_serializable('attach', path)}")
    return "\n".join(lines) + "\n"


def _serializable(key: str, value: str) -> str:
    if "\n" in value or "\r" in value or "#" in value:
        raise ValueError(f"value for '{key}' cannot be serialized: {value!r}")
    if value != value.strip(_ASCII_WS):
        raise ValueError(f"value for '{key}' has surrounding whitespace: {value!r}")
    return value


def _interval_lines(when: DateInterval) -> list[str]:
    s, e = when.start, when.end
    circa = "c." if when.circa else ""
    if s.year == e.year and (s.month, s.day) == (1, 1) and (e.month, e.day) == (12, 31):
        return [f"start = {circa}{s.year:04d}"]
    if (
        (s.year, s.month) == (e.year, e.month)
        and s.day == 1
        and e.day == days_in_month(e.year, e.month)
    ):
        return [f"start = {circa}{s.year:04d}-{s.month:02d}"]
    if s == e:
        return [f"start = {circa}{s.isoformat()}"]
    return [f"start = {circa}{s.isoformat()}", f"end = {e.isoformat()}"]
