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
from dataclasses import dataclass, field
from datetime import date

from .gazetteer import UnknownPlace, normalize_key
from .model import (
    Biography,
    DateInterval,
    Diagnostic,
    EVENT_KINDS,
    GeoPoint,
    LifeEvent,
    ParseDiagnostic,
    days_in_month,
    is_token,
    parse_coordinate,
    split_lines,
)

_ASCII_WS = " \t\r\f\v"

_BIOGRAPHY_KEYS = ("title", "id", "gazetteer")
_EVENT_KEYS = ("id", "kind", "start", "end", "place", "lat", "lon", "label", "note", "attach")
_EMPTY_OK_KEYS = frozenset({"note", "label"})

_DATE_EXPR_RE = re.compile(r"(c\.)?[ \t]*([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2}))?)?\Z")


class VitaParseError(Exception):
    """Parse failure carrying all diagnostics, sorted by (line, column)."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = sorted(diagnostics, key=lambda d: (d.line, d.column))
        first = self.diagnostics[0]
        super().__init__(f"{first.line}:{first.column}: {first.message}")


def parse_date_expr(expr: str) -> DateInterval:
    """Expand a date expression into an inclusive day interval."""
    expr = expr.strip(_ASCII_WS)
    if not expr:
        raise ValueError("empty date expression")
    m = _DATE_EXPR_RE.match(expr)
    if not m:
        raise ValueError(f"malformed date expression '{expr}'")
    circa = m.group(1) is not None
    year = int(m.group(2))
    if year < 1:
        raise ValueError(f"year out of range in '{expr}'")
    if m.group(3) is None:
        return DateInterval(date(year, 1, 1), date(year, 12, 31), circa)
    month = int(m.group(3))
    if not 1 <= month <= 12:
        raise ValueError(f"month out of range in '{expr}'")
    if m.group(4) is None:
        last = date(year, month, days_in_month(year, month))
        return DateInterval(date(year, month, 1), last, circa)
    try:
        d = date(year, month, int(m.group(4)))
    except ValueError:
        raise ValueError(f"day out of range in '{expr}'") from None
    return DateInterval(d, d, circa)


@dataclass
class _Block:
    header_line: int
    pairs: dict[str, tuple[str, int, int]] = field(default_factory=dict)
    attachments: list[tuple[str, int, int]] = field(default_factory=list)


def parse_biography(source: str) -> Biography:
    """Parse VITA text into a Biography.

    Raises VitaParseError with every diagnostic found; any text yields
    either a Biography or at least one diagnostic, never a crash.
    """
    diags: list[Diagnostic] = []
    events: list[LifeEvent] = []
    bio_block: _Block | None = None
    current: _Block | None = None
    mode: str | None = None  # None, "biography", "event" or "skip"
    saw_event_block = False
    header_missing_reported = False

    def report_missing_header() -> None:
        nonlocal header_missing_reported
        if not header_missing_reported:
            diags.append(ParseDiagnostic(1, 1, "missing [biography] header"))
            header_missing_reported = True

    def finish_current_event() -> None:
        nonlocal current
        if current is not None:
            event = _finish_event(current, diags)
            if event is not None:
                events.append(event)
            current = None

    lines = split_lines(source)
    for lineno, line in enumerate(lines, start=1):
        text = line.partition("#")[0]
        lead = text.lstrip(_ASCII_WS)
        body = lead.rstrip(_ASCII_WS)
        if not body:
            continue
        col = len(text) - len(lead) + 1

        if len(body) > 1 and body[0] == "[" and body[-1] == "]":
            name = body[1:-1]
            finish_current_event()
            if name == "biography":
                if bio_block is not None:
                    diags.append(ParseDiagnostic(lineno, col, "duplicate [biography] block"))
                    mode = "skip"
                else:
                    if saw_event_block:
                        report_missing_header()
                    bio_block = _Block(lineno)
                    mode = "biography"
            elif name == "event":
                if bio_block is None:
                    report_missing_header()
                saw_event_block = True
                current = _Block(lineno)
                mode = "event"
            else:
                diags.append(ParseDiagnostic(lineno, col, f"unknown block header '[{name}]'"))
                mode = "skip"
            continue

        if mode is None:
            report_missing_header()
            continue
        if mode == "skip":
            continue

        raw_key, eq, rest = body.partition("=")
        key = raw_key.rstrip(_ASCII_WS)
        if not eq or not key:
            diags.append(ParseDiagnostic(lineno, col, "expected 'key = value'"))
            continue
        value = rest.lstrip(_ASCII_WS)
        value_col = col + len(body) - len(value) if value else col + len(raw_key)

        block = bio_block if mode == "biography" else current
        known = _BIOGRAPHY_KEYS if mode == "biography" else _EVENT_KEYS
        if key not in known:
            diags.append(ParseDiagnostic(lineno, col, f"unknown key '{key}' in [{mode}]"))
            continue
        if not value and key not in _EMPTY_OK_KEYS:
            diags.append(ParseDiagnostic(lineno, value_col, f"empty value for key '{key}'"))
            continue
        assert block is not None
        if key == "attach":
            block.attachments.append((value, lineno, value_col))
        elif key in block.pairs:
            diags.append(ParseDiagnostic(lineno, col, f"duplicate key '{key}'"))
        else:
            block.pairs[key] = (value, lineno, value_col)

    finish_current_event()

    if bio_block is None:
        report_missing_header()
        raise VitaParseError(diags)

    title, bio_id, hint = _finish_biography(bio_block, diags)
    if not saw_event_block:
        diags.append(ParseDiagnostic(len(lines), 1, "biography has no events"))
    if diags:
        raise VitaParseError(diags)
    assert title is not None and bio_id is not None
    return Biography(title=title, id=bio_id, events=tuple(events), gazetteer_hint=hint)


def _at(pair: tuple[str, int, int], message: str) -> Diagnostic:  # at a (value, line, column)
    return ParseDiagnostic(pair[1], pair[2], message)


def _finish_biography(
    block: _Block, diags: list[Diagnostic]
) -> tuple[str | None, str | None, str | None]:
    title = block.pairs.get("title")
    bio_id = block.pairs.get("id")
    hint = block.pairs.get("gazetteer")
    if title is None:
        diags.append(ParseDiagnostic(block.header_line, 1, "missing required key 'title'"))
    if bio_id is None:
        diags.append(ParseDiagnostic(block.header_line, 1, "missing required key 'id'"))
    elif not is_token(bio_id[0]):
        diags.append(_at(bio_id, f"invalid biography id '{bio_id[0]}'"))
    if hint is not None and hint[0].startswith("/"):
        diags.append(_at(hint, "gazetteer path must be relative"))
    return (
        title[0] if title else None,
        bio_id[0] if bio_id else None,
        hint[0] if hint else None,
    )


def _finish_event(block: _Block, diags: list[Diagnostic]) -> LifeEvent | None:
    before = len(diags)
    pairs = block.pairs

    event_id = pairs.get("id")
    if event_id is None:
        diags.append(ParseDiagnostic(block.header_line, 1, "event missing required key 'id'"))
    elif not is_token(event_id[0]):
        diags.append(_at(event_id, f"invalid event id '{event_id[0]}'"))

    kind = pairs.get("kind")
    if kind is not None and kind[0] not in EVENT_KINDS:
        diags.append(_at(kind, f"unknown kind '{kind[0]}'"))

    start = pairs.get("start")
    when = None
    if start is None:
        diags.append(ParseDiagnostic(block.header_line, 1, "event missing required key 'start'"))
    else:
        try:
            when = parse_date_expr(start[0])
        except ValueError as exc:
            diags.append(_at(start, str(exc)))
    end = pairs.get("end")
    if end is not None:
        try:
            last = parse_date_expr(end[0])
            if when is not None:  # else the start is already reported
                when = DateInterval(when.start, last.end, when.circa or last.circa)
        except ValueError as exc:  # a malformed end, or "interval end precedes start"
            diags.append(_at(end, str(exc)))

    lat = pairs.get("lat")
    lon = pairs.get("lon")
    point = None
    if (lat is None) != (lon is None):
        present = lat if lat is not None else lon
        assert present is not None
        diags.append(_at(present, "lat and lon must be given together"))
    elif lat is not None and lon is not None:
        point = _parse_point(lat, lon, diags)

    place = pairs.get("place")
    if place is None and point is None and before == len(diags):
        diags.append(
            ParseDiagnostic(block.header_line, 1, "event needs a place or inline lat/lon")
        )
    elif place is not None:
        try:
            normalize_key(place[0])
        except UnknownPlace as exc:
            diags.append(_at(place, str(exc)))

    for path, lineno, col in block.attachments:
        if path.startswith("/"):
            diags.append(ParseDiagnostic(lineno, col, "attachment path must be relative"))

    if len(diags) > before:
        return None
    assert event_id is not None and when is not None
    label = pairs.get("label")
    note = pairs.get("note")
    try:
        return LifeEvent(
            id=event_id[0],
            kind=kind[0] if kind else "other",
            when=when,
            place_key=place[0] if place else None,
            point=point,
            label=label[0] if label else "",
            note=note[0] if note else "",
            attachments=tuple(path for path, _, _ in block.attachments),
            line=block.header_line,
        )
    except ValueError as exc:  # belt and braces: surface as a diagnostic
        diags.append(ParseDiagnostic(block.header_line, 1, str(exc)))
        return None


def _parse_point(
    lat: tuple[str, int, int], lon: tuple[str, int, int], diags: list[Diagnostic]
) -> GeoPoint | None:
    values: list[float] = []
    for name, (text, lineno, col) in (("latitude", lat), ("longitude", lon)):
        try:
            values.append(parse_coordinate(text))
        except ValueError:
            diags.append(ParseDiagnostic(lineno, col, f"invalid {name} '{text}'"))
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
