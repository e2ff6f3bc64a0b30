"""Domain types for georeferenced biography timelines.

Everything here is an immutable value: construction validates, and all
operations are pure functions, so values can be shared freely across
threads. Dates use the proleptic Gregorian calendar throughout; day
numbers count from 1600-01-01 = 0 so both bundled datasets land on
positive numbers.
"""

from __future__ import annotations

import io
import math
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from datetime import date
from heapq import heappop, heappush
from itertools import chain

TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9-]*\Z")

EVENT_KINDS = frozenset(
    {"birth", "death", "residence", "study", "work", "visit", "excavation", "other"}
)


def is_token(text: str) -> bool:
    """True if text matches the identifier grammar [a-z0-9][a-z0-9-]*."""
    return bool(TOKEN_RE.match(text))


_SEPARATOR_RUN_RE = re.compile(r"[\s_]+")


def fold_key(name: str) -> str:
    """Fold a display name into a lookup key, possibly empty.

    Lowercases (non-ASCII letters included), collapses runs of
    whitespace and underscores into single hyphens and strips hyphens
    from the ends. Idempotent. A name that is already its own key is
    returned itself: one string, not two equal ones.
    :func:`vitamap.gazetteer.normalize_key` is the same fold, raising
    when nothing is left.
    """
    key = _SEPARATOR_RUN_RE.sub("-", name.lower()).strip("-")
    return name if key == name else key


def split_lines(text: str) -> list[str]:
    """Split text into lines: LF, CRLF and a lone CR each end a line."""
    if "\r" in text:  # else skip the two scans, up to half the cost of a split
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


_SLICE = 1 << 12  # the characters of a text that iter_lines hands on at a time


def iter_lines(text: str) -> Iterator[str]:
    """The lines of :func:`split_lines`, as the pieces that
    :func:`line_pieces` gives of slices of the text _SLICE characters
    long, so that no list of every line is ever held."""
    slices = (text[start : start + _SLICE] for start in range(0, len(text), _SLICE))
    return chain.from_iterable(line_pieces(slices))


def line_pieces(texts: Iterable[str]) -> Iterator[list[str]]:
    """The lines :func:`split_lines` gives of the joined ``texts``, as
    lists that follow the texts: once a text ends a line, a piece holds
    the lines ended since the last piece, and the last piece the final
    line.

    The stdlib's newline decoder turns CRLF and a lone CR into LF, and
    holds back a CR that ends a text until the next text shows whether a
    LF follows it. A text with no line end is only held until one comes,
    so the texts of a long line are joined when its end comes, not once
    per text.
    """
    newlines = io.IncrementalNewlineDecoder(None, translate=True)
    held: list[str] = []  # the texts of the line not yet ended
    for text in map(newlines.decode, texts):
        held.append(text)
        if "\n" in text:
            lines = split_lines("".join(held))
            held = [lines.pop()]
            del text  # not held while the lines are drawn
            yield lines
            del lines  # not held while the next text is read
    yield split_lines("".join(held) + newlines.decode("", True))


# ---------------------------------------------------------------------------
# Coordinates


def parse_coordinate(text: str) -> float:
    """Read a coordinate with float(), refusing what float() accepts
    beyond ASCII decimal text: the ``_`` digit separator of Python
    literals (a mistyped ``2_9.9`` must not read as 29.9) and any
    non-ASCII character, so ``١٢.٥`` in Arabic-Indic digits is not 12.5.
    ``nan`` and ``inf`` pass; each caller's range check refuses them."""
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """WGS84 latitude/longitude in decimal degrees.

    Longitude is normalized into (-180, 180] at construction (adding or
    subtracting whole turns), so every point has one canonical form and
    normalization is idempotent bit for bit. Slotted, with no
    ``__dict__``: a gazetteer holds one per row.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        lat = float(self.lat)
        lon = float(self.lon)
        if not math.isfinite(lat) or not -90.0 <= lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat!r}")
        if not math.isfinite(lon):
            raise ValueError(f"longitude out of range: {self.lon!r}")
        if not -180.0 < lon <= 180.0:
            lon = lon % 360.0
            if lon > 180.0:
                lon -= 360.0
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)


# ---------------------------------------------------------------------------
# Calendar

def days_in_month(year: int, month: int) -> int:
    return 31 if month == 12 else (date(year, month + 1, 1) - date(year, month, 1)).days


# A proleptic Gregorian calendar day, years 1..9999: the stdlib's own.
CalendarDate = date

_EPOCH_ORDINAL = date(1600, 1, 1).toordinal()


def to_day_number(d: date) -> int:
    """Day count with 1600-01-01 = 0; strictly monotone in calendar order."""
    return d.toordinal() - _EPOCH_ORDINAL


def from_day_number(n: int) -> date:
    """Inverse of to_day_number over the valid date range."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"day number must be an integer, got {n!r}")
    ordinal = n + _EPOCH_ORDINAL
    if not 1 <= ordinal <= date.max.toordinal():
        raise ValueError(f"day number out of range: {n}")
    return date.fromordinal(ordinal)


@dataclass(frozen=True, slots=True)
class DateInterval:
    """Inclusive [start, end] calendar-day interval with a circa flag."""

    start: date
    end: date
    circa: bool = False

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("interval end precedes start")

    def overlaps(self, other: "DateInterval") -> bool:
        return self.start <= other.end and other.start <= self.end


def _unchecked(cls: type) -> type:
    """A plain class whose ``__slots__`` are those of the slotted class
    ``cls``, read from it: the twin a bulk builder fills.

    A builder makes a twin, stores each field by plain attribute
    assignment and then sets ``__class__`` to ``cls``, which CPython
    allows between classes of one layout. The result is a real ``cls``
    (frozen, no ``__dict__``, comparing, hashing, pickling and copying as
    a constructed one) for which neither ``__init__`` nor
    ``__post_init__`` ran, so its builder's caller must have made every
    check the class makes. A field the builder does not store is unset.
    """
    return type(cls.__name__, (), {"__slots__": cls.__slots__})


_Interval = _unchecked(DateInterval)


def _parsed_interval(start: date, end: date, circa: bool) -> DateInterval:
    """The DateInterval of values the parser has checked, built from its
    :func:`_unchecked` twin without ``__post_init__``."""
    interval = _Interval()
    interval.start = start
    interval.end = end
    interval.circa = circa
    interval.__class__ = DateInterval
    return interval


# ---------------------------------------------------------------------------
# Events and biographies


@dataclass(frozen=True, slots=True)
class LifeEvent:
    """One georeferenced timeline entry: a time interval plus a place.

    The place is either a gazetteer key, an inline point, or both; an
    inline point overrides the gazetteer at resolution time. A place
    key must fold to a non-empty key. ``key`` holds that fold
    (:func:`fold_key`), made once for every consumer, or None for an
    inline-only event; it is derived, so not an argument, and takes no
    part in ``repr`` or equality. ``line`` is the 1-based line of the
    ``[event]`` header when parsed from VITA text; it locates
    diagnostics and takes no part in equality.

    Parsed events are built from the parser's own located checks, with
    one fold per place text, and skip ``__post_init__``; they compare,
    hash and pickle as constructed ones do.
    """

    id: str
    kind: str
    when: DateInterval
    place_key: str | None = None
    point: GeoPoint | None = None
    label: str = ""
    note: str = ""
    attachments: tuple[str, ...] = ()
    line: int | None = field(default=None, compare=False)
    key: str | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_token(self.id):
            raise ValueError(f"invalid event id: {self.id!r}")
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown kind: {self.kind!r}")
        if self.place_key is None and self.point is None:
            raise ValueError(f"event {self.id!r} needs a place key or an inline point")
        key = None if self.place_key is None else fold_key(self.place_key)
        if key == "":
            raise ValueError(f"place_key normalizes to empty key (use None): {self.place_key!r}")
        object.__setattr__(self, "key", key)
        if type(self.attachments) is not tuple:  # a list, say: store a tuple
            object.__setattr__(self, "attachments", tuple(self.attachments))
        for path in self.attachments:
            if not path or path.startswith("/"):
                raise ValueError(f"attachment path must be relative: {path!r}")
        if not self.label:
            object.__setattr__(self, "label", self.place_key or self.id)


_Event = _unchecked(LifeEvent)


def _parsed_event(
    id: str, kind: str, when: DateInterval, place_key: str | None, point: GeoPoint | None,
    label: str, note: str, attachments: tuple[str, ...], line: int, key: str | None,
) -> LifeEvent:
    """The LifeEvent of values the parser has checked, with its ``key``
    and ``label`` as ``__post_init__`` would make them, built from its
    :func:`_unchecked` twin without ``__post_init__``."""
    event = _Event()
    event.id = id
    event.kind = kind
    event.when = when
    event.place_key = place_key
    event.point = point
    event.label = label
    event.note = note
    event.attachments = attachments
    event.line = line
    event.key = key
    event.__class__ = LifeEvent
    return event


@dataclass(frozen=True)
class Biography:
    """A titled, ordered collection of life events.

    Authoring order of events is preserved; consumers that need
    chronological order sort with the stable key
    (start day, end day, authoring index). Duplicate event ids are
    representable so that validate_biography can report them.
    """

    title: str
    id: str
    events: tuple[LifeEvent, ...]
    gazetteer_hint: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not self.title:
            raise ValueError("biography title must not be empty")
        if not is_token(self.id):
            raise ValueError(f"invalid biography id: {self.id!r}")
        if not self.events:
            raise ValueError("biography has no events")
        if self.gazetteer_hint == "":
            raise ValueError("gazetteer_hint must not be empty (use None)")


@dataclass(frozen=True, slots=True)
class ItineraryLeg:
    """One hop of a chronological route: the event it carries (ids may
    repeat, so never look it up by id), its point, leg and running km.
    Slotted: an itinerary holds one per stop."""

    index: int
    event: LifeEvent
    point: GeoPoint
    leg_km: float
    cum_km: float

    @property
    def event_id(self) -> str:
        return self.event.id


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Diagnostic:
    """A finding, located by the code that found it: the event it is
    about (None for one in source text), and its 1-based line and column
    in that text (None where unknown, as for events built directly)."""

    severity: str  # "error" or "warning"
    event_id: str | None
    message: str
    line: int | None = None
    column: int | None = None


def ParseDiagnostic(line: int, column: int, message: str) -> Diagnostic:  # noqa: N802
    """A parse finding: an error at a line and column of source text."""
    return Diagnostic("error", None, message, line, column)


class InvalidBiographyError(Exception):
    """Raised by emitters when a biography fails validation."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0].message if self.diagnostics else "unknown"
        super().__init__(f"biography failed validation: {first}")


def _checked_events(
    biography: Biography,
) -> Iterator[tuple[LifeEvent, int | None, tuple[Diagnostic, ...]]]:
    """Each event, the header line of the first event with its id, and its errors."""
    header_lines: dict[str, int | None] = {}  # id -> header line of its first event
    for event in biography.events:
        if event.id not in header_lines:
            yield event, header_lines.setdefault(event.id, event.line), ()
        else:
            line = header_lines[event.id]
            error = Diagnostic("error", event.id, f"duplicate event id '{event.id}'", line)
            yield event, line, (error,)


def validation_errors(biography: Biography) -> list[Diagnostic]:
    """The error findings of :func:`validate_biography`, in its order."""
    return [error for _, _, errors in _checked_events(biography) for error in errors]


def validate_biography(
    biography: Biography, base_dir: str | os.PathLike[str] | None = None
) -> list[Diagnostic]:
    """Check a biography and return diagnostics instead of raising.

    Checks, in order, per event in authoring order: duplicate id (error),
    overlap with an earlier residence for residence events (warning),
    start date earlier than the previous event's (warning), and, when
    base_dir is given, attachment files missing relative to it
    (warning). Each diagnostic carries the ``[event]`` header line of
    the first event with its id (None for events built directly). The
    result is deterministic for identical inputs.
    """
    events = biography.events
    # Sweep residences in start order; the heap holds, by end date, those not
    # yet ended, which all overlap the next. The later-authored one reports.
    overlapped: dict[int, list[int]] = {}  # authoring index -> earlier ones
    ongoing: list[tuple[date, int]] = []  # (end date, authoring index)
    residences = sorted((e.when.start, i) for i, e in enumerate(events) if e.kind == "residence")
    for start, i in residences:
        while ongoing and ongoing[0][0] < start:
            heappop(ongoing)
        for _, j in ongoing:
            overlapped.setdefault(max(i, j), []).append(min(i, j))
        heappush(ongoing, (events[i].when.end, i))

    out: list[Diagnostic] = []
    for i, (event, line, errors) in enumerate(_checked_events(biography)):
        out += errors
        if i in overlapped:
            for j in sorted(overlapped[i]):
                message = f"overlapping residences: '{events[j].id}' and '{event.id}'"
                out.append(Diagnostic("warning", event.id, message, line))
        if i and event.when.start < events[i - 1].when.start:
            out.append(Diagnostic("warning", event.id, "event out of chronological order", line))

        if base_dir is not None:
            for attachment in event.attachments:
                # False on any OSError (a name too long, say): Path.exists raises.
                if not os.path.exists(os.path.join(base_dir, attachment)):
                    message = f"missing attachment file '{attachment}'"
                    out.append(Diagnostic("warning", event.id, message, line))

    return out
