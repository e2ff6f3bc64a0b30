"""Hypothesis strategies shared by the round-trip and property tests, a
long generated timeline with its gazetteer for the memory gates, events
whose dates count their comparisons for the complexity guards, the
lines of a text read a few characters at a time, and the memory probe
of the peak gates."""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections.abc import Callable, Iterable, Iterator
from datetime import date
from itertools import chain

from hypothesis import strategies as st

from vitamap.model import (
    Biography,
    DateInterval,
    GeoPoint,
    LifeEvent,
    EVENT_KINDS,
    from_day_number,
    line_pieces,
)

tokens = st.from_regex(r"[a-z0-9][a-z0-9-]{0,15}", fullmatch=True)

# Free-text values must survive the format's trim-and-comment rules:
# no newlines, no '#', no surrounding ASCII whitespace.
_text_chars = st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\n\r#"
)


def _trimmed(min_size: int) -> st.SearchStrategy[str]:
    return (
        st.text(_text_chars, min_size=min_size, max_size=30)
        .map(lambda s: s.strip(" \t\r\f\v"))
        .filter(lambda s: len(s) >= min_size)
    )


titles = _trimmed(1)
notes = st.one_of(st.just(""), _trimmed(1))
rel_paths = st.from_regex(r"[a-z0-9][a-z0-9_./-]{0,20}", fullmatch=True)

day_numbers = st.integers(min_value=0, max_value=200_000)
calendar_dates = day_numbers.map(from_day_number)


@st.composite
def date_intervals(draw) -> DateInterval:
    a = draw(day_numbers)
    b = draw(day_numbers)
    if a > b:
        a, b = b, a
    return DateInterval(from_day_number(a), from_day_number(b), draw(st.booleans()))


geo_points = st.builds(
    GeoPoint,
    lat=st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    lon=st.floats(min_value=-360.0, max_value=360.0, allow_nan=False),
)


@st.composite
def life_events(draw, event_id: str | None = None) -> LifeEvent:
    eid = event_id if event_id is not None else draw(tokens)
    has_place = draw(st.booleans())
    has_point = draw(st.booleans()) or not has_place
    return LifeEvent(
        id=eid,
        kind=draw(st.sampled_from(sorted(EVENT_KINDS))),
        when=draw(date_intervals()),
        place_key=draw(tokens) if has_place else None,
        point=draw(geo_points) if has_point else None,
        label=draw(st.one_of(st.just(""), titles)),
        note=draw(notes),
        attachments=tuple(draw(st.lists(rel_paths, max_size=3))),
    )


@st.composite
def biographies(draw) -> Biography:
    ids = draw(st.lists(tokens, min_size=1, max_size=6, unique=True))
    events = tuple(draw(life_events(event_id=eid)) for eid in ids)
    return Biography(
        title=draw(titles),
        id=draw(tokens),
        events=events,
        gazetteer_hint=draw(st.one_of(st.none(), rel_paths)),
    )


def long_timeline_text(n: int) -> str:
    """n events shaped like a long hand-written timeline: keyed places and
    inline points, labels, and a note on every other event."""
    parts = ["[biography]\ntitle = A long life & times\nid = long\n"]
    for i in range(n):
        year = 1000 + 2 * i
        if i % 3:
            place = f"place = Site {i % 40:05d} Abc\n"
        else:
            place = f"lat = {i % 90}.153258\nlon = -{i % 180}.769656\n"
        note = f"note = Visit {i}: Court & <annex>\n" if i % 2 else ""
        parts.append(
            f"\n[event]\nid = e{i:05d}\nkind = {('work', 'residence', 'visit')[i % 3]}\n"
            f"start = {year}-03\nend = {year}-11-03\n{place}label = Court Café {i}\n{note}"
        )
    return "".join(parts)


def long_timeline_gazetteer() -> str:
    """The gazetteer TSV of the places :func:`long_timeline_text` names."""
    return "".join(
        f"site-{i:05d}-abc\tSite {i}\t{i - 20}.5\t{3 * i}.25\tRegion\n" for i in range(40)
    )


def counting_dates(events: Iterable[LifeEvent]) -> tuple[tuple[LifeEvent, ...], list[int]]:
    """The events again, with dates of a ``date`` subclass that counts each
    rich comparison made with it, and the one-element list of that count,
    starting at 0 once the events are built."""
    comparisons = [0]

    class CountedDate(date):
        __hash__ = date.__hash__

    for name in ("lt", "le", "gt", "ge", "eq", "ne"):
        def compare(self, other, op=getattr(date, f"__{name}__")):
            comparisons[0] += 1
            return op(self, other)

        setattr(CountedDate, f"__{name}__", compare)

    def counted(d: date) -> CountedDate:
        return CountedDate(d.year, d.month, d.day)

    counted_events = tuple(
        dataclasses.replace(
            e, when=DateInterval(counted(e.when.start), counted(e.when.end), e.when.circa)
        )
        for e in events
    )
    comparisons[0] = 0
    return counted_events, comparisons


def sliced_lines(text: str, size: int) -> Iterator[str]:
    """The lines of ``text`` as :func:`vitamap.model.line_pieces` gives
    them from slices ``size`` characters long, as a file read is cut."""
    slices = (text[start : start + size] for start in range(0, len(text), size))
    return chain.from_iterable(line_pieces(slices))


def traced_peak(run: Callable[[], object]) -> tuple[object, int]:
    """What ``run()`` returns, and the tracemalloc peak of the call in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
