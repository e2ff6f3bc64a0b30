"""Core type tests: coordinates, calendar arithmetic, validation."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random
from datetime import date, timedelta
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from vitamap import model
from vitamap.gazetteer import GazetteerEntry, normalize_key
from vitamap.model import (
    Biography,
    CalendarDate,
    DateInterval,
    Diagnostic,
    GeoPoint,
    ItineraryLeg,
    LifeEvent,
    days_in_month,
    fold_key,
    from_day_number,
    is_token,
    iter_lines,
    line_pieces,
    split_lines,
    to_day_number,
    validate_biography,
)
from vitamap.vita import parse_biography, serialize_biography

from strategies import biographies, counting_dates

EPOCH = date(1600, 1, 1)


def oracle_day_number(d: CalendarDate) -> int:
    # Independent check via the stdlib's proleptic Gregorian calendar.
    return (date(d.year, d.month, d.day) - EPOCH).days


class TestGeoPoint:
    def test_plain_construction(self):
        p = GeoPoint(41.0, 12.5)
        assert (p.lat, p.lon) == (41.0, 12.5)

    @pytest.mark.parametrize(
        "lon,expected",
        [(-200.0, 160.0), (540.0, 180.0), (-180.0, 180.0), (180.0, 180.0), (360.0, 0.0)],
    )
    def test_lon_normalization(self, lon, expected):
        assert GeoPoint(0.0, lon).lon == expected

    @pytest.mark.parametrize("lat", [-90.001, 95.0, float("nan"), float("inf")])
    def test_lat_rejected(self, lat):
        with pytest.raises(ValueError):
            GeoPoint(lat, 0.0)

    def test_lon_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, float("inf"))

    @given(
        st.floats(min_value=-90.0, max_value=90.0),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_normalization_idempotent(self, lat, lon):
        p = GeoPoint(lat, lon)
        q = GeoPoint(p.lat, p.lon)
        assert (q.lat, q.lon) == (p.lat, p.lon)
        assert -180.0 < p.lon <= 180.0


class TestSlottedValues:
    """The per-row and per-event values are slotted: a gazetteer holds a
    GeoPoint and a GazetteerEntry per row, a biography a DateInterval and
    a LifeEvent per event, an itinerary an ItineraryLeg per stop."""

    @pytest.fixture(params=["point", "entry", "interval", "event", "leg"])
    def make(self, request):
        return {
            "point": lambda: GeoPoint(41.9, 12.5),
            "entry": lambda: GazetteerEntry("rome", "Rome", GeoPoint(41.9, 12.5), "Lazio"),
            "interval": lambda: DateInterval(date(1904, 2, 1), date(1904, 3, 31), circa=True),
            "event": lambda: LifeEvent(
                id="a",
                kind="visit",
                when=DateInterval(date(1904, 2, 1), date(1904, 3, 31)),
                place_key="  Deir_el  Medina ",
                attachments=("tomb.jpg",),
                line=7,
            ),
            "leg": lambda: ItineraryLeg(
                index=3,
                event=event("a", place_key="giza"),
                point=GeoPoint(29.97, 31.13),
                leg_km=2.5,
                cum_km=10.0,
            ),
        }[request.param]

    def test_no_instance_dict(self, make):
        value = make()
        assert not hasattr(value, "__dict__")
        first = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, getattr(value, first))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, first)

    def test_non_field_assignment_refused(self, make):
        # On some Pythons a frozen slotted dataclass raises TypeError here,
        # not FrozenInstanceError; either way the assignment is refused.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            make().extra = 1

    def test_equality_and_hash_are_by_fields(self, make):
        value = make()
        compared = tuple(getattr(value, f.name) for f in dataclasses.fields(value) if f.compare)
        assert value == make() and value is not make()
        assert hash(value) == hash(make()) == hash(compared)
        assert len({value, make()}) == 1

    def test_replace_runs_post_init(self):
        assert dataclasses.replace(GeoPoint(0.0, 10.0), lon=200.0) == GeoPoint(0.0, -160.0)
        entry = GazetteerEntry("rome", "Rome", GeoPoint(41.9, 12.5))
        moved = dataclasses.replace(entry, region="Lazio")
        assert moved != entry and (moved.key, moved.region) == ("rome", "Lazio")
        with pytest.raises(ValueError, match="end precedes start"):
            dataclasses.replace(year_interval(1904), end=date(1903, 1, 1))
        e = event("a", place_key="giza", line=5)
        renamed = dataclasses.replace(e, place_key="Deir el_Medina")
        assert (renamed.key, renamed.line) == ("deir-el-medina", 5)

    def test_deepcopy_and_pickle_round_trip(self, make):
        value = make()
        copies = [copy.copy(value), copy.deepcopy(value)] + [
            pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in copies:
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert dataclasses.astuple(twin) == dataclasses.astuple(value)  # key and line too
            assert not hasattr(twin, "__dict__")


# Text of "a", LF, CR and CRLF: every way a line can end, and lines to end.
LINE_ENDS_TEXT = st.lists(st.sampled_from(["a", "\r", "\n", "\r\n"])).map("".join)


@pytest.fixture
def split_sizes(monkeypatch):
    """The length of each text that model.split_lines is then given."""
    sizes = []

    def spy(text):
        sizes.append(len(text))
        return split_lines(text)

    monkeypatch.setattr(model, "split_lines", spy)
    return sizes


class TestIterLines:
    """iter_lines yields split_lines's lines, a bounded slice at a time."""

    @given(LINE_ENDS_TEXT, st.integers(1, 17))
    def test_same_lines_as_split_lines(self, text, size):
        with mock.patch.object(model, "_SLICE", size):
            assert list(iter_lines(text)) == split_lines(text)

    @pytest.mark.parametrize(
        "text,size",
        [
            ("ab\r\ncd\r\n", 3),  # the first cut would fall inside a CRLF
            ("ab\rcd\n\ref", 3),  # a lone CR where a cut would fall
            ("ab\n\rcd", 3),  # a lone CR just after a cut
            ("a\rb\rc", 1),  # no LF at all
            ("ab\rcd\ref", 3),  # a cut after each lone CR
            ("ab\r", 3),  # a CR that ends the text
            ("abc\n", 4),  # exactly one slice long
            ("abc\r", 4),
            ("abcd", 4),
            ("", 1),
            ("\n", 1),
        ],
    )
    def test_cuts(self, text, size):
        with mock.patch.object(model, "_SLICE", size):
            assert list(iter_lines(text)) == split_lines(text)

    def test_default_chunk_on_a_long_text(self):
        ends = ("\n", "\r\n", "\r")
        text = "".join(f"line {i}{ends[i % 3]}" for i in range(20_000))
        assert len(text) > 8 * model._SLICE
        assert list(iter_lines(text)) == split_lines(text)

    def test_splits_a_piece_at_a_time(self, split_sizes, monkeypatch):
        monkeypatch.setattr(model, "_SLICE", 32)
        text = "0123456789\n" * 100
        lines = iter_lines(text)
        assert split_sizes == []  # nothing is split until a line is drawn
        assert next(lines) == "0123456789" and split_sizes == [32]
        # Each split takes a slice and the start of a line the last one held.
        assert len(list(lines)) == 100 and max(split_sizes) <= 32 + 10

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_any_line_end_cuts_pieces(self, end):
        # A lone CR is a cut too, unless it ends a text: a LF may follow it.
        text = f"0123456789{end}" * 100
        texts = [text[start : start + 32] for start in range(0, len(text), 32)]
        sizes = [len(end.join(piece)) for piece in line_pieces(texts)]
        assert len(sizes) > 20 and max(sizes) <= 32 + 11


class TestLinePieces:
    """line_pieces yields the lines of its texts joined, wherever they are cut."""

    @given(LINE_ENDS_TEXT, st.lists(st.integers(0, 40)))
    def test_same_lines_as_one_split(self, text, cuts):
        cuts = sorted(min(cut, len(text)) for cut in cuts)
        texts = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
        pieces = list(line_pieces(texts))
        assert [line for piece in pieces for line in piece] == split_lines(text)

    def test_a_line_across_many_texts_is_split_at_most_twice(self, split_sizes):
        pieces = list(line_pieces(["x" * 10] * 1000 + ["\r", "abc"]))
        assert [line for piece in pieces for line in piece] == ["x" * 10_000, "abc"]
        # The CR, which may begin a CRLF, is held back to the text after it;
        # the last split is the final line's.
        *touching, last = split_sizes
        assert len(touching) <= 2 and last == 3

    @pytest.mark.parametrize("size", [4, 7])
    def test_lone_crs_come_a_piece_per_text(self, split_sizes, size):
        # Never held whole: a CR ends a piece by the next text at the latest.
        text = "abc\r" * 1000
        texts = [text[start : start + size] for start in range(0, len(text), size)]
        pieces = list(line_pieces(texts))
        assert [line for piece in pieces for line in piece] == split_lines(text)
        assert len(texts) <= len(pieces) <= len(texts) + 1
        assert max(split_sizes) <= size + 4

    def test_no_text_is_held_while_the_next_is_drawn(self):
        # A text is let go once its lines are split, so a reader never holds
        # one read and the next at once.
        text = "line\n" * 1000
        freed = [0]

        class Text(str):  # a str subclass can count its frees
            def __del__(self):
                freed[0] += 1

        def texts():
            for n, start in enumerate(range(0, len(text), 100)):
                assert freed[0] == n
                yield Text(text[start : start + 100])

        pieces = list(line_pieces(texts()))
        assert [line for piece in pieces for line in piece] == split_lines(text)


class TestCalendar:
    def test_epoch_is_day_zero(self):
        assert to_day_number(CalendarDate(1600, 1, 1)) == 0

    def test_successor(self):
        assert to_day_number(CalendarDate(1600, 1, 2)) == 1

    def test_march_first_of_leap_century(self):
        # 31 (Jan) + 29 (Feb 1600, leap because 1600 % 400 == 0) = 60.
        assert to_day_number(CalendarDate(1600, 3, 1)) == 60
        assert oracle_day_number(CalendarDate(1600, 3, 1)) == 60

    @pytest.mark.parametrize(
        "year,leap", [(1600, True), (1700, False), (1856, True), (1900, False), (2000, True)]
    )
    def test_leap_rule(self, year, leap):
        assert days_in_month(year, 2) == (29 if leap else 28)

    @pytest.mark.parametrize("y,m,d", [(1904, 13, 1), (1904, 0, 1), (1904, 2, 30), (0, 1, 1)])
    def test_invalid_dates_rejected(self, y, m, d):
        with pytest.raises(ValueError):
            CalendarDate(y, m, d)

    def test_round_trip_broad_sample(self):
        rng = random.Random(60148)
        for _ in range(2000):
            n = rng.randrange(0, 3_000_000)
            d = from_day_number(n)
            assert to_day_number(d) == n
            assert oracle_day_number(d) == n

    @given(st.integers(min_value=0, max_value=3_000_000))
    def test_round_trip_property(self, n):
        assert to_day_number(from_day_number(n)) == n

    def test_matches_stdlib_across_month_boundaries(self):
        day = date(1599, 12, 20)
        for _ in range(400):
            d = CalendarDate(day.year, day.month, day.day)
            assert to_day_number(d) == (day - EPOCH).days
            day += timedelta(days=173)

    def test_strictly_monotone(self):
        rng = random.Random(7)
        numbers = sorted(rng.randrange(0, 3_000_000) for _ in range(500))
        dates = [from_day_number(n) for n in numbers]
        for (n1, d1), (n2, d2) in zip(zip(numbers, dates), zip(numbers[1:], dates[1:])):
            if n1 < n2:
                assert to_day_number(d1) < to_day_number(d2)
                assert (d1.year, d1.month, d1.day) < (d2.year, d2.month, d2.day)

    @pytest.mark.parametrize("n", [1.0, True, "1"])
    def test_from_day_number_takes_only_an_int(self, n):
        with pytest.raises(ValueError, match=f"^day number must be an integer, got {n!r}$"):
            from_day_number(n)

    def test_from_day_number_range_errors(self):
        with pytest.raises(ValueError):
            from_day_number(-600_000)
        with pytest.raises(ValueError):
            from_day_number(4_000_000)

    def test_dates_are_stdlib_dates(self):
        assert CalendarDate is date
        assert type(from_day_number(0)) is date
        assert from_day_number(0) == date(1600, 1, 1)

    def test_isoformat_pads(self):
        assert CalendarDate(850, 2, 3).isoformat() == "0850-02-03"


class TestDateInterval:
    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="end precedes start"):
            DateInterval(CalendarDate(1904, 6, 1), CalendarDate(1904, 1, 1))

    def test_overlap(self):
        a = DateInterval(CalendarDate(1700, 1, 1), CalendarDate(1710, 12, 31))
        b = DateInterval(CalendarDate(1705, 1, 1), CalendarDate(1712, 12, 31))
        c = DateInterval(CalendarDate(1711, 1, 1), CalendarDate(1712, 12, 31))
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)


def year_interval(year: int, circa: bool = False) -> DateInterval:
    return DateInterval(CalendarDate(year, 1, 1), CalendarDate(year, 12, 31), circa)


def event(id: str, kind: str = "other", year: int = 1900, **kw) -> LifeEvent:
    kw.setdefault("place_key", "somewhere")
    return LifeEvent(id=id, kind=kind, when=year_interval(year), **kw)


class TestEventAndBiography:
    def test_token_grammar(self):
        assert is_token("deir-el-medina")
        assert not is_token("-bad")
        assert not is_token("Bad")
        assert not is_token("")

    def test_event_requires_place_or_point(self):
        with pytest.raises(ValueError, match="place key or an inline point"):
            LifeEvent(id="x", kind="other", when=year_interval(1900))

    def test_event_label_defaults_to_place_then_id(self):
        assert event("a", place_key="giza").label == "giza"
        e = LifeEvent(id="b", kind="other", when=year_interval(1900), point=GeoPoint(1, 2))
        assert e.label == "b"

    @pytest.mark.parametrize("key", ["", "---", "-_-", " _ "])
    def test_place_key_that_folds_to_nothing_rejected(self, key):
        with pytest.raises(ValueError, match="normalizes to empty key"):
            LifeEvent(
                id="a", kind="other", when=year_interval(1900), place_key=key, point=GeoPoint(1, 2)
            )

    def test_fold_key(self):
        assert fold_key("  Deir_el  Medina ") == "deir-el-medina"
        assert fold_key("--Ägypten--") == "ägypten"
        assert fold_key(" _-_ ") == ""

    def test_canonical_name_is_its_own_key(self):
        # One string, not two equal ones, wherever a key is folded. The name
        # is built at run time, so no interned constant can stand in for it.
        name = "".join(["gi", "za"])
        assert fold_key(name) is name
        assert normalize_key(name) is name
        assert event("a", place_key=name).key is name
        (parsed,) = parse_biography(
            f"[biography]\ntitle = T\nid = t\n\n[event]\nid = a\nkind = other\n"
            f"start = 1900\nplace = {name}\n"
        ).events
        assert parsed.key is parsed.place_key
        other = "Giza"
        assert fold_key(other) == name and fold_key(other) is not other

    def test_absolute_attachment_rejected(self):
        with pytest.raises(ValueError, match="relative"):
            event("a", attachments=("/etc/passwd",))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown kind: 'born'$"):
            event("a", kind="born")

    def test_attachment_list_stored_as_tuple(self):
        assert event("a", attachments=["x.jpg", "y.jpg"]).attachments == ("x.jpg", "y.jpg")

    def test_biography_guards(self):
        with pytest.raises(ValueError, match="^biography title must not be empty$"):
            Biography(title="", id="t", events=(event("a"),))
        with pytest.raises(ValueError, match=r"^gazetteer_hint must not be empty \(use None\)$"):
            Biography(title="T", id="t", events=(event("a"),), gazetteer_hint="")

    def test_biography_needs_events(self):
        with pytest.raises(ValueError, match="no events"):
            Biography(title="T", id="t", events=())

    def test_invalid_ids_rejected(self):
        with pytest.raises(ValueError):
            event("UPPER")
        with pytest.raises(ValueError):
            Biography(title="T", id="Not Valid", events=(event("a"),))


class TestEventKey:
    """LifeEvent.key is place_key folded once, at construction."""

    @given(biographies())
    def test_key_is_the_fold_of_place_key(self, b):
        parsed = parse_biography(serialize_biography(b))
        for e in b.events + parsed.events:
            assert e.key == (fold_key(e.place_key) if e.place_key is not None else None)
        assert [e.key for e in parsed.events] == [e.key for e in b.events]

    def test_key_is_not_in_repr_equality_or_hash(self):
        e = event("a", place_key="Deir el_Medina")
        assert e.key == "deir-el-medina"
        assert ", key=" not in repr(e) and "'deir-el-medina'" not in repr(e)
        twin = dataclasses.replace(e, line=40)  # line takes no part either
        object.__setattr__(twin, "key", "elsewhere")
        assert twin == e and hash(twin) == hash(e)

    def test_canonical_place_key_is_its_own_key(self):
        place = "".join(["deir-el", "-medina"])  # not an interned literal
        assert event("a", place_key=place).key is place
        folded = event("b", place_key="Deir el_Medina")
        assert folded.key == place and folded.key is not folded.place_key

    def test_replace_recomputes_key(self):
        e = event("a", place_key="giza")
        assert dataclasses.replace(e, place_key="Deir el_Medina").key == "deir-el-medina"
        moved = dataclasses.replace(e, place_key=None, point=GeoPoint(1, 2))
        assert moved.key is None

    def test_copies_keep_key(self):
        e = event("a", place_key="  Deir_el  Medina ")
        copies = [copy.copy(e), copy.deepcopy(e)] + [
            pickle.loads(pickle.dumps(e, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in copies:
            assert twin == e and twin.key == "deir-el-medina"

    def test_key_is_not_an_argument(self):
        with pytest.raises(TypeError):
            LifeEvent(id="a", kind="other", when=year_interval(1900), place_key="x", key="x")


def residence(id: str, start_day: int, end_day: int) -> LifeEvent:
    when = DateInterval(from_day_number(start_day), from_day_number(end_day))
    return LifeEvent(id=id, kind="residence", when=when, place_key="somewhere")


def pairwise_overlaps(biography: Biography) -> list[tuple[str, str]]:
    """Reference: every residence against every earlier one, in authoring order."""
    found = []
    earlier: list[LifeEvent] = []
    for e in biography.events:
        if e.kind == "residence":
            for other in earlier:
                if e.when.overlaps(other.when):
                    found.append((e.id, f"overlapping residences: '{other.id}' and '{e.id}'"))
            earlier.append(e)
    return found


def overlap_warnings(biography: Biography) -> list[tuple[str | None, str]]:
    return [
        (d.event_id, d.message)
        for d in validate_biography(biography)
        if d.message.startswith("overlapping residences")
    ]


@st.composite
def residence_timelines(draw) -> Biography:
    """Residences (and a few visits) over a short span of days, in any
    order: zero-length, identical, nested and overlapping ones are common."""
    spans = draw(
        st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 30), st.booleans()),
            min_size=1,
            max_size=25,
        )
    )
    events = []
    for i, (start, length, is_residence) in enumerate(spans):
        e = residence(f"r{i}", start, start + length)
        events.append(e if is_residence else dataclasses.replace(e, kind="visit"))
    return Biography(title="T", id="t", events=tuple(events))


class TestValidateBiography:
    def test_clean_biography_is_empty(self):
        b = Biography(title="T", id="t", events=(event("a", year=1700), event("b", year=1800)))
        assert validate_biography(b) == []

    def test_duplicate_ids(self):
        b = Biography(title="T", id="t", events=(event("birth"), event("birth", year=1950)))
        diags = validate_biography(b)
        assert diags == [Diagnostic("error", "birth", "duplicate event id 'birth'")]

    def test_overlapping_residences_warn(self):
        e1 = LifeEvent(
            id="r1",
            kind="residence",
            when=DateInterval(CalendarDate(1700, 1, 1), CalendarDate(1710, 12, 31)),
            place_key="a",
        )
        e2 = LifeEvent(
            id="r2",
            kind="residence",
            when=DateInterval(CalendarDate(1705, 1, 1), CalendarDate(1712, 12, 31)),
            place_key="b",
        )
        diags = validate_biography(Biography(title="T", id="t", events=(e1, e2)))
        assert [d.severity for d in diags] == ["warning"]
        assert "overlapping residences" in diags[0].message
        assert diags[0].event_id == "r2"

    @given(residence_timelines())
    def test_overlaps_match_pairwise_reference(self, b):
        assert overlap_warnings(b) == pairwise_overlaps(b)

    def test_overlaps_are_named_in_authoring_order(self):
        # Out of order, identical, nested and zero-length residences.
        events = (
            residence("late", 500, 900),
            residence("early", 100, 600),
            residence("twin", 100, 600),
            residence("inner", 550, 560),
            residence("point", 560, 560),
            residence("apart", 1000, 1000),
        )
        b = Biography(title="T", id="t", events=events)
        assert overlap_warnings(b) == pairwise_overlaps(b)
        assert [m for e, m in overlap_warnings(b) if e == "point"] == [
            "overlapping residences: 'late' and 'point'",
            "overlapping residences: 'early' and 'point'",
            "overlapping residences: 'twin' and 'point'",
            "overlapping residences: 'inner' and 'point'",
        ]

    @pytest.mark.parametrize("order", ["chronological", "newest-first", "shuffled"])
    def test_overlap_check_is_n_log_n_in_comparisons(self, order):
        # R residences, each overlapping the one before it in time, written
        # in date order, newest first (as a curriculum vitae is) or in a
        # seeded shuffle. Their dates count every comparison made with
        # them; the pairwise check makes about R*R/2.
        r = 1024
        events = [residence(f"r{i}", 20 * i, 20 * i + 25) for i in range(r)]
        if order == "newest-first":
            events.reverse()
        elif order == "shuffled":
            random.Random(1).shuffle(events)
        events, comparisons = counting_dates(events)
        b = Biography(title="T", id="t", events=events)
        assert len(overlap_warnings(b)) == r - 1
        assert 0 < comparisons[0] <= 8 * r * math.log2(r)

    def test_non_residence_overlap_is_fine(self):
        e1 = event("w1", kind="work", year=1700)
        e2 = event("w2", kind="work", year=1700)
        assert validate_biography(Biography(title="T", id="t", events=(e1, e2))) == []

    def test_out_of_order_warns(self):
        b = Biography(title="T", id="t", events=(event("late", year=1900), event("early", year=1800)))
        diags = validate_biography(b)
        assert diags == [Diagnostic("warning", "early", "event out of chronological order")]

    def test_missing_attachment_warns(self, tmp_path):
        (tmp_path / "present.jpg").write_bytes(b"x")
        e = event("a", attachments=("present.jpg", "img/absent.pdf"))
        b = Biography(title="T", id="t", events=(e,))
        assert validate_biography(b) == []  # without base_dir the check is skipped
        diags = validate_biography(b, base_dir=tmp_path)
        assert diags == [Diagnostic("warning", "a", "missing attachment file 'img/absent.pdf'")]

    def test_parsed_events_locate_at_first_header(self):
        b = parse_biography(
            "[biography]\ntitle = T\nid = t\n\n"
            "[event]\nid = home\nkind = residence\nstart = 1900\nend = 1920\nplace = a\n\n"
            "[event]\nid = away\nkind = residence\nstart = 1910\nend = 1930\nplace = b\n\n"
            "[event]\nid = home\nstart = 1880\nplace = a\n"
        )
        assert validate_biography(b) == [
            Diagnostic("warning", "away", "overlapping residences: 'home' and 'away'", 12),
            Diagnostic("error", "home", "duplicate event id 'home'", 5),
            Diagnostic("warning", "home", "event out of chronological order", 5),
        ]

    def test_pure_and_stable(self):
        b = Biography(
            title="T",
            id="t",
            events=(event("birth"), event("birth", year=1800), event("x", year=1700)),
        )
        first = validate_biography(b)
        second = validate_biography(b)
        assert first == second
        # Authoring order first, then check order.
        assert [d.event_id for d in first] == ["birth", "birth", "x"]
