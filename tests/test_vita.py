"""VITA parser and serializer tests, including round-trip properties."""

from __future__ import annotations

import calendar
import dataclasses
import pickle
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vitamap import vita
from vitamap.emit import emit_geojson, emit_kml
from vitamap.model import (
    Biography,
    CalendarDate,
    DateInterval,
    GeoPoint,
    LifeEvent,
    split_lines,
)
from vitamap.vita import (
    VitaParseError,
    parse_biography,
    parse_date_expr,
    serialize_biography,
)

from strategies import biographies, long_timeline_text, sliced_lines, traced_peak

NEWTON_MINIMAL = """\
[biography]
title = Isaac Newton
id = newton

[event]
id = birth
kind = birth
start = 1642
place = woolsthorpe
"""


def diagnostics_of(source: str):
    with pytest.raises(VitaParseError) as excinfo:
        parse_biography(source)
    return excinfo.value.diagnostics


class TestParseDateExpr:
    def test_year_expands_to_full_year(self):
        iv = parse_date_expr("1904")
        assert iv.start == CalendarDate(1904, 1, 1)
        assert iv.end == CalendarDate(1904, 12, 31)
        assert iv.circa is False

    def test_month_expands_to_leap_month(self):
        iv = parse_date_expr("1856-02")
        assert iv.start == CalendarDate(1856, 2, 1)
        assert iv.end == CalendarDate(1856, 2, 29)

    def test_circa_year(self):
        iv = parse_date_expr("c.1665")
        assert iv.circa is True
        assert (iv.start, iv.end) == (CalendarDate(1665, 1, 1), CalendarDate(1665, 12, 31))

    def test_full_date_is_single_day(self):
        iv = parse_date_expr("1904-02-29")
        assert iv.start == iv.end == CalendarDate(1904, 2, 29)

    @pytest.mark.parametrize(
        "expr,needle",
        [
            ("1904-13", "month out of range"),
            ("1905-02-29", "day out of range"),
            ("0000", "year out of range"),
            ("19O4", "malformed date expression"),
            ("1904-1", "malformed date expression"),
            ("", "empty date expression"),
        ],
    )
    def test_malformed(self, expr, needle):
        with pytest.raises(ValueError, match=needle):
            parse_date_expr(expr)


_REFERENCE_DATE_RE = re.compile(r"(c\.)?[ \t]*([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2}))?)?\Z")


def reference_date_range(expr: str):
    """The date grammar by its regex alone: what ``vita._date_range`` must
    give, ``date.fromisoformat`` shortcut or not."""
    if not expr:
        raise ValueError("empty date expression")
    m = _REFERENCE_DATE_RE.match(expr)
    if not m:
        raise ValueError(f"malformed date expression '{expr}'")
    circa, year_text, month_text, day_text = m.groups()
    year = int(year_text)
    if year < 1:
        raise ValueError(f"year out of range in '{expr}'")
    if month_text is None:
        return CalendarDate(year, 1, 1), CalendarDate(year, 12, 31), circa is not None
    month = int(month_text)
    if not 1 <= month <= 12:
        raise ValueError(f"month out of range in '{expr}'")
    if day_text is None:
        last = CalendarDate(year, month, calendar.monthrange(year, month)[1])
        return CalendarDate(year, month, 1), last, circa is not None
    try:
        day = CalendarDate(year, month, int(day_text))
    except ValueError:
        raise ValueError(f"day out of range in '{expr}'") from None
    return day, day, circa is not None


def date_outcome(date_range, expr: str):
    try:
        return date_range(expr)
    except ValueError as exc:
        return type(exc), str(exc)


# Near misses of YYYY-MM-DD: other ISO 8601 forms that some Python versions'
# date.fromisoformat accept (3.11 added the week and basic forms), dates out
# of range, non-ASCII digits and a circa prefix.
DATE_CASES = [
    "2011-02-03", "2012-02-29", "0001-01-01", "9999-12-31", "1904-1",
    "2011-W01-2", "2011W012", "2011-W01", "20110203", "2011-02-03T00",
    "0000-01-01", "2011-02-29", "2011-13-01", "2011-00-10", "2011-01-00", "2011-04-31",
    "２０１１-02-03", "2011-０2-03", "2011-02-0٣", "2011-02-0\ud800", "+011-02-03",
    "c.2011-02-03", "c. 2011-02-03", "c.0000-01-01", "2011_02_03", "2011--0203",
]


class TestDateRangeEquivalence:
    """The ``date.fromisoformat`` path gives what the regex alone gives."""

    @pytest.mark.parametrize("expr", DATE_CASES)
    def test_listed_cases(self, expr):
        assert date_outcome(vita._date_range, expr) == date_outcome(reference_date_range, expr)

    @given(
        st.one_of(
            st.builds(
                "{:04d}-{:02d}-{:02d}".format,
                st.integers(0, 9999), st.integers(0, 99), st.integers(0, 99),
            ),
            st.text(st.sampled_from("0123456789-:.WTZc \t+２٣\ud800"), max_size=12),
            st.text(max_size=12),
        )
    )
    def test_any_text(self, expr):
        assert date_outcome(vita._date_range, expr) == date_outcome(reference_date_range, expr)


def _maybe(*values: str):
    return st.none() | st.sampled_from(values)


def _event_block(fields) -> str:
    *values, point, attachments = fields
    lines = ["[event]"]
    for key, value in zip(("id", "kind", "start", "end", "place"), values):
        if value is not None:
            lines.append(f"{key} = {value}")
    lines += [point] if point else []
    lines += [f"attach = {path}" for path in attachments]
    return "\n".join(lines) + "\n"


# [event] blocks a field or two from valid, in each way the parser or
# LifeEvent can refuse one.
_NEAR_VALID_EVENTS = st.tuples(
    _maybe("e1", "A", "-a", "a_b"),
    _maybe("visit", "birth", "job"),
    _maybe("1900", "c.1900-02", "19x", "1900-13"),
    _maybe("1950", "1800", "x"),
    _maybe("-_-", " ", "\u3000", "_", "Deir el-Medina"),
    _maybe("lat = 1.5", "lon = 2.5", "lat = 1.5\nlon = 2.5", "lat = 91\nlon = 0"),
    st.lists(st.sampled_from(["/a", "a"]), max_size=2),
).map(_event_block)


class TestParseBiography:
    def test_minimal_document(self):
        b = parse_biography(NEWTON_MINIMAL)
        assert b.title == "Isaac Newton"
        assert b.id == "newton"
        assert len(b.events) == 1
        e = b.events[0]
        assert e.kind == "birth"
        assert e.place_key == "woolsthorpe"
        assert e.label == "woolsthorpe"
        assert e.when == DateInterval(CalendarDate(1642, 1, 1), CalendarDate(1642, 12, 31))

    def test_missing_biography_header(self):
        diags = diagnostics_of("[event]\nid = x\nstart = 1900\nplace = p\n")
        assert diags[0].line == 1
        assert diags[0].message == "missing [biography] header"

    def test_empty_source(self):
        diags = diagnostics_of("")
        assert any("missing [biography] header" in d.message for d in diags)

    def test_month_out_of_range_diagnostic(self):
        src = NEWTON_MINIMAL.replace("start = 1642", "start = 1904-13")
        diags = diagnostics_of(src)
        assert any("month out of range" in d.message for d in diags)

    def test_unknown_key_is_error(self):
        src = NEWTON_MINIMAL + "plce = oops\n"
        diags = diagnostics_of(src)
        assert any("unknown key 'plce'" in d.message for d in diags)

    def test_unknown_kind(self):
        src = NEWTON_MINIMAL.replace("kind = birth", "kind = born")
        assert any("unknown kind 'born'" in d.message for d in diagnostics_of(src))

    def test_comments_and_blank_lines_ignored(self):
        src = "# header comment\n\n" + NEWTON_MINIMAL.replace(
            "start = 1642", "start = 1642  # trailing comment"
        )
        assert parse_biography(src) == parse_biography(NEWTON_MINIMAL)

    def test_crlf_equivalent_to_lf(self):
        assert parse_biography(NEWTON_MINIMAL.replace("\n", "\r\n")) == parse_biography(
            NEWTON_MINIMAL
        )

    def test_lone_cr_equivalent_to_lf(self):
        cr = parse_biography(NEWTON_MINIMAL.replace("\n", "\r"))
        assert cr == parse_biography(NEWTON_MINIMAL)
        assert [e.line for e in cr.events] == [5]
        broken = NEWTON_MINIMAL.replace("kind = birth", "kind = born") + "bogus = 1\n"
        assert diagnostics_of(broken.replace("\n", "\r")) == diagnostics_of(broken)

    def test_end_defaults_to_start_expression(self):
        src = NEWTON_MINIMAL.replace("start = 1642", "start = 1642\nend = 1645")
        e = parse_biography(src).events[0]
        assert e.when == DateInterval(CalendarDate(1642, 1, 1), CalendarDate(1645, 12, 31))

    def test_end_before_start(self):
        src = NEWTON_MINIMAL.replace("start = 1642", "start = 1904-06-01\nend = 1904-01-01")
        assert any("end precedes start" in d.message for d in diagnostics_of(src))

    def test_inline_point_normalized(self):
        src = NEWTON_MINIMAL.replace("place = woolsthorpe", "lat = 41.0\nlon = -200.0")
        e = parse_biography(src).events[0]
        assert e.point == GeoPoint(41.0, 160.0)
        assert e.label == "birth"

    def test_lat_without_lon(self):
        src = NEWTON_MINIMAL + "lat = 41.0\n"
        assert any("given together" in d.message for d in diagnostics_of(src))

    def test_latitude_out_of_range(self):
        src = NEWTON_MINIMAL.replace("place = woolsthorpe", "lat = 95.0\nlon = 0.0")
        assert any("latitude out of range" in d.message for d in diagnostics_of(src))

    def test_underscore_in_coordinate_refused(self):
        # float() reads "4_5" as 45; a coordinate must not.
        src = NEWTON_MINIMAL.replace("place = woolsthorpe", "lat =  4_5\nlon = 1")
        assert [(d.line, d.column, d.message) for d in diagnostics_of(src)] == [
            (9, 8, "invalid latitude '4_5'")
        ]

    def test_non_ascii_digits_refused(self):
        # \d and float() accept any Unicode decimal digit, so fullwidth
        # "１９０４-０２" would be February 1904 and Arabic-Indic "١٢.٥" 12.5;
        # the grammar is ASCII.
        src = NEWTON_MINIMAL.replace("start = 1642", "start = １９０４-０２").replace(
            "place = woolsthorpe", "lat = ١٢.٥\nlon = 1"
        )
        assert [(d.line, d.column, d.message) for d in diagnostics_of(src)] == [
            (8, 9, "malformed date expression '１９０４-０２'"),
            (9, 7, "invalid latitude '١٢.٥'"),
        ]

    def test_duplicate_key(self):
        src = NEWTON_MINIMAL + "place = again\n"
        assert any("duplicate key 'place'" in d.message for d in diagnostics_of(src))

    def test_repeatable_attach(self):
        src = NEWTON_MINIMAL + "attach = img/a.jpg\nattach = docs/b.pdf\n"
        e = parse_biography(src).events[0]
        assert e.attachments == ("img/a.jpg", "docs/b.pdf")

    def test_duplicate_event_ids_parse_fine(self):
        # Duplicates are a validation diagnostic, not a parse error.
        src = NEWTON_MINIMAL + "\n[event]\nid = birth\nstart = 1700\nplace = x\n"
        b = parse_biography(src)
        assert [e.id for e in b.events] == ["birth", "birth"]

    def test_recovery_at_next_event_header(self):
        src = (
            "[biography]\ntitle = T\nid = t\n\n"
            "[event]\nid = bad\nstart = nope\nplace = p\n\n"
            "[event]\nid = good\nstart = 1900\nplace = q\n"
        )
        diags = diagnostics_of(src)
        # Only the broken block is reported; the good one parsed cleanly.
        assert len(diags) == 1
        assert "malformed date expression" in diags[0].message

    def test_diagnostics_sorted_by_position(self):
        src = (
            "[biography]\ntitle = T\nid = t\n\n"
            "[event]\nid = a\nstart = bad1\nplace = p\nbogus = 1\n\n"
            "[event]\nid = b\nstart = bad2\nplace = p\n"
        )
        diags = diagnostics_of(src)
        assert [(d.line, d.column) for d in diags] == sorted(
            (d.line, d.column) for d in diags
        )
        assert len(diags) == 3

    def test_no_events(self):
        diags = diagnostics_of("[biography]\ntitle = T\nid = t\n")
        assert any("no events" in d.message for d in diags)

    def test_unknown_block_header_skipped(self):
        src = NEWTON_MINIMAL + "\n[banana]\nkey = value\n"
        diags = diagnostics_of(src)
        assert len(diags) == 1
        assert "unknown block header '[banana]'" in diags[0].message

    def test_missing_required_event_keys(self):
        src = "[biography]\ntitle = T\nid = t\n\n[event]\nkind = visit\nplace = p\n"
        messages = [d.message for d in diagnostics_of(src)]
        assert any("missing required key 'id'" in m for m in messages)
        assert any("missing required key 'start'" in m for m in messages)

    def test_place_that_normalizes_to_empty_key(self):
        # Even with an inline point the key is rejected: itineraries and
        # stats identify keyed places by their normalized key.
        src = NEWTON_MINIMAL.replace("place = woolsthorpe", "place = -_-\nlat = 1\nlon = 2")
        diags = diagnostics_of(src)
        assert [(d.line, d.column, d.message) for d in diags] == [
            (9, 9, "name normalizes to empty key: '-_-'")
        ]

    @settings(max_examples=200)
    @given(st.lists(_NEAR_VALID_EVENTS, min_size=1, max_size=4))
    def test_near_valid_events_give_a_biography_or_a_parse_error(self, blocks):
        # The parser checks each rule LifeEvent checks, so building the
        # event never raises: a block is an event or located findings.
        try:
            biography = parse_biography("[biography]\ntitle = T\nid = t\n" + "".join(blocks))
        except VitaParseError as exc:
            assert all(d.line >= 4 and d.column >= 1 for d in exc.diagnostics)
        else:
            assert isinstance(biography, Biography) and len(biography.events) == len(blocks)

    def test_gazetteer_hint(self):
        src = NEWTON_MINIMAL.replace("id = newton", "id = newton\ngazetteer = places.tsv")
        assert parse_biography(src).gazetteer_hint == "places.tsv"


BROKEN_VITA = Path(__file__).resolve().parent / "fixtures" / "broken-vita.vita"
_KIND_AFTER_TABS = NEWTON_MINIMAL.replace("kind = birth", "kind =  born") + "\tbogus = 1\n"


class TestDiagnosticColumns:
    """Exact (line, column, message) of parse findings. The column is the
    line's first non-blank character, or the value's first character, or
    the ``=`` when the value is empty; blanks are ASCII space, tab, CR,
    form feed and vertical tab."""

    @pytest.mark.parametrize(
        "source,expected",
        [
            pytest.param(
                BROKEN_VITA.read_text(encoding="utf-8"),
                [
                    (12, 1, "unknown key 'colour' in [event]"),
                    (16, 9, "malformed date expression '19x0'"),
                    (22, 7, "lat and lon must be given together"),
                    (27, 9, "name normalizes to empty key: '---'"),
                    (29, 1, "unknown block header '[places]'"),
                ],
                id="broken-vita-fixture",
            ),
            pytest.param(
                NEWTON_MINIMAL + "\tplce = x\n",
                [(10, 2, "unknown key 'plce' in [event]")],
                id="tab-before-key",
            ),
            pytest.param(
                NEWTON_MINIMAL + "   bogus = 1\n",
                [(10, 4, "unknown key 'bogus' in [event]")],
                id="spaces-before-key",
            ),
            pytest.param(
                NEWTON_MINIMAL + "\f\vbogus = 1\n",
                [(10, 3, "unknown key 'bogus' in [event]")],
                id="formfeed-vtab-before-key",
            ),
            pytest.param(
                NEWTON_MINIMAL + "\u00a0kind = birth\n",
                [(10, 1, "unknown key '\u00a0kind' in [event]")],
                id="nbsp-is-not-blank",
            ),
            pytest.param(
                NEWTON_MINIMAL + "\t[banana]\n",
                [(10, 2, "unknown block header '[banana]'")],
                id="tab-before-header",
            ),
            pytest.param(
                NEWTON_MINIMAL + "  [places]\nkey = value\n",
                [(10, 3, "unknown block header '[places]'")],
                id="spaces-before-header",
            ),
            pytest.param(
                NEWTON_MINIMAL + "\t[biography]\n",
                [(10, 2, "duplicate [biography] block")],
                id="duplicate-biography-header",
            ),
            pytest.param(
                "[biography]\ntitle = T\nid = t\n\n   [event]\nkind = visit\n",
                [
                    (5, 1, "event missing required key 'id'"),
                    (5, 1, "event missing required key 'start'"),
                ],
                id="missing-keys-at-indented-header",
            ),
            pytest.param(
                NEWTON_MINIMAL + "[]\n",
                [(10, 1, "unknown block header '[]'")],
                id="empty-header",
            ),
            pytest.param(
                NEWTON_MINIMAL + "[ event ]\n",
                [(10, 1, "unknown block header '[ event ]'")],
                id="blanks-inside-header",
            ),
            pytest.param(
                NEWTON_MINIMAL + "[\n",
                [(10, 1, "expected 'key = value'")],
                id="lone-bracket",
            ),
            pytest.param(
                NEWTON_MINIMAL + "[event] x\n",
                [(10, 1, "expected 'key = value'")],
                id="text-after-header",
            ),
            pytest.param(
                NEWTON_MINIMAL + "  just words\n",
                [(10, 3, "expected 'key = value'")],
                id="no-equals",
            ),
            pytest.param(
                NEWTON_MINIMAL + "= v\n",
                [(10, 1, "expected 'key = value'")],
                id="empty-key",
            ),
            pytest.param(
                NEWTON_MINIMAL + " \t = v\n",
                [(10, 4, "expected 'key = value'")],
                id="blank-key",
            ),
            pytest.param(
                NEWTON_MINIMAL + "pla ce = x\n",
                [(10, 1, "unknown key 'pla ce' in [event]")],
                id="key-with-inner-space",
            ),
            pytest.param(
                NEWTON_MINIMAL + "end =\n",
                [(10, 5, "empty value for key 'end'")],
                id="empty-value",
            ),
            pytest.param(
                NEWTON_MINIMAL + "  end = \t \n",
                [(10, 7, "empty value for key 'end'")],
                id="blank-value",
            ),
            pytest.param(
                NEWTON_MINIMAL + "end =  c.1641\n",
                [(10, 8, "interval end precedes start")],
                id="end-before-start-at-end-value",
            ),
            pytest.param(
                NEWTON_MINIMAL.replace("kind = birth", "kind =\t\tborn"),
                [(7, 9, "unknown kind 'born'")],
                id="value-after-tabs",
            ),
            pytest.param(
                NEWTON_MINIMAL.replace("place = woolsthorpe", "lat =\t95.0\nlon = 0"),
                [(9, 7, "latitude out of range")],
                id="point-value-after-tab",
            ),
            pytest.param(
                NEWTON_MINIMAL.replace("kind = birth", "kind = a = b"),
                [(7, 8, "unknown kind 'a = b'")],
                id="equals-in-value",
            ),
            pytest.param(
                NEWTON_MINIMAL + "\t place = again\n",
                [(10, 3, "duplicate key 'place'")],
                id="duplicate-key",
            ),
            pytest.param(
                NEWTON_MINIMAL.replace("kind = birth", "kind = born  # typo")
                + "bogus = 1 # x\n",
                [(7, 8, "unknown kind 'born'"), (10, 1, "unknown key 'bogus' in [event]")],
                id="trailing-comment",
            ),
            pytest.param(
                NEWTON_MINIMAL + "pl#ace = x\n",
                [(10, 1, "expected 'key = value'")],
                id="comment-in-key",
            ),
            pytest.param(
                NEWTON_MINIMAL + "place # = x\n",
                [(10, 1, "expected 'key = value'")],
                id="comment-hides-equals",
            ),
            pytest.param(
                "  stray = 1\n" + NEWTON_MINIMAL,
                [(1, 1, "missing [biography] header")],
                id="key-before-biography",
            ),
            pytest.param(
                "[event]\nid = e\nstart = 1900\nplace = giza\n" + NEWTON_MINIMAL,
                [(1, 1, "missing [biography] header")],
                id="event-before-biography",
            ),
            pytest.param(
                NEWTON_MINIMAL.replace("id = newton", "id =  Bad_Id"),
                [(3, 7, "invalid biography id 'Bad_Id'")],
                id="invalid-biography-id",
            ),
            pytest.param(
                NEWTON_MINIMAL.replace("id = newton\n", "id = newton\ngazetteer =\t/srv/g.tsv\n"),
                [(4, 13, "gazetteer path must be relative")],
                id="absolute-gazetteer-path",
            ),
            pytest.param(
                "[biography]\ntitle = T\nid = t\n  [event]\nid = e\nstart = 1900\n",
                [(4, 1, "event needs a place or inline lat/lon")],
                id="event-without-place",
            ),
            pytest.param(
                NEWTON_MINIMAL.replace("place =", " attach =  /scans/a.jpg\nplace ="),
                [(9, 12, "attachment path must be relative")],
                id="absolute-attachment-path",
            ),
            pytest.param(
                _KIND_AFTER_TABS.replace("\n", "\r\n"),
                [(7, 9, "unknown kind 'born'"), (10, 2, "unknown key 'bogus' in [event]")],
                id="crlf-line-ends",
            ),
            pytest.param(
                _KIND_AFTER_TABS.replace("\n", "\r"),
                [(7, 9, "unknown kind 'born'"), (10, 2, "unknown key 'bogus' in [event]")],
                id="cr-line-ends",
            ),
            pytest.param(
                NEWTON_MINIMAL.replace("id = newton", "attach = a.jpg\nid = newton"),
                [(3, 1, "unknown key 'attach' in [biography]")],
                id="attach-in-biography",
            ),
            pytest.param(
                NEWTON_MINIMAL + "attach =\n",
                [(10, 8, "empty value for key 'attach'")],
                id="empty-attach",
            ),
            pytest.param(
                NEWTON_MINIMAL + "note =\nnote = x\n",
                [(11, 1, "duplicate key 'note'")],
                id="duplicate-key-after-empty-note",
            ),
            pytest.param(
                NEWTON_MINIMAL + "[weird]\nfoo = 1\n= v\nnovalue\n",
                [(10, 1, "unknown block header '[weird]'")],
                id="lines-of-a-skipped-block",
            ),
            pytest.param(
                "[event]\nstart = 1900\nplace = giza\n" + NEWTON_MINIMAL,
                [
                    (1, 1, "missing [biography] header"),
                    (1, 1, "event missing required key 'id'"),
                ],
                id="event-without-id-before-biography",
            ),
        ],
    )
    def test_located_findings(self, source, expected):
        assert [(d.line, d.column, d.message) for d in diagnostics_of(source)] == expected


# An event lacking only an optional ``end``: a generated line 8 joins it.
_EVENT_SO_FAR = "[biography]\ntitle = T\nid = t\n[event]\nid = e\nstart = 1900\nplace = giza\n"
_blanks = st.text(alphabet=" \t\f\v", max_size=3)
_comments = st.sampled_from(["", "#", "# a note", "#x = [event]"])


class TestLexerColumns:
    """The column rule of TestDiagnosticColumns over generated lines of
    blanks, key, blanks, ``=``, blanks, value, blanks and a comment."""

    @staticmethod
    def located(lead, key, before, after, value, tail, comment):
        line = f"{lead}{key}{before}={after}{value}{tail}{comment}"
        return [(d.line, d.column, d.message) for d in diagnostics_of(_EVENT_SO_FAR + line)]

    @given(_blanks, st.from_regex(r"x[a-z _]{0,6}[a-z]", fullmatch=True), _blanks, _blanks,
           st.sampled_from(["", "1900", "a = b", "[x]"]), _blanks, _comments)
    def test_unknown_key_at_first_non_blank(self, lead, key, before, after, value, tail, comment):
        found = self.located(lead, key, before, after, value, tail, comment)
        assert found == [(8, len(lead) + 1, f"unknown key '{key}' in [event]")]

    @given(_blanks, st.sampled_from(["id", "kind", "start", "end", "place", "lat", "attach"]),
           _blanks, _blanks, _blanks, _comments)
    def test_empty_required_value_at_equals_sign(self, lead, key, before, after, tail, comment):
        found = self.located(lead, key, before, after, "", tail, comment)
        column = len(lead) + len(key) + len(before) + 1
        assert found == [(8, column, f"empty value for key '{key}'")]

    @given(_blanks, _blanks, _blanks, st.from_regex(r"[0-9c][0-9x. -]{0,6}x", fullmatch=True),
           _blanks, _comments)
    def test_malformed_date_at_value_start(self, lead, before, after, value, tail, comment):
        found = self.located(lead, "end", before, after, value, tail, comment)
        column = len(lead) + len("end") + len(before) + len(after) + 2
        assert found == [(8, column, f"malformed date expression '{value}'")]


class TestParseMemory:
    def test_parse_peak_is_within_four_and_a_half_times_the_text(self):
        # No list of every line: the parse holds a piece of lines, the
        # biography it builds, with its repeated values shared, and the
        # text it was given (not counted).
        text = long_timeline_text(3000)
        b, peak = traced_peak(lambda: parse_biography(text))
        assert len(b.events) == 3000 and len(text) > 20 * (1 << 12)
        assert peak <= 4.5 * len(text)

    def test_failing_parse_peak_is_within_four_and_a_half_times_the_text(self):
        # A finding is located from the line its value came on, so a parse
        # that fails is held to the bound of one that succeeds: it makes no
        # second copy of the source's lines.
        text = long_timeline_text(3000).replace("start = 1", "start = x1")

        def failing_parse():
            with pytest.raises(VitaParseError) as excinfo:
                parse_biography(text)
            return excinfo

        excinfo, peak = traced_peak(failing_parse)
        found = excinfo.value.diagnostics
        last = found[-1]
        assert len(found) == 500 and last.line > text[: 1 << 12].count("\n") + 1
        assert (last.line, last.column) == (4416, 9)  # the last "start = x1..." value
        assert last.message == "malformed date expression 'x1998-03'"
        assert peak <= 4.5 * len(text)

    def test_lone_cr_text_peaks_as_its_lf_twin(self):
        # A lone CR cuts the text into pieces as a LF does, so the parse
        # never holds a list of every line.
        text = long_timeline_text(3000)
        cr_text = text.replace("\n", "\r")
        parse_biography(cr_text)  # warm
        lf_biography, lf_peak = traced_peak(lambda: parse_biography(text))
        cr_biography, cr_peak = traced_peak(lambda: parse_biography(cr_text))
        assert cr_biography == lf_biography
        assert cr_peak <= 1.05 * lf_peak

    def test_no_events_finding_is_on_the_last_line(self):
        for source, line in [("[biography]\ntitle = T\nid = t", 3), ("[biography]\r\n\r\n", 3)]:
            assert [(d.line, d.message) for d in diagnostics_of(source)][-1] == (
                line,
                "biography has no events",
            )


def events_of(*blocks: str) -> tuple[LifeEvent, ...]:
    """The events of a biography of the given [event] block bodies."""
    head = "[biography]\ntitle = T\nid = t\n"
    return parse_biography(head + "".join(f"[event]\n{b}\n" for b in blocks)).events


class TestSharedValues:
    """Within one parse, events hold one object per repeated value."""

    def test_equal_values_share_one_object(self):
        a, b, c = events_of(
            "id = a\nkind = visit\nstart = 1900\nplace = Old Mill\nlat = 1.5\nlon = 2.5",
            "id = b\nkind = visit\nstart = 1901\nplace = Old Mill\nlat = 1.5\nlon = 2.5",
            "id = c\nkind = visit\nstart = 1902\nplace = old-mill\nlat = 1.50\nlon = 2.5",
        )
        assert a.kind is b.kind is c.kind
        assert a.place_key is b.place_key is a.label
        assert a.point is b.point
        # Equal floats from other texts are equal points, not one shared point.
        assert c.point == a.point and c.point is not a.point

    def test_canonical_place_is_its_own_key(self):
        canonical, folded = events_of(
            "id = a\nstart = 1900\nplace = old-mill", "id = b\nstart = 1901\nplace = Old Mill"
        )
        assert canonical.key is canonical.place_key
        assert folded.key == "old-mill" and folded.key is not canonical.key

    @pytest.mark.parametrize("fmt", ["kml", "geojson"])
    def test_signed_zero_keeps_its_sign(self, fmt):
        b = parse_biography(
            "[biography]\ntitle = T\nid = t\n"
            + "".join(
                f"[event]\nid = e{i}\nstart = {1900 + i}\nlat = {lat}\nlon = {lon}\n"
                for i, (lat, lon) in enumerate([("0", "0"), ("-0", "0"), ("0", "-0"), ("-0", "-0")])
            )
        )
        if fmt == "kml":
            found = re.findall(r"<coordinates>(.*),0</coordinates>", emit_kml(b, {}))
            assert found == ["0.000000,0.000000", "0.000000,-0.000000",
                             "-0.000000,0.000000", "-0.000000,-0.000000"]
        else:
            found = re.findall(r'"coordinates": \[(.*)\]', emit_geojson(b, {}))
            assert found == ["0.000000, 0.000000", "0.000000, -0.000000",
                             "-0.000000, 0.000000", "-0.000000, -0.000000"]

    @pytest.mark.parametrize(
        "lat,lon,message",
        [("91", "2", "latitude out of range"), ("x", "2", "invalid latitude 'x'"),
         ("1", "2_0", "invalid longitude '2_0'")],
    )
    def test_repeated_bad_point_reported_at_each_line(self, lat, lon, message):
        source = "[biography]\ntitle = T\nid = t\n" + "".join(
            f"[event]\nid = e{i}\nstart = 1900\nlat = {lat}\nlon = {lon}\n" for i in range(3)
        )
        found = [(d.line, d.message) for d in diagnostics_of(source)]
        line = 7 if lon == "2" else 8  # the culprit's line in the first block
        assert found == [(line, message), (line + 5, message), (line + 10, message)]


def _field_values(event: LifeEvent) -> dict:
    """Every field of an event, those left out of equality too."""
    return {f.name: getattr(event, f.name) for f in dataclasses.fields(event)}


def _through_constructors(text: str):
    """What parsing ``text`` gives when the parser builds each event and
    interval with the public constructors, which check it again."""
    with (
        mock.patch.object(vita, "_parsed_event", lambda *args: LifeEvent(*args[:-1])),
        mock.patch.object(vita, "_parsed_interval", DateInterval),
    ):
        return _parsed(text)


def _parsed(text: str):
    try:
        return parse_biography(text)
    except VitaParseError as exc:
        return [(d.severity, d.event_id, d.line, d.column, d.message) for d in exc.diagnostics]


# The parts of an [event] block in the forms a hand-written timeline
# takes: the valid forms of each part, then its broken ones.
_BLOCK_PARTS = {
    "id": (["a", "b", "e-1"], ["A"]),
    "kind": (["", "kind = residence\n", "kind = visit\n"], ["kind = job\n"]),
    "dates": (
        ["start = 1700", "start = c.1700", "start = 1700-02", "start = c. 1704-02-29",
         "start = 1700\nend = c.1702-03", "start = 1701-05\nend = 1701"],
        ["start = 1702\nend = 1701-12-31", "start = 1700-02-29", "start = 17x0"],
    ),
    "place": (
        ["place = Tower of London\n", "place = QAU_EL_KEBIR\n", "place = tower-of-london\n",
         "lat = 51.5\nlon = -0.08\n", "lat = 1\nlon = 200\n",
         "place = Tower of London\nlat = 51.5\nlon = -0.08\n"],
        ["place = --\n", ""],
    ),
    "label": (["", "label =\n", "label = Court\n", "note = n\n"], []),
    "attach": (["", "attach = a.jpg\n", "attach = a.jpg\nattach = d/b.pdf\n"], ["attach = /c\n"]),
}


def _with_header(blocks: list[str]) -> str:
    return "[biography]\ntitle = T\nid = t\n" + "".join(blocks)


def _written_events(broken: str | None = None):
    """Blocks of the valid parts, but for the ``broken`` part."""
    parts = [st.sampled_from(forms[name == broken]) for name, forms in _BLOCK_PARTS.items()]
    return st.tuples(*parts).map(lambda p: "\n[event]\nid = {}\n{}{}\n{}{}{}".format(*p))


_BROKEN_EVENTS = st.sampled_from([n for n, (_, bad) in _BLOCK_PARTS.items() if bad]).flatmap(
    _written_events
)


class TestBuiltFromChecks:
    """A parsed event is built from the parser's own checks, with no check
    run again: it equals, field for field, what the public constructors
    build from the same values, and its findings are the same."""

    @settings(max_examples=200)
    @given(
        st.one_of(
            biographies().map(serialize_biography),
            st.integers(1, 30).map(long_timeline_text),
            st.lists(_written_events(), min_size=1, max_size=6).map(_with_header),
            st.lists(_written_events() | _BROKEN_EVENTS, min_size=1, max_size=4).map(_with_header),
        )
    )
    def test_same_result_as_the_public_constructors(self, text):
        shipped, public = _parsed(text), _through_constructors(text)
        assert type(shipped) is type(public)
        if isinstance(public, list):
            assert shipped == public
            return
        assert shipped == public
        for ours, theirs in zip(shipped.events, public.events):
            assert _field_values(ours) == _field_values(theirs)
            assert (ours.key, ours.label, ours.line) == (theirs.key, theirs.label, theirs.line)
            assert dataclasses.astuple(ours.when) == dataclasses.astuple(theirs.when)

    @pytest.mark.parametrize(
        "place,label",
        [("place = Tower of London", "Tower of London"), ("lat = 1\nlon = 2", "birth")],
    )
    def test_empty_label_falls_back_to_the_place_text(self, place, label):
        src = NEWTON_MINIMAL.replace("place = woolsthorpe", place) + "label =\n"
        assert parse_biography(src).events[0].label == label

    def test_parsed_event_is_a_frozen_slotted_value(self):
        src = NEWTON_MINIMAL.replace("place = woolsthorpe", "place = Tower of London")
        event = parse_biography(src + "attach = a.jpg\n").events[0]
        twin = LifeEvent(
            "birth",
            "birth",
            DateInterval(CalendarDate(1642, 1, 1), CalendarDate(1642, 12, 31)),
            "Tower of London",
            attachments=("a.jpg",),
        )
        for value in (event, event.when):
            assert not hasattr(value, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, dataclasses.fields(value)[0].name, None)
        assert event == twin and hash(event) == hash(twin)
        assert hash(event.when) == hash(twin.when)
        assert (event.key, event.label) == (twin.key, twin.label)
        assert (event.key, event.label) == ("tower-of-london", "Tower of London")
        assert pickle.loads(pickle.dumps(event)) == event


# Good and broken lines of every kind, for texts cut at any slice size.
_ANY_LINE = st.sampled_from(
    [
        "[biography]", "title = T", "id = t", "id = ?", "gazetteer = /g.tsv", "[event]",
        "  [event]  # c", "[weird]", "id = e1", "id = e2", "kind = visit", "kind = job",
        "start = 1904", "start = c.1904-02", "start = 19x", "end = 1905", "end = 1800",
        "place = giza", "place = ---", "lat = 1.5", "lon = 2.5", "lat = 91", "lon = x",
        "label = L # note", "note =", "note = n", "attach = a.jpg", "attach =",
        "attach = /a.jpg", "= v", "novalue", "unknown = 1", "start =", "", " \t",
        "# only a comment",
    ]
)


def _outcome(text):
    try:
        b = parse_biography(text)
    except VitaParseError as exc:
        return [(d.line, d.column, d.message) for d in exc.diagnostics]
    return b, [e.line for e in b.events]


class TestChunkedParse:
    """Lines walked a piece at a time give what one split of the whole text gives."""

    @settings(max_examples=300)
    @given(
        st.lists(st.tuples(_ANY_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=40),
        st.integers(1, 40),
    )
    def test_any_chunk_same_result_as_one_split(self, lines, size):
        text = "".join(line + end for line, end in lines)
        assert _outcome(sliced_lines(text, size)) == _outcome(split_lines(text))


class TestSerialize:
    def test_canonical_output_shape(self):
        b = parse_biography(NEWTON_MINIMAL)
        text = serialize_biography(b)
        assert text == (
            "[biography]\n"
            "title = Isaac Newton\n"
            "id = newton\n"
            "\n"
            "[event]\n"
            "id = birth\n"
            "kind = birth\n"
            "start = 1642\n"
            "place = woolsthorpe\n"
        )

    def test_empty_note_omitted(self):
        src = NEWTON_MINIMAL + "note = \n"
        assert "note" not in serialize_biography(parse_biography(src))

    def test_attachment_line(self):
        src = NEWTON_MINIMAL + "attach = img/tomb.jpg\n"
        assert "attach = img/tomb.jpg\n" in serialize_biography(parse_biography(src))

    def test_unserializable_value_rejected(self):
        e = LifeEvent(
            id="a",
            kind="other",
            when=DateInterval(CalendarDate(1900, 1, 1), CalendarDate(1900, 1, 1)),
            place_key="p",
            note="has # hash",
        )
        b = Biography(title="T", id="t", events=(e,))
        with pytest.raises(ValueError, match="cannot be serialized"):
            serialize_biography(b)

    def test_surrounding_whitespace_rejected(self):
        e = LifeEvent(
            id="a",
            kind="other",
            when=DateInterval(CalendarDate(1900, 1, 1), CalendarDate(1900, 1, 1)),
            place_key="p",
            label=" padded",
        )
        b = Biography(title="T", id="t", events=(e,))
        with pytest.raises(
            ValueError, match="^value for 'label' has surrounding whitespace: ' padded'$"
        ):
            serialize_biography(b)

    def test_round_trip_examples(self):
        variants = [
            NEWTON_MINIMAL,
            NEWTON_MINIMAL.replace("start = 1642", "start = c.1656-02"),
            NEWTON_MINIMAL.replace("start = 1642", "start = 1642-12-25"),
            NEWTON_MINIMAL.replace("start = 1642", "start = c.1642-01-15\nend = 1ocked".replace("1ocked", "1643-02")),
            NEWTON_MINIMAL.replace("place = woolsthorpe", "lat = 52.8\nlon = -0.62\nlabel = Home"),
        ]
        for src in variants:
            b = parse_biography(src)
            assert parse_biography(serialize_biography(b)) == b

    @settings(max_examples=200)
    @given(biographies())
    def test_round_trip_property(self, b):
        assert parse_biography(serialize_biography(b)) == b

    @settings(max_examples=200)
    @given(st.text(max_size=300))
    def test_parser_totality(self, source):
        try:
            result = parse_biography(source)
            assert isinstance(result, Biography)
        except VitaParseError as exc:
            assert len(exc.diagnostics) >= 1
