"""Gazetteer loading, key normalization, resolution and the remote stub."""

from __future__ import annotations

import string
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vitamap import gazetteer
from vitamap.gazetteer import (
    GazetteerEntry,
    GazetteerParseError,
    GeocoderError,
    UnknownPlace,
    gazetteer_row,
    load_gazetteer,
    normalize_key,
    remote_resolve,
    resolve,
)
from vitamap.model import (
    CalendarDate,
    DateInterval,
    Diagnostic,
    GeoPoint,
    LifeEvent,
    is_token,
    parse_coordinate,
    split_lines,
)

from strategies import sliced_lines, traced_peak

GIZA_ROW = "giza\tGiza\t29.9773\t31.1325\tEgypt"


def make_event(**kw):
    kw.setdefault("id", "e1")
    kw.setdefault("kind", "other")
    kw.setdefault("when", DateInterval(CalendarDate(1900, 1, 1), CalendarDate(1900, 1, 1)))
    return LifeEvent(**kw)


def errors_of(source, keys=None):
    with pytest.raises(GazetteerParseError) as excinfo:
        load_gazetteer(source, keys)
    return excinfo.value.diagnostics


class TestLoadGazetteer:
    def test_simple_row(self):
        entries = load_gazetteer(GIZA_ROW + "\n")
        assert entries["giza"] == GazetteerEntry("giza", "Giza", GeoPoint(29.9773, 31.1325), "Egypt")

    def test_empty_file(self):
        assert load_gazetteer("") == {}

    def test_comments_and_blank_lines(self):
        entries = load_gazetteer("# places\n\n" + GIZA_ROW + "\n")
        assert list(entries) == ["giza"]

    def test_latitude_out_of_range(self):
        diags = errors_of("north-pole-ish\tX\t95.0\t0.0\t\n")
        assert any("latitude out of range" in d.message for d in diags)

    def test_longitude_out_of_range(self):
        diags = errors_of("x\tX\t0.0\t-180.0\t\n")
        assert any("longitude out of range" in d.message for d in diags)

    def test_unparsable_coordinate(self):
        diags = errors_of("x\tX\tnorth\t0.0\t\n")
        assert any("unparsable latitude" in d.message for d in diags)

    def test_underscore_in_coordinate_refused(self):
        # float() reads "2_9.9" as 29.9; a coordinate must not.
        diags = errors_of("giza\tGiza\t2_9.9\t31\tEgypt\n")
        assert [(d.line, d.column, d.message) for d in diags] == [
            (1, 1, "unparsable latitude '2_9.9'")
        ]

    def test_non_ascii_digits_in_coordinate_refused(self):
        # float() reads Arabic-Indic "٢٩.٩" as 29.9 and fullwidth "３１" as
        # 31; the gazetteer grammar is ASCII.
        diags = errors_of("giza\tGiza\t٢٩.٩\t31\tEgypt\nluxor\tLuxor\t25\t３１\tEgypt\n")
        assert [(d.line, d.column, d.message) for d in diags] == [
            (1, 1, "unparsable latitude '٢٩.٩'"),
            (2, 1, "unparsable longitude '３１'"),
        ]

    def test_wrong_column_count(self):
        diags = errors_of("x\tX\t0.0\t0.0\n")
        assert any("expected 5 tab-separated columns" in d.message for d in diags)

    def test_duplicate_key_names_both_lines(self):
        diags = errors_of(GIZA_ROW + "\n" + GIZA_ROW + "\n")
        assert len(diags) == 1
        assert diags[0].line == 2
        assert "duplicate key 'giza'" in diags[0].message
        assert "line 1" in diags[0].message

    def test_invalid_key(self):
        diags = errors_of("Giza\tGiza\t29.98\t31.13\tEgypt\n")
        assert any("invalid key 'Giza'" in d.message for d in diags)

    def test_key_with_trailing_hyphen_rejected(self):
        # No place folds to 'giza-': `place = giza-` looks up 'giza'.
        diags = errors_of("giza-\tGiza\t29.98\t31.13\tEgypt\n" + GIZA_ROW + "\n")
        assert [(d.line, d.column, d.message) for d in diags] == [(1, 1, "invalid key 'giza-'")]

    def test_round_trip_rows(self):
        source = (
            "aswan\tAswan\t24.088900\t32.899800\tEgypt\n"
            "giza\tGiza\t29.977300\t31.132500\tEgypt\n"
        )
        entries = load_gazetteer(source)
        rebuilt = "".join(gazetteer_row(e) + "\n" for e in entries.values())
        assert rebuilt == source
        assert load_gazetteer(rebuilt) == entries


class TestGazetteerRow:
    def test_longitude_just_above_minus_180_is_written_as_180(self):
        # Rounded to six decimals it would read -180.000000, which the loader refuses.
        row = gazetteer_row(GazetteerEntry("x", "X", GeoPoint(1, -179.9999999)))
        assert row == "x\tX\t1.000000\t180.000000\t"
        assert load_gazetteer(row) == {"x": GazetteerEntry("x", "X", GeoPoint(1, 180), "")}

    @given(
        st.floats(min_value=-90.0, max_value=90.0),
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
        | st.floats(min_value=-180.0000006, max_value=-179.9999994),
    )
    def test_any_point_gives_a_row_that_loads_as_itself(self, lat, lon):
        row = gazetteer_row(GazetteerEntry("x", "X", GeoPoint(lat, lon)))
        (entry,) = load_gazetteer(row).values()
        assert gazetteer_row(entry) == row


class TestKeyPattern:
    """gazetteer._KEY, the one key test, is a token without a trailing "-"."""

    @given(st.text() | st.text(alphabet=string.ascii_lowercase + string.digits + "-_A\n"))
    def test_matches_exactly_tokens_without_a_trailing_hyphen(self, text):
        expected = is_token(text) and not text.endswith("-")
        assert bool(gazetteer._KEY.match(text)) is expected

    @given(
        st.lists(
            st.text(alphabet=string.ascii_lowercase + string.digits + "-_A\n#")
            | st.text(alphabet=st.characters(exclude_characters="\t"))
        )
    )
    def test_bulk_pattern_accepts_exactly_lists_of_keys(self, texts):
        # A key holds no tab: it is a cell of a row split on tabs.
        expected = all(gazetteer._KEY.match(text) for text in texts)
        joined = "".join(text + "\t" for text in texts)
        assert bool(gazetteer._KEYS.fullmatch(joined)) is expected


# Generated gazetteers: valid rows mixed with rows broken in each way the
# loader reports. Keys come from a small pool, so that duplicates, and
# keys whose first row was broken, both occur.
_KEY_POOL = ["giza", "luxor", "aswan", "qau-el-kebir", "turin", "biella"]
_pool_keys = st.sampled_from(_KEY_POOL)
_latitudes = st.floats(min_value=-90.0, max_value=90.0).map(repr)
_longitudes = st.floats(min_value=-180.0, max_value=180.0, exclude_min=True).map(repr)
_bad_coordinates = st.sampled_from(["north", "", "nan", "inf", "-inf", "90.5", "-180.0", "1e3"])
_valid_rows = st.tuples(_pool_keys, _latitudes, _longitudes)
_broken_rows = st.one_of(
    st.tuples(_pool_keys, _latitudes | _bad_coordinates, _longitudes | _bad_coordinates).map(
        lambda r: f"{r[0]}\tName\t{r[1]}\t{r[2]}\tRegion"
    ),
    _pool_keys.map(lambda k: f"{k}\tName\t1.0\t2.0"),
    _pool_keys.map(lambda k: f"{k}\t\t1.0\t2.0\tRegion"),
    _pool_keys.map(lambda k: f"{k.upper()}\tName\t1.0\t2.0\tRegion"),
    st.just("a\tb\tc\td\te\tf"),
)
_skipped_rows = st.sampled_from(["", "# comment", "  \t "])
_gazetteer_sources = (
    st.tuples(
        st.lists(_valid_rows, max_size=6, unique_by=lambda r: r[0]).map(
            lambda rows: [f"{k}\tName {k}\t{lat}\t{lon}\tRegion" for k, lat, lon in rows]
        ),
        st.one_of(st.just([]), st.lists(_broken_rows, min_size=1, max_size=3)),
        st.lists(_skipped_rows, max_size=2),
    )
    .flatmap(lambda parts: st.permutations(parts[0] + parts[1] + parts[2]))
    .flatmap(
        lambda rows: st.lists(
            st.sampled_from(["\n", "\r\n"]), min_size=len(rows), max_size=len(rows)
        ).map(lambda ends: "".join(row + end for row, end in zip(rows, ends)))
    )
)
_key_sets = st.sets(st.sampled_from([*_KEY_POOL, "atlantis"]))


class TestLineEnds:
    def test_lone_cr_equivalent_to_lf(self):
        source = GIZA_ROW + "\nluxor\tLuxor\t25.6872\t32.6396\tEgypt\n"
        assert load_gazetteer(source.replace("\n", "\r")) == load_gazetteer(source)
        broken = source + "# comment\nspare\tSpare\tnan\t0.0\t\n"
        assert errors_of(broken.replace("\n", "\r")) == errors_of(broken)


class TestLoadGazetteerKeys:
    def test_keys_select_entries_in_file_order(self):
        source = (
            "aswan\tAswan\t24.0889\t32.8998\tEgypt\n"
            + GIZA_ROW
            + "\nluxor\tLuxor\t25.6872\t32.6396\tEgypt\n"
        )
        entries = load_gazetteer(source, {"luxor", "atlantis", "aswan"})
        assert list(entries) == ["aswan", "luxor"]
        assert entries["luxor"] == load_gazetteer(source)["luxor"]

    def test_unused_rows_are_still_checked(self):
        diags = errors_of(GIZA_ROW + "\nspare\tSpare\tnan\t0.0\t\n", {"giza"})
        assert [(d.line, d.message) for d in diags] == [(2, "latitude out of range")]

    @settings(max_examples=300)
    @given(_gazetteer_sources, _key_sets)
    def test_keys_filter_the_full_load(self, source, keys):
        try:
            full = load_gazetteer(source)
        except GazetteerParseError as exc:
            assert errors_of(source, keys) == exc.diagnostics
            return
        subset = load_gazetteer(source, keys)
        assert list(subset.items()) == [(k, e) for k, e in full.items() if k in keys]

    def test_keyed_load_keeps_no_table_of_unused_rows(self):
        # 20 000 rows, about 1 MB, of which one is looked up. The loader
        # walks the rows a piece at a time and keeps each valid key's first
        # line: about 2.1x the source, against 4.1x with a list of every line.
        source = "".join(
            f"site-{i:05d}\tSite {i}\t{(i * 7919 % 180001) / 1000 - 90:.6f}"
            f"\t{(i * 104729 % 359999) / 1000 - 179.998:.6f}\tRegion {i % 17}\n"
            for i in range(20_000)
        )
        entries, peak = traced_peak(lambda: load_gazetteer(source, {"site-12345"}))
        assert list(entries) == ["site-12345"]
        assert peak < 3 * len(source)


class TestKeysCheckedInBulk:
    """The key rule runs once per chunk of defined keys, after the scan."""

    @staticmethod
    def valid_rows(count):
        return "".join(
            f"site-{i:05d}\tSite {i}\t{i % 90}.5\t{i % 180}.25\tR\n" for i in range(count)
        )

    def test_comment_row_with_five_valid_cells_is_silent(self):
        source = "#giza\tGiza\t1\t2\tE\n" + GIZA_ROW + "\n"
        assert list(load_gazetteer(source)) == ["giza"]
        assert_same_as_reference(source, None)

    def test_bad_key_past_the_first_chunk_is_located_at_its_row(self):
        source = self.valid_rows(300) + "Late_Key\tLate\t1\t2\tR\n" + GIZA_ROW + "\n"
        diags = errors_of(source)
        assert [(d.line, d.column, d.message) for d in diags] == [
            (301, 1, "invalid key 'Late_Key'")
        ]
        assert_same_as_reference(source, None)

    def test_bad_key_twice_is_invalid_at_both_rows(self):
        bad = "giza-\tGiza\t1\t2\tE\n"
        source = bad + GIZA_ROW + "\n" + bad
        assert [(d.line, d.column, d.message) for d in errors_of(source)] == [
            (1, 1, "invalid key 'giza-'"),
            (3, 1, "invalid key 'giza-'"),
        ]
        assert_same_as_reference(source, None)

    def test_bad_key_that_is_wanted_still_raises(self):
        source = GIZA_ROW + "\ncafé\tCafé\t1\t2\tE\n"
        assert [(d.line, d.column, d.message) for d in errors_of(source, {"café"})] == [
            (2, 1, "invalid key 'café'")
        ]
        assert_same_as_reference(source, {"café"})

    def test_one_bulk_match_per_chunk_and_no_match_per_row(self):
        # A guard against a quiet return to one regex per row.
        rows = 20_000
        source = self.valid_rows(rows)
        with (
            mock.patch.object(gazetteer, "_KEY", mock.Mock(wraps=gazetteer._KEY)) as key,
            mock.patch.object(gazetteer, "_KEYS", mock.Mock(wraps=gazetteer._KEYS)) as keys,
        ):
            assert len(load_gazetteer(source, {"site-12345"})) == 1
        assert key.match.call_count == 0
        assert keys.fullmatch.call_count == -(-rows // gazetteer._KEY_CHUNK)


def reference_load(source, keys=None):
    """load_gazetteer as it was with one early ``continue`` per finding:
    the reference that the one valid-row test must agree with."""
    first_lines, entries, diags = {}, {}, []

    def reject(message):
        diags.append(Diagnostic("error", None, message, lineno, 1))

    for lineno, line in enumerate(split_lines(source), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 5:
            reject(f"expected 5 tab-separated columns, got {len(columns)}")
            continue
        key, display_name, lat_text, lon_text, region = columns
        if not is_token(key) or key.endswith("-"):
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


# Rows built field by field: valid, with one field broken, or with any
# mix, so that every finding occurs, alone or behind an earlier one. The
# coordinate texts are ones float() reads and parse_coordinate refuses,
# or that it reads too.
_valid_keys = st.sampled_from(["giza", "luxor", "a", "0-9", "qau-el-kebir"])
_bad_keys = st.sampled_from(["giza-", "-giza", "Giza", "gi_za", "", " giza", "giza ", "#giza"])
_valid_names = st.sampled_from(["Giza", "Café", "a_b", " ", "#"])
_refused_coordinates = st.sampled_from(
    ["nan", "-nan", "NaN", "inf", "-inf", "1e400", "1_0", "2_9.9", "٢٩.٩", "３１", "", " ", "north"]
)
_valid_lats = st.floats(min_value=-90.0, max_value=90.0).map(repr) | st.sampled_from(
    [" 1.5 ", "+1", "1e1", "90", "-90", "90.0", "1.", ".5", "-0"]
)
_valid_lons = st.floats(min_value=-180.0, max_value=180.0, exclude_min=True).map(repr) | (
    st.sampled_from([" 1.5 ", "+1", "1e1", "180", "180.0", "-179.999999", "1E2"])
)
_bad_lats = _refused_coordinates | st.sampled_from(["90.0001", "-90.5", "180"])
_bad_lons = _refused_coordinates | st.sampled_from(["-180", "-180.0", "180.0001", "360"])
_regions = st.sampled_from(["Egypt", "", "a_b"])
_any_cells = st.tuples(
    _valid_keys | _bad_keys, _valid_names | st.just(""), _valid_lats | _bad_lats,
    _valid_lons | _bad_lons, _regions,
)
_rows = st.one_of(
    st.tuples(_valid_keys, _valid_names, _valid_lats, _valid_lons, _regions).map("\t".join),
    st.tuples(_bad_keys, _valid_names, _valid_lats, _valid_lons, _regions).map("\t".join),
    st.tuples(_valid_keys, st.just(""), _valid_lats, _valid_lons, _regions).map("\t".join),
    st.tuples(_valid_keys, _valid_names, _bad_lats, _valid_lons, _regions).map("\t".join),
    st.tuples(_valid_keys, _valid_names, _valid_lats, _bad_lons, _regions).map("\t".join),
    _any_cells.map("\t".join),
    _any_cells.map(lambda c: "\t".join(c[:4])),  # four columns
    _any_cells.map(lambda c: "\t".join(c) + "\tspare"),  # six columns
    st.sampled_from(["#", "# key\tname\tlat\tlon\tregion", "#giza\tGiza\t1\t2\tE"]),
    st.sampled_from(["", " ", "\t\t\t\t", " \t \t", "\x0b", "\u3000", "\x1c"]),
)
_ends = st.sampled_from(["\n", "\r\n", "\r"])
# A rejected row, then a valid row with its key: the key's first definition.
_rejected_then_valid = st.tuples(_valid_keys, _valid_lats, _ends, _ends).map(
    lambda r: f"{r[0]}\t\t1\t2\tE{r[2]}{r[0]}\tName\t{r[1]}\t{r[1]}\tE{r[3]}"
)
# Each row with its line end, then one last row without.
_mixed_sources = st.tuples(
    st.lists(st.tuples(_rows, _ends).map("".join) | _rejected_then_valid, max_size=10), _rows
).map(lambda parts: "".join(parts[0]) + parts[1])


def assert_same_as_reference(source, keys, lines=None):
    """load_gazetteer of ``lines``, by default of ``source``, gives what
    reference_load of ``source`` gives."""
    lines = source if lines is None else lines
    try:
        expected = list(reference_load(source, keys).items())
    except GazetteerParseError as exc:
        assert errors_of(lines, keys) == exc.diagnostics
        return
    assert list(load_gazetteer(lines, keys).items()) == expected


class TestValidRowTest:
    @settings(max_examples=1000)
    @given(_mixed_sources, st.none() | st.sets(_valid_keys))
    def test_same_result_as_the_reference_loop(self, source, keys):
        assert_same_as_reference(source, keys)

    @settings(max_examples=300)
    @given(_mixed_sources, st.none() | st.sets(_valid_keys), st.integers(1, 40))
    def test_rows_walked_a_piece_at_a_time(self, source, keys, size):
        # Small pieces put every cut, and so every row after one, in play.
        assert_same_as_reference(source, keys, sliced_lines(source, size))

    @settings(max_examples=300)
    @given(_mixed_sources, st.none() | st.sets(_valid_keys), st.integers(1, 3))
    def test_keys_checked_a_few_at_a_time(self, source, keys, chunk):
        # Small chunks put every key, bad or not, next to a chunk boundary.
        with mock.patch.object(gazetteer, "_KEY_CHUNK", chunk):
            assert_same_as_reference(source, keys)

    def test_rejected_row_does_not_define_its_key(self):
        source = "giza\t\t1\t2\tE\n" + GIZA_ROW + "\n" + GIZA_ROW + "\n"
        assert [(d.line, d.message) for d in errors_of(source)] == [
            (1, "empty display_name"),
            (3, "duplicate key 'giza' (first defined on line 2)"),
        ]


class TestNormalizeKey:
    @pytest.mark.parametrize(
        "name,key",
        [
            ("Deir el-Medina", "deir-el-medina"),
            ("  GIZA ", "giza"),
            ("Occhieppo Inferiore", "occhieppo-inferiore"),
            ("qau_el_kebir", "qau-el-kebir"),
            ("Tower\tof  London", "tower-of-london"),
        ],
    )
    def test_examples(self, name, key):
        assert normalize_key(name) == key

    def test_empty_result_raises(self):
        with pytest.raises(UnknownPlace, match="normalizes to empty key"):
            normalize_key(" _ ")

    @given(st.text(max_size=40))
    def test_idempotent(self, name):
        try:
            once = normalize_key(name)
        except UnknownPlace:
            return
        assert normalize_key(once) == once


class TestResolve:
    def test_inline_point_wins(self):
        gaz = load_gazetteer(GIZA_ROW + "\n")
        e = make_event(place_key="giza", point=GeoPoint(41.0, -200.0))
        assert resolve(e, gaz) == GeoPoint(41.0, 160.0)

    def test_gazetteer_lookup_normalizes(self):
        gaz = load_gazetteer("tower-of-london\tTower of London\t51.5081\t-0.076\tEngland\n")
        e = make_event(place_key="Tower of London")
        assert resolve(e, gaz) == GeoPoint(51.5081, -0.076)

    def test_unknown_place(self):
        with pytest.raises(UnknownPlace) as excinfo:
            resolve(make_event(place_key="atlantis"), {})
        assert excinfo.value.key == "atlantis"
        assert excinfo.value.event_id == "e1"

    def test_resolved_point_is_normalized(self):
        gaz = load_gazetteer(GIZA_ROW + "\n")
        p = resolve(make_event(place_key="giza"), gaz)
        assert -90.0 <= p.lat <= 90.0 and -180.0 < p.lon <= 180.0


class TestRemoteResolve:
    def test_success(self, geocoder_stub):
        entry = remote_resolve("Assiut", f"{geocoder_stub}/ok")
        assert entry == GazetteerEntry("assiut", "Assiut", GeoPoint(27.18, 31.18), "")
        assert gazetteer_row(entry) == "assiut\tAssiut\t27.180000\t31.180000\t"

    def test_query_is_url_encoded(self, geocoder_stub):
        entry = remote_resolve("Qau el-Kebir", f"{geocoder_stub}/echo")
        assert entry.display_name == "Qau el-Kebir"
        assert entry.key == "qau-el-kebir"

    def test_key_with_trailing_hyphen_refused(self, geocoder_stub):
        # The stub echoes the key 'giza-', a row load_gazetteer would reject.
        with pytest.raises(GeocoderError, match="malformed geocoder response: bad key"):
            remote_resolve("Giza ", f"{geocoder_stub}/echo")

    def test_not_found(self, geocoder_stub):
        with pytest.raises(GeocoderError, match="place not found at endpoint"):
            remote_resolve("Atlantis", f"{geocoder_stub}/notfound")

    def test_server_error(self, geocoder_stub):
        with pytest.raises(GeocoderError, match="status 500"):
            remote_resolve("X", f"{geocoder_stub}/error")

    def test_missing_field(self, geocoder_stub):
        with pytest.raises(GeocoderError, match="malformed geocoder response"):
            remote_resolve("X", f"{geocoder_stub}/missing-lat")

    def test_extra_field_rejected(self, geocoder_stub):
        with pytest.raises(GeocoderError, match="malformed geocoder response"):
            remote_resolve("X", f"{geocoder_stub}/extra-field")

    @pytest.mark.parametrize("name", ["Assiut\tEgypt", "Assiut\rEgypt", "Assiut\nEgypt"])
    def test_display_name_that_splits_a_row_refused(self, geocoder_stub, name):
        # gazetteer_row would print a row that load_gazetteer refuses.
        with pytest.raises(GeocoderError, match="^malformed geocoder response: bad display_name$"):
            remote_resolve(name, f"{geocoder_stub}/named")

    def test_suggested_row_loads(self, geocoder_stub):
        entry = remote_resolve("Assiut, Egypt \x0b", f"{geocoder_stub}/named")
        assert load_gazetteer(gazetteer_row(entry)) == {"x": entry}

    @pytest.mark.parametrize(
        "route,message",
        [
            ("string-lat", "lat/lon must be numbers"),
            ("far-lat", "latitude out of range: 91.0"),
        ],
    )
    def test_bad_numbers(self, geocoder_stub, route, message):
        with pytest.raises(GeocoderError, match=f"^malformed geocoder response: {message}$"):
            remote_resolve("X", f"{geocoder_stub}/{route}")

    def test_non_json_body(self, geocoder_stub):
        with pytest.raises(GeocoderError, match="not a JSON object"):
            remote_resolve("X", f"{geocoder_stub}/not-json")

    def test_unreachable(self):
        with pytest.raises(GeocoderError, match="unreachable"):
            remote_resolve("X", "http://127.0.0.1:9", timeout=0.5)
