"""Emitter tests: KML, GeoJSON, itinerarium tables, timeline buckets."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
import re
import sys
import warnings
import xml.etree.ElementTree as ET

import pytest
from hypothesis import assume, given, settings, strategies as st

from vitamap import model
from vitamap.cli import main
from vitamap.emit import (
    _NOT_XML_CHAR,
    DEFAULT_PALETTE,
    ITINERARY_CSV_HEADER,
    EmitConfig,
    KML_NAMESPACE,
    _csv_field,
    _xml_escape,
    distance_matrix,
    emit_geojson,
    emit_itinerarium,
    emit_kml,
    geojson_records,
    kml_records,
    matrix_records,
    timeline_bucket,
)
from vitamap.geo import (
    _Leg,
    _haversines,
    build_itinerary,
    haversine_km,
    itinerary_order,
    itinerary_stops,
    place_identity,
    route_stats,
)
from vitamap.gazetteer import (
    _Entry,
    _Point,
    GazetteerEntry,
    UnknownPlace,
    load_gazetteer,
    normalize_key,
)
from vitamap.model import (
    _Event,
    _Interval,
    Biography,
    CalendarDate,
    DateInterval,
    GeoPoint,
    InvalidBiographyError,
    ItineraryLeg,
    LifeEvent,
    fold_key,
    from_day_number,
    to_day_number,
    validate_biography,
)
from vitamap.vita import parse_biography, serialize_biography

from strategies import (
    biographies,
    counting_dates,
    geo_points,
    long_timeline_gazetteer,
    long_timeline_text,
    traced_peak,
)

NS = {"kml": KML_NAMESPACE}

GAZ = load_gazetteer(
    "deir-el-medina\tDeir el-Medina\t25.7286\t32.6014\tEgypt\n"
    "giza\tGiza\t29.9773\t31.1325\tEgypt\n"
    "luxor\tLuxor\t25.6872\t32.6396\tEgypt\n"
)


# Free text as a library caller may pass it, weighted towards what JSON
# escapes or passes through: quotes, backslashes, C0 controls, U+2028,
# lone surrogates and non-BMP characters.
free_text = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\\x00\x1f\t\n\x7f\u2028\ud800\udfff\U0001f600'),
    ),
    max_size=12,
)
# Text weighted towards what CSV quotes (commas, quotes, CR and LF) and NUL.
csv_text = st.text(st.characters() | st.sampled_from(',"\r\n\x00'), max_size=12)


def interval(year: int) -> DateInterval:
    return DateInterval(CalendarDate(year, 1, 1), CalendarDate(year, 12, 31))


def day_event(id: str, year: int, month: int, day: int, **kw) -> LifeEvent:
    d = CalendarDate(year, month, day)
    kw.setdefault("place_key", "giza")
    kw.setdefault("kind", "other")
    return LifeEvent(id=id, when=DateInterval(d, d), **kw)


def simple_biography(*events: LifeEvent) -> Biography:
    return Biography(title="Test", id="test", events=events)


NEFERTARI = LifeEvent(
    id="nefertari-tomb",
    kind="excavation",
    when=interval(1904),
    place_key="deir-el-medina",
    label="Deir el-Medina",
)


class TestTimelineBucket:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"bucket_count": 0}, "bucket_count must be at least 1"),
            ({"palette": []}, "palette must not be empty"),
            ({"palette": ["ff0000FF"]}, "palette colors are aabbggrr hex: 'ff0000FF'"),
        ],
    )
    def test_config_guards(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EmitConfig(**kwargs)

    def test_zero_buckets_rejected(self):
        b = simple_biography(day_event("a", 1900, 1, 1))
        with pytest.raises(ValueError, match="^bucket_count must be at least 1$"):
            timeline_bucket(b.events[0], b, 0)

    def test_single_event_is_bucket_zero(self):
        b = simple_biography(day_event("a", 1900, 1, 1))
        assert timeline_bucket(b.events[0], b, 5) == 0

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_boundaries(self, n):
        events = tuple(day_event(f"e{i}", 1900 + i, 1, 1) for i in range(15))
        b = simple_biography(*events)
        assert timeline_bucket(events[0], b, n) == 0
        assert timeline_bucket(events[-1], b, n) == n - 1

    def test_floor_formula(self):
        # span of 9 days, n=5: day k lands in bucket floor(5k/10).
        events = tuple(day_event(f"e{i}", 1900, 1, 1 + i) for i in range(10))
        b = simple_biography(*events)
        assert [timeline_bucket(e, b, 5) for e in events] == [5 * k // 10 for k in range(10)]

    @settings(max_examples=60)
    @given(biographies(), st.sampled_from([1, 2, 5]), st.sampled_from([2, 3]))
    def test_scaling_refines_buckets(self, b, n, factor):
        ordered = itinerary_order(b)
        coarse = [timeline_bucket(e, b, n) for e in ordered]
        fine = [timeline_bucket(e, b, n * factor) for e in ordered]
        assert coarse == [f // factor for f in fine]
        assert coarse == sorted(coarse)  # non-decreasing in start order


class TestEmitKml:
    def test_document_structure(self):
        text = emit_kml(simple_biography(NEFERTARI), GAZ)
        root = ET.fromstring(text)
        assert root.tag == f"{{{KML_NAMESPACE}}}kml"
        doc = root.find("kml:Document", NS)
        assert doc is not None
        assert doc.findtext("kml:name", namespaces=NS) == "Test"

    def test_year_event_timespan(self):
        text = emit_kml(simple_biography(NEFERTARI), GAZ)
        assert "<begin>1904-01-01</begin>" in text
        assert "<end>1904-12-31</end>" in text

    def test_note_is_escaped(self):
        e = day_event("a", 1900, 1, 1, note="x < y & z")
        text = emit_kml(simple_biography(e), GAZ)
        assert "x &lt; y &amp; z" in text

    def test_circa_suffix_on_name(self):
        e = LifeEvent(
            id="a",
            kind="other",
            when=DateInterval(CalendarDate(1665, 1, 1), CalendarDate(1665, 12, 31), circa=True),
            place_key="giza",
            label="Giza",
        )
        text = emit_kml(simple_biography(e), GAZ)
        assert "<name>Giza (c.)</name>" in text

    def test_attachments_in_cdata(self):
        e = day_event("a", 1900, 1, 1, attachments=("img/tomb.jpg",))
        text = emit_kml(simple_biography(e), GAZ)
        assert '<![CDATA[<br/><a href="img/tomb.jpg">img/tomb.jpg</a>]]>' in text
        off = emit_kml(simple_biography(e), GAZ, EmitConfig(include_attachments=False))
        assert "CDATA" not in off

    def test_attachment_anchor_is_html_escaped(self):
        path = 'a"b<c.jpg'
        e = day_event("a", 1900, 1, 1, attachments=(path,))
        root = ET.fromstring(emit_kml(simple_biography(e), GAZ))
        description = root.find(".//kml:description", NS).text
        anchor = ET.fromstring(f"<p>{description}</p>").find("a")
        assert anchor.get("href") == path
        assert anchor.text == path

    @settings(max_examples=150)
    @given(biographies())
    def test_well_formed_for_any_biography(self, b):
        # Free text may hold any character the parser accepts, C0 controls included.
        keys = {normalize_key(e.place_key) for e in b.events if e.place_key is not None}
        gazetteer = {k: GazetteerEntry(k, k, GeoPoint(1.0, 2.0)) for k in keys}
        root = ET.fromstring(emit_kml(b, gazetteer))
        assert len(root.findall(".//kml:Placemark", NS)) == len(b.events)

    def test_style_urls_resolve(self):
        events = tuple(day_event(f"e{i}", 1900 + i, 1, 1) for i in range(12))
        text = emit_kml(simple_biography(*events), GAZ)
        root = ET.fromstring(text)
        styles = {s.get("id") for s in root.iter(f"{{{KML_NAMESPACE}}}Style")}
        refs = {u.text.lstrip("#") for u in root.iter(f"{{{KML_NAMESPACE}}}styleUrl")}
        assert refs <= styles
        assert len(root.findall(".//kml:Placemark", NS)) == 12

    def test_coordinates_lon_lat_six_decimals(self):
        text = emit_kml(simple_biography(NEFERTARI), GAZ)
        assert "<coordinates>32.601400,25.728600,0</coordinates>" in text

    def test_placemarks_in_itinerary_order(self):
        late = day_event("late", 1910, 1, 1, place_key="luxor")
        early = day_event("early", 1900, 1, 1)
        text = emit_kml(Biography(title="T", id="t", events=(late, early)), GAZ)
        root = ET.fromstring(text)
        names = [p.findtext("kml:name", namespaces=NS) for p in root.findall(".//kml:Placemark", NS)]
        assert names == ["giza", "luxor"]

    def test_palette_cycles_by_modulo(self):
        events = tuple(day_event(f"e{i}", 1900 + i, 1, 1) for i in range(10))
        cfg = EmitConfig(bucket_count=7, palette=DEFAULT_PALETTE)
        text = emit_kml(simple_biography(*events), GAZ, cfg)
        assert f"<color>{DEFAULT_PALETTE[6 % 5]}</color>" in text

    def test_validation_error_aborts(self):
        dup = simple_biography(day_event("a", 1900, 1, 1), day_event("a", 1910, 1, 1))
        with pytest.raises(InvalidBiographyError):
            emit_kml(dup, GAZ)

    def test_unknown_place_aborts(self):
        b = simple_biography(day_event("a", 1900, 1, 1, place_key="atlantis"))
        with pytest.raises(UnknownPlace):
            emit_kml(b, GAZ)

    def test_deterministic(self):
        b = simple_biography(NEFERTARI, day_event("g", 1906, 5, 2, note="again"))
        assert emit_kml(b, GAZ) == emit_kml(b, GAZ)

    def test_every_code_point_replaced_is_non_printable(self):
        # _xml_escape translates only a text that is not printable.
        assert not any(chr(c).isprintable() for c in _NOT_XML_CHAR)

    @given(st.text(st.one_of(st.characters(), st.sampled_from(sorted(map(chr, _NOT_XML_CHAR))))))
    def test_xml_escape_equals_always_translating(self, text):
        always = text.translate(_NOT_XML_CHAR)
        expected = always.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        assert _xml_escape(text) == expected


class TestEmitGeoJson:
    def test_axis_order_and_decimals(self):
        e = day_event("a", 1900, 1, 1, place_key=None, point=GeoPoint(25.73, 32.60))
        text = emit_geojson(simple_biography(e), GAZ)
        assert '"coordinates": [32.600000, 25.730000]' in text

    def test_empty_note_still_present(self):
        text = emit_geojson(simple_biography(NEFERTARI), GAZ)
        assert '"note": ""' in text

    def test_feature_count_matches_events(self):
        events = tuple(day_event(f"e{i}", 1900 + i, 1, 1) for i in range(12))
        payload = json.loads(emit_geojson(simple_biography(*events), GAZ))
        assert payload["type"] == "FeatureCollection"
        assert len(payload["features"]) == 12

    def test_fixed_property_keys_in_order(self):
        payload = json.loads(emit_geojson(simple_biography(NEFERTARI), GAZ))
        props = payload["features"][0]["properties"]
        assert list(props) == [
            "id", "label", "kind", "start", "end", "circa", "note", "attachments",
        ]
        assert props["start"] == "1904-01-01"
        assert props["end"] == "1904-12-31"
        assert props["circa"] is False

    def test_deterministic(self):
        b = simple_biography(NEFERTARI)
        assert emit_geojson(b, GAZ) == emit_geojson(b, GAZ)

    @settings(max_examples=150)
    @given(biographies(), st.data())
    def test_valid_for_any_biography(self, b, data):
        keys = {normalize_key(e.place_key) for e in b.events if e.place_key is not None}
        gazetteer = {k: GazetteerEntry(k, k, data.draw(geo_points)) for k in sorted(keys)}
        text = emit_geojson(b, gazetteer)
        features = json.loads(text)["features"]
        prefix = '      "properties": '
        property_lines = [line for line in text.split("\n") if line.startswith(prefix)]
        # Itinerary order: start day, end day, then authoring order.
        order = sorted(range(len(b.events)), key=lambda i: (b.events[i].when.start, b.events[i].when.end, i))
        assert len(features) == len(property_lines) == len(order)
        for i, feature, line in zip(order, features, property_lines):
            e = b.events[i]
            point = e.point or gazetteer[normalize_key(e.place_key)].point
            assert feature["type"] == "Feature"
            # RFC 7946 section 3.1.1: longitude first, then latitude.
            assert feature["geometry"] == {
                "type": "Point",
                "coordinates": [float(f"{point.lon:.6f}"), float(f"{point.lat:.6f}")],
            }
            properties = {
                "id": e.id,
                "label": e.label,
                "kind": e.kind,
                "start": e.when.start.isoformat(),
                "end": e.when.end.isoformat(),
                "circa": e.when.circa,
                "note": e.note,
                "attachments": list(e.attachments),
            }
            assert feature["properties"] == properties
            # Written as json.dumps writes them, byte for byte.
            assert line == prefix + json.dumps(properties, ensure_ascii=False)

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                free_text,
                free_text,
                st.lists(free_text.filter(lambda s: s and not s.startswith("/")), max_size=3),
            ),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    def test_properties_are_json_dumps_for_any_text(self, texts, circa):
        """Every feature's properties text is ``json.dumps(props,
        ensure_ascii=False)``, whatever the free text holds: quotes,
        backslashes, C0 controls, U+2028, lone surrogates, non-BMP."""
        when = DateInterval(CalendarDate(1, 1, 1), CalendarDate(9999, 12, 31), circa)
        events = [
            LifeEvent(f"e{i}", "visit", when, None, GeoPoint(1.0, 2.0), label, note, tuple(paths))
            for i, (label, note, paths) in enumerate(texts)
        ]
        text = emit_geojson(simple_biography(*events), {})
        prefix = '      "properties": '
        lines = [line[len(prefix) :] for line in text.split("\n") if line.startswith(prefix)]
        assert len(lines) == len(events)
        for e, line in zip(events, lines):
            properties = {
                "id": e.id,
                "label": e.label,
                "kind": e.kind,
                "start": "0001-01-01",
                "end": "9999-12-31",
                "circa": circa,
                "note": e.note,
                "attachments": list(e.attachments),
            }
            assert line == json.dumps(properties, ensure_ascii=False)


class TestEmitItinerarium:
    def make_legs(self):
        b = Biography(
            title="T",
            id="t",
            events=(
                day_event("a", 1900, 1, 1),
                day_event("b", 1905, 1, 1, place_key="luxor", label="Luxor, Egypt"),
                day_event("c", 1910, 1, 1, place_key="luxor"),
            ),
        )
        return build_itinerary(b, GAZ), b

    def test_text_header_and_zero_first_leg(self):
        legs, b = self.make_legs()
        text = emit_itinerarium(legs, b, "text")
        lines = text.splitlines()
        assert lines[0].split() == ["#", "START", "END", "PLACE", "LAT", "LON", "LEG_KM", "CUM_KM"]
        assert lines[1].split()[-2] == "0.000"

    def test_same_place_second_row_zero(self):
        legs, b = self.make_legs()
        rows = list(csv.reader(io.StringIO(emit_itinerarium(legs, b, "csv"))))
        assert rows[0] == list(
            ("index", "start", "end", "place", "label", "lat", "lon", "leg_km", "cum_km")
        )
        assert rows[3][7] == "0.000"  # luxor -> luxor

    def test_csv_quoting_of_commas(self):
        legs, b = self.make_legs()
        text = emit_itinerarium(legs, b, "csv")
        assert '"Luxor, Egypt"' in text

    def test_csv_resummation_oracle(self):
        legs, b = self.make_legs()
        rows = list(csv.reader(io.StringIO(emit_itinerarium(legs, b, "csv"))))[1:]
        total = 0.0
        for row in rows:
            total += float(row[7])
            assert abs(float(row[8]) - total) <= 1e-3

    def test_unknown_format_rejected(self):
        legs, b = self.make_legs()
        with pytest.raises(ValueError, match="unknown itinerarium format"):
            emit_itinerarium(legs, b, "xml")

    def test_deterministic(self):
        legs, b = self.make_legs()
        for fmt in ("text", "csv"):
            assert emit_itinerarium(legs, b, fmt) == emit_itinerarium(legs, b, fmt)

    @given(st.lists(st.tuples(csv_text, st.none() | csv_text), min_size=1, max_size=5))
    def test_csv_reads_back_as_its_cells(self, cells):
        # Any label and place key, as a library caller may build them.
        events = [
            day_event(f"e{i}", 1900, 1, 1, place_key=place, point=GeoPoint(i, i), label=label)
            for i, (label, place) in enumerate(cells)
            if place is None or fold_key(place)
        ]
        b = simple_biography(*events, NEFERTARI)
        legs = build_itinerary(b, GAZ)
        text = emit_itinerarium(legs, b, "csv")
        if sys.version_info < (3, 11):  # that reader refuses a NUL
            assume("\x00" not in text)
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == list(ITINERARY_CSV_HEADER)
        assert {len(row) for row in rows} == {9}
        expected = [[leg.event.key or "", leg.event.label] for leg in legs]
        assert [row[3:5] for row in rows[1:]] == expected

    def test_duplicate_ids_keep_their_own_rows(self):
        # Biography admits duplicate ids so validate_biography can report them.
        b = simple_biography(
            day_event("x", 1900, 1, 1, place_key="giza", label="Giza"),
            day_event("x", 1901, 6, 1, place_key="luxor", label="Luxor"),
        )
        text = emit_itinerarium(build_itinerary(b, GAZ), b, "csv")
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert [row[1:7] for row in rows] == [
            ["1900-01-01", "1900-01-01", "giza", "Giza", "29.977300", "31.132500"],
            ["1901-06-01", "1901-06-01", "luxor", "Luxor", "25.687200", "32.639600"],
        ]


class TestDistanceMatrix:
    def test_two_place_matrix(self):
        b = Biography(
            title="T",
            id="t",
            events=(day_event("a", 1900, 1, 1), day_event("b", 1905, 1, 1, place_key="luxor")),
        )
        rows = list(csv.reader(io.StringIO(distance_matrix(b, GAZ))))
        assert rows[0] == ["place", "giza", "luxor"]
        assert rows[1][0] == "giza" and rows[1][1] == "0.000"
        assert rows[2][2] == "0.000"
        assert rows[1][2] == rows[2][1]
        assert float(rows[1][2]) > 0

    def test_duplicate_places_collapse(self):
        b = Biography(
            title="T",
            id="t",
            events=(
                day_event("a", 1900, 1, 1),
                day_event("b", 1905, 1, 1),
                day_event("c", 1910, 1, 1, place_key="luxor"),
            ),
        )
        rows = list(csv.reader(io.StringIO(distance_matrix(b, GAZ))))
        assert len(rows) == 3  # header + two distinct places

    @given(biographies(), st.randoms(use_true_random=False))
    def test_matches_per_cell_reference(self, b, rng):
        keys = sorted({normalize_key(e.place_key) for e in b.events if e.place_key is not None})
        gazetteer = {
            k: GazetteerEntry(k, k, GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180)))
            for k in keys
        }
        places: dict[object, tuple[str, GeoPoint]] = {}
        for event, point in itinerary_stops(b, gazetteer):
            identity = place_identity(event, point)
            label = identity if isinstance(identity, str) else f"{point.lat:.6f},{point.lon:.6f}"
            places.setdefault(identity, (label, point))
        labels = [label for label, _ in places.values()]
        points = [point for _, point in places.values()]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["place", *labels])
        for i, label in enumerate(labels):
            cells = [
                "0.000" if i == j else f"{haversine_km(points[min(i, j)], points[max(i, j)]):.3f}"
                for j in range(len(points))
            ]
            writer.writerow([label, *cells])
        assert distance_matrix(b, gazetteer) == expected.getvalue()

    def test_quoted_labels_frozen(self):
        # A keyed label holding '"' and ',' and an inline-only "lat,lon"
        # label both need CSV quoting, in the header and at each row start.
        b = parse_biography(
            "[biography]\ntitle = Quoting\nid = q\n\n"
            "[event]\nid = a\nkind = residence\nstart = 1900\n"
            'place = O"Brien, Jr\nlat = 1\nlon = 2\n\n'
            "[event]\nid = b\nkind = visit\nstart = 1901\nlat = 3\nlon = 4\n"
        )
        assert distance_matrix(b, {}) == (
            'place,"o""brien,-jr","3.000000,4.000000"\n'
            '"o""brien,-jr",0.000,314.403\n'
            '"3.000000,4.000000",314.403,0.000\n'
        )

    @staticmethod
    def writer_field(text: str) -> str:
        # A second field: the writer quotes a lone empty field.
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([text, "x"])
        return buffer.getvalue().removesuffix(",x\n")

    @given(csv_text)
    def test_label_quoting_is_the_csv_writers(self, text):
        # One rule quotes every CSV field, matrix labels and itinerary cells
        # alike. Before 3.13 the writer leaves a CR unquoted, which splits
        # the row when it is read back; the rule quotes it, as 3.13 does.
        if "\r" in text:
            assert _csv_field(text) == '"' + text.replace('"', '""') + '"'
            return
        try:
            expected = self.writer_field(text)
        except csv.Error:  # text the writer refuses: a NUL before 3.11
            assume(False)
        assert _csv_field(text) == expected

    @given(geo_points)
    def test_point_label_quoting_is_the_csv_writers(self, point):
        label = f"{point.lat:.6f},{point.lon:.6f}"
        assert _csv_field(label) == self.writer_field(label) == f'"{label}"'


RECORDS = [
    (lambda b, stops: kml_records(b.title, stops), emit_kml),
    (lambda b, stops: geojson_records(stops), emit_geojson),
    (lambda b, stops: matrix_records(stops), distance_matrix),
]


@pytest.mark.parametrize("records,emitter", RECORDS, ids=["kml", "geojson", "matrix"])
class TestRecords:
    """Each streamed document only formats the resolved stops; its join
    checks, resolves and orders before it formats, and raises instead of
    returning part of a document."""

    def test_records_end_their_lines_and_join_to_the_document(self, records, emitter):
        b = generated_biography(50)
        drawn = list(records(b, itinerary_stops(b, GAZ)))
        assert len(drawn) > 3 and all(r.endswith("\n") for r in drawn)
        assert "".join(drawn) == emitter(b, GAZ)

    def test_unknown_place_raises_before_any_record(self, records, emitter):
        b = simple_biography(NEFERTARI, day_event("lost", 1905, 1, 1, place_key="atlantis"))
        with pytest.raises(UnknownPlace, match="atlantis"):
            emitter(b, GAZ)

    def test_duplicate_event_id_raises_before_any_record(self, records, emitter):
        b = simple_biography(NEFERTARI, NEFERTARI)
        with pytest.raises(InvalidBiographyError, match="duplicate event id 'nefertari-tomb'"):
            emitter(b, GAZ)
        # The records check nothing: the checks are the caller's.
        assert all(r.endswith("\n") for r in records(b, itinerary_stops(b, GAZ)))

    def test_drawing_records_neither_raises_nor_warns(self, records, emitter):
        # A route across the antimeridian: stats warns about its box; no document does.
        b = simple_biography(
            day_event("west", 1900, 1, 1, place_key=None, point=GeoPoint(10.0, -170.0)),
            day_event("east", 1901, 1, 1, place_key=None, point=GeoPoint(-10.0, 170.0)),
            *generated_biography(30).events,
        )
        stream = records(b, itinerary_stops(b, GAZ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert "".join(stream) == emitter(b, GAZ)


class TestDirectlyBuiltPlaceKeys:
    """Events built through the API, not parsed, reach every consumer with a
    place key that folds to a real key; one that folds to nothing is refused
    at construction, so no consumer meets it (an UnknownPlace without an
    event id)."""

    @staticmethod
    def biography(place_key: str) -> Biography:
        inline = day_event("a", 1900, 1, 1, place_key=place_key, point=GeoPoint(25.7, 32.6))
        return simple_biography(inline, day_event("b", 1905, 1, 1, place_key="deir-el-medina"))

    def check_refused(self) -> None:
        with pytest.raises(ValueError, match="normalizes to empty key"):
            self.biography("---")

    def test_emit_kml(self):
        self.check_refused()
        root = ET.fromstring(emit_kml(self.biography("_Deir  el-Medina_"), GAZ))
        assert len(root.findall(".//kml:Placemark", NS)) == 2

    def test_emit_itinerarium(self):
        self.check_refused()
        b = self.biography("_Deir  el-Medina_")
        text = emit_itinerarium(build_itinerary(b, GAZ), b, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [row["place"] for row in rows] == ["deir-el-medina", "deir-el-medina"]

    def test_route_stats(self):
        self.check_refused()
        b = self.biography("_Deir  el-Medina_")
        assert route_stats(build_itinerary(b, GAZ), b).distinct_place_count == 1

    def test_distance_matrix(self):
        self.check_refused()
        text = distance_matrix(self.biography("_Deir  el-Medina_"), GAZ)
        assert text == "place,deir-el-medina\ndeir-el-medina,0.000\n"


def generated_biography(n: int, seed: int = 4) -> Biography:
    """n events in shuffled date order over three places, every other one a residence."""
    rng = random.Random(seed)
    events = []
    for i in range(n):
        start = rng.randrange(100_000)
        end = start + rng.randrange(3650)
        events.append(
            LifeEvent(
                id=f"e{i}",
                kind="residence" if i % 2 else "visit",
                when=DateInterval(from_day_number(start), from_day_number(end)),
                place_key=rng.choice(("giza", "luxor", "deir-el-medina")),
            )
        )
    return simple_biography(*events)


def count_runs(monkeypatch, *methods: tuple[type, str]) -> list[int]:
    """Wrap each ``(class, name)`` method; the returned one-element list
    holds how many times any of them ran, and monkeypatch restores them."""
    runs = [0]

    def counting(method):
        def counted(*args, **kwargs):
            runs[0] += 1
            return method(*args, **kwargs)

        return counted

    for cls, name in methods:
        monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    return runs


def count_calls(monkeypatch, function, weigh=lambda *args: 1) -> list[int]:
    """Wrap function at every vitamap module that binds it.

    The returned one-element list holds the running sum of ``weigh``
    over the calls' arguments, by default the call count; monkeypatch
    restores every binding when the test ends.
    """
    calls = [0]

    def counted(*args):
        calls[0] += weigh(*args)
        return function(*args)

    for name, module in list(sys.modules.items()):
        if name == "vitamap" or name.startswith("vitamap."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counted)
    return calls


MATRIX_PLACES = 300


def spread_events(places: int) -> list[LifeEvent]:
    """One event a year at each of ``places`` distinct inline points."""
    return [
        day_event(f"e{i}", 1900 + i, 1, 1, place_key=None, point=GeoPoint(-60.0 + 3 * i, 8.5 * i))
        for i in range(places)
    ]


def spread_biography(places: int) -> Biography:
    """One event at each of ``places`` inline points spread over the globe."""
    events = []
    for i in range(places):
        point = GeoPoint(-80 + i / 2, 1.19 * (37 * i % places) - 179)
        events.append(day_event(f"e{i}", 1000 + i, 1, 1, place_key=None, point=point))
    return simple_biography(*events)


class TestComplexityGuards:
    """Call counts, unlike wall time, catch a quadratic path without flaking."""

    def test_emit_kml_day_numbers_linear(self, monkeypatch):
        b = generated_biography(400)
        calls = count_calls(monkeypatch, to_day_number)
        emit_kml(b, GAZ)
        assert 0 < calls[0] <= 10 * len(b.events)

    def test_validation_day_numbers_linear(self):
        # Validation compares the events' own dates: one comparison per event
        # for the order check, and about 2*R*log2(R) to sort and sweep the R
        # residences (4 562 in all here). A pairwise check makes R*R/2 or more.
        events, comparisons = counting_dates(generated_biography(400).events)
        b = simple_biography(*events)
        assert sum(e.kind == "residence" for e in b.events) >= 100
        diagnostics = validate_biography(b)
        assert any("overlapping residences" in d.message for d in diagnostics)
        assert 0 < comparisons[0] <= 16 * len(b.events)

    @pytest.mark.parametrize("emitter", [emit_kml, emit_geojson])
    def test_emitters_check_errors_only(self, emitter, monkeypatch):
        # Three duplicate ids among overlapping residences: the emitter
        # raises with validation's errors, without running its warning checks.
        events = generated_biography(60).events
        b = simple_biography(*events, *events[:3])
        errors = [d for d in validate_biography(b) if d.severity == "error"]
        assert len(errors) == 3
        calls = count_calls(monkeypatch, validate_biography)
        with pytest.raises(InvalidBiographyError) as excinfo:
            emitter(b, GAZ)
        assert excinfo.value.diagnostics == errors
        assert calls[0] == 0

    def test_distance_matrix_computes_each_pair_once(self, monkeypatch):
        places = 40
        events = spread_events(places)
        # A revisit adds a row to the itinerary but no place to the matrix.
        events.append(day_event("back", 1990, 1, 1, place_key=None, point=events[0].point))
        # Each row hands its right-of-diagonal trig rows to the kernel once.
        handed = count_calls(
            monkeypatch, _haversines, lambda groups: sum(len(rows) for _, rows in groups)
        )
        calls = count_calls(monkeypatch, haversine_km)
        rows = list(csv.reader(io.StringIO(distance_matrix(simple_biography(*events), GAZ))))
        assert len(rows) == places + 1
        assert handed[0] == places * (places - 1) // 2
        assert calls[0] == 0

    def test_itinerary_takes_one_kernel_call_and_one_cosine_a_stop(self, monkeypatch):
        stops = 40
        events = spread_events(stops)
        events.append(day_event("back", 1990, 1, 1, place_key=None, point=events[0].point))
        kernel_calls = count_calls(monkeypatch, _haversines)
        cosines = count_calls(monkeypatch, math.cos)
        calls = count_calls(monkeypatch, haversine_km)
        legs = build_itinerary(simple_biography(*events), GAZ)
        assert len(legs) == stops + 1
        assert kernel_calls[0] == 1
        assert cosines[0] == stops + 1
        assert calls[0] == 0

    def test_distance_matrix_peak_is_about_twice_its_output(self):
        # The rows and their join are each about the output's size; the
        # left cells still to be written go with the last row, before the join.
        b = spread_biography(MATRIX_PLACES)
        text, peak = traced_peak(lambda: distance_matrix(b, GAZ))
        assert text.count("\n") == MATRIX_PLACES + 1
        assert peak < 2.3 * len(text)

    def test_streamed_matrix_peak_is_well_under_its_output(self):
        # Drawn a row at a time, the matrix holds one row and the left cells
        # not yet written: at most about a quarter of the cells, one byte a
        # character.
        b = spread_biography(MATRIX_PLACES)
        size, peak = traced_peak(lambda: sum(map(len, matrix_records(itinerary_stops(b, GAZ)))))
        assert size == len(distance_matrix(b, GAZ))
        assert peak < 0.4 * size

    @pytest.mark.parametrize("emitter", [emit_kml, emit_geojson])
    def test_emitter_peak_is_about_twice_its_output(self, emitter):
        # One string per record, then one join: each is about the output's
        # size. Latin-1 text takes one byte a code point, as len() counts it.
        events = [
            dataclasses.replace(e, label=f"Café {e.id}", note="Hôtel de l'Europe")
            for e in generated_biography(3000).events
        ]
        b = simple_biography(*events)
        text, peak = traced_peak(lambda: emitter(b, GAZ))
        assert text.count("Café") == 3000
        assert peak < 2.6 * len(text)

    @pytest.mark.parametrize("fmt,multiple", [("text", 6.0), ("csv", 4.0)])
    def test_itinerarium_peak_is_a_few_times_its_output(self, fmt, multiple):
        # One tuple of cells per row. The text table needs them all for its
        # widths, and each row's line then takes its tuple's place (about
        # 5.3x); a CSV row's line is made as its tuple is (about 3x).
        events = [
            dataclasses.replace(e, label=f"Café {e.id}", note="Hôtel de l'Europe")
            for e in generated_biography(3000).events
        ]
        b = simple_biography(*events)
        legs = build_itinerary(b, GAZ)
        emit_itinerarium(legs, b, fmt)  # what only a first run allocates is not counted
        text, peak = traced_peak(lambda: emit_itinerarium(legs, b, fmt))
        assert text.count("Café") == 3000
        assert peak < multiple * len(text)

    @pytest.mark.parametrize(
        "command",
        [
            ["validate"],
            ["compile"],
            ["compile", "--format", "geojson"],
            ["itinerary"],
            ["stats"],
            ["distances", "--matrix"],
        ],
    )
    def test_cli_folds_each_place_key_once(self, command, newton_path, monkeypatch):
        # The parser folds each distinct place text once, for every event
        # that names it: 6 texts among newton.vita's 8 keyed events.
        events = parse_biography(newton_path.read_text(encoding="utf-8")).events
        texts = {e.place_key for e in events if e.place_key is not None}
        assert len(texts) == 6
        monkeypatch.delenv("VITA_GAZETTEER", raising=False)
        calls = count_calls(monkeypatch, fold_key)
        assert main([command[0], str(newton_path), *command[1:]]) == 0
        assert calls[0] == len(texts)

    def test_emitters_fold_no_key(self, newton_path, gazetteer_path, monkeypatch):
        b = parse_biography(newton_path.read_text(encoding="utf-8"))
        gaz = load_gazetteer(gazetteer_path.read_text(encoding="utf-8"))
        assert sum(e.key is not None for e in b.events) == 8
        calls = count_calls(monkeypatch, fold_key)
        emit_kml(b, gaz)
        emit_geojson(b, gaz)
        legs = build_itinerary(b, gaz)
        emit_itinerarium(legs, b, "csv")
        route_stats(legs, b)
        distance_matrix(b, gaz)
        assert calls[0] == 0

    def test_parser_builds_one_interval_per_event(self, monkeypatch):
        text = serialize_biography(generated_biography(400))
        assert text.count("\nend = ") >= 300
        calls = count_calls(monkeypatch, model._parsed_interval)
        b = parse_biography(text)
        assert calls[0] == len(b.events) == 400

    def test_parser_checks_each_event_once(self, monkeypatch):
        # The parser's own located checks are the only ones a parsed event
        # and its interval go through: neither __post_init__ runs.
        runs = count_runs(
            monkeypatch, (LifeEvent, "__post_init__"), (DateInterval, "__post_init__")
        )
        DateInterval(CalendarDate(1900, 1, 1), CalendarDate(1900, 1, 1))
        assert runs[0] == 1
        assert len(parse_biography(long_timeline_text(1000)).events) == 1000
        assert runs[0] == 1

    @pytest.mark.parametrize("step", [1, 40])
    def test_gazetteer_load_checks_each_row_once(self, monkeypatch, step):
        # A wanted row is built from the valid-row test, which holds every
        # GeoPoint check: neither GeoPoint's nor GazetteerEntry's runs.
        rows = 20_000
        source = "".join(
            f"site-{i:05d}\tSite {i}\t{i % 90}.5\t{i % 180}.25\tR\n" for i in range(rows)
        )
        keys = {f"site-{i:05d}" for i in range(0, rows, step)}
        runs = count_runs(monkeypatch, (GeoPoint, "__post_init__"), (GazetteerEntry, "__init__"))
        GazetteerEntry("k", "K", GeoPoint(1.0, 2.0))
        assert runs[0] == 2
        assert len(load_gazetteer(source, keys)) == len(keys)
        assert runs[0] == 2

    def test_itinerary_builds_no_leg_by_its_constructor(self, monkeypatch):
        b = parse_biography(long_timeline_text(1000))
        gaz = load_gazetteer(long_timeline_gazetteer())
        runs = count_runs(monkeypatch, (ItineraryLeg, "__init__"))
        ItineraryLeg(0, b.events[0], GeoPoint(1.0, 2.0), 0.0, 0.0)
        assert runs[0] == 1
        assert len(build_itinerary(b, gaz)) == 1000
        assert runs[0] == 1

    def test_each_bulk_builder_sets_every_slot(self):
        # A field added to a class but not to its builder is an unset slot.
        twins = {
            LifeEvent: _Event,
            DateInterval: _Interval,
            GazetteerEntry: _Entry,
            GeoPoint: _Point,
            ItineraryLeg: _Leg,
        }
        for cls, twin in twins.items():
            assert twin.__slots__ == cls.__slots__
        b = parse_biography(long_timeline_text(3))
        gaz = load_gazetteer(long_timeline_gazetteer())
        event = b.events[1]
        leg = build_itinerary(b, gaz)[1]
        built = [event, event.when, gaz[event.key], gaz[event.key].point, leg]
        assert [type(value) for value in built] == list(twins)
        for value in built:
            assert all(hasattr(value, name) for name in type(value).__slots__)
