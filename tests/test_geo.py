"""Distance and itinerary tests against independent oracles."""

from __future__ import annotations

import ast
import csv
import io
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import vitamap
from vitamap.emit import matrix_records
from vitamap.geo import (
    EARTH_RADIUS_KM,
    BoundingBox,
    _haversines,
    _trig_rows,
    bounding_box,
    build_itinerary,
    haversine_km,
    itinerary_order,
    itinerary_stops,
    route_stats,
)
from vitamap.gazetteer import UnknownPlace, load_gazetteer
from vitamap.model import Biography, CalendarDate, DateInterval, GeoPoint, LifeEvent
from vitamap.vita import parse_biography


def oracle_great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    # Independent formulation: the atan2 form of the spherical distance,
    # numerically stable at all separations.
    p1, l1 = math.radians(a.lat), math.radians(a.lon)
    p2, l2 = math.radians(b.lat), math.radians(b.lon)
    dl = l2 - l1
    y = math.hypot(
        math.cos(p2) * math.sin(dl),
        math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl),
    )
    x = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_KM * math.atan2(y, x)


def interval(start_year: int, end_year: int | None = None) -> DateInterval:
    end_year = start_year if end_year is None else end_year
    return DateInterval(CalendarDate(start_year, 1, 1), CalendarDate(end_year, 12, 31))


def event(id: str, year: int, place: str | None = None, point: GeoPoint | None = None, **kw):
    return LifeEvent(id=id, kind="other", when=interval(year), place_key=place, point=point, **kw)


def reference_haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    # The haversine kernel as first written, kept verbatim: the kernel in
    # vitamap.geo must return these exact bits.
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    h = min(1.0, max(0.0, h))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


edge_lats = st.one_of(
    st.sampled_from([90.0, -90.0, 0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324]),
    st.floats(min_value=-1e-290, max_value=1e-290),  # subnormals included
    st.floats(min_value=-90.0, max_value=90.0),
)
edge_lons = st.one_of(
    st.sampled_from([180.0, math.nextafter(-180.0, 0.0), 0.0, -0.0, 5e-324]),
    st.floats(min_value=-180.0, max_value=540.0),
)
edge_points = st.builds(GeoPoint, lat=edge_lats, lon=edge_lons)


@st.composite
def edge_point_pairs(draw, a: GeoPoint | None = None) -> tuple[GeoPoint, GeoPoint]:
    """Two points, the first ``a`` if given: independent, identical, or
    antipodal (exactly or within a hair)."""
    a = draw(edge_points) if a is None else a
    shape = draw(st.sampled_from(["independent", "identical", "antipodal", "near-antipodal"]))
    if shape == "independent":
        return a, draw(edge_points)
    if shape == "identical":
        return a, GeoPoint(a.lat, a.lon)
    b = GeoPoint(-a.lat, a.lon + 180.0)
    if shape == "near-antipodal":
        nudge = draw(st.floats(min_value=-1e-7, max_value=1e-7))
        b = GeoPoint(max(-90.0, min(90.0, b.lat + nudge)), b.lon - nudge)
    return a, b


@st.composite
def edge_rows(draw) -> tuple[GeoPoint, list[GeoPoint]]:
    """A point and 0 to 5 others, each drawn as its partner in
    :func:`edge_point_pairs`."""
    a = draw(edge_points)
    return a, [b for _, b in draw(st.lists(edge_point_pairs(a), max_size=5))]


points = st.builds(
    GeoPoint,
    lat=st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    lon=st.floats(min_value=-180.0, max_value=540.0, allow_nan=False),
)


class TestHaversine:
    def test_identity_is_exactly_zero(self):
        for p in (GeoPoint(0, 0), GeoPoint(52.8, -0.63), GeoPoint(-90, 180)):
            assert haversine_km(p, p) == 0.0

    def test_antipodal_half_circumference(self):
        d = haversine_km(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, abs=1e-9)
        assert d == pytest.approx(20015.114, abs=0.01)

    def test_one_equatorial_degree(self):
        d = haversine_km(GeoPoint(0, 0), GeoPoint(0, 1))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM / 180.0, abs=1e-9)
        assert d == pytest.approx(111.195, abs=0.001)

    @settings(max_examples=500)
    @given(edge_point_pairs())
    def test_bit_identical_to_reference_formula(self, pair):
        a, b = pair
        assert haversine_km(a, b) == reference_haversine_km(a, b)
        assert haversine_km(b, a) == reference_haversine_km(b, a)

    @settings(max_examples=300)
    @given(edge_rows())
    def test_row_kernel_bit_identical_to_reference_formula(self, row):
        a, bs = row
        (row_a,) = _trig_rows((a,))
        assert _haversines([(row_a, _trig_rows(bs))]) == [reference_haversine_km(a, b) for b in bs]

    @given(points, points)
    def test_symmetry_exact(self, a, b):
        assert haversine_km(a, b) == haversine_km(b, a)

    @given(points, points)
    @example(GeoPoint(0.0, 180.0), GeoPoint(0.0, 5.960464477539063e-08))
    def test_matches_independent_formulation(self, a, b):
        # The kernel is the textbook 2R*asin(sqrt(h)). Near h = 1, asin
        # turns a rounding of h by dh into an error of up to 2R*sqrt(dh).
        # So within 1 km of antipodal the bound is 2R*sqrt(4*eps), about
        # 3.8e-4 km (h off by up to 4 ulps); elsewhere it is 1e-6 km.
        expected = oracle_great_circle_km(a, b)
        tolerance = 1e-6
        if expected > math.pi * EARTH_RADIUS_KM - 1.0:
            tolerance = 2 * EARTH_RADIUS_KM * math.sqrt(4 * sys.float_info.epsilon)
        assert haversine_km(a, b) == pytest.approx(expected, abs=tolerance)

    def test_range_over_random_pairs(self):
        rng = random.Random(1859)
        half = math.pi * EARTH_RADIUS_KM
        for i in range(10_000):
            a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            if i % 10 == 0:
                # Stress near-antipodal pairs where naive formulas misbehave.
                b = GeoPoint(
                    -a.lat + rng.uniform(-1e-7, 1e-7), a.lon + 180 + rng.uniform(-1e-7, 1e-7)
                )
            else:
                b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            d = haversine_km(a, b)
            assert 0.0 <= d <= half

    @given(points, points, points)
    @example(GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.015625), GeoPoint(0.0, 180.0))
    @example(GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.5), GeoPoint(0.0, 179.99))
    def test_triangle_inequality(self, a, b, c):
        # asin is ill-conditioned at h = 1: rounding h by a few ulps moves a
        # distance D km short of piR by up to about 4*eps*R**2/D km, which
        # passes 1e-9 km for D under about 40 km. The examples exceed the
        # legs' sum by 3.7e-9 km (D = 0) and 7.2e-9 km (D = 1.1). So within
        # 100 km of piR the bound is the 2R*sqrt(4*eps) of
        # test_matches_independent_formulation; elsewhere it is 1e-9 km.
        direct = haversine_km(a, c)
        tolerance = 1e-9
        if direct > math.pi * EARTH_RADIUS_KM - 100.0:
            tolerance = 2 * EARTH_RADIUS_KM * math.sqrt(4 * sys.float_info.epsilon)
        assert direct <= haversine_km(a, b) + haversine_km(b, c) + tolerance


class TestOneKernel:
    """Legs and matrix cells come from the one kernel over the trig table,
    with the reference formula's bits."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(edge_points, min_size=1, max_size=6))
    def test_legs_and_matrix_cells_are_the_reference_bits(self, points):
        b = Biography(
            title="T",
            id="t",
            events=[event(f"e{i}", 1900 + i, point=p) for i, p in enumerate(points)],
        )
        legs = build_itinerary(b, {})
        expected = [0.0, *(reference_haversine_km(p, q) for p, q in zip(points, points[1:]))]
        assert [leg.leg_km for leg in legs] == expected
        # Left to right, as += adds; sum() compensates its rounding on 3.12+.
        cum_km = 0.0
        for leg, leg_km in zip(legs, expected):
            cum_km += leg_km
            assert leg.cum_km == cum_km
        places: dict[tuple[float, float], GeoPoint] = {}  # (lat, lon) -> first point
        for p in points:
            places.setdefault((p.lat, p.lon), p)
        firsts = list(places.values())
        text = "".join(matrix_records(itinerary_stops(b, {})))
        rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
        assert len(rows) == len(firsts)
        for i, row in enumerate(rows):
            assert row[1:] == [
                "%.3f" % reference_haversine_km(firsts[min(i, j)], firsts[max(i, j)])
                for j in range(len(firsts))
            ]

    def test_src_holds_one_asin_call(self):
        # A second haversine expression would fork the kernel; each needs asin.
        calls = [
            f"{path.name}:{node.lineno}"
            for path in sorted(Path(vitamap.__file__).parent.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "asin"
        ]
        assert len(calls) == 1, calls


GAZ = load_gazetteer(
    "giza\tGiza\t29.9773\t31.1325\tEgypt\n"
    "aswan\tAswan\t24.0889\t32.8998\tEgypt\n"
    "luxor\tLuxor\t25.6872\t32.6396\tEgypt\n"
)


class TestItinerary:
    def test_single_event(self):
        b = Biography(title="T", id="t", events=(event("a", 1900, place="giza"),))
        legs = build_itinerary(b, GAZ)
        assert len(legs) == 1
        assert (legs[0].leg_km, legs[0].cum_km) == (0.0, 0.0)
        assert legs[0].event_id == "a"

    def test_same_place_twice_has_zero_leg(self):
        b = Biography(
            title="T",
            id="t",
            events=(event("a", 1900, place="giza"), event("b", 1910, place="giza")),
        )
        legs = build_itinerary(b, GAZ)
        assert legs[1].leg_km == 0.0
        assert legs[1].cum_km == 0.0

    def test_leg_distances_match_oracle(self):
        b = Biography(
            title="T",
            id="t",
            events=(
                event("a", 1900, place="giza"),
                event("b", 1905, place="luxor"),
                event("c", 1910, place="aswan"),
            ),
        )
        legs = build_itinerary(b, GAZ)
        assert legs[1].leg_km == pytest.approx(
            oracle_great_circle_km(GAZ["giza"].point, GAZ["luxor"].point), abs=1e-6
        )
        assert legs[2].leg_km == pytest.approx(
            oracle_great_circle_km(GAZ["luxor"].point, GAZ["aswan"].point), abs=1e-6
        )

    def test_cumulative_equals_resummation(self):
        rng = random.Random(3)
        events = tuple(
            event(f"e{i}", 1800 + i, point=GeoPoint(rng.uniform(-80, 80), rng.uniform(-170, 170)))
            for i in range(30)
        )
        legs = build_itinerary(Biography(title="T", id="t", events=events), {})
        total = 0.0
        for leg in legs:
            total += leg.leg_km
            assert abs(leg.cum_km - total) <= 1e-9

    def test_sorts_by_start_then_end_then_authoring(self):
        e_late = event("late", 1910, place="giza")
        e_early = event("early", 1900, place="luxor")
        e_short = LifeEvent(
            id="short", kind="other", when=interval(1900, 1900), place_key="aswan"
        )
        e_long = LifeEvent(id="long", kind="other", when=interval(1900, 1905), place_key="giza")
        b = Biography(title="T", id="t", events=(e_late, e_long, e_early, e_short))
        # start ties between early/long/short resolved by end day, then authoring.
        assert [e.id for e in itinerary_order(b)] == ["early", "short", "long", "late"]

    def test_stable_for_identical_intervals(self):
        twins = tuple(event(f"t{i}", 1900, place="giza") for i in range(5))
        b = Biography(title="T", id="t", events=twins)
        assert [e.id for e in itinerary_order(b)] == [f"t{i}" for i in range(5)]

    def test_unknown_place_names_event(self):
        b = Biography(title="T", id="t", events=(event("a", 1900, place="atlantis"),))
        with pytest.raises(UnknownPlace) as excinfo:
            build_itinerary(b, GAZ)
        assert excinfo.value.event_id == "a"
        assert excinfo.value.key == "atlantis"

    def test_unknown_place_carries_its_header_line(self):
        b = parse_biography(
            "[biography]\ntitle = T\nid = t\n\n"
            "[event]\nid = a\nstart = 1900\nplace = giza\n\n"
            "[event]\nid = b\nstart = 1910\nplace = atlantis\n"
        )
        with pytest.raises(UnknownPlace) as excinfo:
            build_itinerary(b, GAZ)
        assert (excinfo.value.event_id, excinfo.value.line) == ("b", 10)

    def test_legs_carry_their_events(self):
        b = Biography(
            title="T",
            id="t",
            events=(event("late", 1910, place="giza"), event("early", 1900, place="luxor")),
        )
        legs = build_itinerary(b, GAZ)
        ordered = itinerary_order(b)
        assert len(legs) == len(ordered)
        for leg, expected in zip(legs, ordered):
            assert leg.event is expected
            assert leg.event_id == expected.id


class TestBoundingBox:
    def test_singleton(self):
        p = GeoPoint(10.0, 20.0)
        box = bounding_box([p])
        assert box == BoundingBox(10.0, 10.0, 20.0, 20.0)

    def test_min_max(self):
        box = bounding_box([GeoPoint(10, 10), GeoPoint(-10, -10)])
        assert box == BoundingBox(-10.0, 10.0, -10.0, 10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bounding_box([])

    def test_direct_construction_guards(self):
        # bounding_box never builds a box that fails them; a caller can.
        with pytest.raises(ValueError, match="^min_lat exceeds max_lat$"):
            BoundingBox(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"^min_lon out of range: -180\.0$"):
            BoundingBox(0.0, 0.0, -180.0, 0.0)
        with pytest.raises(ValueError, match=r"^max_lon out of range: 181\.0$"):
            BoundingBox(0.0, 0.0, 0.0, 181.0)

    def test_antimeridian_crossing_warns_full_width(self):
        with pytest.warns(UserWarning, match="full-width"):
            box = bounding_box([GeoPoint(0, 179.0), GeoPoint(0, -179.0)])
        assert (box.min_lon, box.max_lon) == (-179.0, 179.0)


class TestRouteStats:
    def test_single_event(self):
        b = Biography(title="T", id="t", events=(event("a", 1900, place="giza"),))
        stats = route_stats(build_itinerary(b, GAZ), b)
        assert stats.event_count == 1
        assert stats.distinct_place_count == 1
        assert stats.total_km == 0.0

    def test_distinct_places_by_key_and_point(self):
        shared = GeoPoint(1.0, 2.0)
        b = Biography(
            title="T",
            id="t",
            events=(
                event("a", 1900, place="giza"),
                event("b", 1901, place="Giza "),  # same key after normalization
                event("c", 1902, point=shared),
                event("d", 1903, point=shared),
                event("e", 1904, point=GeoPoint(1.0, 2.5)),
            ),
        )
        stats = route_stats(build_itinerary(b, GAZ), b)
        assert stats.event_count == 5
        assert stats.distinct_place_count == 3

    def test_span_covers_min_start_max_end(self):
        b = Biography(
            title="T",
            id="t",
            events=(
                LifeEvent(id="a", kind="residence", when=interval(1856, 1920), place_key="giza"),
                LifeEvent(id="b", kind="visit", when=interval(1904, 1904), place_key="luxor"),
                LifeEvent(id="c", kind="death", when=interval(1928, 1928), place_key="aswan"),
            ),
        )
        stats = route_stats(build_itinerary(b, GAZ), b)
        assert stats.first_start.year == 1856
        assert stats.last_end.year == 1928

    def test_duplicate_ids_count_each_place(self):
        # Biography admits duplicate ids so validate_biography can report them.
        b = Biography(
            title="T",
            id="t",
            events=(event("x", 1900, place="giza"), event("x", 1901, place="luxor")),
        )
        assert route_stats(build_itinerary(b, GAZ), b).distinct_place_count == 2

    def test_no_legs_rejected_by_bounding_box(self):
        b = Biography(title="T", id="t", events=(event("a", 1900, place="giza"),))
        with pytest.raises(ValueError, match="at least one point"):
            route_stats([], b)
