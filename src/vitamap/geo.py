"""Great-circle geometry: leg distances, itineraries, bounding boxes,
route statistics.

Distances use the haversine formula on a sphere of mean radius
6371.0088 km. For mnemonic maps that is plenty: the spherical
approximation is within half a percent of ellipsoidal geodesics, and
the value is pinned in the tests. Distances stay in full double
precision here; rounding happens only in the emitters.

Every distance comes from one kernel, :func:`_haversines`, over a trig
table of one ``(lat, lon, cos(lat))`` row per point (:func:`_trig_rows`),
so each cosine is taken once. One call gives a whole route's legs or a
matrix row; :func:`haversine_km` and :func:`distances_km` wrap it.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from math import asin, cos, pi, sin, sqrt

from .gazetteer import GazetteerEntry, resolve
from .model import (
    Biography,
    CalendarDate,
    GeoPoint,
    ItineraryLeg,
    LifeEvent,
)

EARTH_RADIUS_KM = 6371.0088  # IUGG mean radius

_RADIAN = pi / 180.0  # math.radians(x) is x * (pi / 180)
_HALF_RAD = _RADIAN / 2.0
_DIAMETER_KM = 2.0 * EARTH_RADIUS_KM


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned lat/lon box; no antimeridian wrapping."""

    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float

    def __post_init__(self) -> None:
        if self.min_lat > self.max_lat:
            raise ValueError("min_lat exceeds max_lat")
        for name in ("min_lon", "max_lon"):
            value = getattr(self, name)
            if not -180.0 < value <= 180.0:
                raise ValueError(f"{name} out of range: {value!r}")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km between two normalized points:
    ``distances_km(a, (b,))[0]``, one pair. Symmetric by construction."""
    return distances_km(a, (b,))[0]


def distances_km(a: GeoPoint, points: Iterable[GeoPoint]) -> list[float]:
    """Great-circle distance in km from ``a`` to each of ``points``, in
    order: one :func:`_haversines` call, over the trig rows of ``a`` and
    of ``points``."""
    return _haversines([(_trig_rows((a,))[0], _trig_rows(points))])


_TrigRow = tuple[float, float, float]


def _trig_rows(points: Iterable[GeoPoint]) -> list[_TrigRow]:
    """The trig table of ``points``: one row ``(lat, lon, cos(lat))`` each,
    so one cosine each, however many distances read it."""
    return [(p.lat, p.lon, cos(p.lat * _RADIAN)) for p in points]


def _haversines(groups: Iterable[tuple[_TrigRow, Iterable[_TrigRow]]]) -> list[float]:
    """For each ``(row, rows)`` group, the great-circle km from ``row`` to
    each of ``rows``, in order: the one haversine kernel.

    The arc term is clamped to [0, 1], NaN to 0, as
    ``min(1.0, max(0.0, h))`` clamps it, so antipodal pairs cannot
    wander out of asin's domain. Every pair gets the same operations in
    the same order, with the cosines its rows carry.

    Degrees become radians by one multiplication with ``_RADIAN``, the
    same ``pi / 180`` that ``math.radians`` multiplies by, so each
    product has the bits ``math.radians`` gives. Halving is exact, so
    ``x * _HALF_RAD`` is ``math.radians(x) / 2`` except in the
    subnormal range, where its squared sine is 0 either way. The result
    is therefore bit-identical to the textbook ``math.radians`` form.
    """
    return [
        _DIAMETER_KM * asin(sqrt(1.0 if h > 1.0 else h if h > 0.0 else 0.0))
        for (lat1, lon1, cos1), rows in groups
        for lat2, lon2, cos2 in rows
        for h in [
            sin((lat2 - lat1) * _HALF_RAD) ** 2 + cos1 * cos2 * sin((lon2 - lon1) * _HALF_RAD) ** 2
        ]
    ]


def itinerary_order(biography: Biography) -> list[LifeEvent]:
    """Events sorted chronologically with the stable tie-break
    (start day, end day, authoring index)."""
    return sorted(biography.events, key=lambda e: (e.when.start, e.when.end))


def itinerary_stops(
    biography: Biography, gazetteer: dict[str, GazetteerEntry]
) -> list[tuple[LifeEvent, GeoPoint]]:
    """Every event in itinerary order, paired with its resolved point.

    This is the one order-and-resolve stage; itineraries, emitters and
    the distance matrix only format its result. UnknownPlace propagates
    with the offending event id attached.
    """
    return [(event, resolve(event, gazetteer)) for event in itinerary_order(biography)]


def place_identity(event: LifeEvent, point: GeoPoint) -> str | tuple[float, float]:
    """What makes two stops the same place: the folded key of a keyed
    place (``event.key``), else the exact (lat, lon) of an inline-only
    point."""
    return event.key or (point.lat, point.lon)


def build_itinerary(
    biography: Biography, gazetteer: dict[str, GazetteerEntry]
) -> list[ItineraryLeg]:
    """Resolve every event and chain them into legs with running totals.

    Leg 0 is the starting point (0 km); leg i carries the great-circle
    distance from leg i-1. UnknownPlace propagates with the offending
    event id attached.
    """
    stops = itinerary_stops(biography, gazetteer)
    rows = _trig_rows(point for _, point in stops)
    legs_km = [0.0, *_haversines(zip(rows, zip(rows[1:])))]
    cum_km = 0.0  # adds the legs left to right, as cum_km += leg_km would
    return [
        ItineraryLeg(index, event, point, leg_km, cum_km := cum_km + leg_km)
        for index, ((event, point), leg_km) in enumerate(zip(stops, legs_km))
    ]


def bounding_box(points: list[GeoPoint]) -> BoundingBox:
    """Componentwise min/max box over at least one point.

    Routes spanning the antimeridian are not given a wrapped box; they
    produce the naive full-width box and a warning.
    """
    if not points:
        raise ValueError("bounding_box requires at least one point")
    lats = [p.lat for p in points]
    lons = [p.lon for p in points]
    if max(lons) - min(lons) > 180.0:
        warnings.warn(
            "points span more than 180 degrees of longitude; emitting the "
            "full-width box instead of wrapping across the antimeridian",
            stacklevel=2,
        )
    return BoundingBox(min(lats), max(lats), min(lons), max(lons))


@dataclass(frozen=True)
class RouteStats:
    """Summary figures of one route, as :func:`route_stats` gives them."""

    event_count: int
    distinct_place_count: int
    first_start: CalendarDate
    last_end: CalendarDate
    total_km: float
    box: BoundingBox


def route_stats(legs: list[ItineraryLeg], biography: Biography) -> RouteStats:
    """Summarize an itinerary from its legs; no legs is a ValueError.

    Places are counted by :func:`place_identity`. Each leg carries its
    event, so ``biography`` is unread; it stays for existing callers."""
    box = bounding_box([leg.point for leg in legs])  # first: it rejects no legs
    return RouteStats(
        event_count=len(legs),
        distinct_place_count=len({place_identity(leg.event, leg.point) for leg in legs}),
        first_start=min(leg.event.when.start for leg in legs),
        last_end=max(leg.event.when.end for leg in legs),
        total_km=legs[-1].cum_km,
        box=box,
    )
