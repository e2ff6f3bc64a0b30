"""Deterministic emitters: KML 2.2 placemarks with TimeSpans and
timeline color buckets, GeoJSON FeatureCollections, and itinerarium
tables in aligned text or CSV.

Every output here, the distance matrix included, is formatted from
one stage, :func:`vitamap.geo.itinerary_stops`: the events in itinerary
order, each paired with its resolved point. The emitters neither sort
nor resolve; the KML timeline buckets take their bounds t0 and t1 from
the first and last stop's start day, once per document, and the
distance matrix computes and formats each unordered pair of places
once.

All emitters are pure text producers: identical inputs give
byte-identical output. The KML, GeoJSON and matrix documents also come
as records, from :func:`kml_records`, :func:`geojson_records` and
:func:`matrix_records`. These take the resolved stops and only format
them: they check nothing, and yield one string per record (a placemark,
a feature, a row), each ending its line, so a caller can write the
document as it is formatted; the matrix also holds the cells left of
the diagonal that it has not yet written, at most about a quarter of
its cells, as ASCII text. :func:`emit_kml`, :func:`emit_geojson` and
:func:`distance_matrix` check and resolve first, then join those
records once, so each peaks near twice its own size. Coordinates are
written with 6 decimal places (about 0.11 m, beyond source accuracy,
and diff-stable) and distances with 3, rounded half-even. Both CSVs
quote a field by one rule, :func:`_csv_field`'s, so each Python gives
the same bytes. Nothing here touches the filesystem.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter

from .gazetteer import GazetteerEntry
from .geo import distances_km, itinerary_stops, place_identity
from .model import (
    Biography,
    GeoPoint,
    InvalidBiographyError,
    ItineraryLeg,
    LifeEvent,
    to_day_number,
    validation_errors,
)

KML_NAMESPACE = "http://www.opengis.net/kml/2.2"

# Timeline gradient, oldest to newest, in KML aabbggrr order:
# red, orange, yellow, green, blue.
DEFAULT_PALETTE = ("ff0000ff", "ff00a5ff", "ff00ffff", "ff00ff00", "ffff0000")

_KML_COLOR_RE = re.compile(r"[0-9a-f]{8}\Z")


@dataclass(frozen=True)
class EmitConfig:
    """Knobs for the KML emitter."""

    bucket_count: int = 5
    palette: tuple[str, ...] = DEFAULT_PALETTE
    include_attachments: bool = True

    def __post_init__(self) -> None:
        if self.bucket_count < 1:
            raise ValueError("bucket_count must be at least 1")
        object.__setattr__(self, "palette", tuple(self.palette))
        if not self.palette:
            raise ValueError("palette must not be empty")
        for color in self.palette:
            if not _KML_COLOR_RE.match(color):
                raise ValueError(f"palette colors are aabbggrr hex: {color!r}")

    def color_for(self, bucket: int) -> str:
        return self.palette[bucket % len(self.palette)]


def timeline_bucket(event: LifeEvent, biography: Biography, bucket_count: int) -> int:
    """Era index of an event among the biography's start dates.

    With start days spanning [t0, t1], the bucket is
    floor(n * (start - t0) / (t1 - t0 + 1)) in pure integer arithmetic,
    always in [0, n-1]; a single-date biography collapses to bucket 0.
    """
    if bucket_count < 1:
        raise ValueError("bucket_count must be at least 1")
    starts = [to_day_number(e.when.start) for e in biography.events]
    return _bucket(to_day_number(event.when.start), min(starts), max(starts), bucket_count)


def _bucket(start: int, t0: int, t1: int, bucket_count: int) -> int:
    if t1 == t0:
        return 0
    return bucket_count * (start - t0) // (t1 - t0 + 1)


def _checked_stops(
    biography: Biography, gazetteer: dict[str, GazetteerEntry]
) -> list[tuple[LifeEvent, GeoPoint]]:
    """:func:`vitamap.geo.itinerary_stops`, once the error checks pass."""
    errors = validation_errors(biography)
    if errors:
        raise InvalidBiographyError(errors)
    return itinerary_stops(biography, gazetteer)


# Code points outside XML 1.0 Char (section 2.2): C0 controls other than
# tab, newline and carriage return, surrogates, U+FFFE and U+FFFF. The
# parser accepts them in free text; _xml_escape, which every free-text
# value passes through (attachment paths too), replaces them.
_NOT_XML_CHAR = dict.fromkeys(
    [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF],
    "\uFFFD",
)


def _xml_escape(text: str) -> str:
    if not text.isprintable():  # every code point in _NOT_XML_CHAR is non-printable
        text = text.translate(_NOT_XML_CHAR)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _cdata(text: str) -> str:
    # "]]>" cannot appear inside a CDATA section; split it across two.
    return "<![CDATA[" + text.replace("]]>", "]]]]><![CDATA[>") + "]]>"


def _placemark_name(event: LifeEvent) -> str:
    return event.label + (" (c.)" if event.when.circa else "")


def _description(event: LifeEvent, include_attachments: bool) -> str:
    parts = [_xml_escape(event.note)]
    if include_attachments and event.attachments:
        hrefs = (_xml_escape(path).replace('"', "&quot;") for path in event.attachments)
        anchors = "".join(f'<br/><a href="{href}">{href}</a>' for href in hrefs)
        parts.append(_cdata(anchors))
    return "".join(parts)


def emit_kml(
    biography: Biography,
    gazetteer: dict[str, GazetteerEntry],
    config: EmitConfig | None = None,
) -> str:
    """Render a biography as a KML 2.2 document.

    One Placemark per event in itinerary order, each with a TimeSpan,
    a style reference for its timeline bucket, and a Point. Free text
    is XML-escaped, with code points outside XML 1.0 ``Char`` replaced
    by U+FFFD; attachments become HTML-escaped relative links inside
    CDATA. The circa flag is surfaced by appending " (c.)" to the
    placemark name. Raises InvalidBiographyError or UnknownPlace
    instead of emitting partial output.
    """
    return "".join(kml_records(biography.title, _checked_stops(biography, gazetteer), config))


def kml_records(
    title: str, stops: list[tuple[LifeEvent, GeoPoint]], config: EmitConfig | None = None
) -> Iterator[str]:
    """The records of :func:`emit_kml`'s document titled ``title``, from
    the resolved ``stops`` of :func:`vitamap.geo.itinerary_stops`, each
    ending its line: the head, each style, each placemark, the tail. It
    checks nothing."""
    config = config or EmitConfig()
    # Itinerary order sorts by start day: the first and last stops bound the starts.
    t0 = to_day_number(stops[0][0].when.start)
    t1 = to_day_number(stops[-1][0].when.start)
    buckets = [
        _bucket(to_day_number(event.when.start), t0, t1, config.bucket_count)
        for event, _ in stops
    ]
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<kml xmlns="{KML_NAMESPACE}">\n'
        "  <Document>\n"
        f"    <name>{_xml_escape(title)}</name>\n"
    )
    for bucket in sorted(set(buckets)):
        yield (
            f'    <Style id="era-{bucket}">\n'
            "      <IconStyle>\n"
            f"        <color>{config.color_for(bucket)}</color>\n"
            "      </IconStyle>\n"
            "    </Style>\n"
        )
    include_attachments = config.include_attachments
    for (event, point), bucket in zip(stops, buckets):
        yield (
            "    <Placemark>\n"
            f"      <name>{_xml_escape(_placemark_name(event))}</name>\n"
            f"      <description>{_description(event, include_attachments)}</description>\n"
            "      <TimeSpan>\n"
            f"        <begin>{event.when.start.isoformat()}</begin>\n"
            f"        <end>{event.when.end.isoformat()}</end>\n"
            "      </TimeSpan>\n"
            f"      <styleUrl>#era-{bucket}</styleUrl>\n"
            "      <Point>\n"
            f"        <coordinates>{point.lon:.6f},{point.lat:.6f},0</coordinates>\n"
            "      </Point>\n"
            "    </Placemark>\n"
        )
    yield "  </Document>\n</kml>\n"


def emit_geojson(biography: Biography, gazetteer: dict[str, GazetteerEntry]) -> str:
    """Render a biography as a GeoJSON FeatureCollection.

    One Point feature per event in itinerary order, coordinates
    [lon, lat] with 6 decimals, properties in fixed key order
    (id, label, kind, start, end, circa, note, attachments).
    """
    return "".join(geojson_records(_checked_stops(biography, gazetteer)))


def geojson_records(stops: list[tuple[LifeEvent, GeoPoint]]) -> Iterator[str]:
    """The records of :func:`emit_geojson`'s document, from the resolved
    ``stops`` of :func:`vitamap.geo.itinerary_stops`, each ending its
    line: the head, each feature, the tail. It checks nothing."""
    # The string encoder of json.dumps(..., ensure_ascii=False), imported
    # here: only GeoJSON needs it, not every start-up.
    from json.encoder import encode_basestring as quote

    yield '{\n  "type": "FeatureCollection",\n  "features": [\n'
    last = len(stops) - 1
    for i, (event, point) in enumerate(stops):
        when = event.when
        # The properties as json.dumps(..., ensure_ascii=False) writes them:
        # ids and kinds are tokens and dates are digits, so only free text
        # can need escaping.
        yield (
            "    {\n"
            '      "type": "Feature",\n'
            '      "geometry": {"type": "Point", "coordinates": '
            f"[{point.lon:.6f}, {point.lat:.6f}]}},\n"
            f'      "properties": {{"id": "{event.id}", "label": {quote(event.label)}, '
            f'"kind": "{event.kind}", "start": "{when.start.isoformat()}", '
            f'"end": "{when.end.isoformat()}", "circa": {"true" if when.circa else "false"}, '
            f'"note": {quote(event.note)}, '
            f'"attachments": [{", ".join(map(quote, event.attachments))}]}}\n'
            f"    }}{',' if i < last else ''}\n"
        )
    yield "  ]\n}\n"


ITINERARY_CSV_HEADER = ("index", "start", "end", "place", "label", "lat", "lon", "leg_km", "cum_km")


def emit_itinerarium(
    legs: list[ItineraryLeg], biography: Biography, fmt: str = "text"
) -> str:
    """Render an itinerary as an aligned text table or as CSV.

    The text table lists one stop per line under the header
    ``# START END PLACE LAT LON LEG_KM CUM_KM``. The CSV variant adds
    the place key column and quotes its cells by :func:`_csv_field`.
    Distances have 3 decimals, half-even. Each leg carries its event,
    so ``biography`` is unread; it stays for existing callers.
    """
    if fmt not in ("text", "csv"):
        raise ValueError(f"unknown itinerarium format: {fmt!r}")
    # One tuple of cells per row, in CSV column order. The key cell is the
    # event's own string, so the text table, which skips it, pays nothing.
    rows = (
        (
            str(leg.index),
            event.when.start.isoformat(),
            event.when.end.isoformat(),
            event.key or "",
            event.label,
            f"{leg.point.lat:.6f}",
            f"{leg.point.lon:.6f}",
            f"{leg.leg_km:.3f}",
            f"{leg.cum_km:.3f}",
        )
        for leg in legs
        for event in [leg.event]
    )

    if fmt == "csv":
        # Only the key (3) and label (4) cells can need quoting; each row's
        # line is made as its tuple is, so no tuple outlives its line.
        lines = [",".join(ITINERARY_CSV_HEADER)]
        lines += (",".join((*r[:3], _csv_field(r[3]), _csv_field(r[4]), *r[5:])) for r in rows)
        lines.append("")  # ends the text with "\n" inside the join
        return "\n".join(lines)

    # The text table skips the key cell (3): its PLACE column shows the label.
    table: list = [("#", "START", "END", "", "PLACE", "LAT", "LON", "LEG_KM", "CUM_KM"), *rows]
    widths = {i: max(map(len, map(itemgetter(i), table))) for i in (0, 1, 2, 4, 5, 6, 7, 8)}
    # Text left-aligned, numbers right-aligned: "{0:<W}  {1:<W}  ...  {8:>W}".
    template = "  ".join(f"{{{i}:{'<' if i <= 4 else '>'}{w}}}" for i, w in widths.items())
    # Each row's line takes the place of its cells, so both are never all held.
    for n, row in enumerate(table):
        table[n] = template.format(*row)
    table.append("")  # ends the text with "\n" inside the join
    return "\n".join(table)


def distance_matrix(
    biography: Biography, gazetteer: dict[str, GazetteerEntry]
) -> str:
    """Pairwise great-circle km matrix over distinct resolved places, CSV.

    Places appear in order of first itinerary occurrence; keyed places
    are labeled by normalized key, inline-only points by
    "lat,lon". Each unordered pair is computed and formatted once: row
    i hands ``points[i + 1:]`` to :func:`vitamap.geo.distances_km` and
    writes those cells, right of the diagonal, by one ``",%.3f"``
    template; row j > i writes cell (i, j) again as its cell (j, i),
    from that text. So the diagonal is 0.000 and the matrix is exactly
    symmetric.

    Labels are quoted by :func:`_csv_field`, in the header and at the
    start of each row. The cells never need quoting. Raises
    InvalidBiographyError or UnknownPlace, as :func:`emit_kml` does.
    """
    return "".join(matrix_records(_checked_stops(biography, gazetteer)))


def matrix_records(stops: list[tuple[LifeEvent, GeoPoint]]) -> Iterator[str]:
    """The rows of :func:`distance_matrix`, from the resolved ``stops`` of
    :func:`vitamap.geo.itinerary_stops`, header first, each ending its
    line. It checks nothing; the places are labeled before the first row,
    and each row's cells right of the diagonal are computed and formatted
    as it is drawn."""
    places: dict[str | tuple[float, float], GeoPoint] = {}  # identity -> first point
    for event, point in stops:
        places.setdefault(place_identity(event, point), point)
    quoted = [
        _csv_field(identity if isinstance(identity, str) else f"{point.lat:.6f},{point.lon:.6f}")
        for identity, point in places.items()
    ]
    points = list(places.values())
    yield ",".join(["place", *quoted]) + "\n"
    # columns[0] holds the next row's cells left of the diagonal, each with
    # its comma, as the rows above formatted them: one byte a character.
    # A row takes its column out, so at most about a quarter of the cells
    # are held at once.
    columns = [bytearray() for _ in points]
    for i, (label, a) in enumerate(zip(quoted, points)):
        left = columns.pop(0).decode()
        right = ",%.3f" * len(columns) % tuple(distances_km(a, points[i + 1 :]))
        for column, cell in zip(columns, right.encode().split(b",")[1:]):
            column += cell
            column += b","
        yield f"{label},{left}0.000{right}\n"


def _csv_field(text: str) -> str:
    """``text`` as one field of an RFC 4180 row: quoted exactly where it
    holds ``,``, ``"``, CR or LF, with each ``"`` doubled, and otherwise
    as it is, whatever other code points it holds."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text
