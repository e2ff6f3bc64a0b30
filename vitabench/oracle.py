"""Output checks that do not use vitamap.

Each check takes the ground truth of one input and what one command
produced, and returns None when the output is right or a one-line
reason when it is not. Distances are recomputed here with an
independent haversine and compared within 0.001 km.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import xml.etree.ElementTree as ET

from inputs import Input, Truth

EARTH_RADIUS_KM = 6371.0088
KM_TOLERANCE = 0.001
KML = "{http://www.opengis.net/kml/2.2}"
CSV_HEADER = ["index", "start", "end", "place", "label", "lat", "lon", "leg_km", "cum_km"]
TEXT_HEADER = ["#", "START", "END", "PLACE", "LAT", "LON", "LEG_KM", "CUM_KM"]
DIAGNOSTIC_RE = re.compile(r"(warning|error) (.+):(\d+) (.*)\Z")


def haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    h = (math.sin((phi2 - phi1) / 2) ** 2
         + math.cos(phi1) * math.cos(phi2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(1.0, h)))


def cumulative_km(truth: Truth) -> list[tuple[float, float]]:
    """(leg, running total) per stop."""
    out, total, prev = [], 0.0, None
    for s in truth.stops:
        here = (float(s.lat), float(s.lon))
        leg = 0.0 if prev is None else haversine(*prev, *here)
        total += leg
        out.append((leg, total))
        prev = here
    return out


def _near(text: str, expected: float) -> bool:
    return abs(float(text) - expected) <= KM_TOLERANCE


def check_diagnostics(inp: Input, stderr: str) -> str | None:
    lines = stderr.splitlines()
    for line in lines:
        m = DIAGNOSTIC_RE.match(line)
        if not m:
            return f"diagnostic not of the form 'LEVEL path:line': {line!r}"
        if int(m.group(3)) not in inp.truth.header_lines:
            return f"diagnostic does not point at an [event] header: {line!r}"
    expected = [f"{sev} {inp.vita}:{line} {msg}" for sev, line, msg in inp.truth.diagnostics]
    if lines != expected:
        return f"expected {len(expected)} diagnostic lines, got {len(lines)}"
    return None


def check_kml(truth: Truth, data: bytes) -> str | None:
    placemarks = ET.fromstring(data).findall(f".//{KML}Placemark")
    if len(placemarks) != len(truth.stops):
        return f"{len(placemarks)} placemarks for {len(truth.stops)} events"
    for i, (pm, s) in enumerate(zip(placemarks, truth.stops)):
        got = (pm.findtext(f"{KML}Point/{KML}coordinates"),
               pm.findtext(f"{KML}TimeSpan/{KML}begin"), pm.findtext(f"{KML}TimeSpan/{KML}end"))
        if got != (f"{s.lon},{s.lat},0", s.start, s.end):
            return f"placemark {i}: {got}"
    return None


def check_geojson(truth: Truth, text: str) -> str | None:
    doc = json.loads(text)
    features = doc["features"]
    if doc["type"] != "FeatureCollection" or len(features) != len(truth.stops):
        return f"{len(features)} features for {len(truth.stops)} events"
    for i, (f, s) in enumerate(zip(features, truth.stops)):
        p = f["properties"]
        if (f["geometry"] != {"type": "Point", "coordinates": [float(s.lon), float(s.lat)]}
                or (p["start"], p["end"], p["label"]) != (s.start, s.end, s.label)
                or s.event_id is not None and p["id"] != s.event_id):
            return f"feature {i} differs"
    return None


def _check_stop_rows(truth: Truth, rows: list[list[str]], places: bool) -> str | None:
    if len(rows) != len(truth.stops):
        return f"{len(rows)} itinerary rows for {len(truth.stops)} events"
    for i, (row, s, (leg, cum)) in enumerate(zip(rows, truth.stops, cumulative_km(truth))):
        idx, start, end, *middle, lat, lon, leg_km, cum_km = row
        place = [s.place, s.label] if places else [" ".join(s.label.split())]
        if [idx, start, end, *middle, lat, lon] != [str(i), s.start, s.end, *place, s.lat, s.lon]:
            return f"itinerary row {i}: {row}"
        if not (_near(leg_km, leg) and _near(cum_km, cum)):
            return f"itinerary row {i}: km {leg_km}, {cum_km} against {leg:.4f}, {cum:.4f}"
    return None


def check_itinerary_csv(truth: Truth, text: str) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return "bad itinerary CSV header"
    return _check_stop_rows(truth, rows[1:], places=True)


def check_itinerary_text(truth: Truth, text: str) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0].split() != TEXT_HEADER:
        return "bad itinerary table header"
    rows = []
    for line in lines[1:]:
        fields = line.split()
        rows.append([*fields[:3], " ".join(fields[3:-4]), *fields[-4:]])
    return _check_stop_rows(truth, rows, places=False)


def check_matrix(truth: Truth, text: str) -> str | None:
    places = truth.places()
    rows = list(csv.reader(io.StringIO(text)))
    labels = [label for label, _, _ in places]
    if not rows or rows[0] != ["place", *labels] or len(rows) != len(places) + 1:
        return f"matrix is not over the {len(places)} distinct places"
    cells = [row[1:] for row in rows[1:]]
    for i, (row, (label, lat1, lon1)) in enumerate(zip(rows[1:], places)):
        if row[0] != label or len(cells[i]) != len(places) or cells[i][i] != "0.000":
            return f"matrix row {i} is malformed"
        for j in range(i + 1, len(places)):
            if cells[i][j] != cells[j][i]:
                return f"matrix not symmetric at ({i}, {j})"
            if not _near(cells[i][j], haversine(lat1, lon1, places[j][1], places[j][2])):
                return f"matrix cell ({i}, {j}) is {cells[i][j]}"
    return None


def check_stats(truth: Truth, text: str) -> str | None:
    if truth.stats_text is not None and text != truth.stats_text:
        return "stats differ from the published figures"
    lats = [float(s.lat) for s in truth.stops]
    lons = [float(s.lon) for s in truth.stops]
    expected = [
        f"event_count: {len(truth.stops)}",
        f"distinct_place_count: {len(truth.places())}",
        f"span: {min(s.start for s in truth.stops)[:4]}..{max(s.end for s in truth.stops)[:4]}",
        None,
        f"box: lat {min(lats):.6f}..{max(lats):.6f}, lon {min(lons):.6f}..{max(lons):.6f}",
    ]
    lines = text.splitlines()
    if len(lines) != 5 or any(e is not None and line != e for line, e in zip(lines, expected)):
        return f"stats lines differ: {lines}"
    total = lines[3].removeprefix("total_km: ")
    if not _near(total, cumulative_km(truth)[-1][1]):
        return f"total_km {total}"
    return None


def check(variant: str, inp: Input, code: object, stdout: str, stderr: str, written: bytes) -> str | None:
    """Verdict on one command's exit code, stdout, stderr and `-o` file."""
    if code != 0:
        return f"exit code {code!r}: {stderr[-300:]!r}"
    problem = check_diagnostics(inp, stderr)
    if problem:
        return problem
    payload = written if variant == "kml" else stdout.encode("utf-8")
    if variant in inp.golden and payload != inp.golden[variant]:
        return f"{variant} differs from the golden output"
    if variant in ("validate", "kml") and stdout:
        return f"{variant} printed to stdout"
    truth = inp.truth
    try:
        if variant == "kml":
            return check_kml(truth, written)
        if variant == "geojson":
            return check_geojson(truth, stdout)
        if variant == "itin_csv":
            return check_itinerary_csv(truth, stdout)
        if variant in ("itin_text", "dist_text"):
            return check_itinerary_text(truth, stdout)
        if variant == "matrix":
            return check_matrix(truth, stdout)
        if variant == "stats":
            return check_stats(truth, stdout)
    except (ET.ParseError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return f"{variant} unreadable: {exc!r}"
    return None
