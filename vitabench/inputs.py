"""Benchmark inputs: the bundled corpora and seeded synthetic timelines.

Each input is a `.vita` file and a gazetteer TSV on disk, plus the
ground truth the oracle checks outputs against. The truth is built
here, independently of vitamap: synthetic truth comes from the values
the generator chose, corpus truth from the frozen golden CSVs.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

KINDS = ("study", "work", "visit", "excavation", "other")
WORDS = ("Abbey", "Mill", "Court", "R&D", "<annex>", "a > b", "Quay", "Café", "Forge", "Hall, East")
# Every generated coordinate lies in lon [-20, 150], one 180-degree band,
# so the bounding box never crosses the antimeridian.
LAT_RANGE = (-60_000_000, 70_000_000)
LON_RANGE = (-20_000_000, 150_000_000)


@dataclass(frozen=True)
class Stop:
    """One event in itinerary order, as the outputs must show it."""

    event_id: str | None  # None where the source of truth does not name it
    start: str  # ISO date of the interval start
    end: str
    place: str  # normalized gazetteer key, or "" for an inline point
    label: str
    lat: str  # six decimals, as every emitter writes them
    lon: str


@dataclass
class Truth:
    """Expected outputs of one input, independent of vitamap."""

    stops: list[Stop]
    header_lines: set[int]  # line numbers of the `[event]` headers
    # (severity, line of the event's header, message), in output order
    diagnostics: list[tuple[str, int, str]] = field(default_factory=list)
    stats_text: str | None = None  # exact `stats` output, where published

    def places(self) -> list[tuple[str, float, float]]:
        """Distinct places in order of first visit: (matrix label, lat, lon)."""
        seen: dict[str, tuple[str, float, float]] = {}
        for s in self.stops:
            label = s.place or f"{s.lat},{s.lon}"
            seen.setdefault(label, (label, float(s.lat), float(s.lon)))
        return list(seen.values())


@dataclass
class Input:
    vita: Path
    gazetteer: Path
    truth: Truth
    golden: dict[str, bytes] = field(default_factory=dict)  # variant -> exact bytes

    @property
    def events(self) -> int:
        return len(self.truth.stops)


def _header_lines(text: str) -> set[int]:
    return {
        n
        for n, line in enumerate(text.split("\n"), start=1)
        if line.split("#", 1)[0].strip() == "[event]"
    }


# ---------------------------------------------------------------------------
# Corpora

# The `stats` lines the README publishes for the Schiaparelli corpus.
SCHIAPARELLI_STATS = (
    "event_count: 13\n"
    "distinct_place_count: 11\n"
    "span: 1856..1928\n"
    "total_km: 8653.822\n"
    "box: lat 24.088900..45.559700, lon 7.686900..32.899800\n"
)


def corpus_inputs(root: Path) -> list[Input]:
    """The Newton and Schiaparelli corpora, read in place (never written)."""
    corpora = root / "src" / "vitamap" / "corpora"
    inputs = []
    for name in ("newton", "schiaparelli"):
        vita = corpora / f"{name}.vita"
        golden = {
            variant: (corpora / "golden" / f"{name}.{suffix}").read_bytes()
            for variant, suffix in (("kml", "kml"), ("geojson", "geojson"), ("itin_csv", "csv"))
        }
        rows = list(csv.DictReader(io.StringIO(golden["itin_csv"].decode("utf-8"))))
        stops = [
            Stop(None, r["start"], r["end"], r["place"], r["label"], r["lat"], r["lon"])
            for r in rows
        ]
        truth = Truth(
            stops=stops,
            header_lines=_header_lines(vita.read_text(encoding="utf-8")),
            stats_text=SCHIAPARELLI_STATS if name == "schiaparelli" else None,
        )
        inputs.append(Input(vita, corpora / "gazetteer.tsv", truth, golden))
    return inputs


# ---------------------------------------------------------------------------
# Synthetic timelines


@dataclass(frozen=True)
class Shape:
    """Size and mix of one synthetic timeline."""

    events: int
    gazetteer_rows: int
    keyed_places: int  # distinct gazetteer keys the timeline visits
    inline_places: int  # distinct inline points it visits
    overlaps: int  # residences stretched into the next one
    swaps: int  # adjacent events authored out of chronological order


def _coord(rng: random.Random, bounds: tuple[int, int]) -> str:
    return f"{rng.randint(*bounds) / 1e6:.6f}"


def _expand(day: date, precision: str) -> tuple[str, date, date]:
    """A start expression of the given precision covering `day`, and its bounds."""
    if precision == "year":
        return f"{day.year:04d}", date(day.year, 1, 1), date(day.year, 12, 31)
    if precision == "month":
        first = day.replace(day=1)
        last = (first + timedelta(days=32)).replace(day=1) - timedelta(days=1)
        return f"{day.year:04d}-{day.month:02d}", first, last
    return day.isoformat(), day, day


def synthesize(dest: Path, seed: int, shape: Shape) -> Input:
    """Write `life.vita`, `places.tsv` and attachment files under dest.

    The same seed and shape give the same bytes. Returns the input with
    its ground truth.
    """
    rng = random.Random(f"vitabench:{seed}:{shape}")
    dest.mkdir(parents=True, exist_ok=True)

    # Gazetteer: unique keys, coordinates with exactly six decimals.
    gaz_lines = ["# key\tdisplay_name\tlat\tlon\tregion"]
    gazetteer: list[tuple[str, str, str]] = []
    for i in range(shape.gazetteer_rows):
        suffix = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
        key = f"site-{i:05d}-{suffix}"
        lat, lon = _coord(rng, LAT_RANGE), _coord(rng, LON_RANGE)
        gazetteer.append((key, lat, lon))
        gaz_lines.append(f"{key}\tSite {i} {suffix.title()}\t{lat}\t{lon}\tRegion {i % 17}")
    (dest / "places.tsv").write_text("\n".join(gaz_lines) + "\n", encoding="utf-8")

    # Places: every pool member is visited at least once, then repeats.
    keyed = [("key", *gazetteer[i]) for i in rng.sample(range(shape.gazetteer_rows), shape.keyed_places)]
    inline = {(_coord(rng, LAT_RANGE), _coord(rng, LON_RANGE)) for _ in range(shape.inline_places)}
    pool = keyed + [("point", "", lat, lon) for lat, lon in sorted(inline)]
    places = pool + [rng.choice(pool) for _ in range(shape.events - len(pool))]
    rng.shuffle(places)

    # Dates: strictly increasing target days; coarse expressions only
    # where their expanded start keeps the order.
    events = []
    day = date(1600, 1, 1) + timedelta(days=rng.randint(0, 300))
    prev_start = date.min
    for place in places:
        day += timedelta(days=rng.randint(20, 240))
        kind = "residence" if rng.random() < 0.2 else rng.choice(KINDS)
        precision = "day" if kind == "residence" else rng.choices(("day", "month", "year"), (6, 2, 2))[0]
        expr, start, end = _expand(day, precision)
        if start < prev_start:
            expr, start, end = _expand(day, "day")
        prev_start = start
        events.append({"kind": kind, "day": day, "start_expr": expr, "start": start, "end": end,
                       "end_expr": None, "place": place,
                       "circa": kind != "residence" and rng.random() < 0.1})
    residences = [e for e in events if e["kind"] == "residence"]
    stretched = set(rng.sample(range(len(residences) - 1), shape.overlaps))
    for i, e in enumerate(residences):
        length = timedelta(days=rng.randint(100, 2000))
        if i + 1 < len(residences):
            following = residences[i + 1]["day"]
            if i in stretched:
                e["end"] = following + timedelta(days=rng.randint(0, 200))
            else:
                e["end"] = min(e["day"] + length, following - timedelta(days=1))
        else:
            e["end"] = e["day"] + length
        e["end_expr"] = e["end"].isoformat()
    for e in events:
        if e["kind"] != "residence" and rng.random() < 0.5:
            e["end"] = e["day"] + timedelta(days=rng.randint(0, 400))
            e["end_expr"] = e["end"].isoformat()

    # Out-of-order authoring: swap a few disjoint adjacent non-residence pairs.
    candidates = [
        i for i in range(0, len(events) - 1, 3)
        if "residence" not in (events[i]["kind"], events[i + 1]["kind"])
        and events[i]["start"] < events[i + 1]["start"]
    ]
    for i in rng.sample(candidates, shape.swaps):
        events[i], events[i + 1] = events[i + 1], events[i]

    # Text, header lines and the remaining fields of each event.
    lines = [
        f"# Synthetic timeline, seed {seed}",
        "[biography]",
        f"title = Synthetic life & times <{seed}>",
        "id = synthetic",
    ]
    for index, e in enumerate(events):
        e["id"] = f"e{index:05d}"
        lines += ["", "[event]"]
        e["header"] = len(lines)
        kind_tag, key, lat, lon = e["place"]
        lines += [f"id = {e['id']}", f"kind = {e['kind']}",
                  f"start = {'c.' if e['circa'] else ''}{e['start_expr']}"]
        if e["end_expr"]:
            lines.append(f"end = {e['end_expr']}")
        if kind_tag == "key":
            # Some references are written in display form, so lookups normalize.
            spelled = rng.choice((key, key, key, key.replace("-", " ").title(), key.replace("-", "_").upper()))
            lines.append(f"place = {spelled}")
            e["label"] = spelled
        else:
            lines += [f"lat = {lat}", f"lon = {lon}"]
            e["label"] = e["id"]
        if rng.random() < 0.7:
            e["label"] = f"{rng.choice(WORDS)} {rng.choice(WORDS)} {index}"
            lines.append(f"label = {e['label']}")
        if rng.random() < 0.6:
            lines.append(f"note = Visit {index}: {rng.choice(WORDS)} & {rng.choice(WORDS)} <b>")
        if rng.random() < 0.1:
            for n in range(rng.randint(1, 2)):
                attachment = f"media/{e['id']}-{n}.jpg"
                (dest / attachment).parent.mkdir(exist_ok=True)
                (dest / attachment).write_bytes(b"")
                lines.append(f"attach = {attachment}")
    (dest / "life.vita").write_text("\n".join(lines) + "\n", encoding="utf-8")

    order = sorted(range(len(events)), key=lambda i: (events[i]["start"], events[i]["end"], i))
    stops = []
    for i in order:
        e = events[i]
        kind_tag, key, lat, lon = e["place"]
        stops.append(Stop(e["id"], e["start"].isoformat(), e["end"].isoformat(),
                          key if kind_tag == "key" else "", e["label"], lat, lon))

    # Expected warnings, in the order the validator reports them.
    diagnostics = []
    earlier: list[dict] = []
    previous = None
    for e in events:
        if e["kind"] == "residence":
            for r in earlier:
                if e["start"] <= r["end"] and r["start"] <= e["end"]:
                    diagnostics.append(("warning", e["header"],
                                        f"overlapping residences: '{r['id']}' and '{e['id']}'"))
            earlier.append(e)
        if previous is not None and e["start"] < previous:
            diagnostics.append(("warning", e["header"], "event out of chronological order"))
        previous = e["start"]

    truth = Truth(stops, {e["header"] for e in events}, diagnostics)
    return Input(dest / "life.vita", dest / "places.tsv", truth)
