"""Bundled corpus contracts: clean validation, expected places, goldens."""

from __future__ import annotations

from collections import Counter

import pytest

from vitamap.cli import main
from vitamap.corpora import corpus_dir, golden_output, newton_corpus, schiaparelli_corpus
from vitamap.emit import distance_matrix, emit_geojson, emit_itinerarium, emit_kml
from vitamap.geo import bounding_box, build_itinerary, route_stats
from vitamap.gazetteer import load_gazetteer
from vitamap.model import validate_biography
from vitamap.vita import parse_biography, serialize_biography

NEWTON_PLACES = {
    "woolsthorpe-manor",
    "grantham",
    "cambridge",
    "london",
    "tower-of-london",
    "southampton",
}
CAMPAIGN_SITES = {"giza", "hermopolis", "assiut", "qau-el-kebir", "gebelein", "aswan"}


@pytest.fixture(scope="module", params=["newton", "schiaparelli"])
def corpus(request):
    vita, tsv = (newton_corpus if request.param == "newton" else schiaparelli_corpus)()
    return request.param, parse_biography(vita), load_gazetteer(tsv)


class TestBothCorpora:
    def test_validates_with_zero_errors(self, corpus):
        _, biography, _ = corpus
        diagnostics = validate_biography(biography)
        assert [d for d in diagnostics if d.severity == "error"] == []
        # The bundled data is additionally curated warning-free.
        assert diagnostics == []

    def test_resolves_fully(self, corpus):
        _, biography, gazetteer = corpus
        legs = build_itinerary(biography, gazetteer)
        assert len(legs) == len(biography.events)

    def test_round_trip(self, corpus):
        _, biography, _ = corpus
        assert parse_biography(serialize_biography(biography)) == biography

    def test_emitters_deterministic(self, corpus):
        _, biography, gazetteer = corpus
        legs = build_itinerary(biography, gazetteer)
        assert emit_kml(biography, gazetteer) == emit_kml(biography, gazetteer)
        assert emit_geojson(biography, gazetteer) == emit_geojson(biography, gazetteer)
        assert emit_itinerarium(legs, biography, "csv") == emit_itinerarium(legs, biography, "csv")

    def test_matches_golden_outputs(self, corpus):
        name, biography, gazetteer = corpus
        legs = build_itinerary(biography, gazetteer)
        assert emit_kml(biography, gazetteer) == golden_output(f"{name}.kml")
        assert emit_geojson(biography, gazetteer) == golden_output(f"{name}.geojson")
        assert emit_itinerarium(legs, biography, "csv") == golden_output(f"{name}.csv")
        assert distance_matrix(biography, gazetteer) == golden_output(f"{name}.matrix.csv")

    def test_text_itinerarium_matches_golden(self, corpus):
        name, biography, gazetteer = corpus
        legs = build_itinerary(biography, gazetteer)
        assert emit_itinerarium(legs, biography, "text") == golden_output(f"{name}.txt")

    def test_cli_stats_matches_golden(self, corpus, tmp_path):
        name, _, _ = corpus
        out = tmp_path / f"{name}.stats.txt"
        assert main(["stats", str(corpus_dir() / f"{name}.vita"), "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == golden_output(f"{name}.stats.txt")


class TestNewton:
    def test_place_set(self):
        vita, _ = newton_corpus()
        biography = parse_biography(vita)
        places = Counter(e.place_key for e in biography.events)
        assert set(places) == NEWTON_PLACES
        assert places["woolsthorpe-manor"] == 2  # birth plus the plague return

    def test_same_point_for_both_woolsthorpe_events(self):
        vita, tsv = newton_corpus()
        biography = parse_biography(vita)
        legs = build_itinerary(biography, load_gazetteer(tsv))
        points = {
            leg.point
            for leg in legs
            for e in biography.events
            if e.id == leg.event_id and e.place_key == "woolsthorpe-manor"
        }
        assert len(points) == 1

    def test_exactly_one_mint_placemark(self):
        vita, _ = newton_corpus()
        biography = parse_biography(vita)
        assert sum("Mint" in e.label for e in biography.events) == 1

    def test_distinct_places(self):
        vita, tsv = newton_corpus()
        biography = parse_biography(vita)
        stats = route_stats(build_itinerary(biography, load_gazetteer(tsv)), biography)
        assert stats.distinct_place_count >= 5


class TestSchiaparelli:
    def test_egyptian_place_count(self):
        vita, tsv = schiaparelli_corpus()
        biography = parse_biography(vita)
        gazetteer = load_gazetteer(tsv)
        egyptian = {
            e.place_key
            for e in biography.events
            if e.place_key and gazetteer[e.place_key].region == "Egypt"
        }
        assert CAMPAIGN_SITES <= egyptian
        assert len(egyptian) >= 8

    def test_life_span(self):
        vita, tsv = schiaparelli_corpus()
        biography = parse_biography(vita)
        stats = route_stats(build_itinerary(biography, load_gazetteer(tsv)), biography)
        assert stats.first_start.year == 1856
        assert stats.last_end.year == 1928

    def test_tomb_discovery_years(self):
        vita, _ = schiaparelli_corpus()
        by_id = {e.id: e for e in parse_biography(vita).events}
        assert by_id["nefertari-tomb"].when.start.isoformat() == "1904-01-01"
        assert by_id["nefertari-tomb"].when.end.isoformat() == "1904-12-31"
        assert by_id["kha-tomb"].when.start.year == 1906

    def test_egyptian_bounding_box_encloses_all_sites(self):
        _, tsv = schiaparelli_corpus()
        gazetteer = load_gazetteer(tsv)
        egyptian = [e.point for e in gazetteer.values() if e.region == "Egypt"]
        box = bounding_box(egyptian)
        for point in egyptian:
            assert box.min_lat <= point.lat <= box.max_lat
            assert box.min_lon <= point.lon <= box.max_lon
        assert box.min_lat == gazetteer["aswan"].point.lat  # southernmost site
        assert box.max_lat == gazetteer["giza"].point.lat  # northernmost site


class TestSharedGazetteer:
    def test_giza_entry_matches_pinned_row(self):
        _, tsv = newton_corpus()
        entry = load_gazetteer(tsv)["giza"]
        assert entry.display_name == "Giza"
        assert (entry.point.lat, entry.point.lon) == (29.9773, 31.1325)
        assert entry.region == "Egypt"

    def test_covers_both_corpora(self):
        gazetteer = load_gazetteer(newton_corpus()[1])
        for vita, _ in (newton_corpus(), schiaparelli_corpus()):
            for event in parse_biography(vita).events:
                assert event.place_key in gazetteer
