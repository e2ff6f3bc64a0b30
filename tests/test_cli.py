"""CLI behavior: exit codes, stream discipline, precedence, atomicity."""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import re
import shlex
import shutil
import stat
import subprocess
import sys
import warnings
import weakref
import xml.etree.ElementTree as ET
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from datetime import date
from functools import partial
from pathlib import Path, PurePosixPath
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vitamap import cli, emit, gazetteer, model
from vitamap.cli import COMMANDS, build_parser, main
from vitamap.model import GeoPoint, split_lines
from vitamap.vita import VitaParseError, parse_biography

from strategies import long_timeline_gazetteer, long_timeline_text, traced_peak

OK_VITA = """\
[biography]
title = Tiny Life
id = tiny
gazetteer = gazetteer.tsv

[event]
id = start
kind = birth
start = 1900
place = home

[event]
id = move
kind = residence
start = 1920
end = 1960
place = away
"""

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures"

GAZ = "home\tHome\t10.0\t20.0\tNowhere\naway\tAway\t-10.0\t30.0\tNowhere\n"


@pytest.fixture
def workspace(tmp_path: Path) -> Path:
    (tmp_path / "gazetteer.tsv").write_text(GAZ, encoding="utf-8")
    (tmp_path / "ok.vita").write_text(OK_VITA, encoding="utf-8")
    (tmp_path / "unknown.vita").write_text(
        OK_VITA.replace("place = away", "place = atlantis"), encoding="utf-8"
    )
    (tmp_path / "dup.vita").write_text(
        OK_VITA.replace("id = move", "id = start"), encoding="utf-8"
    )
    (tmp_path / "overlap.vita").write_text(
        OK_VITA.replace("kind = birth", "kind = residence").replace(
            "start = 1900", "start = 1900\nend = 1930"
        ),
        encoding="utf-8",
    )
    (tmp_path / "broken.vita").write_text("[event]\nid = ?\n", encoding="utf-8")
    return tmp_path


def vita(workspace: Path, name: str) -> str:
    return str(workspace / f"{name}.vita")


class TestExitCodeMatrix:
    def test_validate(self, workspace, capsys):
        assert main(["validate", vita(workspace, "ok")]) == 0
        assert main(["validate", vita(workspace, "dup")]) == 1
        assert main(["validate", str(workspace / "missing.vita")]) == 2

    def test_compile(self, workspace, tmp_path):
        out = str(tmp_path / "out.kml")
        assert main(["compile", vita(workspace, "ok"), "-o", out]) == 0
        assert main(["compile", vita(workspace, "unknown"), "-o", out]) == 1
        assert main(
            ["compile", vita(workspace, "ok"), "-o", str(tmp_path / "no-dir" / "x.kml")]
        ) == 2

    def test_itinerary(self, workspace):
        assert main(["itinerary", vita(workspace, "ok")]) == 0
        assert main(["itinerary", vita(workspace, "unknown")]) == 1
        assert main(["itinerary", str(workspace / "missing.vita")]) == 2

    def test_distances(self, workspace):
        assert main(["distances", vita(workspace, "ok")]) == 0
        assert main(["distances", vita(workspace, "unknown")]) == 1
        assert main(
            ["distances", vita(workspace, "ok"), "--gazetteer", str(workspace / "nope.tsv")]
        ) == 2

    def test_stats(self, workspace):
        assert main(["stats", vita(workspace, "ok")]) == 0
        assert main(["stats", vita(workspace, "unknown")]) == 1
        assert main(["stats", str(workspace / "missing.vita")]) == 2

    def test_geocode(self, geocoder_stub, capsys):
        assert main(["geocode", "Assiut", "--endpoint", f"{geocoder_stub}/ok"]) == 0
        assert main(["geocode", "Assiut", "--endpoint", f"{geocoder_stub}/error"]) == 1
        assert main(["geocode", "Assiut"]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2


class TestStreamDiscipline:
    def test_payload_on_stdout_diagnostics_on_stderr(self, workspace, capsys):
        code = main(["itinerary", vita(workspace, "overlap")])
        captured = capsys.readouterr()
        assert code == 0
        assert "CUM_KM" in captured.out
        assert "overlapping residences" in captured.err
        assert "overlapping" not in captured.out

    def test_warning_prints_before_a_failed_write(self, workspace, capsys):
        out = workspace / "no-dir" / "overlap.txt"
        assert main(["stats", vita(workspace, "overlap"), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"warning {vita(workspace, 'overlap')}:13 overlapping residences: 'start' and 'move'\n"
            f"cannot write output '{out}': {os.strerror(errno.ENOENT)}\n"
        )

    def test_diagnostic_format(self, workspace, capsys):
        main(["validate", vita(workspace, "dup")])
        err = capsys.readouterr().err
        path = vita(workspace, "dup")
        # LEVEL file:line message; the line is the [event] header of the
        # first event with that id, as for every diagnostic of an event.
        assert f"error {path}:6 duplicate event id 'start'" in err

    def test_parse_errors_reported_with_lines(self, workspace, capsys):
        assert main(["validate", vita(workspace, "broken")]) == 1
        err = capsys.readouterr().err
        assert "missing [biography] header" in err
        assert "invalid event id" in err

    def test_unreadable_input_message(self, workspace, capsys):
        assert main(["validate", str(workspace / "missing.vita")]) == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_paths_print_as_pathlib_spells_them(self, workspace, monkeypatch, capsys):
        monkeypatch.chdir(workspace)
        (workspace / "sub").mkdir()
        (workspace / "sub" / "broken.vita").write_text("[event]\nid = ?\n", encoding="utf-8")
        spelled = {"./broken.vita": "broken.vita", "sub//broken.vita": "sub/broken.vita"}
        for given, shown in spelled.items():
            assert main(["validate", given]) == 1
            assert capsys.readouterr().err.startswith(f"error {shown}:1 ")
        (workspace / "hint.vita").write_text(
            OK_VITA.replace("= gazetteer.tsv", "= sub//g.tsv"), encoding="utf-8"
        )
        assert main(["stats", "./hint.vita"]) == 2
        assert capsys.readouterr().err == (
            "cannot read gazetteer 'sub/g.tsv': No such file or directory\n"
        )
        (workspace / "sub" / "g.tsv").write_text("home\tHome\t95\t20\t\n", encoding="utf-8")
        assert main(["stats", "./hint.vita"]) == 1
        assert capsys.readouterr().err.startswith("error sub/g.tsv:1 ")

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(["/", ".", "..", "a", "é", " "])).map("".join))
    def test_a_path_is_spelled_as_pathlib_spells_it(self, text):
        assert cli._as_path(text) == str(PurePosixPath(text))

    def test_nul_byte_in_input_path_is_usage_error(self, capsys):
        assert main(["stats", "a\x00b.vita"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cannot read input 'a\x00b.vita': embedded null byte\n"

    @pytest.mark.parametrize("command", ["compile", "itinerary", "distances", "stats"])
    def test_nul_byte_in_gazetteer_hint_is_usage_error(self, workspace, capsys, command):
        path = workspace / "nul.vita"
        path.write_text(OK_VITA.replace("= gazetteer.tsv", "= a\x00b.tsv"), encoding="utf-8")
        gaz = workspace / "a\x00b.tsv"
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot read gazetteer '{gaz}': embedded null byte\n"

    @pytest.mark.parametrize("command", ["compile", "itinerary", "distances", "stats"])
    def test_nul_byte_in_output_path_is_usage_error(self, workspace, capsys, command):
        out = workspace / "outs"
        out.mkdir()
        target = str(out / "a\x00b.txt")
        assert main([command, vita(workspace, "ok"), "-o", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # The reason is the interpreter's: "embedded null byte" on 3.10 to 3.12,
        # "stat: embedded null character in path" on 3.13.
        with pytest.raises(ValueError) as refused:
            os.stat(target)
        assert captured.err == f"cannot write output '{target}': {refused.value}\n"
        assert list(out.iterdir()) == []


class TestUnknownPlace:
    @pytest.mark.parametrize("command", ["compile", "itinerary", "distances", "stats"])
    def test_located_at_event_header(self, workspace, capsys, command):
        path = vita(workspace, "unknown")
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error {path}:12 unknown place 'atlantis' (event 'move')\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["validate"],
            ["compile"],
            ["itinerary"],
            ["distances"],
            ["distances", "--matrix"],
            ["stats"],
        ],
    )
    def test_place_with_empty_key_is_located(self, workspace, capsys, command):
        path = workspace / "empty-key.vita"
        path.write_text(
            OK_VITA.replace("place = away", "place = ---\nlat = 1\nlon = 2"), encoding="utf-8"
        )
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error {path}:17 name normalizes to empty key: '---'\n"


class TestFindingGoldens:
    @pytest.mark.parametrize("name", ["broken-vita", "findings"])
    def test_validate_matches_golden(self, monkeypatch, capsys, name):
        # The path is relative to the repository root, as in the golden.
        monkeypatch.chdir(REPO)
        assert main(["validate", f"tests/fixtures/{name}.vita"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.encode() == (FIXTURES / f"{name}.stderr").read_bytes()


class TestRouteWarning:
    def test_located_at_first_event_header(self, workspace, capsys):
        path = workspace / "wrap.vita"
        path.write_text(
            OK_VITA.replace("place = home", "lat = 1\nlon = -170").replace(
                "place = away", "lat = 1\nlon = 170"
            ),
            encoding="utf-8",
        )
        assert main(["stats", str(path)]) == 0
        captured = capsys.readouterr()
        assert "lon -170.000000..170.000000" in captured.out
        assert captured.err == (
            f"warning {path}:6 points span more than 180 degrees of longitude; emitting "
            "the full-width box instead of wrapping across the antimeridian\n"
        )
        out = workspace / "stats.txt"
        assert main(["stats", str(path), "--strict", "-o", str(out)]) == 1
        assert not out.exists()


class TestUndecodableFiles:
    def test_non_utf8_input_is_located_usage_error(self, workspace, capsys):
        path = workspace / "latin1.vita"
        path.write_bytes(OK_VITA.encode("utf-8").replace(b"Tiny Life", b"Tiny \xff Life"))
        assert main(["compile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error {path}:2 input is not valid UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_any_line_end_counts_one_line(self, workspace, capsys, newline):
        path = workspace / "latin1.vita"
        source = OK_VITA.encode("utf-8").replace(b"Tiny Life", b"Tiny \xff Life")
        path.write_bytes(source.replace(b"\n", newline))
        assert main(["compile", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error {path}:2 input is not valid UTF-8")

    @pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"], ids=["1", "2"])
    def test_a_cut_bom_alone_is_not_utf8(self, workspace, capsys, data):
        # A decode of the whole file refuses it; the stdlib's incremental
        # utf-8-sig decoder, at its final call, lets it pass.
        path = workspace / "cut-bom.vita"
        path.write_bytes(data)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error {path}:1 input is not valid UTF-8 (unexpected end of data)\n"
        )

    def test_non_utf8_gazetteer_is_located_usage_error(self, workspace, capsys):
        gaz = workspace / "gazetteer.tsv"
        gaz.write_bytes(GAZ.encode("utf-8").replace(b"\tAway\t", b"\tAw\xe4y\t"))
        assert main(["compile", vita(workspace, "ok")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error {gaz}:2 gazetteer is not valid UTF-8 (")

    # A finding before the bad byte, then more than a read of comments: the
    # bad byte is decoded after the first read, and only it is reported.
    PADDING = "# a comment line of some length, padding the file out\r\n" * 100

    def test_bad_byte_after_the_first_read_of_the_input(self, workspace, capsys):
        path = workspace / "late.vita"
        prefix = OK_VITA.replace("id = tiny\n", "id = tiny\nunknown = 1\n") + self.PADDING
        path.write_bytes(prefix.encode("utf-8") + b"note = \xff\n")
        assert len(prefix) > cli._READ
        assert main(["compile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = len(split_lines(prefix))
        assert captured.err == f"error {path}:{line} input is not valid UTF-8 (invalid start byte)\n"

    def test_bad_byte_after_the_first_read_of_the_gazetteer(self, workspace, capsys):
        gaz = workspace / "gazetteer.tsv"
        prefix = GAZ + "not a row\n" + self.PADDING + "end\tEnd\t1\t2\t"
        gaz.write_bytes(prefix.encode("utf-8") + b"\xe4\n")
        assert len(prefix) > cli._READ
        assert main(["compile", vita(workspace, "ok")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = len(split_lines(prefix))
        assert captured.err == (
            f"error {gaz}:{line} gazetteer is not valid UTF-8 (invalid continuation byte)\n"
        )


class TestAttachments:
    def test_overlong_name_is_a_located_missing_file_warning(self, workspace, capsys):
        # 304 bytes: over the usual 255-byte name limit, so stat fails
        # with ENAMETOOLONG rather than ENOENT.
        name = "a" * 300 + ".pdf"
        path = workspace / "long.vita"
        path.write_text(OK_VITA + f"attach = {name}\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().err == f"warning {path}:12 missing attachment file '{name}'\n"


class TestStrict:
    def test_warnings_pass_by_default(self, workspace):
        assert main(["validate", vita(workspace, "overlap")]) == 0

    def test_strict_promotes_warnings(self, workspace):
        assert main(["validate", vita(workspace, "overlap"), "--strict"]) == 1

    def test_strict_applies_to_compile(self, workspace, tmp_path):
        out = str(tmp_path / "x.kml")
        assert main(["compile", vita(workspace, "overlap"), "-o", out, "--strict"]) == 1
        assert not Path(out).exists()

    @pytest.mark.parametrize("corpus", ["newton", "schiaparelli"])
    def test_corpora_pass_strict_validation(self, newton_path, capsys, corpus):
        path = newton_path.parent / f"{corpus}.vita"
        assert main(["validate", "--strict", str(path)]) == 0
        assert capsys.readouterr() == ("", "")


class TestGazetteerPrecedence:
    def test_flag_beats_env_and_hint(self, workspace, tmp_path, monkeypatch, capsys):
        flag_gaz = tmp_path / "flag.tsv"
        flag_gaz.write_text(GAZ.replace("10.0\t20.0", "11.0\t21.0"), encoding="utf-8")
        env_gaz = tmp_path / "env.tsv"
        env_gaz.write_text(GAZ.replace("10.0\t20.0", "12.0\t22.0"), encoding="utf-8")
        monkeypatch.setenv("VITA_GAZETTEER", str(env_gaz))
        assert main(["compile", vita(workspace, "ok"), "--gazetteer", str(flag_gaz)]) == 0
        assert "21.000000,11.000000" in capsys.readouterr().out

    def test_env_beats_hint(self, workspace, tmp_path, monkeypatch, capsys):
        env_gaz = tmp_path / "env.tsv"
        env_gaz.write_text(GAZ.replace("10.0\t20.0", "12.0\t22.0"), encoding="utf-8")
        monkeypatch.setenv("VITA_GAZETTEER", str(env_gaz))
        assert main(["compile", vita(workspace, "ok")]) == 0
        assert "22.000000,12.000000" in capsys.readouterr().out

    def test_hint_resolves_relative_to_input(self, workspace, monkeypatch, capsys):
        monkeypatch.chdir("/")  # far away from the workspace
        assert main(["compile", vita(workspace, "ok")]) == 0
        assert "20.000000,10.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--gazetteer", ""], ["--gazetteer="]], ids=["space", "equals"])
    def test_empty_flag_names_the_working_directory(self, newton_path, monkeypatch, capsys, flag):
        # The flag is read whatever its text; an empty path is spelled ".".
        monkeypatch.delenv("VITA_GAZETTEER", raising=False)
        assert main(["stats", str(newton_path), *flag]) == 2
        assert capsys.readouterr() == ("", "cannot read gazetteer '.': Is a directory\n")

    def test_empty_env_counts_as_unset(self, newton_path, monkeypatch, capsys):
        monkeypatch.setenv("VITA_GAZETTEER", "")
        assert main(["stats", str(newton_path)]) == 0
        golden = newton_path.parent / "golden" / "newton.stats.txt"
        assert capsys.readouterr() == (golden.read_text("utf-8"), "")

    # Each gazetteer puts home at its own latitude, so the stats box names the file read.
    LATS = {"flag.tsv": 11, "env.tsv": 12, "life/hint.tsv": 13, "gazetteer.tsv": 14}

    @pytest.mark.parametrize("hint", [None, "hint.tsv"], ids=["no-hint", "hint"])
    @pytest.mark.parametrize("env", [None, "", "env.tsv"], ids=["no-env", "empty-env", "env"])
    @pytest.mark.parametrize("flag", [None, "", "flag.tsv"], ids=["no-flag", "empty-flag", "flag"])
    def test_which_file_is_read(self, tmp_path, monkeypatch, capsys, flag, env, hint):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "life").mkdir()
        for name, lat in self.LATS.items():
            (tmp_path / name).write_text(GAZ.replace("10.0\t20.0", f"{lat}.0\t20.0"), encoding="utf-8")
        head = f"gazetteer = {hint}\n" if hint else ""
        source = OK_VITA.replace("gazetteer = gazetteer.tsv\n", head)
        (tmp_path / "life" / "ok.vita").write_text(source, encoding="utf-8")
        if env is None:
            monkeypatch.delenv("VITA_GAZETTEER", raising=False)
        else:
            monkeypatch.setenv("VITA_GAZETTEER", env)
        code = main(["stats", "life/ok.vita", *([] if flag is None else ["--gazetteer", flag])])
        # A given flag, empty too; else a non-empty VITA_GAZETTEER; else the
        # hint, next to the input; else ./gazetteer.tsv.
        read = flag if flag is not None else env or hint and "life/hint.tsv" or "gazetteer.tsv"
        out, err = capsys.readouterr()
        if read == "":
            assert (code, out, err) == (2, "", "cannot read gazetteer '.': Is a directory\n")
        else:
            assert (code, err) == (0, "")
            assert f"box: lat -10.000000..{self.LATS[read]}.000000," in out

    def test_validate_help_says_the_gazetteer_is_not_read(self, capsys):
        assert main(["validate", "--help"]) == 0
        assert "accepted but not read" in " ".join(capsys.readouterr().out.split())

    def test_validate_never_reads_the_gazetteer(self, workspace, monkeypatch, capsys):
        # validate runs through the same driver as the writing commands,
        # and stops before the gazetteer is looked for.
        broken = workspace / "broken.tsv"
        broken.write_text("not a row\n", encoding="utf-8")
        opened = []

        def recorded_open(path, *args, **kwargs):
            opened.append(Path(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", recorded_open, raising=False)
        monkeypatch.setattr(cli, "load_gazetteer", mock.Mock(side_effect=AssertionError))
        monkeypatch.setenv("VITA_GAZETTEER", str(broken))
        assert main(["validate", vita(workspace, "ok"), "--gazetteer", str(broken)]) == 0
        assert capsys.readouterr() == ("", "")
        assert opened == [workspace / "ok.vita"]

    def test_inline_only_file_needs_no_gazetteer(self, tmp_path, monkeypatch, capsys):
        source = OK_VITA.replace("gazetteer = gazetteer.tsv\n", "").replace(
            "place = home", "lat = 1.0\nlon = 2.0"
        ).replace("place = away", "lat = 3.0\nlon = 4.0")
        path = tmp_path / "inline.vita"
        path.write_text(source, encoding="utf-8")
        monkeypatch.chdir(tmp_path)  # no ./gazetteer.tsv here
        assert main(["compile", str(path)]) == 0
        assert "2.000000,1.000000" in capsys.readouterr().out


class TestGazetteerRows:
    @pytest.mark.parametrize(
        "command", [["compile"], ["itinerary"], ["distances", "--matrix"], ["stats"]]
    )
    def test_unused_broken_rows_fail_the_run(self, monkeypatch, capsys, command):
        # Every broken row is on a key that no event uses; the path is
        # relative to the repository root, as in the golden.
        monkeypatch.chdir(REPO)
        monkeypatch.delenv("VITA_GAZETTEER", raising=False)
        assert main([*command, "tests/fixtures/broken-gazetteer.vita"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.encode() == (FIXTURES / "broken-gazetteer.stderr").read_bytes()

    def test_late_bad_key_matches_golden(self, monkeypatch, capsys):
        # An invalid key past the loader's first chunk of keys, and again.
        monkeypatch.chdir(REPO)
        monkeypatch.delenv("VITA_GAZETTEER", raising=False)
        assert main(["stats", "tests/fixtures/late-bad-key.vita"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.encode() == (FIXTURES / "late-bad-key.stderr").read_bytes()

    def test_entries_built_only_for_places_used(self, tmp_path, monkeypatch, capsys):
        rows = (f"p{i:04d}\tPlace {i}\t{i % 90}.5\t{i % 180}.25\tNowhere\n" for i in range(2000))
        (tmp_path / "gazetteer.tsv").write_text("".join(rows), encoding="utf-8")
        source = OK_VITA.replace("place = home", "place = p0007").replace(
            "place = away", "place = p1999"
        )
        # P1000 is asked for by its folded key, p1000.
        path = tmp_path / "three.vita"
        path.write_text(
            source + "\n[event]\nid = last\nkind = visit\nstart = 1965\nplace = P1000\n",
            encoding="utf-8",
        )
        built = []

        def counting_point(*args):
            built.append(args)
            return GeoPoint(*args)

        monkeypatch.setattr(gazetteer, "GeoPoint", counting_point)
        assert main(["stats", str(path)]) == 0
        assert "distinct_place_count: 3" in capsys.readouterr().out
        assert len(built) <= 3


class TestOutputs:
    def test_compile_matches_golden(self, newton_path, tmp_path, capsys):
        out = tmp_path / "newton.kml"
        assert main(["compile", str(newton_path), "-o", str(out)]) == 0
        golden = newton_path.parent / "golden" / "newton.kml"
        assert out.read_bytes() == golden.read_bytes()

    def test_compile_geojson_matches_golden(self, schiaparelli_path, tmp_path):
        out = tmp_path / "s.geojson"
        code = main(["compile", str(schiaparelli_path), "--format", "geojson", "-o", str(out)])
        assert code == 0
        golden = schiaparelli_path.parent / "golden" / "schiaparelli.geojson"
        assert out.read_bytes() == golden.read_bytes()
        # --buckets styles the KML only.
        argv = ["compile", str(schiaparelli_path), "--format", "geojson", "--buckets", "1"]
        assert main([*argv, "-o", str(out)]) == 0
        assert out.read_bytes() == golden.read_bytes()

    def test_compile_geojson_escapes_match_fixture(self, tmp_path, capsys):
        # Quotes, backslashes, tabs, C0 controls, U+2028 and emoji in free text.
        out = tmp_path / "escapes.geojson"
        source = str(FIXTURES / "escapes.vita")
        assert main(["compile", source, "--format", "geojson", "-o", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / "escapes.geojson").read_bytes()

    def test_itinerary_csv_escapes_match_fixture(self, tmp_path, capsys):
        # Labels with quotes, commas, tabs and C0 controls.
        out = tmp_path / "escapes.csv"
        source = str(FIXTURES / "escapes.vita")
        assert main(["itinerary", source, "--format", "csv", "-o", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / "escapes.csv").read_bytes()

    @pytest.mark.parametrize("command", ["itinerary", "distances"])
    def test_csv_with_a_nul_byte_label(self, tmp_path, capsysbinary, command):
        # A NUL needs no quoting; the csv module's writer refused it before 3.11.
        path = tmp_path / "nul.vita"
        path.write_text(
            "[biography]\ntitle = Nul\nid = nul\n\n"
            '[event]\nid = a\nkind = visit\nstart = 1900\nplace = Zero\x00Point, "x"\n'
            "lat = 1\nlon = 2\nlabel = nul\x00byte\n\n"
            "[event]\nid = b\nkind = visit\nstart = 1901\nlat = 3\nlon = 4\n",
            encoding="utf-8",
        )
        assert main([command, str(path), "--format", "csv"]) == 0
        assert capsysbinary.readouterr().out == (
            b"index,start,end,place,label,lat,lon,leg_km,cum_km\n"
            b'0,1900-01-01,1900-12-31,"zero\x00point,-""x""",nul\x00byte,1.000000,2.000000,0.000,0.000\n'
            b"1,1901-01-01,1901-12-31,,b,3.000000,4.000000,314.403,314.403\n"
        )

    def test_zero_buckets_is_usage_error(self, newton_path, capsys):
        assert main(["compile", str(newton_path), "--buckets", "0"]) == 2
        assert "argument --buckets: must be at least 1" in capsys.readouterr().err
        # Worded as type=int words it, not after the function that checks it.
        assert main(["compile", str(newton_path), "--buckets", "abc"]) == 2
        err = capsys.readouterr().err
        assert "argument --buckets: invalid int value: 'abc'" in err
        assert "_positive_int" not in err

    def test_one_bucket_styles_every_placemark_alike(self, newton_path, capsys):
        assert main(["compile", str(newton_path), "--buckets", "1"]) == 0
        kml = capsys.readouterr().out
        assert kml.count("<Style ") == 1
        assert kml.count("<styleUrl>#era-0</styleUrl>") == kml.count("<Placemark") == 8

    def test_no_temp_files_left_behind(self, workspace, tmp_path):
        out_dir = tmp_path / "outs"
        out_dir.mkdir()
        assert main(["compile", vita(workspace, "ok"), "-o", str(out_dir / "a.kml")]) == 0
        assert main(["compile", vita(workspace, "unknown"), "-o", str(out_dir / "b.kml")]) == 1
        assert sorted(p.name for p in out_dir.iterdir()) == ["a.kml"]

    def test_taken_temporary_name_is_left_as_it_was(self, workspace, newton_path):
        # Another run's temporary file, or a killed run's: the next name is used.
        taken = workspace / ".vitamap.0.tmp"
        taken.write_text("another run's", encoding="utf-8")
        out = workspace / "out.kml"
        assert main(["compile", str(newton_path), "-o", str(out)]) == 0
        golden = newton_path.parent / "golden" / "newton.kml"
        assert out.read_bytes() == golden.read_bytes()
        assert taken.read_text(encoding="utf-8") == "another run's"
        assert not (workspace / ".vitamap.1.tmp").exists()

    @pytest.mark.parametrize("name", ["a" * 250 + ".txt", "€" * 85], ids=["ascii", "euro"])
    def test_longest_file_name_is_written(self, newton_path, tmp_path, name):
        # 255 bytes, the most a name may have on most file systems, as
        # open(path, "w") takes it: the temporary name is no longer.
        assert len(name.encode("utf-8")) in (254, 255)
        out = tmp_path / name
        assert main(["stats", str(newton_path), "-o", str(out)]) == 0
        golden = newton_path.parent / "golden" / "newton.stats.txt"
        assert out.read_bytes() == golden.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_itinerary_csv_has_nine_columns(self, workspace, capsys):
        assert main(["itinerary", vita(workspace, "ok"), "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == [
            "index", "start", "end", "place", "label", "lat", "lon", "leg_km", "cum_km",
        ]
        assert len(rows) == 3

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_distances_without_matrix_is_the_itinerary(self, schiaparelli_path, capsys, fmt):
        assert main(["itinerary", str(schiaparelli_path), "--format", fmt]) == 0
        itinerary = capsys.readouterr().out
        assert main(["distances", str(schiaparelli_path), "--format", fmt]) == 0
        assert capsys.readouterr().out == itinerary

    @pytest.mark.parametrize(
        "options", [[], ["--format", "text"], ["--format", "csv"]], ids=["none", "text", "csv"]
    )
    def test_distances_matrix(self, workspace, capsysbinary, options):
        # The matrix is CSV whatever --format says.
        assert main(["distances", vita(workspace, "ok"), "--matrix", *options]) == 0
        matrix = capsysbinary.readouterr().out
        rows = list(csv.reader(io.StringIO(matrix.decode("utf-8"))))
        assert rows[0] == ["place", "home", "away"]
        assert rows[1][1] == "0.000" and rows[2][2] == "0.000"
        assert rows[1][2] == rows[2][1] != "0.000"
        assert main(["distances", vita(workspace, "ok"), "--matrix"]) == 0
        assert capsysbinary.readouterr().out == matrix

    def test_stats_lines(self, workspace, capsys):
        assert main(["stats", vita(workspace, "ok")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "event_count: 2"
        assert out[1] == "distinct_place_count: 2"
        assert out[2] == "span: 1900..1960"
        assert out[3].startswith("total_km: ")
        assert out[4].startswith("box: lat ")

    def test_geocode_prints_tsv_row(self, geocoder_stub, capsys):
        assert main(["geocode", "Assiut", "--endpoint", f"{geocoder_stub}/ok"]) == 0
        assert capsys.readouterr().out == "assiut\tAssiut\t27.180000\t31.180000\t\n"

    def test_deterministic_across_runs(self, workspace, capsys):
        assert main(["compile", vita(workspace, "ok")]) == 0
        first = capsys.readouterr().out
        assert main(["compile", vita(workspace, "ok")]) == 0
        assert capsys.readouterr().out == first


def _cli(*args: str) -> list[str]:
    """A command line that runs vitamap: ``VITAMAP_CLI`` (split as a shell
    splits it) when set, say to an installed ``vitamap`` script, else this
    Python's ``-m vitamap``."""
    prefix = os.environ.get("VITAMAP_CLI")
    return [*(shlex.split(prefix) if prefix else [sys.executable, "-m", "vitamap"]), *args]


def _env(**extra: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), **extra)
    env.pop("VITA_GAZETTEER", None)
    return env


def long_vita(workspace: Path) -> str:
    """A biography whose KML, about 330 KB, overfills a pipe's buffer."""
    path = workspace / "long.vita"
    path.write_text(
        OK_VITA
        + "".join(
            f"\n[event]\nid = e{i}\nkind = visit\nstart = {1961 + i}\nplace = home\n"
            for i in range(1000)
        ),
        encoding="utf-8",
    )
    return str(path)


class TestStdoutBytes:
    """Stdout carries what -o writes, UTF-8 whatever the locale; a failed
    write to it is an I/O error, reported like one to a file."""

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1", "utf-16"])
    def test_stdout_equals_the_output_file(self, workspace, encoding):
        path = workspace / "accents.vita"
        path.write_text(
            OK_VITA.replace("Tiny Life", "Vie d'Ångström").replace(
                "place = home", "place = home\nlabel = Café 東京"
            ),
            encoding="utf-8",
        )
        out = workspace / "out"
        for command in (
            ["compile"],
            ["compile", "--format", "geojson"],
            ["itinerary", "--format", "csv"],
            ["distances", "--matrix"],
        ):
            written = subprocess.run(_cli(*command, str(path), "-o", str(out)), env=_env(), cwd=workspace)
            assert written.returncode == 0
            done = subprocess.run(
                _cli(*command, str(path)),
                env=_env(PYTHONIOENCODING=encoding),
                cwd=workspace,
                capture_output=True,
            )
            assert (done.returncode, done.stderr) == (0, b"")
            assert done.stdout == out.read_bytes()
            if command[0] != "distances":  # the matrix is labelled by place keys alone
                assert "Café 東京".encode() in done.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("command", ["stats", "compile"])
    def test_full_device_is_an_io_error(self, workspace, command):
        # The stats text waits in the stream's buffer; the KML overfills it.
        with open("/dev/full", "wb") as full:
            done = subprocess.run(
                _cli(command, long_vita(workspace)),
                env=_env(),
                cwd=workspace,
                stdout=full,
                stderr=subprocess.PIPE,
            )
        assert done.returncode == 2
        message = f"cannot write output '<stdout>': {os.strerror(errno.ENOSPC)}\n"
        assert done.stderr == message.encode()

    @pytest.mark.parametrize("encoding", ["ascii", "utf-16"])
    def test_geocode_row_is_utf8(self, geocoder_stub, tmp_path, encoding):
        done = subprocess.run(
            _cli("geocode", "Café", "--endpoint", f"{geocoder_stub}/named"),
            env=_env(PYTHONIOENCODING=encoding),
            cwd=tmp_path,
            capture_output=True,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == "x\tCafé\t1.500000\t2.500000\t\n".encode()

    @pytest.mark.parametrize("command", ["stats", "compile", "geocode"])
    def test_closed_stdout_is_an_io_error(self, workspace, geocoder_stub, command):
        # With fd 1 closed when Python starts, sys.stdout is None.
        if command == "geocode":
            args = ["Assiut", "--endpoint", f"{geocoder_stub}/ok"]
        else:
            args = [vita(workspace, "ok")]
        done = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", *_cli(command, *args)],
            env=_env(),
            cwd=workspace,
            stderr=subprocess.PIPE,
        )
        message = f"cannot write output '<stdout>': {os.strerror(errno.EBADF)}\n"
        assert (done.returncode, done.stderr) == (2, message.encode())

    def test_none_stdout_is_an_io_error(self, workspace, monkeypatch, capsys):
        # What Python sets sys.stdout to when fd 1 is closed at start-up.
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["stats", vita(workspace, "ok")]) == 2
        message = f"cannot write output '<stdout>': {os.strerror(errno.EBADF)}\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "stream", [lambda: io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO],
        ids=["binary", "text"],
    )
    def test_closed_stdout_in_process_is_an_io_error(self, workspace, capsys, stream):
        stdout = stream()
        stdout.close()
        with redirect_stdout(stdout):
            assert main(["stats", vita(workspace, "ok")]) == 2
        message = f"cannot write output '<stdout>': {os.strerror(errno.EBADF)}\n"
        assert capsys.readouterr() == ("", message)

    def test_text_stdout_equals_the_output_file(self, workspace):
        # A stdout without a buffer, as io.StringIO, is written as text.
        path = workspace / "accents.vita"
        path.write_text(OK_VITA.replace("place = home", "place = home\nlabel = Café 東京"), encoding="utf-8")
        out = workspace / "out"
        for command in (["compile"], ["itinerary", "--format", "csv"], ["distances", "--matrix"]):
            assert main([*command, str(path), "-o", str(out)]) == 0
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                assert main([*command, str(path)]) == 0
            assert stdout.getvalue().encode("utf-8") == out.read_bytes()

    def test_closed_pipe_is_an_io_error(self, workspace):
        with subprocess.Popen(
            _cli("compile", long_vita(workspace)),
            env=_env(),
            cwd=workspace,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            # The reader is gone before the KML, larger than any pipe buffer, is written.
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 2
        assert err == f"cannot write output '<stdout>': {os.strerror(errno.EPIPE)}\n".encode()


class TestOutputMode:
    """An -o file gets the mode that open(path, "w") would give it."""

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_new_output_gets_0666_less_the_umask(self, workspace, umask, mode):
        out = workspace / "new.kml"
        done = subprocess.run(
            _cli("compile", vita(workspace, "ok"), "-o", str(out)),
            env=_env(),
            cwd=workspace,
            umask=umask,
        )
        assert done.returncode == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode

    @pytest.mark.parametrize("mode", [0o640, 0o666], ids=["0640", "0666"])
    def test_existing_output_keeps_its_mode(self, workspace, mode):
        out = workspace / "old.kml"
        out.write_text("stale", encoding="utf-8")
        out.chmod(mode)
        done = subprocess.run(
            _cli("compile", vita(workspace, "ok"), "-o", str(out)),
            env=_env(),
            cwd=workspace,
            umask=0o022,
        )
        assert done.returncode == 0
        assert out.read_text(encoding="utf-8").startswith("<?xml")
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert sorted(p.name for p in workspace.glob(".*.tmp")) == []


class TestOutputTarget:
    """An -o path is written where open(path, "w") would write it."""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_is_written_in_place(self, newton_path, tmp_path):
        out = tmp_path / "pipe.kml"
        os.mkfifo(out)
        # A reader opened before the run, without blocking: the run's open
        # finds it waiting, and a read never waits for a writer.
        fd = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["compile", str(newton_path), "-o", str(out)]) == 0
            received = b"".join(iter(partial(os.read, fd, 1 << 16), b""))
        finally:
            os.close(fd)
        assert received == (newton_path.parent / "golden" / "newton.kml").read_bytes()
        assert stat.S_ISFIFO(out.lstat().st_mode)

    @pytest.mark.parametrize("existing", [True, False], ids=["file", "dangling"])
    def test_symlink_is_kept_and_its_file_written(self, newton_path, tmp_path, existing):
        real = tmp_path / "real.kml"
        if existing:
            real.write_text("stale", encoding="utf-8")
            real.chmod(0o640)
        link = tmp_path / "link.kml"
        link.symlink_to(real.name)
        assert main(["compile", str(newton_path), "-o", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_bytes() == (newton_path.parent / "golden" / "newton.kml").read_bytes()
        if existing:
            assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.glob(".*.tmp")) == []

    @pytest.mark.parametrize("output", ["nd/", ""], ids=["slash", "empty"])
    def test_trailing_slash_is_not_dropped(
        self, newton_path, tmp_path, monkeypatch, capsys, output
    ):
        # As open(path, "w") takes it: "nd/" names a folder, never a file nd.
        monkeypatch.chdir(tmp_path)
        assert main(["stats", str(newton_path), "-o", output]) == 2
        message = f"cannot write output '{output}': {os.strerror(errno.ENOENT)}\n"
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == []

    def test_empty_path_fails_before_a_record_is_drawn(
        self, newton_path, tmp_path, monkeypatch, capsys
    ):
        # No document is formatted, and no temporary file made, for a name
        # that can never be written.
        drawn, opened = [], []
        kml_records, os_open = cli.kml_records, os.open

        def counted(*args):
            for record in kml_records(*args):
                drawn.append(record)
                yield record

        def spied_open(path, *args):
            opened.append(path)
            return os_open(path, *args)

        monkeypatch.setattr(cli, "kml_records", counted)
        monkeypatch.setattr(cli.os, "open", spied_open)
        monkeypatch.chdir(tmp_path)
        assert main(["compile", str(newton_path), "-o", ""]) == 2
        message = f"cannot write output '': {os.strerror(errno.ENOENT)}\n"
        assert capsys.readouterr().err == message
        assert drawn == [] and opened == []
        assert list(tmp_path.iterdir()) == []

    def test_symlink_loop_is_an_io_error(self, newton_path, tmp_path, capsys):
        link = tmp_path / "loop.kml"
        link.symlink_to(link.name)
        assert main(["compile", str(newton_path), "-o", str(link)]) == 2
        message = f"cannot write output '{link}': {os.strerror(errno.ELOOP)}\n"
        assert capsys.readouterr().err == message
        assert link.is_symlink()


class TestWriteMemory:
    """The payload is encoded a bounded slice at a time, never whole."""

    TEXT = "Café à l'Hôtel\n" * (2**20 // 15)  # 1 MiB of Latin-1 text

    def test_file(self, tmp_path):
        out = tmp_path / "out.txt"
        cli._write_output("warm", str(out))  # the traced write replaces a file
        _, peak = traced_peak(lambda: cli._write_output(self.TEXT, str(out)))
        encoded = self.TEXT.encode("utf-8")
        assert out.read_bytes() == encoded
        assert peak < 0.3 * len(encoded)

    def test_binary_stdout(self, tmp_path, monkeypatch):
        out = tmp_path / "stdout.txt"
        with open(out, "w", encoding="utf-8") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            _, peak = traced_peak(lambda: cli._write_output(self.TEXT, None))
        encoded = self.TEXT.encode("utf-8")
        assert out.read_bytes() == encoded
        assert peak < 0.3 * len(encoded)


def test_module_entry_point(newton_path, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "vitamap", "stats", str(newton_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    golden = newton_path.parent / "golden" / "newton.stats.txt"
    assert (result.returncode, result.stdout, result.stderr) == (0, golden.read_text("utf-8"), "")


# Each row: a golden's file name, then the command that writes it from the
# corpus named by the file name's first part.
CONSOLE_GOLDENS = [
    ("newton.kml", "compile"),
    ("newton.geojson", "compile --format geojson"),
    ("schiaparelli.kml", "compile"),
    ("schiaparelli.geojson", "compile --format geojson"),
    ("newton.csv", "itinerary --format csv"),
    ("newton.txt", "itinerary"),
    ("newton.txt", "distances"),
    ("newton.csv", "distances --format csv"),
    ("newton.stats.txt", "stats"),
    ("schiaparelli.csv", "itinerary --format csv"),
    ("schiaparelli.txt", "itinerary"),
    ("schiaparelli.stats.txt", "stats"),
    ("schiaparelli.matrix.csv", "distances --matrix"),
    ("newton.matrix.csv", "distances --matrix"),
]
# An input is read a few KiB at a time, from a pipe too: newton.vita with a
# BOM and CRLF line ends, or with lone CRs, piped to /dev/stdin gives newton.kml.
CONSOLE_PIPES = {
    "bom-crlf": lambda data: b"\xef\xbb\xbf" + data.replace(b"\n", b"\r\n"),
    "lone-cr": lambda data: data.replace(b"\n", b"\r"),
}


@pytest.mark.parametrize(
    "golden,command,pipe",
    [
        pytest.param(golden, command, None, id="-".join([golden, *command.replace("--", "").split()]))
        for golden, command in CONSOLE_GOLDENS
    ]
    + [pytest.param("newton.kml", "compile", pipe, id=pipe) for pipe in CONSOLE_PIPES],
)
def test_console_run_reproduces_the_golden(newton_path, tmp_path, golden, command, pipe):
    corpora = newton_path.parent
    if pipe is None:
        source = corpora / f"{golden.split('.')[0]}.vita"
        out = tmp_path / golden
        done = subprocess.run(
            _cli(*command.split(), str(source), "-o", str(out)),
            env=_env(), cwd=tmp_path, capture_output=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        written = out.read_bytes()
    else:
        done = subprocess.run(
            _cli(command, "/dev/stdin", "--gazetteer", str(corpora / "gazetteer.tsv")),
            input=CONSOLE_PIPES[pipe](newton_path.read_bytes()),
            env=_env(), cwd=tmp_path, capture_output=True,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        written = done.stdout
    assert written == (corpora / "golden" / golden).read_bytes()


def test_cli_import_skips_urllib_request(tmp_path):
    # Only geocode needs urllib.request; every other command starts without it.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, vitamap.cli; print('urllib.request' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert result.returncode == 0
    assert result.stdout == "False\n"


def test_cli_import_skips_calendar_and_locale(tmp_path):
    # -S keeps site-wide preloads out, so sys.modules holds only what
    # importing vitamap.cli pulls in. tempfile (with shutil, random, bz2
    # and lzma) is not needed, nor pathlib (with fnmatch, ipaddress,
    # ntpath and urllib.parse); json is for GeoJSON only, and no CSV is
    # written through csv. A run asks no terminal size of shutil. Later
    # 3.13 releases import typing from inspect, which dataclasses imports;
    # so only what vitamap adds after dataclasses counts. A plain run
    # builds no parser: argparse, with gettext, is not imported either.
    corpus = REPO / "src" / "vitamap" / "corpora" / "newton.vita"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dataclasses; "
        "before = set(sys.modules); import vitamap.cli; "
        "print(sorted({'calendar', 'locale', 'tempfile', 'shutil', 'random', 'bz2', 'lzma',"
        " 'typing', 'csv', 'json', 'fnmatch', 'ipaddress', 'ntpath', 'pathlib', 'urllib',"
        " 'urllib.parse', 'argparse', 'gettext'} & (set(sys.modules) - before))); "
        "code = vitamap.cli.main(['distances', sys.argv[2], '--matrix', '-o', 'matrix.csv']); "
        "code += vitamap.cli.main(['itinerary', sys.argv[2], '--format', 'csv', '-o', 'i.csv']); "
        "print(code, sorted({'csv', 'json', 'shutil', 'pathlib', 'argparse', 'gettext'}"
        " & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(REPO / "src"), str(corpus)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n0 []\n"


def _parse(parse: Callable[[list[str]], argparse.Namespace], argv: list[str]) -> tuple:
    """stdout, stderr, exit code (None if parsed) and namespace of one parse."""
    out, err = io.StringIO(), io.StringIO()
    code = names = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            names = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, names


def _every_option(parser: argparse.ArgumentParser) -> set[str]:
    options: set[str] = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action.choices, dict):  # the subcommands' parsers
            for subparser in action.choices.values():
                options |= _every_option(subparser)
    return options


# Besides every option: words that the top-level parser matches against its
# own -h and --version, after the subcommand's name too (--=x matches both).
_ARGV_WORDS = sorted(
    {
        *COMMANDS,
        *_every_option(build_parser()),
        *("--", "--=x", "--v", "-h", "--h", "--he", "-hx", "-o-h"),
    }
)


# Each subcommand's parser, by name.
_SUBPARSERS = next(a.choices for a in build_parser()._actions if isinstance(a.choices, dict))

# Values drawn for an option besides its good ones: a bad choice, numbers
# that --buckets refuses or takes, and words that are empty, hold "=" or
# start with "-".
_OPTION_VALUES = ["svg", "kml", "text", "0", "3", " 7", "-x", "-", "", "x=y"]


@st.composite
def _plain_shaped_argvs(draw) -> list[str]:
    """A subcommand, then a shuffle of 0-2 positionals and some of its own
    option strings, each with a value where it takes one; now and then an
    abbreviation or -h too."""
    name = draw(st.sampled_from(list(COMMANDS)))
    # Weighted so that about half the draws are plain runs.
    count = draw(st.sampled_from([1, 1, 1, 1, 1, 1, 0, 2]))
    words = [[draw(st.sampled_from(["x", "in.vita", "stats"]))] for _ in range(count)]
    for action in _SUBPARSERS[name]._actions:
        if action.dest == "help" or not action.option_strings or not draw(st.booleans()):
            continue
        option = [draw(st.sampled_from(action.option_strings))]
        if action.nargs != 0:  # not a store_true flag
            good = action.choices or (["3", " 7"] if action.type else ["g.tsv", "", "x=y"])
            option.append(draw(st.sampled_from([*good * 3, *_OPTION_VALUES])))
        words.append(option)
    odd = draw(st.sampled_from([None] * 12 + ["-h", "--help", "--gaz", "--str", "--form", "--out"]))
    if odd:
        words.append([odd])
    return [name, *(word for option in draw(st.permutations(words)) for word in option)]


class TestSelectiveParser:
    """A plain run is parsed without argparse; every run parses, prints and
    exits exactly as the parser of all six makes it."""

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize(
        "argv",
        [
            *([name, "-h"] for name in COMMANDS),
            *([name, "x", "-h"] for name in COMMANDS),
            ["stats", "x", "--h"],
            ["compile", "x", "-o", "-h"],
            ["stats", "--", "-h"],
            ["--version"],
            [],
            ["bogus"],
            ["comp"],
            ["--", "stats", "x"],
            ["stats", "--", "-x"],
            ["stats", "x", "extra"],
            ["validate", "x", "-o", "y"],
            ["compile", "x", "--buckets", "0"],
            ["compile", "x", "--format", "svg"],
            ["stats", "x", "--gaz", "g"],
            ["stats", "x", "--=x"],
        ],
        ids=lambda argv: " ".join(argv) or "no-args",
    )
    def test_same_result_as_the_full_parser(self, argv, columns, monkeypatch):
        monkeypatch.setenv("COLUMNS", columns)
        assert _parse(cli._parse_args, argv) == _parse(build_parser().parse_args, argv)

    @settings(max_examples=300, deadline=None)
    @given(
        argv=st.lists(st.one_of(st.sampled_from(_ARGV_WORDS), st.text(max_size=4)), max_size=6),
        columns=st.sampled_from(["40", "80", "200"]),
    )
    def test_any_argv_same_result_as_the_full_parser(self, argv, columns):
        with mock.patch.dict(os.environ, {"COLUMNS": columns}):
            assert _parse(cli._parse_args, argv) == _parse(build_parser().parse_args, argv)

    def test_plain_shaped_argv_same_result_as_the_full_parser(self, monkeypatch):
        drawn, handed_over = [], []

        def spied() -> argparse.ArgumentParser:
            handed_over.append(True)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", spied)

        @settings(max_examples=300, deadline=None)
        @given(argv=_plain_shaped_argvs())
        def check(argv):
            drawn.append(argv)
            assert _parse(cli._parse_args, argv) == _parse(build_parser().parse_args, argv)

        check()
        # A plain path that handed every run over would pass the check above.
        assert 3 * (len(drawn) - len(handed_over)) >= len(drawn)

    def test_a_plain_run_builds_no_parser(self, newton_path, monkeypatch, capsys):
        monkeypatch.delenv("VITA_GAZETTEER", raising=False)
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        def sized(*args, **kwargs):
            raise AssertionError("the terminal's size was asked for")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        with monkeypatch.context() as patched:
            patched.setattr(shutil, "get_terminal_size", sized)
            assert main(["stats", str(newton_path), "--strict"]) == 0
        assert built == []
        capsys.readouterr()
        # -h is not a plain run: the parser of all six, built alone, prints the help.
        assert main(["stats", "-h"]) == 0
        assert built == ["vitamap", *(f"vitamap {name}" for name in COMMANDS)]
        assert capsys.readouterr().out.startswith("usage: vitamap stats [-h] [--gazetteer")
        # Nor is a usage error: that parser reports it.
        built.clear()
        assert main(["stats", "x", "extra"]) == 2
        assert built == ["vitamap", *(f"vitamap {name}" for name in COMMANDS)]
        error = capsys.readouterr().err
        assert error.startswith("usage: vitamap [-h] [--version]")
        assert error.endswith("vitamap: error: unrecognized arguments: extra\n")
        assert main(["--help"]) == 0
        usage, listing = capsys.readouterr().out.split("positional arguments:")
        for name, help_text in COMMANDS.items():
            assert name in usage
            assert re.search(rf"^    {name} +{re.escape(help_text)}$", listing, re.M)

    @pytest.mark.parametrize(
        "option, parsed_by_argparse", [("--gazetteer", False), ("--gaz", True)]
    )
    def test_console_run_plain_or_abbreviated(
        self, option, parsed_by_argparse, newton_path, gazetteer_path, tmp_path
    ):
        # -X importtime lists on stderr each module the run imports.
        result = subprocess.run(
            _cli("stats", str(newton_path), option, str(gazetteer_path)),
            capture_output=True,
            env=_env(PYTHONPROFILEIMPORTTIME="1"),
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (newton_path.parent / "golden" / "newton.stats.txt").read_bytes()
        imported = re.findall(r"^import time: .*\| +(\S+)$", result.stderr.decode(), re.M)
        assert "vitamap.cli" in imported
        assert ("argparse" in imported) is parsed_by_argparse

    def test_missing_subcommand_error_is_unchanged(self, capsys):
        # The differential cannot see a change both builds share.
        assert main([]) == 2
        assert capsys.readouterr().err.endswith(
            "vitamap: error: the following arguments are required: command\n"
        )

    def test_console_run_usage_error_names_every_subcommand(self, newton_path, tmp_path):
        # Without argv, main reads sys.argv; the error's usage is --help's.
        def run(*argv: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                _cli(*argv), capture_output=True, text=True, env=_env(COLUMNS="80"), cwd=tmp_path
            )

        error = run("stats", str(newton_path), "extra")
        assert error.returncode == 2
        usage, message = error.stderr.split("vitamap: error: ")
        assert message == "unrecognized arguments: extra\n"
        assert usage == run("--help").stdout.split("\n\n")[0] + "\n"


# Lines of the .vita grammar. A generated file is a well-formed skeleton
# (a header, then events with id, start and place lines) with a
# few lines inserted anywhere: grammar lines, valid or broken, free
# text, or raw bytes. So many files get through the parser to
# validation, resolution and formatting.
_STARTS = ["start = 1900", "start = c.1905-06", "start = 1910-03-04", "start = 1890"]
_PLACES = [
    "place = home", "place = Away", "lat = 10.5\nlon = -170", "lat = -3\nlon = 170",
    "place = atlantis",
]
_VITA_LINES = [
    "[biography]", "[event]", "[places]", "title = Tiny", "id = tiny", "gazetteer = other.tsv",
    "id = B", "start = 1890-02-29", "start = 19x0", "place = ---", "lat = 95", "lon = nan",
    "kind = residence", "kind = visit", "kind = born", "end = 1930", "end = 1899",
    "label = Home", 'label = "Rome", the city', "note = a < b & c", "attach = scans/x.jpg",
    "attach = /abs", "colour = red", "no equals sign", "= value", "# comment", "",
    "[event]\nid = e0\nstart = 1950\nplace = home",
]
_inserted_lines = st.one_of(
    st.sampled_from(_VITA_LINES).map(str.encode),
    st.text(max_size=16).map(str.encode),
    st.binary(max_size=16),
)


@st.composite
def _vita_files(draw) -> bytes:
    lines = [b"[biography]", b"title = Tiny", b"id = tiny"]
    for i in range(draw(st.integers(0, 4))):
        lines.append(f"[event]\nid = e{i}".encode())
        lines += [draw(st.sampled_from(pool)).encode() for pool in (_STARTS, _PLACES)]
    for at, line in draw(st.lists(st.tuples(st.integers(0, 20), _inserted_lines), max_size=3)):
        lines.insert(at, line)
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return b"".join(line.replace(b"\n", newline) + newline for line in lines)


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("any-input")
    (directory / "gazetteer.tsv").write_text(GAZ, encoding="utf-8")
    return directory


def check_rfc7946(text: str) -> None:
    """The structure RFC 7946 asks of a FeatureCollection of Points."""
    collection = json.loads(text)
    assert collection.keys() == {"type", "features"}  # no "crs" member (section 4)
    assert collection["type"] == "FeatureCollection"  # section 3.3
    assert type(collection["features"]) is list and collection["features"]
    for feature in collection["features"]:  # section 3.2
        assert feature.keys() == {"type", "geometry", "properties"}
        assert feature["type"] == "Feature" and type(feature["properties"]) is dict
        assert feature["geometry"].keys() == {"type", "coordinates"}
        assert feature["geometry"]["type"] == "Point"
        # A position is [longitude, latitude] (section 3.1.1), in range.
        lon, lat = feature["geometry"]["coordinates"]
        assert type(lon) is float and -180.0 <= lon <= 180.0
        assert type(lat) is float and -90.0 <= lat <= 90.0


def check_kml_placemarks(text: str) -> None:
    """Each Placemark has one Point and a TimeSpan whose begin is not after its end."""
    ns = {"k": emit.KML_NAMESPACE}
    placemarks = ET.fromstring(text.encode("utf-8")).findall(".//k:Placemark", ns)
    assert placemarks
    for placemark in placemarks:
        assert len(placemark.findall("k:Point", ns)) == 1
        begin = placemark.findtext("k:TimeSpan/k:begin", None, ns)
        end = placemark.findtext("k:TimeSpan/k:end", None, ns)
        assert date.fromisoformat(begin) <= date.fromisoformat(end)


def check_csv_rows(text: str, matrix: bool) -> None:
    """One field count per row: 9 for the itinerary, and a square,
    symmetric matrix whose row labels are its header's."""
    if sys.version_info < (3, 11) and "\x00" in text:
        return  # that reader refuses a NUL
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not matrix:
        assert {len(row) for row in rows} == {9}
        return
    assert {len(row) for row in rows} == {len(rows)}
    assert [row[0] for row in rows[1:]] == rows[0][1:]
    cells = [row[1:] for row in rows[1:]]
    assert cells == [list(column) for column in zip(*cells)]


# Every command that writes, in each of its formats.
_ANY_INPUT_COMMANDS = [
    ["validate"],
    ["compile"],
    ["compile", "--format", "geojson"],
    ["stats"],
    ["itinerary"],
    ["itinerary", "--format", "csv"],
    ["distances"],
    ["distances", "--format", "csv"],
    ["distances", "--matrix"],
]


class TestAnyInput:
    @settings(max_examples=150, deadline=None)
    @given(data=_vita_files())
    def test_exit_code_and_located_stderr_only(self, property_dir, data):
        path = property_dir / "any.vita"
        path.write_bytes(data)
        located = re.compile(rf"(error|warning) {re.escape(str(path))}:\d+ .+")
        gaz = ["--gazetteer", str(property_dir / "gazetteer.tsv")]
        for command in _ANY_INPUT_COMMANDS:
            # Stdout has a buffer, so the records go through it as UTF-8, as in a real run.
            err, out = io.StringIO(), io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            # A run outside the test harness prints any Python warning to
            # stderr, unlocated; here it is recorded instead.
            with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
                warnings.simplefilter("always")
                with redirect_stdout(out):
                    code = main([*command, str(path), *gaz])
            assert code in (0, 1, 2)
            text = out.buffer.getvalue().decode("utf-8")
            if code == 0 and command == ["compile"]:
                check_kml_placemarks(text)
            elif code == 0 and command[0] == "compile":
                check_rfc7946(text)
            elif code == 0 and command[-1] in ("csv", "--matrix"):
                check_csv_rows(text, command[-1] == "--matrix")
            assert [str(w.message) for w in caught] == []
            lines = err.getvalue().split("\n")
            assert lines.pop() == ""
            assert [line for line in lines if not located.fullmatch(line)] == []


class TestUndecodableLine:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["a", "\r", "\n", "\r\n"])).map("".join))
    def test_line_counts_every_line_end(self, property_dir, prefix):
        # The line of the first bad byte is split_lines's count of the text before it.
        path = property_dir / "bad.vita"
        path.write_bytes(prefix.encode("utf-8") + b"\xff")
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(["validate", str(path)]) == 2
        line = len(split_lines(prefix))
        assert err.getvalue() == f"error {path}:{line} input is not valid UTF-8 (invalid start byte)\n"


# VITA lines and gazetteer rows, good and broken, ASCII and not.
_STREAMED_LINE = st.sampled_from(
    [
        "[biography]", "title = Ünïcode life 𝔘", "id = t", "[event]", "id = e1", "id = e2",
        "start = 1904", "end = 1800", "place = giza", "place = Café Zoë", "lat = 1.5",
        "lon = 2.5", "label = ☕ # note", "note = naïve", "kind = job", "novalue", "",
        "giza\tGiza\t29.9\t31.1\tEgypt", "café-zoë\tCafé Zoë\t1\t2\tÉ",
        "luxor\tLuxor 𓂀\t25.7\t32.6\t", "giza\tGiza again\t1\t2\t", "# ¿comment?",
    ]
)
_STREAMED_TEXT = st.lists(
    st.tuples(_STREAMED_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=30
).map(lambda lines: "".join(line + end for line, end in lines))


def _parse_outcome(source):
    try:
        b = parse_biography(source)
    except VitaParseError as exc:
        return exc.diagnostics
    return b, [e.line for e in b.events]


def _gazetteer_outcome(source, keys):
    try:
        return list(gazetteer.load_gazetteer(source, keys).items())
    except gazetteer.GazetteerParseError as exc:
        return exc.diagnostics


class TestStreamedReads:
    """A file read a few bytes at a time gives what its whole text gives."""

    @settings(max_examples=300, deadline=None)
    @given(
        _STREAMED_TEXT,
        st.booleans(),
        st.integers(1, 40),
        st.none() | st.sets(st.sampled_from(["giza", "luxor", "café-zoë"])),
    )
    def test_same_result_as_the_whole_text(self, property_dir, text, bom, size, keys):
        path = property_dir / "streamed.txt"
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
        with mock.patch.object(cli, "_READ", size):
            streamed = _parse_outcome(cli._read_lines(path, "input"))
            streamed_gazetteer = _gazetteer_outcome(cli._read_lines(path, "gazetteer"), keys)
        assert streamed == _parse_outcome(text)
        assert streamed_gazetteer == _gazetteer_outcome(text, keys)

    @settings(max_examples=100, deadline=None)
    @given(
        _STREAMED_TEXT,
        st.booleans(),
        st.sampled_from(
            [b"\xff", b"\xf0\x9f\n", b"\xed\xa0\x80", b"\xe4", b"\xc3(\xc3", b"\xef", b"\xef\xbb"]
        ),
        st.integers(1, 40),
    )
    def test_bad_byte_located_at_any_read_size(self, property_dir, prefix, bom, bad, size):
        # The line and the reason a decode of the whole file gives. A file
        # that is a cut BOM alone (b"\xef\xbb") is still not UTF-8.
        path = property_dir / "bad.vita"
        data = b"\xef\xbb\xbf" * bom + prefix.encode("utf-8") + bad
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as excinfo:
            data.decode("utf-8-sig")
        err = io.StringIO()
        with mock.patch.object(cli, "_READ", size), redirect_stderr(err):
            assert main(["validate", str(path)]) == 2
        line = len(split_lines(prefix))
        reason = excinfo.value.reason
        assert err.getvalue() == f"error {path}:{line} input is not valid UTF-8 ({reason})\n"

    def test_reads_a_read_at_a_time_as_lines_are_drawn(self, tmp_path, monkeypatch):
        path = tmp_path / "long.vita"
        path.write_text(long_timeline_text(300), encoding="utf-8")
        reads = []

        class Recorded:
            def __init__(self, file):
                self.file = file

            def read(self, size):
                reads.append(size)
                return self.file.read(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.file.close()

        def recorded_open(*args, **kwargs):
            return Recorded(open(*args, **kwargs))

        monkeypatch.setattr(cli, "open", recorded_open, raising=False)
        lines = cli._read_lines(path, "input")
        assert reads == []
        # Pieces follow the texts read: the first line comes after one read.
        assert next(lines) == "[biography]" and len(reads) == 1
        assert list(lines) == split_lines(path.read_text(encoding="utf-8"))[1:]
        assert len(reads) > 8 and set(reads) == {cli._READ}

    def test_read_that_fails_after_the_open_is_usage_error(self, workspace, monkeypatch, capsys):
        class Failing(io.RawIOBase):
            def read(self, size):
                raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Failing(), raising=False)
        path = vita(workspace, "ok")
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == f"cannot read input '{path}': Input/output error\n"


class TestReadPieces:
    def test_no_piece_is_held_while_the_next_read_runs(self, tmp_path, monkeypatch):
        # A piece is let go once its lines are drawn, so a run never holds
        # it and the next read's buffer at once.
        path = tmp_path / "long.vita"
        path.write_text(long_timeline_text(300), encoding="utf-8")
        pieces = []  # a weak reference to each piece split

        class Lines(list):  # a list subclass takes weak references
            pass

        def split(text):
            lines = Lines(split_lines(text))
            pieces.append(weakref.ref(lines))
            return lines

        class Checked(io.FileIO):
            def read(self, size):
                assert [ref() for ref in pieces] == [None] * len(pieces)
                return super().read(size)

        monkeypatch.setattr(model, "split_lines", split)
        monkeypatch.setattr(cli, "open", lambda path, *args, **kwargs: Checked(path), raising=False)
        drawn = sum(1 for _ in cli._read_lines(path, "input"))
        assert drawn == len(split_lines(path.read_text(encoding="utf-8")))
        assert len(pieces) > 8

    def test_bad_byte_is_a_failure_that_prints_nothing(self, tmp_path, capsys):
        path = tmp_path / "bad.vita"
        path.write_bytes(b"[biography]\ntitle = T\nid = \xff\n")
        with pytest.raises(cli._CliFailure) as raised:
            list(cli._read_lines(str(path), "input"))
        failure = raised.value
        assert (failure.code, failure.path, failure.message) == (2, str(path), "")
        finding = model.Diagnostic("error", None, "input is not valid UTF-8 (invalid start byte)", 3)
        assert list(failure.diagnostics) == [finding]
        assert capsys.readouterr() == ("", "")


class _Spy(io.BytesIO):
    """A binary stream that records the size of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return super().write(data)


class TestWriteUtf8:
    @given(st.lists(st.text(alphabet="aé€\n", max_size=40_000), max_size=8))
    def test_writes_the_records_utf8_a_bounded_piece_at_a_time(self, records):
        spy = _Spy()
        cli._write_utf8(records, spy)
        assert spy.getvalue() == "".join(records).encode("utf-8")
        assert all(size <= 4 * cli._SLICE for size in spy.sizes)

    def test_each_record_is_written_before_the_next_is_drawn(self):
        spy = _Spy()

        def records():
            for i in range(100):
                assert len(spy.sizes) == i
                yield f"<record {i}/>\n"

        cli._write_utf8(records(), spy)
        assert len(spy.sizes) == 100

    def test_a_long_record_goes_in_slices(self):
        spy = _Spy()
        cli._write_utf8(["x" * 40_000], spy)
        assert spy.sizes == [cli._SLICE, cli._SLICE, 40_000 - 2 * cli._SLICE]


STREAMED = [["compile"], ["compile", "--format", "geojson"], ["distances", "--matrix"]]


class TestStreamedWrites:
    """Documents are written as they are formatted, and every check still
    runs before the first byte is written."""

    @pytest.mark.parametrize("command", STREAMED, ids=["kml", "geojson", "matrix"])
    @pytest.mark.parametrize("name", ["unknown", "dup"])
    def test_failing_run_writes_nothing(self, workspace, tmp_path, capsys, command, name):
        assert main([command[0], vita(workspace, name), *command[1:]]) == 1
        assert capsys.readouterr().out == ""
        out_dir = tmp_path / "outs"
        out_dir.mkdir()
        target = out_dir / "doc.out"
        assert main([command[0], vita(workspace, name), *command[1:], "-o", str(target)]) == 1
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command", STREAMED, ids=["kml", "geojson", "matrix"])
    def test_duplicate_id_pass_runs_once(self, workspace, monkeypatch, capsys, command):
        # The run validates once; the records it writes only format.
        calls = []

        def counted(biography):
            calls.append(biography)
            return checked_events(biography)

        checked_events = model._checked_events
        monkeypatch.setattr(model, "_checked_events", counted)
        assert main([command[0], vita(workspace, "ok"), *command[1:]]) == 0
        assert capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_exception_mid_stream_leaves_no_file(self, workspace, monkeypatch, existing):
        def failing(*args):
            yield "<?xml" + " " * 50_000  # a few slices reach the temporary file first
            raise RuntimeError("formatter failed")

        monkeypatch.setattr(cli, "kml_records", failing)
        out_dir = workspace / "outs"
        out_dir.mkdir()
        target = out_dir / "doc.kml"
        if existing:
            target.write_text("old", encoding="utf-8")
        with pytest.raises(RuntimeError, match="formatter failed"):
            main(["compile", vita(workspace, "ok"), "-o", str(target)])
        assert [p.name for p in out_dir.iterdir()] == (["doc.kml"] if existing else [])
        if existing:
            assert target.read_text(encoding="utf-8") == "old"

    def test_compile_peaks_at_the_parse(self, tmp_path):
        # A run holds the biography, the gazetteer's key index, one read of
        # each input file, one record and the write buffer: not the source
        # text, and not a copy of the document. The parse's peak here
        # counts the text it reads and is given, which a run never holds.
        path = tmp_path / "long.vita"
        path.write_text(long_timeline_text(3000), encoding="utf-8")
        gaz = tmp_path / "places.tsv"
        gaz.write_text(long_timeline_gazetteer(), encoding="utf-8")
        out = tmp_path / "long.kml"
        main(["compile", str(path), "--gazetteer", str(gaz), "-o", str(out)])  # warm
        _, parse_peak = traced_peak(lambda: parse_biography(path.read_text(encoding="utf-8")))
        _, run_peak = traced_peak(
            lambda: main(["compile", str(path), "--gazetteer", str(gaz), "-o", str(out)])
        )
        assert out.read_text(encoding="utf-8").count("<Placemark>") == 3000
        assert run_peak < 0.95 * parse_peak

    def test_stats_peaks_under_its_gazetteer_file(self, tmp_path, capsys):
        # Every row is checked, but only the rows used become entries, and
        # the file is read 4 KiB at a time: the key index sets the peak.
        gaz = tmp_path / "wide.tsv"
        gaz.write_text(
            "".join(
                f"place-{i:05d}\tPlace {i}\t{i % 170 - 85}.123456\t{i % 350 - 175}.654321\tR{i % 7}\n"
                for i in range(20_000)
            ),
            encoding="utf-8",
        )
        path = tmp_path / "two.vita"
        path.write_text(
            "[biography]\ntitle = Two\nid = two\n\n[event]\nid = a\nstart = 1900\n"
            "place = place-00001\n\n[event]\nid = b\nstart = 1901\nplace = place-19999\n",
            encoding="utf-8",
        )
        argv = ["stats", str(path), "--gazetteer", str(gaz)]
        assert main(argv) == 0  # warm
        capsys.readouterr()
        _, peak = traced_peak(lambda: main(argv))
        assert "distinct_place_count: 2" in capsys.readouterr().out
        assert peak < 2.5 * gaz.stat().st_size

    @pytest.mark.parametrize("corpus", ["newton", "schiaparelli"])
    def test_corpus_matrix_peaks_under_96_kib(self, tmp_path, corpus):
        # Labels are quoted without a csv.writer, whose row buffer alone
        # is 128 KiB.
        path = REPO / "src" / "vitamap" / "corpora" / f"{corpus}.vita"
        out = tmp_path / "matrix.csv"
        argv = ["distances", str(path), "--matrix", "-o", str(out)]
        assert main(argv) == 0  # warm
        _, peak = traced_peak(lambda: main(argv))
        golden = REPO / "src" / "vitamap" / "corpora" / "golden" / f"{corpus}.matrix.csv"
        assert out.read_bytes() == golden.read_bytes()
        assert peak < 96 * 1024
