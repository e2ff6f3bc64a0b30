"""Command line front end: parse, validate, resolve and order, emit.

Each run reads its input once and parses it once; the parser records
every event's ``[event]`` header line, which validation diagnostics
point at. Validation findings are reported, the gazetteer is loaded,
and one formatter from :mod:`vitamap.emit` or :mod:`vitamap.geo`
renders the result from the single order-and-resolve stage,
:func:`vitamap.geo.itinerary_stops`.

Exit codes follow one discipline across all subcommands: 0 success,
1 domain failure (validation or place resolution), 2 usage or I/O
error, an input or gazetteer that is not UTF-8 included. Diagnostics
go to stderr, one per line, as ``LEVEL file:line message``; stdout
carries only payload so output can be piped. Runs are deterministic:
no timestamps, no locale-dependent formatting, and no network access
unless geocode is given an explicit endpoint. File outputs are written
to a temporary file and renamed into place so a failure never leaves a
truncated document behind.

The gazetteer is found in precedence order: ``--gazetteer`` flag, then
the ``VITA_GAZETTEER`` environment variable, then the ``gazetteer``
hint inside the biography file (relative to that file), then
``./gazetteer.tsv``. Only the last, implicit fallback may be absent;
it then resolves to an empty gazetteer so fully inline-located files
still compile.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .emit import EmitConfig, distance_matrix, emit_geojson, emit_itinerarium, emit_kml
from .gazetteer import (
    GazetteerEntry,
    GazetteerParseError,
    GeocoderError,
    UnknownPlace,
    gazetteer_row,
    load_gazetteer,
    remote_resolve,
)
from .geo import build_itinerary, route_stats
from .model import Biography, validate_biography
from .vita import VitaParseError, parse_biography

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class _CliFailure(Exception):
    def __init__(self, code: int, message: str | None = None):
        self.code = code
        self.message = message
        super().__init__(message or f"exit {code}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vitamap",
        description="Compile biography timeline files into georeferenced outputs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def input_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to a .vita biography file")
        p.add_argument(
            "--gazetteer",
            help="gazetteer TSV path (overrides VITA_GAZETTEER and the file's own hint)",
        )
        p.add_argument("--strict", action="store_true", help="treat warnings as errors")
        return p

    p = input_command("validate", "check a biography and print diagnostics")
    p.set_defaults(func=cmd_validate)

    p = input_command("compile", "emit KML (default) or GeoJSON")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.add_argument("--format", choices=("kml", "geojson"), default="kml")
    p.add_argument(
        "--buckets",
        type=_positive_int,
        default=5,
        metavar="N",
        help="timeline color bucket count (default 5)",
    )
    p.set_defaults(func=cmd_compile)

    p = input_command("itinerary", "print the chronological route with distances")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_itinerary)

    p = input_command("distances", "sequential legs, or a pairwise place matrix")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument(
        "--matrix",
        action="store_true",
        help="emit a symmetric km matrix over distinct places (CSV)",
    )
    p.set_defaults(func=cmd_distances)

    p = input_command("stats", "print route summary figures")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("geocode", help="ask a remote geocoder for a gazetteer row")
    p.add_argument("name", help="place name to look up")
    p.add_argument("--endpoint", help="geocoder base URL (required; no implicit network)")
    p.set_defaults(func=cmd_geocode)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliFailure as failure:
        if failure.message:
            print(failure.message, file=sys.stderr)
        return failure.code


# ---------------------------------------------------------------------------
# Pipeline helpers


def _read_text(path: Path, what: str) -> str:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise _CliFailure(EXIT_USAGE, f"cannot read {what} '{path}': {exc.strerror or exc}")
    # Universal newlines, as in text-mode reading: CRLF and a lone CR end a line.
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise _CliFailure(
            EXIT_USAGE, f"error {path}:{line} {what} is not valid UTF-8 ({exc.reason})"
        )
    # Tolerate a leading BOM from Windows editors.
    return text.removeprefix("\ufeff")


def _parse_input(path: Path) -> Biography:
    try:
        return parse_biography(_read_text(path, "input"))
    except VitaParseError as exc:
        for d in exc.diagnostics:
            print(f"error {path}:{d.line} {d.message}", file=sys.stderr)
        raise _CliFailure(EXIT_DOMAIN)


def _report_validation(biography: Biography, path: Path, strict: bool) -> None:
    diagnostics = validate_biography(biography, base_dir=path.parent)
    if not diagnostics:
        return
    # A diagnostic points at the header of the first event with its id.
    header_line: dict[str, int | None] = {}
    for event in biography.events:
        header_line.setdefault(event.id, event.line)
    failed = False
    for d in diagnostics:
        print(f"{d.severity} {path}:{header_line[d.event_id]} {d.message}", file=sys.stderr)
        failed = failed or d.severity == "error" or (strict and d.severity == "warning")
    if failed:
        raise _CliFailure(EXIT_DOMAIN)


def _load_gazetteer_for(
    args: argparse.Namespace, biography: Biography, input_path: Path
) -> dict[str, GazetteerEntry]:
    explicit = args.gazetteer or os.environ.get("VITA_GAZETTEER")
    if explicit:
        gaz_path = Path(explicit)
    elif biography.gazetteer_hint is not None:
        gaz_path = input_path.parent / biography.gazetteer_hint
    else:
        gaz_path = Path("gazetteer.tsv")
        if not gaz_path.exists():
            return {}
    source = _read_text(gaz_path, "gazetteer")
    try:
        return load_gazetteer(source)
    except GazetteerParseError as exc:
        for d in exc.diagnostics:
            print(f"error {gaz_path}:{d.line} {d.message}", file=sys.stderr)
        raise _CliFailure(EXIT_DOMAIN)


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    target = Path(output)
    directory = target.parent if str(target.parent) else Path(".")
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{target.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp, target)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise _CliFailure(EXIT_USAGE, f"cannot write output '{output}': {exc.strerror or exc}")


def _prepare(args: argparse.Namespace) -> tuple[Biography, dict[str, GazetteerEntry], Path]:
    input_path = Path(args.input)
    biography = _parse_input(input_path)
    _report_validation(biography, input_path, args.strict)
    return biography, _load_gazetteer_for(args, biography, input_path), input_path


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    input_path = Path(args.input)
    biography = _parse_input(input_path)
    _report_validation(biography, input_path, args.strict)
    return EXIT_OK


def cmd_compile(args: argparse.Namespace) -> int:
    biography, gazetteer, input_path = _prepare(args)
    try:
        if args.format == "geojson":
            text = emit_geojson(biography, gazetteer)
        else:
            text = emit_kml(biography, gazetteer, EmitConfig(bucket_count=args.buckets))
    except UnknownPlace as exc:
        raise _CliFailure(EXIT_DOMAIN, f"error {input_path}: {exc}")
    _write_output(text, args.output)
    return EXIT_OK


def cmd_itinerary(args: argparse.Namespace) -> int:
    biography, gazetteer, input_path = _prepare(args)
    try:
        legs = build_itinerary(biography, gazetteer)
    except UnknownPlace as exc:
        raise _CliFailure(EXIT_DOMAIN, f"error {input_path}: {exc}")
    _write_output(emit_itinerarium(legs, biography, args.format), args.output)
    return EXIT_OK


def cmd_distances(args: argparse.Namespace) -> int:
    biography, gazetteer, input_path = _prepare(args)
    try:
        if args.matrix:
            text = distance_matrix(biography, gazetteer)
        else:
            legs = build_itinerary(biography, gazetteer)
            text = emit_itinerarium(legs, biography, args.format)
    except UnknownPlace as exc:
        raise _CliFailure(EXIT_DOMAIN, f"error {input_path}: {exc}")
    _write_output(text, args.output)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    biography, gazetteer, input_path = _prepare(args)
    try:
        legs = build_itinerary(biography, gazetteer)
    except UnknownPlace as exc:
        raise _CliFailure(EXIT_DOMAIN, f"error {input_path}: {exc}")
    stats = route_stats(legs, biography)
    box = stats.box
    lines = [
        f"event_count: {stats.event_count}",
        f"distinct_place_count: {stats.distinct_place_count}",
        f"span: {stats.first_start.year}..{stats.last_end.year}",
        f"total_km: {stats.total_km:.3f}",
        (
            f"box: lat {box.min_lat:.6f}..{box.max_lat:.6f}, "
            f"lon {box.min_lon:.6f}..{box.max_lon:.6f}"
        ),
    ]
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_geocode(args: argparse.Namespace) -> int:
    if not args.endpoint:
        raise _CliFailure(EXIT_USAGE, "geocode requires --endpoint; there is no default geocoder")
    try:
        entry = remote_resolve(args.name, args.endpoint)
    except GeocoderError as exc:
        raise _CliFailure(EXIT_DOMAIN, f"error: {exc}")
    print(gazetteer_row(entry))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
