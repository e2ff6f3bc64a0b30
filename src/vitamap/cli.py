"""Command line front end: parse, validate, resolve and order, emit.

One driver, :func:`_run`, runs every subcommand that reads a biography:
it parses the input, reports validation findings, loads the gazetteer,
calls the subcommand's formatter ``(args, biography, gazetteer) ->
records`` and writes the records as they are drawn; ``validate`` stops
after the parse-and-validate step. The input and the gazetteer are read
4 KiB at a time, their lines handed on as they are decoded. A formatter
resolves and orders, by :func:`vitamap.geo.itinerary_stops`, before it
returns, so every finding and warning is reported before the first byte
is written. So a run validates and resolves once, and holds the
biography, the gazetteer's key index, one 4 KiB read, one record and
the write buffer: never a whole input file, and never a whole document
(KML, GeoJSON and the matrix; the smaller itinerary and stats texts are
one record each). Each finding arrives located by the code that found
it (parser, gazetteer loader, validator or place resolution);
:func:`_report` only renders it. A warning about the whole route, such
as a box across the antimeridian, points at the first event.

Exit codes follow one discipline across all subcommands: 0 success,
1 domain failure (validation or place resolution), 2 usage or I/O
error, an input or gazetteer that is not UTF-8 included. Diagnostics
go to stderr, one per line, as ``LEVEL file:line message``; stdout
carries only payload so output can be piped. Runs are deterministic:
no timestamps, no locale-dependent formatting, and no network access
unless geocode is given an explicit endpoint. Every payload, geocode's
row too, goes through one writer, :func:`_write_output`: UTF-8 whatever
the locale, and a failed write to stdout (a full disk, a closed pipe, a
closed stdout) is an I/O error. An ``-o`` file is written to a temporary
file and renamed into place, so a failure, in formatting too, never
leaves a truncated document behind; it gets the mode ``open(path, "w")``
would give it: 0o666 less the umask when new, its own mode when it exists.

The gazetteer is found in precedence order: ``--gazetteer`` flag, then
the ``VITA_GAZETTEER`` environment variable, then the ``gazetteer``
hint inside the biography file (relative to that file), then
``./gazetteer.tsv``. Only the last, implicit fallback may be absent;
it then resolves to an empty gazetteer so fully inline-located files
still compile.

:func:`build_parser` builds only the subparser the first argument names:
all six took as long as a whole ``stats`` run on a bundled corpus.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import warnings
from codecs import utf_8_decode
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import suppress
from functools import partial
from itertools import chain, count
from pathlib import Path

from . import __version__
from .emit import EmitConfig, emit_itinerarium, geojson_records, kml_records, matrix_records
from .gazetteer import (
    GazetteerEntry,
    GazetteerParseError,
    GeocoderError,
    UnknownPlace,
    gazetteer_row,
    load_gazetteer,
    remote_resolve,
)
from .geo import build_itinerary, itinerary_stops, route_stats
from .model import Biography, Diagnostic, line_pieces, validate_biography
from .vita import VitaParseError, parse_biography

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

Gazetteer = dict[str, GazetteerEntry]
# A formatter resolves and orders, then returns the records to write (a str
# is one record); drawing them only formats, and raises and warns of nothing.
Formatter = Callable[[argparse.Namespace, Biography, Gazetteer], Iterable[str]]


class _CliFailure(Exception):
    def __init__(self, code: int, message: str | None = None):
        self.code = code
        self.message = message
        super().__init__(message or f"exit {code}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # as type=int words it; argparse would name this function
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


# Every subcommand, in help order, with its one-line help.
COMMANDS = {
    "validate": "check a biography and print diagnostics",
    "compile": "emit KML (default) or GeoJSON",
    "itinerary": "print the chronological route with distances",
    "distances": "sequential legs, or a pairwise place matrix",
    "stats": "print route summary figures",
    "geocode": "ask a remote geocoder for a gazetteer row",
}


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The top-level parser with the subparser ``argv[0]`` names, else with all six."""
    wanted = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    parser = argparse.ArgumentParser(
        prog="vitamap",
        description="Compile biography timeline files into georeferenced outputs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # "unrecognized arguments" prints this usage line: name all six in it.
    every = "{" + ",".join(COMMANDS) + "}" if len(wanted) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)

    def command(name: str) -> argparse.ArgumentParser | None:
        return sub.add_parser(name, help=COMMANDS[name]) if name in wanted else None

    def input_command(
        name: str, formatter: Formatter | None = None
    ) -> argparse.ArgumentParser | None:
        if not (p := command(name)):
            return None
        p.add_argument("input", help="path to a .vita biography file")
        p.add_argument(
            "--gazetteer",
            help=(
                "gazetteer TSV path (overrides VITA_GAZETTEER and the file's own hint)"
                if formatter is not None
                else "accepted but not read: validate checks the biography without a gazetteer"
            ),
        )
        p.add_argument("--strict", action="store_true", help="treat warnings as errors")
        if formatter is not None:
            p.add_argument("-o", "--output", help="output path (default: stdout)")
        p.set_defaults(func=partial(_run, formatter))
        return p

    input_command("validate")

    if p := input_command("compile", _compile):
        p.add_argument("--format", choices=("kml", "geojson"), default="kml")
        p.add_argument(
            "--buckets",
            type=_positive_int,
            default=5,
            metavar="N",
            help="timeline color bucket count (default 5)",
        )

    if p := input_command("itinerary", _itinerarium):
        p.add_argument("--format", choices=("text", "csv"), default="text")

    if p := input_command("distances", _distances):
        p.add_argument("--format", choices=("text", "csv"), default="text")
        p.add_argument(
            "--matrix",
            action="store_true",
            help="emit a symmetric km matrix over distinct places (CSV)",
        )

    input_command("stats", _stats)

    if p := command("geocode"):
        p.add_argument("name", help="place name to look up")
        p.add_argument("--endpoint", help="geocoder base URL (required; no implicit network)")
        p.set_defaults(func=cmd_geocode)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        args.func(args)
    except _CliFailure as failure:
        if failure.message:
            print(failure.message, file=sys.stderr)
        return failure.code
    return EXIT_OK


# ---------------------------------------------------------------------------
# The run driver


def _run(formatter: Formatter | None, args: argparse.Namespace) -> None:
    input_path, biography = _parse_and_validate(args)
    if formatter is None:  # validate: the biography alone, no gazetteer
        return
    gazetteer = _load_gazetteer_for(args, biography, input_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            records = formatter(args, biography, gazetteer)
        except UnknownPlace as exc:
            raise _fail(input_path, [Diagnostic("error", exc.event_id, str(exc), exc.line)])
    found = [Diagnostic("warning", None, str(w.message), biography.events[0].line) for w in caught]
    if _report(input_path, found, args.strict):
        raise _CliFailure(EXIT_DOMAIN)
    _write_output(records, args.output)


_READ = 1 << 12  # the bytes read from an input file at a time


def _read_lines(path: Path, what: str) -> Iterator[str]:
    """The lines of a UTF-8 file, as :func:`vitamap.model.split_lines`
    gives them, read _READ bytes at a time; a leading BOM is dropped. A
    file that cannot be read or is not UTF-8 fails the run with exit 2,
    at the line a split of its whole text puts its first bad byte on."""
    return chain.from_iterable(_read_pieces(path, what))


def _read_pieces(path: Path, what: str) -> Iterator[list[str]]:
    bad: list[str] = []  # the decoder's reason, once it has met a bad byte
    line = 0  # the lines split so far: in the end, the bad byte's line
    for piece in line_pieces(_read_texts(path, what, bad)):
        line += len(piece)
        yield piece
    if bad:
        message = f"{what} is not valid UTF-8 ({bad[0]})"
        raise _fail(path, [Diagnostic("error", None, message, line)], EXIT_USAGE)


def _read_texts(path: Path, what: str, bad: list[str]) -> Iterator[str]:
    """The text of a file, a read at a time. At a bad byte it puts the
    reason in ``bad`` and stops with the text before that byte."""
    try:
        file = open(path, "rb", buffering=0)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise _unreadable(path, what, exc)
    with file:
        undecoded = b""  # the start of a sequence that a read cut in two
        first = True  # no character decoded yet
        while True:
            try:
                read = file.read(_READ)
            except OSError as exc:
                raise _unreadable(path, what, exc)
            data = undecoded + read
            try:
                text, used = utf_8_decode(data, "strict", not read)
            except UnicodeDecodeError as exc:
                text, used, read = data[: exc.start].decode("utf-8"), exc.start, b""
                bad.append(exc.reason)
            undecoded = data[used:]
            if text and first:  # tolerate a leading BOM from Windows editors
                text, first = text.removeprefix("\ufeff"), False
            yield text
            if not read:
                return


def _unreadable(path: Path, what: str, exc: OSError | ValueError) -> _CliFailure:
    reason = getattr(exc, "strerror", None) or exc
    return _CliFailure(EXIT_USAGE, f"cannot read {what} '{path}': {reason}")


def _report(path: Path, diagnostics: list[Diagnostic], strict: bool = False) -> bool:
    """Print each finding; True if they stop the run (an error, or any when strict)."""
    for d in diagnostics:
        print(f"{d.severity} {path}:{d.line} {d.message}", file=sys.stderr)
    return any(strict or d.severity == "error" for d in diagnostics)


def _fail(path: Path, diagnostics: list[Diagnostic], code: int = EXIT_DOMAIN) -> _CliFailure:
    """Print the findings; the caller raises the failure returned."""
    _report(path, diagnostics)
    return _CliFailure(code)


def _parse_and_validate(args: argparse.Namespace) -> tuple[Path, Biography]:
    path = Path(args.input)
    try:
        biography = parse_biography(_read_lines(path, "input"))
    except VitaParseError as exc:
        raise _fail(path, exc.diagnostics)
    if _report(path, validate_biography(biography, base_dir=path.parent), args.strict):
        raise _CliFailure(EXIT_DOMAIN)
    return path, biography


def _load_gazetteer_for(
    args: argparse.Namespace, biography: Biography, input_path: Path
) -> Gazetteer:
    explicit = args.gazetteer or os.environ.get("VITA_GAZETTEER")
    if explicit:
        gaz_path = Path(explicit)
    elif biography.gazetteer_hint is not None:
        gaz_path = input_path.parent / biography.gazetteer_hint
    else:
        gaz_path = Path("gazetteer.tsv")
        if not gaz_path.exists():
            return {}
    # Every row is still checked; entries are built for the places used only.
    used = {e.key for e in biography.events if e.key is not None}
    try:
        return load_gazetteer(_read_lines(gaz_path, "gazetteer"), used)
    except GazetteerParseError as exc:
        raise _fail(gaz_path, exc.diagnostics)


_SLICE = 1 << 14  # the most code points encoded at once, and the -o file's buffer in bytes


def _write_utf8(records: Iterable[str], binary) -> None:
    """Encode and write each record as it is drawn, through the buffer of
    ``binary``; a record longer than _SLICE code points goes in slices."""
    write = binary.write
    for record in records:
        # A code point encodes on its own, so a cut between any two is safe.
        for start in range(0, len(record), _SLICE):
            write(record[start : start + _SLICE].encode("utf-8"))
    binary.flush()


def _write_output(records: Iterable[str], output: str | None) -> None:
    """Write records as they are drawn, to stdout or atomically to
    ``output``. A str is one record."""
    if isinstance(records, str):
        records = (records,)
    try:
        if output is None:
            if sys.stdout is None:  # fd 1 was closed when Python started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            if not hasattr(sys.stdout, "buffer"):  # io.StringIO takes text
                for record in records:
                    sys.stdout.write(record)
                return
            sys.stdout.flush()
            _write_utf8(records, sys.stdout.buffer)
            return
        target = Path(output)
        try:
            mode = os.stat(target).st_mode & 0o777  # an existing output keeps its mode
        except OSError:
            mode = None  # a new one gets 0o666 less the umask, from os.open
        except ValueError as exc:  # a NUL byte in the path, which os.open would refuse too
            raise _CliFailure(EXIT_USAGE, f"cannot write output '{output}': {exc}")
        for n in count():
            tmp = target.parent / f".{target.name}.{n}.tmp"
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:  # another run's, or a killed run's
                continue
        try:
            with os.fdopen(fd, "wb", buffering=_SLICE) as handle:
                if mode is not None and hasattr(os, "fchmod"):  # not on Windows before 3.13
                    os.fchmod(fd, mode)
                _write_utf8(records, handle)
            os.replace(tmp, target)
        except BaseException:  # the records are drawn here: formatting can fail too
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if output is None and sys.stdout is not None:
            # What stays buffered goes to os.devnull at exit, not to a traceback.
            with suppress(OSError, ValueError), open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        name = "<stdout>" if output is None else output
        raise _CliFailure(EXIT_USAGE, f"cannot write output '{name}': {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# Formatters: (args, biography, gazetteer) -> the records to write


def _compile(
    args: argparse.Namespace, biography: Biography, gazetteer: Gazetteer
) -> Iterable[str]:
    stops = itinerary_stops(biography, gazetteer)
    if args.format == "geojson":
        return geojson_records(stops)
    return kml_records(biography.title, stops, EmitConfig(bucket_count=args.buckets))


def _itinerarium(args: argparse.Namespace, biography: Biography, gazetteer: Gazetteer) -> str:
    return emit_itinerarium(build_itinerary(biography, gazetteer), biography, args.format)


def _distances(
    args: argparse.Namespace, biography: Biography, gazetteer: Gazetteer
) -> Iterable[str]:
    if args.matrix:
        return matrix_records(itinerary_stops(biography, gazetteer))
    return _itinerarium(args, biography, gazetteer)


def _stats(args: argparse.Namespace, biography: Biography, gazetteer: Gazetteer) -> str:
    stats = route_stats(build_itinerary(biography, gazetteer), biography)
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
    return "\n".join(lines) + "\n"


def cmd_geocode(args: argparse.Namespace) -> None:
    if not args.endpoint:
        raise _CliFailure(EXIT_USAGE, "geocode requires --endpoint; there is no default geocoder")
    try:
        entry = remote_resolve(args.name, args.endpoint)
    except GeocoderError as exc:
        raise _CliFailure(EXIT_DOMAIN, f"error: {exc}")
    _write_output(gazetteer_row(entry) + "\n", None)


if __name__ == "__main__":
    sys.exit(main())
