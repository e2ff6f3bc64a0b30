"""Command line front end: parse, validate, resolve and order, emit.

One driver, :func:`_run`, runs every subcommand that reads a biography:
it parses the input, reports validation findings (``validate`` stops
there), loads the gazetteer and writes the records of :func:`_records`
as they are drawn. :func:`_records` resolves and orders, by
:func:`vitamap.geo.itinerary_stops`, before it returns, so every finding
and warning is reported before the first byte is written. The input and
the gazetteer are read 4 KiB at a time and decoded by the stdlib's
``utf-8-sig`` decoder, which drops a leading BOM; their lines are handed
on as they are decoded. So a run validates and resolves once, and holds
the biography, the gazetteer's key index, one 4 KiB read, one record and
the write buffer: never a whole input file, and never a whole document
(KML, GeoJSON and the matrix; the smaller itinerary and stats texts are
one record each). Each finding arrives located by the code that found it
(parser, gazetteer loader, validator, place resolution, or the reader at
a byte that is not UTF-8). A warning about the whole route, such as a
box across the antimeridian, points at the first event. Findings that
stop the run, an error or any finding under ``--strict``, ride the
failure, :class:`_CliFailure`, to :func:`main`, which prints them and
then the failure's message; the reader, like every other raise site,
never prints. Findings that let the run go on are printed; both go
through :func:`_render`, the one renderer of a finding.

Exit codes follow one discipline across all subcommands: 0 success,
1 domain failure (validation or place resolution), 2 usage or I/O
error, an input or gazetteer that is not UTF-8 included. Diagnostics
go to stderr, one per line, as ``LEVEL file:line message``; stdout
carries only payload so output can be piped. Runs are deterministic:
no timestamps, no locale-dependent formatting, and no network access
unless geocode is given an explicit endpoint. Every payload, geocode's
row too, goes through one writer, :func:`_write_output`: UTF-8 whatever
the locale, and a failed write to stdout (a full disk, a closed pipe, a
closed stdout) is an I/O error. An ``-o`` path is written where
``open(path, "w")`` would write it. A new or regular file is written to a
temporary file and renamed into place, so a failure, in formatting too,
never leaves a truncated document behind; it gets the mode
``open(path, "w")`` would give it: 0o666 less the umask when new, its own
mode when it exists. Through a symlink, the file it points to is replaced
and the link is kept. A pipe or a device is written in place.

The gazetteer is found in precedence order: ``--gazetteer`` flag, then
the ``VITA_GAZETTEER`` environment variable, then the ``gazetteer``
hint inside the biography file (relative to that file), then
``./gazetteer.tsv``. A given flag is read whatever its text, so an empty
one names ``.``; an empty ``VITA_GAZETTEER`` counts as unset. Only the
last, implicit fallback may be absent; it then resolves to an empty
gazetteer so fully inline-located files still compile.

A plain run, a subcommand's name and then only its whole option strings,
their values and one positional, is parsed by :func:`_plain_args`
without argparse, from the same :func:`_add_arguments` that fills the
parser of all six, :func:`build_parser`. Any other argv, ``-h`` and
every usage error among them, is parsed by that parser, built (and
argparse imported) only then; so every text the CLI prints about its
arguments is that parser's. Paths stay the strings given; a diagnostic
or read error names an input or gazetteer file, and a run opens it, as
``str(pathlib.Path(path))`` spells it (:func:`_as_path`), so ``./x.vita``
prints as ``x.vita``. An ``-o`` path is written as given: ``-o d/`` never
writes a file ``d``.
"""

from __future__ import annotations

import codecs
import errno
import os
import stat
import sys
import warnings
from collections.abc import Callable, Iterable, Iterator
from contextlib import suppress
from functools import partial
from itertools import chain, count
from types import SimpleNamespace

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


class _CliFailure(Exception):
    """A run's end: :func:`main` prints its findings on ``path``, then its message."""

    def __init__(
        self, code: int, message: str = "", path: str = "", diagnostics: Iterable[Diagnostic] = ()
    ):
        self.code = code
        self.message = message
        self.path = path
        self.diagnostics = diagnostics
        super().__init__(message or f"exit {code}")


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
        message = "must be at least 1"
    except ValueError:  # as type=int words it; argparse would name this function
        message = f"invalid int value: {text!r}"
    from argparse import ArgumentTypeError  # only a refused value needs argparse

    raise ArgumentTypeError(message)


# Every subcommand, in help order, with its one-line help.
COMMANDS = {
    "validate": "check a biography and print diagnostics",
    "compile": "emit KML (default) or GeoJSON",
    "itinerary": "print the chronological route with distances",
    "distances": "sequential legs, or a pairwise place matrix",
    "stats": "print route summary figures",
    "geocode": "ask a remote geocoder for a gazetteer row",
}


def build_parser():
    """The ``argparse.ArgumentParser`` of all six subcommands. argparse is
    imported only here, so no annotation names it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="vitamap",
        description="Compile biography timeline files into georeferenced outputs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        _add_arguments(name, sub.add_parser(name, help=help_text).add_argument)
    return parser


def _add_arguments(name: str, add_argument: Callable[..., object]) -> None:
    """Add the arguments of subcommand ``name`` by ``add_argument``: a
    parser's, or an :class:`_Options`'s."""
    if name == "geocode":
        add_argument("name", help="place name to look up")
        add_argument("--endpoint", help="geocoder base URL (required; no implicit network)")
        return
    add_argument("input", help="path to a .vita biography file")
    add_argument(
        "--gazetteer",
        help=(
            "accepted but not read: validate checks the biography without a gazetteer"
            if name == "validate"
            else "gazetteer TSV path (overrides VITA_GAZETTEER and the file's own hint)"
        ),
    )
    add_argument("--strict", action="store_true", help="treat warnings as errors")
    if name != "validate":
        add_argument("-o", "--output", help="output path (default: stdout)")
    if name == "compile":
        add_argument("--format", choices=("kml", "geojson"), default="kml")
        add_argument(
            "--buckets",
            type=_positive_int,
            default=5,
            metavar="N",
            help="timeline color bucket count (default 5)",
        )
    elif name in ("itinerary", "distances"):
        add_argument("--format", choices=("text", "csv"), default="text")
    if name == "distances":
        add_argument(
            "--matrix",
            action="store_true",
            help="emit a symmetric km matrix over distinct places (CSV)",
        )


class _Options(dict):
    """Its ``add_argument`` stands in for a subcommand parser's in
    :func:`_add_arguments`, for :func:`_plain_args`: it maps each name of
    an argument to its dest and keywords."""

    def add_argument(self, *names: str, **kwargs) -> None:
        self.update(dict.fromkeys(names, (names[-1].lstrip("-"), kwargs)))  # -o/--output: output


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` gives a plain run, else
    None. A plain run names a subcommand, then gives only whole option
    strings of it, each with its value (not starting with ``-``, of its
    type, in its choices) as the next word, and one non-empty positional."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _add_arguments(argv[0], (options := _Options()).add_argument)
    # A store_true option defaults to False, the positional to None.
    names = {dest: False if "action" in kw else kw.get("default") for dest, kw in options.values()}
    positional = next(name for name in options if name[0] != "-")
    words = iter(argv[1:])
    for word in words:
        if word[:1] == "-" and word in options:
            dest, kwargs = options[word]
            if "action" in kwargs:  # store_true
                names[dest] = True
                continue
            value = next(words, "-")
            try:
                names[dest] = kwargs.get("type", str)(value)
            except Exception:  # argparse reports a value its type refuses
                return None
            if value[:1] == "-" or names[dest] not in kwargs.get("choices", (names[dest],)):
                return None
        elif word[:1] not in ("", "-") and names[positional] is None:
            names[positional] = word
        else:
            return None
    return None if names[positional] is None else SimpleNamespace(command=argv[0], **names)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """A plain run's namespace, else build_parser's, the only parser that
    prints: a SimpleNamespace either way."""
    return _plain_args(argv) or build_parser().parse_args(argv, SimpleNamespace())


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        (cmd_geocode if args.command == "geocode" else _run)(args)
    except _CliFailure as failure:
        _render(failure.path, failure.diagnostics)
        if failure.message:
            print(failure.message, file=sys.stderr)
        return failure.code
    return EXIT_OK


# ---------------------------------------------------------------------------
# The run driver


def _run(args: SimpleNamespace) -> None:
    input_path = _as_path(args.input)
    try:
        biography = parse_biography(_read_lines(input_path, "input"))
    except VitaParseError as exc:
        raise _CliFailure(EXIT_DOMAIN, path=input_path, diagnostics=exc.diagnostics)
    found = validate_biography(biography, base_dir=os.path.dirname(input_path))
    _report(input_path, found, args.strict)
    if args.command == "validate":  # the biography alone, no gazetteer
        return
    gazetteer = _load_gazetteer_for(args, biography, input_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            records = _records(args, biography, gazetteer)
        except UnknownPlace as exc:
            found = [Diagnostic("error", exc.event_id, str(exc), exc.line)]
            raise _CliFailure(EXIT_DOMAIN, path=input_path, diagnostics=found)
    found = [Diagnostic("warning", None, str(w.message), biography.events[0].line) for w in caught]
    _report(input_path, found, args.strict)
    _write_output(records, args.output)


def _records(args: SimpleNamespace, biography: Biography, gazetteer: Gazetteer) -> Iterable[str]:
    """The records the command writes, resolved and ordered before it returns:
    a str is one record, and drawing them only formats, raising and warning of nothing."""
    command = args.command
    if command == "stats":
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
    if command == "itinerary" or (command == "distances" and not args.matrix):
        return emit_itinerarium(build_itinerary(biography, gazetteer), biography, args.format)
    stops = itinerary_stops(biography, gazetteer)
    if command == "distances":
        return matrix_records(stops)
    if args.format == "geojson":
        return geojson_records(stops)
    return kml_records(biography.title, stops, EmitConfig(bucket_count=args.buckets))


_READ = 1 << 12  # the bytes read from an input file at a time


def _read_lines(path: str, what: str) -> Iterator[str]:
    """The lines of a UTF-8 file, as :func:`vitamap.model.split_lines`
    gives them, read _READ bytes at a time; the stdlib's ``utf-8-sig``
    decoder drops a leading BOM. A file that cannot be read or is not
    UTF-8 fails the run with exit 2, at the line a split of its whole
    text puts its first bad byte on."""
    return chain.from_iterable(_read_pieces(path, what))


def _read_pieces(path: str, what: str) -> Iterator[list[str]]:
    bad: list[str] = []  # the decoder's reason, once it has met a bad byte
    line = 0  # the lines split so far: in the end, the bad byte's line
    for piece in line_pieces(_read_texts(path, what, bad)):
        line += len(piece)
        yield piece
        del piece  # not held while the next text is read
    if bad:
        found = [Diagnostic("error", None, f"{what} is not valid UTF-8 ({bad[0]})", line)]
        raise _CliFailure(EXIT_USAGE, path=path, diagnostics=found)


def _read_texts(path: str, what: str, bad: list[str]) -> Iterator[str]:
    """The text of a file, a read at a time. At a bad byte it puts the
    reason in ``bad`` and stops with the text before that byte."""
    try:
        file = open(path, "rb", buffering=0)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise _unreadable(path, what, exc)
    decoder = codecs.getincrementaldecoder("utf-8-sig")()
    with file:
        try:
            # Unlike a loop variable, map keeps no read while its text is drawn.
            yield from map(decoder.decode, iter(partial(file.read, _READ), b""))
            # What the decoder holds at the end is a cut sequence, or a cut
            # BOM, which its final call would let pass: a strict decode fails.
            decoder.getstate()[0].decode("utf-8")
        except OSError as exc:  # a read after the open failed
            raise _unreadable(path, what, exc)
        except UnicodeDecodeError as exc:  # exc.object is past a BOM too
            bad.append(exc.reason)
            yield exc.object[: exc.start].decode("utf-8")


def _unreadable(path: str, what: str, exc: OSError | ValueError) -> _CliFailure:
    reason = getattr(exc, "strerror", None) or exc
    return _CliFailure(EXIT_USAGE, f"cannot read {what} '{path}': {reason}")


def _render(path: str, diagnostics: Iterable[Diagnostic]) -> None:
    """Print each finding on ``path``, one line each: the one renderer."""
    for d in diagnostics:
        print(f"{d.severity} {path}:{d.line} {d.message}", file=sys.stderr)


def _report(path: str, diagnostics: list[Diagnostic], strict: bool) -> None:
    """Fail the run with the findings if they stop it (an error, or any
    when strict); else print them, before the first byte is written."""
    if any(strict or d.severity == "error" for d in diagnostics):
        raise _CliFailure(EXIT_DOMAIN, path=path, diagnostics=diagnostics)
    _render(path, diagnostics)


def _as_path(text: str) -> str:
    """``text`` as ``str(pathlib.Path(text))`` spells it on POSIX: no
    empty or ``.`` parts, ``..`` kept, a root of two slashes when it
    starts with exactly two and of one when with more, and ``.`` for
    nothing. Unlike ``os.path.normpath``, it keeps ``a/../b``. The CLI
    opens a file by the spelling it prints. This is POSIX's rule, not
    Windows': the CLI is tested on Linux."""
    leading = len(text) - len(text.lstrip("/"))
    root = "//" if leading == 2 else "/" if leading else ""
    return root + "/".join(part for part in text.split("/") if part not in ("", ".")) or "."


def _load_gazetteer_for(
    args: SimpleNamespace, biography: Biography, input_path: str
) -> Gazetteer:
    flag, env = args.gazetteer, os.environ.get("VITA_GAZETTEER")
    if flag is not None or env:  # an empty flag names "."; an empty VITA_GAZETTEER is unset
        gaz_path = _as_path(env if flag is None else flag)
    elif biography.gazetteer_hint is not None:
        gaz_path = _as_path(os.path.join(os.path.dirname(input_path), biography.gazetteer_hint))
    else:
        gaz_path = "gazetteer.tsv"
        if not os.path.exists(gaz_path):
            return {}
    # Every row is still checked; entries are built for the places used only.
    used = {e.key for e in biography.events if e.key is not None}
    try:
        return load_gazetteer(_read_lines(gaz_path, "gazetteer"), used)
    except GazetteerParseError as exc:
        raise _CliFailure(EXIT_DOMAIN, path=gaz_path, diagnostics=exc.diagnostics)


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
            if sys.stdout is None or sys.stdout.closed:  # None: fd 1 was closed at start-up
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            if not hasattr(sys.stdout, "buffer"):  # io.StringIO takes text
                for record in records:
                    sys.stdout.write(record)
                return
            sys.stdout.flush()
            _write_utf8(records, sys.stdout.buffer)
            return
        if not output:  # as open("", "w") fails, before a record is drawn
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT))
        try:
            mode = os.stat(output).st_mode  # an existing output keeps its mode
        except FileNotFoundError:  # a dangling symlink too: its file is new
            mode = None  # a new one gets 0o666 less the umask, from os.open
        except ValueError as exc:  # a NUL byte in the path, which os.open would refuse too
            raise _CliFailure(EXIT_USAGE, f"cannot write output '{output}': {exc}")
        if mode is not None and not stat.S_ISREG(mode):  # a pipe or a device: in place
            with open(output, "wb", buffering=_SLICE) as handle:
                _write_utf8(records, handle)
            return
        # A symlink's file is replaced and the link kept; realpath, a stat per
        # part of the path, runs only for a link.
        target = os.path.realpath(output) if os.path.islink(output) else output
        for n in count():
            # Not named after the target: a name of 255 bytes is valid too.
            tmp = os.path.join(os.path.dirname(target), f".vitamap.{n}.tmp")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:  # another run's, or a killed run's
                continue
        try:
            with os.fdopen(fd, "wb", buffering=_SLICE) as handle:
                if mode is not None and hasattr(os, "fchmod"):  # not on Windows before 3.13
                    os.fchmod(fd, mode & 0o777)
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


def cmd_geocode(args: SimpleNamespace) -> None:
    if not args.endpoint:
        raise _CliFailure(EXIT_USAGE, "geocode requires --endpoint; there is no default geocoder")
    try:
        entry = remote_resolve(args.name, args.endpoint)
    except GeocoderError as exc:
        raise _CliFailure(EXIT_DOMAIN, f"error: {exc}")
    _write_output(gazetteer_row(entry) + "\n", None)
