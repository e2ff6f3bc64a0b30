"""vitamap benchmark: whole-CLI latency and throughput, plus a traced per-layer run.

Usage, from the repository root:

    python3 vitabench/run.py --workload long-timeline --seed 1 --seconds 25 --trace 0

One closed-loop client in one process runs `vitamap.cli.main` in-process,
one command at a time, over inputs made from the seed. Every output is
checked by `oracle.py` and every repetition must give the same bytes.
Times are wall-clock times scaled to a fixed reference speed of the
machine, measured around each command (see `calibrate.py`).
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics when `--trace 0` and the per-layer metrics when `--trace 1`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import oracle
from calibrate import NOMINAL_NS, reference_ns, warm_reference_ns
from inputs import Input, Shape, corpus_inputs, synthesize
from tracing import Tracer, vitamap_modules

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Why each workload exists:
# - corpora-cli: the real traffic, two small hand-written files, where
#   fixed per-command cost (argparse, file reads and writes, diagnostics)
#   dominates and the quadratic paths do nothing.
# - long-timeline: ~10^3 events over a tiny gazetteer, the event-scale
#   path (parse, validate, KML timeline buckets, many resolves).
# - wide-gazetteer: a 2*10^4-row gazetteer, few hundred events over
#   ~500 distinct places: bulk gazetteer load with few lookups, and the
#   O(places^2) matrix with a multi-MB output. At 5*10^4 rows the
#   commands became memory-bound, and their times on a shared machine
#   spread by 12-20% between runs even after scaling to reference speed.
# Every workload runs every command kind, so that each run reports every
# end-to-end metric.
SHAPES = {
    "long-timeline": Shape(events=1000, gazetteer_rows=40, keyed_places=40, inline_places=20,
                           overlaps=10, swaps=15),
    "wide-gazetteer": Shape(events=600, gazetteer_rows=20_000, keyed_places=460, inline_places=40,
                            overlaps=4, swaps=6),
}
WORKLOADS = ("corpora-cli", *SHAPES)
# The command variant with the highest allocation peak, per workload; it
# runs on the workload's largest input.
HEAVIEST = {"corpora-cli": "matrix", "long-timeline": "kml", "wide-gazetteer": "matrix"}
KINDS = ("validate", "compile_kml", "compile_geojson", "itinerary", "matrix", "stats")
SETUP_IMPORTS = 11
# Cycles per window of the tail and throughput estimates: 128 commands on
# corpora-cli, 64 on the synthetic workloads, whose runs hold 9-18 cycles.
WINDOW_CYCLES = 8


@dataclass(frozen=True)
class Command:
    kind: str  # which end-to-end metric times it
    variant: str  # which oracle check applies
    inp: Input
    argv: tuple[str, ...]
    output: Path | None = None

    @property
    def key(self) -> str:
        return f"{self.inp.vita}:{self.variant}"


def cycle_for(inputs: list[Input], work: Path, seed: int) -> list[Command]:
    """Every payload subcommand and format once per input, in a seeded order."""
    cycle = []
    for n, inp in enumerate(inputs):
        base = (str(inp.vita), "--gazetteer", str(inp.gazetteer))
        kml = work / f"out-{n}.kml"
        cycle += [
            Command("validate", "validate", inp, ("validate", *base)),
            Command("compile_kml", "kml", inp, ("compile", *base, "-o", str(kml)), kml),
            Command("compile_geojson", "geojson", inp, ("compile", *base, "--format", "geojson")),
            Command("itinerary", "itin_text", inp, ("itinerary", *base)),
            Command("itinerary", "itin_csv", inp, ("itinerary", *base, "--format", "csv")),
            Command("itinerary", "dist_text", inp, ("distances", *base)),
            Command("matrix", "matrix", inp, ("distances", *base, "--matrix")),
            Command("stats", "stats", inp, ("stats", *base)),
        ]
    random.Random(seed).shuffle(cycle)
    return cycle


class Runner:
    """Runs commands through `vitamap.cli.main` and checks each result.

    Each timed command runs right between two runs of the reference
    work, and its time is scaled to reference speed with their mean (see
    calibrate.py).
    """

    def __init__(self, cli) -> None:
        self.cli = cli
        self.verdicts: dict[str, tuple[str, str | None]] = {}  # key -> (digest, problem)
        self.attempted = 0
        self.failed = 0
        self.last_scale = 1.0
        self.references: list[int] = []
        warm_reference_ns()

    def execute(self, cmd: Command) -> tuple[int, object, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code: object = self.cli.main(list(cmd.argv))
            except Exception as exc:  # a traceback is a failed command, not a crashed benchmark
                code = f"raised {exc!r}"
            elapsed = time.perf_counter_ns() - start
        return elapsed, code, out.getvalue(), err.getvalue()

    def record(self, cmd: Command, code: object, stdout: str, stderr: str) -> None:
        """Check one result: fully the first time, by digest on every repetition."""
        written = cmd.output.read_bytes() if cmd.output and cmd.output.exists() else b""
        digest = hashlib.sha256(
            f"{code!r}\0{stdout}\0{stderr}\0".encode("utf-8", "surrogatepass") + written
        ).hexdigest()
        if cmd.key not in self.verdicts:
            self.verdicts[cmd.key] = (digest, oracle.check(cmd.variant, cmd.inp, code, stdout, stderr, written))
        first, problem = self.verdicts[cmd.key]
        if digest != first:
            problem = "output differs from an earlier repetition"
        self.attempted += 1
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {' '.join(cmd.argv)}: {problem}", file=sys.stderr)

    def run(self, cmd: Command) -> tuple[int, float]:
        """(wall ns, ns at reference speed) of one checked command.

        Each command starts with a clean collector, as in a fresh CLI
        process; otherwise whether a full collection lands inside a
        command depends on the commands before it.
        """
        gc.collect()
        before = reference_ns()
        elapsed, *result = self.execute(cmd)
        after = reference_ns()
        self.references += (before, after)
        self.last_scale = 2 * NOMINAL_NS / (before + after)
        self.record(cmd, *result)
        return elapsed, elapsed * self.last_scale

    def cycles(self, cycle: list[Command], seconds: float, before=None, after=None) -> list[list[float]]:
        """Whole cycles until `seconds` have passed; scaled ns per command, per cycle."""
        timings: list[list[float]] = []
        deadline = time.perf_counter() + seconds
        while not timings or time.perf_counter() < deadline:
            row = []
            for cmd in cycle:
                if before:
                    before(cmd)
                row.append(self.run(cmd)[1])
                if after:
                    after(cmd)
            timings.append(row)
        return timings


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    ordered = sorted(values)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered)


def windows(timings: list[list[float]]) -> list[list[float]]:
    """Every WINDOW_CYCLES consecutive cycles, one cycle apart; the whole run if shorter."""
    n = min(WINDOW_CYCLES, len(timings))
    return [[ns for row in timings[i:i + n] for ns in row] for i in range(len(timings) - n + 1)]


def window_tail(timings: list[list[float]]) -> tuple[float, float, int]:
    """`tail` of each window of whole cycles, median over windows.

    Stalls of the shared machine hit a few commands in a hundred, more
    in a busy spell. Over a whole run of thousands of short commands the
    tail rank lands among them or just below them, depending on how many
    there were; and on the synthetic workloads, whose runs hold 9-18
    cycles of 8 commands, it lands on one command kind or the next,
    depending on how many cycles fitted. A window of a fixed number of
    whole cycles fixes the percentile and the kinds in it, and the
    median over windows outlasts a busy spell. Returns (value,
    percentile, samples per window).
    """
    tails = [tail(window) for window in windows(timings)]
    return statistics.median(t[0] for t in tails), tails[0][1], tails[0][2]


def setup_seconds() -> float:
    """Median time of `import vitamap.cli` in fresh interpreters, one after another.

    Each interpreter times the reference work before and after the
    import, and the import time is scaled to reference speed.
    """
    probe = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; import calibrate;"
        " before = calibrate.warm_reference_ns(); t = time.perf_counter_ns();"
        " import vitamap.cli; t = time.perf_counter_ns() - t;"
        " print(t * 2 * calibrate.NOMINAL_NS / (before + calibrate.reference_ns()) / 1e9)"
    )
    times = []
    for _ in range(SETUP_IMPORTS):
        done = subprocess.run([sys.executable, "-s", "-c", probe, str(SRC), str(Path(__file__).parent)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def peak_alloc_mb(runner: Runner, cycle: list[Command], variant: str) -> float:
    """tracemalloc peak over one untimed run of the workload's heaviest command."""
    cmd = max((c for c in cycle if c.variant == variant), key=lambda c: c.inp.events)
    gc.collect()
    tracemalloc.start()
    try:
        _, *result = runner.execute(cmd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    runner.record(cmd, *result)
    return peak / 2**20


def end_to_end(runner: Runner, cycle: list[Command], workload: str, seconds: float) -> dict:
    timings = runner.cycles(cycle, seconds)
    metrics = {}
    inputs = {id(cmd.inp): cmd.inp for cmd in cycle}.values()
    for kind in KINDS:
        # Median per input, averaged over inputs of different sizes.
        medians = [
            statistics.median(ns for row in timings for cmd, ns in zip(cycle, row)
                              if cmd.kind == kind and cmd.inp is inp)
            for inp in inputs
        ]
        metrics[f"{kind}_ms"] = (statistics.mean(medians) / 1e6, "ms")
    value, percentile, n = window_tail(timings)
    print(f"cmd_tail_ms is p{percentile:.2f} of windows of {n} commands, median over "
          f"{len(windows(timings))} windows; {sum(map(len, timings))} commands in {len(timings)} cycles")
    metrics["cmd_tail_ms"] = (value / 1e6, "ms")
    events = sum(cmd.inp.events for cmd in cycle)
    metrics["events_per_s"] = (statistics.median(
        events * len(window) / len(cycle) / (sum(window) / 1e9) for window in windows(timings)), "events/s")
    metrics["setup_s"] = (setup_seconds(), "s")
    metrics["peak_alloc_mb"] = (peak_alloc_mb(runner, cycle, HEAVIEST[workload]), "MiB")
    metrics["ok_ratio"] = ((runner.attempted - runner.failed) / runner.attempted, "ratio")
    return metrics


def per_layer(runner: Runner, cycle: list[Command], seconds: float, spans_path: Path) -> tuple[dict, bool]:
    """Untraced cycles, then traced cycles, for half of `seconds` each."""
    untraced = runner.cycles(cycle, seconds / 2)
    tracer = Tracer()
    before = {m.__name__: dict(vars(m)) for m in vitamap_modules()}
    counts: list[dict[str, int]] = []  # per command run
    scales: list[float] = []  # per command run, to reference speed

    def after(cmd: Command) -> None:
        counts.append(tracer.end())
        scales.append(runner.last_scale)

    with tracer.installed():
        traced = runner.cycles(cycle, seconds / 2, before=lambda cmd: tracer.begin(len(counts)),
                               after=after)
    ok = all(
        vars(m).get(attr) is value
        for m in vitamap_modules() for attr, value in before.get(m.__name__, {}).items()
    )
    if not ok:
        print("FAIL trace wrappers were not all removed", file=sys.stderr)

    size = len(cycle)
    per_cycle_counts = []
    for c in range(len(traced)):
        total: dict[str, int] = {}
        for cmd_counts in counts[c * size:(c + 1) * size]:
            for name, n in cmd_counts.items():
                total[name] = total.get(name, 0) + n
        per_cycle_counts.append(total)
    if any(total != per_cycle_counts[0] for total in per_cycle_counts):
        ok = False
        print("FAIL call counts differ between traced cycles", file=sys.stderr)
    calls = per_cycle_counts[0]

    self_ms: dict[str, list[float]] = {}
    for (name, _, _, _, cmd), own in zip(tracer.spans, tracer.self_ns()):
        per = self_ms.setdefault(name, [0.0] * len(traced))
        per[cmd // size] += own * scales[cmd] / 1e6
    tracer.write(spans_path, [" ".join(cmd.argv) for cmd in cycle] * len(traced))

    events = sum(cmd.inp.events for cmd in cycle)
    matrix_runs = [i for i, cmd in enumerate(cycle) if cmd.kind == "matrix"]
    matrix_haversine = sum(counts[i].get("geo.haversine_km", 0) for i in matrix_runs)
    pairs = sum(len(p) * (len(p) - 1) // 2 for p in (cycle[i].inp.truth.places() for i in matrix_runs))

    def ms(name: str) -> tuple[float, str]:
        return statistics.median(self_ms.get(name, [0.0])), "ms"

    def count(name: str, per: int = 1, unit: str = "count") -> tuple[float, str]:
        return calls.get(name, 0) / per, unit

    metrics = {
        "cli.main.self_ms": ms("cli.main"),
        "vita.parse_biography.self_ms": ms("vita.parse_biography"),
        "vita.parse_biography.calls": count("vita.parse_biography.calls"),
        "model.validate_biography.self_ms": ms("model.validate_biography"),
        "model.validate_biography.calls": count("model.validate_biography.calls"),
        "model.validate_biography.calls_per_cmd": count("model.validate_biography.calls", size, "calls/cmd"),
        "model.to_day_number.calls": count("model.to_day_number"),
        "model.to_day_number.calls_per_event": count("model.to_day_number", events, "calls/event"),
        "emit.timeline_bucket.calls": count("emit.timeline_bucket"),
        "emit.emit_kml.self_ms": ms("emit.emit_kml"),
        "emit.emit_geojson.self_ms": ms("emit.emit_geojson"),
        "emit.emit_itinerarium.self_ms": ms("emit.emit_itinerarium"),
        "gazetteer.load_gazetteer.self_ms": ms("gazetteer.load_gazetteer"),
        "gazetteer.load_gazetteer.rows": count("gazetteer.load_gazetteer.rows"),
        "gazetteer.resolve.calls_per_event": count("gazetteer.resolve", events, "calls/event"),
        "gazetteer.normalize_key.calls_per_event": count("gazetteer.normalize_key", events, "calls/event"),
        "emit.distance_matrix.self_ms": ms("emit.distance_matrix"),
        "geo.haversine_km.calls": count("geo.haversine_km"),
        "geo.haversine_km.calls_per_pair": (matrix_haversine / max(pairs, 1), "calls/pair"),
        "geo.build_itinerary.self_ms": ms("geo.build_itinerary"),
        "geo.route_stats.self_ms": ms("geo.route_stats"),
        "emit.bytes_out": count("emit.bytes_out", unit="B"),
        "trace.overhead_ratio": (
            statistics.median(map(sum, traced)) / statistics.median(map(sum, untraced)), "ratio"),
    }
    print(f"traced {len(traced)} cycles of {size} commands against {len(untraced)} untraced; "
          f"per-layer times and counts are per cycle; spans in {spans_path.relative_to(ROOT)}")
    return metrics, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vitamap" / "cli.py").is_file():
        print(f"error: no vitamap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vitamap.cli

    scratch = ROOT / ".vitabench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "corpora-cli":
            inputs = corpus_inputs(ROOT)
        else:
            inputs = [synthesize(work / "input", args.seed, SHAPES[args.workload])]
        runner = Runner(vitamap.cli)
        cycle = cycle_for(inputs, work, args.seed)
        runner.cycles(cycle, 0)  # warm-up, and the full oracle check of every output
        # What is alive now (interpreter, vitamap, inputs, verdicts) stays
        # alive; freezing it keeps the collector off it, as a short CLI
        # process never collects its import-time heap, and makes the
        # collect before each command nearly free, so a run holds more
        # commands.
        gc.collect()
        gc.freeze()
        if args.trace:
            spans = scratch / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, ok = per_layer(runner, cycle, args.seconds, spans)
        else:
            metrics, ok = end_to_end(runner, cycle, args.workload, args.seconds), True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"times are scaled to reference speed; the reference work took a median "
          f"{statistics.median(runner.references) / 1e6:.3f} ms here against {NOMINAL_NS / 1e6:g} ms nominal")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
