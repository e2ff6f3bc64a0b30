"""Tests of the benchmark itself: seeded inputs, the oracle, the tracer.

Run from the repository root with `python3 -m pytest vitabench -q`.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import vitamap.cli  # noqa: E402
from inputs import Shape, corpus_inputs, synthesize  # noqa: E402
from tracing import Tracer, vitamap_modules  # noqa: E402

SMALL = Shape(events=60, gazetteer_rows=30, keyed_places=20, inline_places=8, overlaps=2, swaps=3)


def _tree(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def test_same_seed_gives_same_input_bytes(tmp_path):
    for name in ("a", "b"):
        synthesize(tmp_path / name, 7, SMALL)
    synthesize(tmp_path / "other", 8, SMALL)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "other")


def test_generated_input_has_the_planned_mix(tmp_path):
    inp = synthesize(tmp_path, 3, SMALL)
    stops = inp.truth.stops
    assert len(stops) == SMALL.events
    assert len(inp.truth.places()) == SMALL.keyed_places + SMALL.inline_places
    assert any(s.place for s in stops) and any(not s.place for s in stops)
    assert (tmp_path / "media").is_dir()
    assert SMALL.swaps <= len(inp.truth.diagnostics) <= 3 * (SMALL.swaps + SMALL.overlaps)


def _outputs(inp, tmp_path):
    """Every command of one cycle over `inp`, as (command, result) pairs."""
    runner = run.Runner(vitamap.cli)
    for cmd in run.cycle_for([inp], tmp_path, 0):
        _, code, stdout, stderr = runner.execute(cmd)
        written = cmd.output.read_bytes() if cmd.output else b""
        yield cmd, code, stdout, stderr, written


def test_oracle_accepts_vitamap_outputs(tmp_path):
    inputs = [synthesize(tmp_path / "in", 5, SMALL), *corpus_inputs(run.ROOT)]
    for inp in inputs:
        for cmd, *result in _outputs(inp, tmp_path):
            assert oracle.check(cmd.variant, inp, *result) is None, cmd.argv


def _corrupt_coordinate(text: str, lon: str) -> str:
    # Change the last digit of one longitude, as written in every format.
    assert lon in text
    return text.replace(lon, lon[:-1] + str((int(lon[-1]) + 1) % 10), 1)


@pytest.mark.parametrize("variant", ["kml", "geojson", "itin_csv", "itin_text", "matrix"])
def test_oracle_rejects_one_corrupted_coordinate_digit(tmp_path, variant):
    inp = synthesize(tmp_path / "in", 5, SMALL)
    for cmd, code, stdout, stderr, written in _outputs(inp, tmp_path):
        if cmd.variant != variant:
            continue
        stop = inp.truth.stops[len(inp.truth.stops) // 2]
        if variant == "kml":
            written = _corrupt_coordinate(written.decode(), stop.lon).encode()
        elif variant == "matrix":
            # The matrix shows coordinates only in the labels of inline points.
            stop = next(s for s in inp.truth.stops if not s.place)
            stdout = _corrupt_coordinate(stdout, f"{stop.lat},{stop.lon}")
        else:
            stdout = _corrupt_coordinate(stdout, stop.lon)
        assert oracle.check(variant, inp, code, stdout, stderr, written) is not None


def test_oracle_rejects_a_misplaced_diagnostic(tmp_path):
    inp = synthesize(tmp_path / "in", 5, SMALL)
    cmd, code, stdout, stderr, written = next(o for o in _outputs(inp, tmp_path) if o[0].variant == "validate")
    line = inp.truth.diagnostics[0][1]
    assert oracle.check("validate", inp, code, stdout, stderr, written) is None
    moved = stderr.replace(f":{line} ", f":{line + 1} ", 1)
    assert oracle.check("validate", inp, code, stdout, moved, written) is not None


def test_trace_wrappers_leave_vitamap_as_found(tmp_path):
    before = {m.__name__: dict(vars(m)) for m in vitamap_modules()}
    inp = synthesize(tmp_path / "in", 5, SMALL)
    cycle = run.cycle_for([inp], tmp_path, 0)
    runner = run.Runner(vitamap.cli)
    tracer = Tracer()
    counts = []
    with tracer.installed():
        assert vitamap.emit.to_day_number is not before["vitamap.emit"]["to_day_number"]
        assert vitamap.cli.main is not before["vitamap.cli"]["main"]
        for _ in range(2):
            per_cycle = []
            for cmd in cycle:
                tracer.begin(len(per_cycle))
                runner.run(cmd)
                per_cycle.append(tracer.end())
            counts.append(per_cycle)
    after = {m.__name__: dict(vars(m)) for m in vitamap_modules()}
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr}"
    assert runner.failed == 0
    assert counts[0] == counts[1]
    assert all(c["cli.main.calls"] == 1 for c in counts[0])


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0, 100, -1, 0], ["inner", 10, 40, 0, 0], ["leaf", 20, 25, 1, 0],
                    ["inner", 50, 60, 0, 0]]
    assert tracer.self_ns() == [60, 25, 5, 10]


def test_tail_has_ten_samples_beyond_it():
    value, percentile, n = run.tail(list(range(100)))
    assert (value, n) == (89, 100)
    assert percentile == 90.0


def test_window_tail_is_the_median_over_windows_of_whole_cycles():
    calm = [[10, 20, 30, 40]] * run.WINDOW_CYCLES
    stalled = [[10, 20, 30, 1000]] * 3
    windows = run.windows(calm + stalled + calm)
    assert len(windows) == 3 + run.WINDOW_CYCLES + 1
    assert all(len(w) == 4 * run.WINDOW_CYCLES for w in windows)
    value, percentile, n = run.window_tail(calm + stalled + calm)
    assert (value, n) == (30, 4 * run.WINDOW_CYCLES)
    assert percentile == 100.0 * (n - 10) / n
    short = [[1, 2, 3, 4]] * 3
    assert run.windows(short) == [[1, 2, 3, 4] * 3]
    assert run.window_tail(short) == run.tail([1, 2, 3, 4] * 3)
