"""Per-layer tracing of vitamap from outside the package.

Layer entry points get span wrappers (name, start, end, parent span,
command id); hot leaf functions get count-only wrappers. vitamap's
modules bind each other's functions with `from .x import y`, so a
wrapper is installed at every module attribute that holds the original
function, not only in the defining module, and every binding is put
back afterwards.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

SPANNED = {
    "cli": ("main",),
    "vita": ("parse_biography",),
    "model": ("validate_biography",),
    "gazetteer": ("load_gazetteer",),
    "geo": ("build_itinerary", "route_stats"),
    "emit": ("emit_kml", "emit_geojson", "emit_itinerarium", "distance_matrix"),
}
COUNTED = {
    "model": ("to_day_number",),
    "geo": ("haversine_km",),
    "gazetteer": ("normalize_key", "resolve"),
    "emit": ("timeline_bucket",),
}
EMITTERS = {f"emit.{name}" for name in SPANNED["emit"]}


def vitamap_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "vitamap" or n.startswith("vitamap.")]


class Tracer:
    """Spans and counts for the commands run while installed."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, command id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cmd = -1
        self._counts: dict[str, int] = defaultdict(int)
        self._outputs: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self._cmd])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if name == "gazetteer.load_gazetteer":
                self._counts["gazetteer.load_gazetteer.rows"] += len(result)
            elif name in EMITTERS:
                self._outputs.append(result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self._counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        modules = vitamap_modules()
        by_name = {m.__name__: m for m in modules}
        try:
            for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
                for layer, functions in table.items():
                    for fname in functions:
                        original = getattr(by_name[f"vitamap.{layer}"], fname)
                        wrapper = make(f"{layer}.{fname}", original)
                        for module in modules:
                            for attr, value in list(vars(module).items()):
                                if value is original:
                                    self._patches.append((module, attr, original))
                                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()

    # -- per command -------------------------------------------------------

    def begin(self, cmd: int) -> None:
        self._cmd = cmd
        self._counts.clear()
        self._outputs.clear()

    def end(self) -> dict[str, int]:
        """Counts for the command just run, span calls and output bytes included."""
        counts = dict(self._counts)
        for span in reversed(self.spans):
            if span[4] != self._cmd:
                break
            counts[f"{span[0]}.calls"] = counts.get(f"{span[0]}.calls", 0) + 1
        counts["emit.bytes_out"] = sum(len(text.encode("utf-8")) for text in self._outputs)
        self._outputs.clear()
        return counts

    # -- after the run -----------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its child spans cover.

        Spans nest strictly (one thread, no overlap between siblings),
        so the children's coverage is the sum of their durations.
        """
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]

    def write(self, path: Path, commands: list[str]) -> None:
        """Spans as JSON lines, after one line naming each command id."""
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"commands": commands}) + "\n")
            for (name, start, end, parent, cmd), own in zip(self.spans, self.self_ns()):
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "cmd": cmd, "self_ns": own}) + "\n")
