"""Reference work that measures how fast this machine runs Python right now.

On a shared machine the speed of a core drifts by tens of percent
within seconds, which swamps the differences the benchmark is meant to
show. The benchmark therefore times this fixed piece of pure-Python
work (string splitting, dict updates, float formatting; no vitamap
code) right before and right after every timed command and scales the
command's wall time by how long the reference took around it. Every
time the benchmark reports is in milliseconds on a machine where
`reference_ns()` takes `NOMINAL_NS`.
"""

from __future__ import annotations

import gc
import time

NOMINAL_NS = 1_000_000
_TEXT = "\n".join(f"key{i} = value {i * 7919 % 1000} & more" for i in range(300))


def _work() -> int:
    out = {}
    for line in _TEXT.split("\n"):
        key, _, value = line.partition("=")
        out[key.strip()] = (value.strip().upper(), f"{len(value) * 1.5:.6f}")
    return len(out)


def reference_ns() -> int:
    """Wall time of three rounds of the reference work, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        for _ in range(3):
            _work()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def warm_reference_ns() -> int:
    """The reference after a few untimed rounds, as a fresh interpreter needs."""
    for _ in range(5):
        reference_ns()
    return reference_ns()
