"""The host's current speed for pure-Python work, from a fixed job.

The cores of the host the benchmark was defined on are shared with other
tenants, and their speed for pure-Python work drifts by a third and more,
both within a second and over tens of minutes.  Every workload slows down
together with this job, so a time divided by the job's time, taken right
around it, cancels most of that drift; :func:`scale` then expresses it in
seconds at the reference speed.

The job mixes what the package spends its time on: recursive search over
integer bitmasks, small frozen dataclasses, tuples, dicts and JSON text.
It does not import the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

# Seconds one job took on the 2-core reference host (Python 3.11.7) in its
# fastest phase.  Only a unit: any constant gives the same ratios.
REFERENCE_S = 0.015


def _queens(n: int) -> int:
    full = (1 << n) - 1

    def place(cols: int, d1: int, d2: int) -> int:
        if cols == full:
            return 1
        free = full & ~(cols | d1 | d2)
        count = 0
        while free:
            bit = free & -free
            free ^= bit
            count += place(cols | bit, ((d1 | bit) << 1) & full, (d2 | bit) >> 1)
        return count

    return place(0, 0, 0)


@dataclass(frozen=True)
class _Item:
    n: int
    arcs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))


def _objects(m: int) -> int:
    items = [_Item(i % 13, tuple((j, (j * 5 + i) % 13) for j in range(i % 9))) for i in range(m)]
    index: dict = {}
    for it in items:
        index.setdefault((it.n, it.arcs), []).append(it)
    text = json.dumps([{"n": it.n, "arcs": it.arcs} for it in items[::3]], sort_keys=True)
    return len(index) + len(text)


def job() -> int:
    return _queens(7) + _objects(2500)


def measure(jobs: int) -> float:
    """Mean seconds per job over ``jobs`` back-to-back jobs."""
    start = time.perf_counter()
    for _ in range(jobs):
        job()
    return (time.perf_counter() - start) / jobs


def scale(seconds: float, job_s: float) -> float:
    """``seconds`` measured while one job took ``job_s``, at the reference speed."""
    return seconds * REFERENCE_S / job_s
