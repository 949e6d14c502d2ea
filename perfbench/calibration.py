"""Fixed bursts of work that track how fast the machine is running.

On a shared host the same work can run at very different speeds for spells
of seconds to minutes (on the 2-core VM this benchmark was written on,
identical work took between 0.55x and 1.1x of its usual time), and code
of different kinds slows by different amounts.  The runner brackets every
timed chunk with one burst of each kind below and reports a time
normalised to the reference speed, at which a burst takes its
``REFERENCE_S``:

    normalised = measured * REFERENCE_S[kind] / burst_time[kind]

where ``kind`` is the one that resembles the chunk's work: "vector" times
numpy arithmetic on arrays of thousands of elements; "mixed" adds to it
Python scalar code and numpy calls on one-element arrays, and suits code
driven by the interpreter.  On that VM, over 2 minutes that crossed fast
and slow spells, the spread of 1-second blocks of sampler, cumulant and
rate ops fell from 24-43% in wall time to 3-5% with the matching kind.  The bursts belong to
the benchmark, not to the package, so a change to the package cannot move
them.  The runner reports the plain wall times as well.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

REFERENCE_S = {"vector": 0.0015, "mixed": 0.005}


def _vector() -> None:
    a = np.linspace(0.0, 1.0, 4096) + 0j
    for _ in range(15):
        a = np.log(1.5 - 0.5 * a) + np.sqrt(a)


def _interp() -> None:
    x = 0.0
    for i in range(1, 3000):
        x += math.log(i) * math.sqrt(i) + complex(i, 1.0).real
    a = np.array([1.5 + 0.5j])
    for _ in range(750):
        a = np.log(a + 1.0) * 0.5 + 1.0


def burst() -> Dict[str, float]:
    """Run the loops once; return each kind's wall time in seconds."""
    t0 = time.perf_counter()
    _vector()
    t1 = time.perf_counter()
    _interp()
    t2 = time.perf_counter()
    return {"vector": t1 - t0, "mixed": t2 - t0}


def settled_burst(repeats: int = 5) -> Dict[str, float]:
    """Median of a few bursts, for a boundary next to a long command whose
    start or end (process forks, large frees) can disturb a single burst."""
    runs = [burst() for _ in range(repeats)]
    return {kind: statistics.median(r[kind] for r in runs) for kind in REFERENCE_S}


def scales(bursts: Sequence[Dict[str, float]], kinds: Sequence[str]) -> List[float]:
    """Factors that turn the time of each span between consecutive bursts
    into time at the reference speed; span i has kind ``kinds[i]`` and lies
    between bursts i and i+1.  Its speed is the median of bursts i-1 .. i+2,
    so one disturbed burst does not move it."""
    out = []
    for i, kind in enumerate(kinds):
        window = [b[kind] for b in bursts[max(0, i - 1): i + 3]]
        out.append(REFERENCE_S[kind] / statistics.median(window))
    return out
