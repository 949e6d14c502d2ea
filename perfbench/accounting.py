"""Op records and the arithmetic that turns them into end-to-end metrics.

An op is one unit of the lab's output (one Monte Carlo sample, one moment
row or cumulant set, one rate or density value).  It fails when it raises
or when its value does not pass its check; only ops that complete and
pass count towards throughput and latency.
"""

from __future__ import annotations

import collections
import math
import statistics
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

# Percentiles the tail is chosen from, lowest first.
LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


@dataclass
class OpRecord:
    stage: str
    pass_index: int
    index: int
    latency_ns: int
    output: Any = None
    error: Optional[BaseException] = None
    scale: float = 1.0  # turns the wall time into time at the reference speed

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.stage, self.pass_index, self.index)


def tail_percentile(count: int, beyond: int = MIN_BEYOND) -> Optional[float]:
    """Highest percentile of ``LADDER`` with at least ``beyond`` of ``count``
    values above it, or None when even the median has fewer."""
    best = None
    for p in LADDER:
        if count - math.ceil(p / 100.0 * count) >= beyond:
            best = p
    return best


def nearest_rank(sorted_values: List[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule."""
    if not sorted_values:
        raise ValueError("no values")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class Tally:
    attempted: int
    failed: int
    wrong: int
    ok_latency_ns: Dict[Tuple[str, int], List[float]]  # (stage, index) -> one per ok pass
    ok_per_pass: Dict[int, int]
    failures: Dict[str, int]

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


def tally(records: Iterable[OpRecord], wrong: Set[Tuple[str, int, int]], normalised: bool = False) -> Tally:
    """Count ops: an op fails when it raised or when its key is in
    ``wrong`` (its value failed a check).  ``failures`` breaks failed ops
    down by "stage: exception type" (``WrongValue`` for a failed check).
    Latencies are wall times, or with ``normalised`` times at the
    reference speed."""
    attempted = failed = n_wrong = 0
    ok_latency: Dict[Tuple[str, int], List[float]] = collections.defaultdict(list)
    ok_per_pass: Dict[int, int] = collections.Counter()
    failures: Dict[str, int] = collections.Counter()
    for rec in records:
        attempted += 1
        ok_per_pass.setdefault(rec.pass_index, 0)
        if rec.error is not None:
            failed += 1
            failures[f"{rec.stage}: {type(rec.error).__name__}"] += 1
        elif rec.key in wrong:
            failed += 1
            n_wrong += 1
            failures[f"{rec.stage}: WrongValue"] += 1
        else:
            latency = rec.latency_ns * rec.scale if normalised else rec.latency_ns
            ok_latency[(rec.stage, rec.index)].append(latency)
            ok_per_pass[rec.pass_index] += 1
    return Tally(attempted, failed, n_wrong, dict(ok_latency), dict(ok_per_pass), dict(failures))


def latency_summary(t: Tally) -> Dict[str, float]:
    """Median and tail latency, in ms, over op slots: a slot is one op of
    the pass (stage, index), and its latency is the median over the passes
    in which it was ok.  A single slow pass of an op thus does not reach
    the tail; for Monte Carlo stages, which draw new inputs each pass, a
    slot's latency is the median over those draws.  The tail is the
    highest ladder percentile with at least 10 slots beyond it."""
    lat = sorted(statistics.median(v) / 1e6 for v in t.ok_latency_ns.values())
    p = tail_percentile(len(lat)) or LADDER[0]
    return {
        "p50_ms": statistics.median(lat),
        "tail_ms": nearest_rank(lat, p),
        "tail_percentile": p,
        "ok_slots": len(lat),
    }


def median_sum(per_round: List[Dict[str, float]]) -> float:
    """Sum over keys of the median across rounds of each key's value: the
    time of a whole pass, built from parts that each take their typical
    time."""
    return sum(statistics.median(r[key] for r in per_round) for key in per_round[0])
