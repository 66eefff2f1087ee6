"""Metric math for the benchmark: machine-speed calibration, percentiles,
spreads, span self time, failure counting and answer digests.

Everything but the calibration is pure and deterministic, so
``perfbench/tests`` can pin it down without running a server.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------

CHAIN_LENGTH = 100_000
"""Nodes of the calibration's chain, some 18 MB: more than a CPU cache
holds, so walking it waits on memory as the server's reads do."""

CHAIN_STEPS = 30_000

_chain: list[tuple[int, str]] = []
_chain_rss_mb = 0.0

REFERENCE_CALIBRATION_S = 0.025
"""What :func:`calibration_s` takes at the reference machine speed (a
2-core x86-64 VM at its usual speed, between requests of a served
graph).  Only the scale of the reported times depends on it; the
benchmark's comparisons are between runs that share it."""


def _build_chain() -> None:
    global _chain_rss_mb
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    order = list(range(CHAIN_LENGTH))
    random.Random(0).shuffle(order)
    following = [0] * CHAIN_LENGTH
    for node, successor in zip(order, order[1:] + order[:1]):
        following[node] = successor
    # Allocated in index order and linked in shuffled order, so each step
    # of the walk lands somewhere else in memory.
    _chain[:] = [(following[node], str(node)) for node in range(CHAIN_LENGTH)]
    _chain_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0


def calibration_s() -> float:
    """Seconds to walk :data:`CHAIN_STEPS` links of a fixed chain of Python
    objects laid out in random order, counting their names in a dict:
    pointer chasing through memory plus small-object work, which is what
    the server's traversals, caches and JSON do.

    The work touches nothing of the program, so no change to the program
    moves it; only the speed of the machine it runs on does.  On a shared
    VM that speed drifts by tens of percent over minutes, and the program's
    latencies drift with it.  Dividing a time by the calibration measured
    in the same process and window (see :func:`speed_factor`) expresses it
    at the reference speed, which keeps that drift out of the comparison.
    A loop whose data fit in the CPU cache tracked the program worse: on
    the memory-bound legacy graph it saw the machine run twice as fast
    when the program ran 1.4 times as fast.
    """
    if not _chain:
        _build_chain()
    started = time.perf_counter()
    counts: dict[str, int] = {}
    node = 0
    for _ in range(CHAIN_STEPS):
        node, name = _chain[node]
        key = name[-2:]
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - started


def calibration_rss_mb() -> float:
    """How much the calibration's chain raised the process's peak RSS."""
    return _chain_rss_mb


def speed_factor(calibrations: Sequence[float]) -> float:
    """Multiply a measured time by this to express it at the reference
    speed (above 1 when the machine ran faster than the reference)."""
    return REFERENCE_CALIBRATION_S / median(calibrations)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of *values*.

    Nearest rank returns a value that was actually measured, and the
    number of samples strictly above ``percentile(values, q)`` is at most
    ``n - ceil(q/100 * n)``, so a caller can tell how many samples a tail
    figure stands on (see :func:`samples_beyond`).
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie past the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q / 100.0 * count)) if count else 0


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


@dataclass(frozen=True)
class Spread:
    """Median and quartiles of repeated measurements of one metric."""

    median: float
    q1: float
    q3: float

    @property
    def relative(self) -> float:
        """Inter-quartile distance as a share of the median."""
        if self.median == 0:
            return math.inf if self.q3 != self.q1 else 0.0
        return (self.q3 - self.q1) / abs(self.median)


def spread(values: Sequence[float]) -> Spread:
    """Quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return Spread(median=q2, q1=q1, q3=q3)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the id of the span that caused it."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    request: int | None = None
    items: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(interval: tuple[float, float], pieces: Iterable[tuple[float, float]]) -> float:
    """Length of the part of *interval* that the union of *pieces* covers."""
    low, high = interval
    clipped = sorted(
        (max(low, start), min(high, end)) for start, end in pieces if end > low and start < high
    )
    covered = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's self time: its duration minus the part of its interval
    that its children cover.

    Children may overlap one another (a child on another thread, or two
    concurrent calls); the union is subtracted once, so self time never
    goes negative and overlapping children are not double-counted.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered((span.start, span.end), children.get(span.span_id, ()))
        for span in spans
    }


def self_time_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


def outermost(spans: Iterable[Span], name: str) -> list[Span]:
    """Spans called *name* whose parent is not also called *name* (the
    entry into a layer, when a layer's public calls nest in one another)."""
    spans = list(spans)
    names = {span.span_id: span.name for span in spans}
    return [
        span
        for span in spans
        if span.name == name and names.get(span.parent) != name
    ]


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def answer_digest(
    pathways: Iterable[str],
    validity: Mapping[str, Sequence[tuple[float, float]]] | None = None,
) -> str:
    """Order-independent digest of one answer.

    An answer is the list of rendered pathways; for a time-range query each
    pathway also carries its validity intervals.  Rows are sorted so that
    two engines returning the same rows in different orders agree; a
    duplicated or missing row changes the digest.
    """
    lines = []
    for render in sorted(pathways):
        if validity is None:
            lines.append(render)
        else:
            intervals = ",".join(f"{start!r}:{end!r}" for start, end in validity[render])
            lines.append(f"{render} @ {intervals}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@dataclass
class Outcomes:
    """Failures counted against operations attempted.

    A non-2xx status (503 refusals and 504 deadlines included), a
    transport error, or an answer that differs from the reference is one
    failed operation.  ``reasons`` keeps the first few for the report.
    """

    attempted: int = 0
    failed: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    reasons: list[str] = field(default_factory=list)

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{kind}: {detail}")

    def check_status(self, status: int | None, detail: str) -> bool:
        """Count *status* (``None`` = transport error); True when 2xx."""
        if status is None:
            self.fail("transport", detail)
            return False
        if not 200 <= status < 300:
            self.fail(f"http_{status}", detail)
            return False
        return True

    def check_answer(self, got: str, want: str, detail: str) -> bool:
        if got != want:
            self.fail("mismatch", detail)
            return False
        return True
