"""The tail-latency rule and the per-batch medians the benchmark reports."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

TAIL_BEYOND = 10
TAIL_WINDOW = 100  # requests in a window of the windowed tail, at least


@dataclass(frozen=True)
class Tail:
    """A latency at the highest percentile with TAIL_BEYOND samples beyond it."""

    value: float
    percentile: float  # nearest-rank percentile of ``value``
    beyond: int  # samples ranked above ``value``
    samples: int  # in all windows
    windows: int = 1  # windows ``value`` is the median over


def tail(values) -> Tail:
    """The highest nearest-rank percentile with at least ten samples beyond it.

    Rank r (1-based, ascending) leaves n - r samples beyond it, so the
    rank is n - 10.  With ten or fewer samples no rank qualifies; the
    minimum is returned and ``beyond`` says how many samples lie above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    rank = max(1, n - TAIL_BEYOND)
    return Tail(ordered[rank - 1], 100.0 * rank / n, n - rank, n)


def windowed_tail(batches: list[list[float]]) -> Tail:
    """``tail`` within windows of whole batches, median over the windows.

    ``batches`` holds each batch's latencies, in run order.  A window is
    ceil(TAIL_WINDOW / batch size) consecutive batches, so that the tail
    rank sits at the same place within a batch's make-up in every window
    and every run.  The batches after the last whole window go into no
    window; a run shorter than one window is a single window.  A slow
    spell of the machine then moves the tail of the windows it falls in,
    not the tail of the whole run.
    """
    if not any(batches):
        raise ValueError("tail of an empty sample")
    per = math.ceil(TAIL_WINDOW / max(len(b) for b in batches))
    count = len(batches) // per
    windows = [batches[i * per:(i + 1) * per] for i in range(count)] if count else [batches]
    tails = [tail([v for b in w for v in b]) for w in windows]
    return Tail(statistics.median(t.value for t in tails),
                statistics.median(t.percentile for t in tails),
                min(t.beyond for t in tails), sum(t.samples for t in tails), len(tails))


def median_rate(batches: list[tuple[float, float]]) -> float:
    """Median over batches of amount / seconds, given (amount, seconds) per batch."""
    return statistics.median(amount / seconds for amount, seconds in batches if seconds > 0)
