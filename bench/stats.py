"""The tail percentile a timing is reported at, and a chi-square upper tail
that needs only the standard library."""

from __future__ import annotations

import math

# Candidate percentiles for a timing's tail, lowest first.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def n_beyond(n: int, p: float) -> int:
    """How many of n ranked samples lie above the p-th percentile's rank."""
    return n - math.ceil(n * p / 100.0)


def tail_percentile(n: int, ladder=TAIL_LADDER, min_beyond: int = MIN_BEYOND):
    """Highest percentile of the ladder with at least min_beyond samples
    beyond it, or None when n is too small for any of them."""
    chosen = None
    for p in ladder:
        if n_beyond(n, p) >= min_beyond:
            chosen = p
    return chosen


def chi2_sf(stat: float, df: int) -> float:
    """Upper tail probability of a chi-square statistic.

    Wilson-Hilferty normal approximation; within a few percent of the exact
    tail for df >= 30, which is ample for a pass/fail threshold of 1e-6.
    """
    k = float(df)
    z = ((stat / k) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * k))) / math.sqrt(2.0 / (9.0 * k))
    return 0.5 * math.erfc(z / math.sqrt(2.0))
