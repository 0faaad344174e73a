"""Percentiles that refuse to report a tail the sample cannot support."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    Raises :class:`TooFewSamples` unless at least :data:`MIN_TAIL`
    samples lie beyond the percentile's rank, so a p90 needs 100
    samples and a p50 needs 20.
    """
    if not 0.0 <= q < 100.0:
        raise ValueError(f"percentile must be in [0, 100), got {q}")
    count = len(values)
    beyond = math.floor(count * (100.0 - q) / 100.0 + 1e-9)
    if beyond < MIN_TAIL:
        raise TooFewSamples(
            f"p{q:g} of {count} samples has {beyond} beyond it; "
            f"need {MIN_TAIL}"
        )
    ordered = sorted(values)
    rank = (count - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """Median; 0.0 for an empty sample (a layer that did no work)."""
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample."""
    return statistics.fmean(values) if values else 0.0
