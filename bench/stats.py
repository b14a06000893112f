"""Order statistics and span arithmetic shared by the runner and its tests."""

from __future__ import annotations

import math

TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of `values`.

    A mean of all order statistics, the i-th (of n) weighted by the mass the
    Beta(p (n + 1), (1 - p) (n + 1)) distribution puts on [(i - 1)/n, i/n].
    A run's samples come from a mix of commands of different lengths, so a
    single order statistic jumps from one command to the next as the host's
    speed changes; the weighted mean moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64  # midpoint-rule points per order statistic
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count). The percentile is
    100 (N - TAIL_BEYOND) / N, the rank of the sample with exactly
    TAIL_BEYOND samples beyond it; the value is its `quantile` estimate.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    p = (n - TAIL_BEYOND) / n
    return quantile(values, p), 100.0 * p, n


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    `spans` holds (span_id, start, end, parent_id) tuples of one thread, so a
    child interval lies inside its parent's; overlapping children are merged
    so no instant is subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, start, end, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out
