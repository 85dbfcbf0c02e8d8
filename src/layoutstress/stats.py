"""Rank statistics and monotone regression.

Shared by the Shepard goodness score (Spearman correlation) and non-metric
stress (isotonic regression of drawing distances).
"""

from __future__ import annotations

import numpy as np

from .errors import ConstantSeriesError


def average_ranks(values) -> np.ndarray:
    """Assign 1-based ranks, averaging within groups of equal values.

    Equal values share their group's mean rank, so any sort order gives the
    same ranks.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("values must be a non-empty 1D sequence")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    return ranks_from_order(vals, np.argsort(vals))


def ranks_from_order(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Average ranks of values, given an order that sorts them.

    A group of equal values at sorted positions [start, start + size) shares
    the rank start + (size + 1) / 2, an exact half-integer, so any sorting
    order gives the same ranks.
    """
    sorted_vals = values[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))
    del sorted_vals
    sizes = np.diff(starts, append=order.size)
    # in place, so at most three vectors of the number of groups are alive
    group_ranks = sizes + 1.0
    group_ranks /= 2.0
    group_ranks += starts
    del starts
    sorted_ranks = np.repeat(group_ranks, sizes)
    del group_ranks, sizes
    ranks = np.empty(order.size)
    ranks[order] = sorted_ranks
    return ranks


def ranks_from_codes(codes: np.ndarray) -> np.ndarray:
    """Average ranks of values given as dense codes (code k for the k-th
    smallest distinct value), counted without a sort."""
    sizes = np.bincount(codes)
    starts = np.cumsum(sizes) - sizes
    return (starts + (sizes + 1) / 2.0)[codes]


def spearman(xs, ys) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"series must be equal-length 1D, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    return rank_correlation(average_ranks(x), average_ranks(y))


def rank_correlation(rx: np.ndarray, ry: np.ndarray) -> float:
    """Pearson correlation of two equal-length vectors of 1-based average ranks.

    Exactly 1 for identical rankings and -1 for exactly mirrored ones;
    ConstantSeriesError when either ranking is constant.
    Centres rx and ry in place, so they must be distinct float arrays the
    caller no longer needs; besides them it holds one vector of products.
    """
    # average ranks are half-integers summing to n(n + 1) / 2, so each mean
    # is exactly (n + 1) / 2; identical rankings then centre to ry == rx and
    # mirrored ones to ry == -rx bitwise, and sqrt(fl(S * S)) == S, so the
    # quotient below is exactly 1 or -1
    rx -= rx.mean()
    ry -= ry.mean()
    products = rx * rx
    sxx = np.sum(products)
    syy = np.sum(np.multiply(ry, ry, out=products))
    denominator = float(np.sqrt(sxx * syy))
    if denominator == 0.0:
        raise ConstantSeriesError("rank correlation is undefined for a constant series")
    rho = float(np.sum(np.multiply(rx, ry, out=products)) / denominator)
    return min(1.0, max(-1.0, rho))


# values pooled one at a time before a pooling search moves to numpy windows;
# most pools are short, and numpy's per-call cost outweighs a short pool
_SCALAR_POOL_STEPS = 16


def _pool_run(y, i, stop, count, total, above):
    """Pool y[i], y[i + 1], ... (before stop) into a block of count values
    summing to total while each one lies above the block's mean (``above``)
    or below it (otherwise); return the first index not pooled and the
    block's new count and sum.

    The sum is accumulated outward from the block, one value after the
    other, so its rounding is relative to the values pooled. Each value is
    compared with the mean as it will be reported, total / count.
    """
    sign = 1.0 if above else -1.0
    yv = y.item
    for _ in range(_SCALAR_POOL_STEPS):
        if i == stop or (yv(i) - total / count) * sign <= 0.0:
            return i, count, total
        count += 1
        total += yv(i)
        i += 1
    # then windows of doubling length, so the numpy work stays linear in
    # the number of values pooled
    size = _SCALAR_POOL_STEPS
    while i < stop:
        size *= 2
        j = min(i + size, stop)
        # the block's count and sum just before each value of the window joins
        counts = count + np.arange(j - i)
        totals = np.cumsum(np.concatenate(([total], y[i : j - 1])))
        stays = ((y[i:j] - totals / counts) * sign <= 0.0).nonzero()[0]
        if stays.size:
            k = int(stays[0])
            return i + k, count + k, totals.item(k)
        count, total = count + (j - i), totals.item(-1) + yv(j - 1)
        i = j
    return i, count, total


def isotonic_regression(ys) -> np.ndarray:
    """Least-squares fit constrained to be non-decreasing.

    Pool-adjacent-violators over runs: the optimum, up to the rounding of
    each block's own sum. A violation can only start where the input
    drops, so the input is taken as R maximal non-decreasing runs, and each
    pooling step takes in a stretch of one run's ascending values at once.
    The Python-level work therefore grows with the number of pooling steps
    (R, or a few per run where pooling on one side of a block lets it pool
    on the other), not with the input length; the numpy work is linear in
    the values pooled.
    """
    y = np.asarray(ys, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("input must be a non-empty 1D sequence")
    if not np.isfinite(y).all():
        raise ValueError("input must be finite")

    n = y.size
    starts = np.concatenate(([True], y[1:] < y[:-1])).nonzero()[0]
    run_starts = starts.tolist()
    run_ends = run_starts[1:]
    run_ends.append(n)
    # the input right to left, for pooling leftward from a block
    yr = y[::-1]

    # entry (a, p, b, count, total): pooled block [a, p) of count values
    # summing to total, then singletons [p, b) ascending from y[p] >= total /
    # count. A run enters as its first element pooled. Against a violating
    # entry below, it pools the values of that entry's tail above its mean,
    # or the entry's block once the tail is gone; the mean rises, so the
    # values of its own tail below the mean then join it.
    yv = y.item
    stack: list[tuple[int, int, int, int, float]] = []
    for s, t, total in zip(run_starts, run_ends, y[starts].tolist()):
        a, p, count = s, s + 1, 1
        while True:
            if p < t and yv(p) < total / count:
                p, count, total = _pool_run(y, p, t, count, total, above=False)
            if not stack:
                break
            ta, tp, tb, tcount, ttotal = stack[-1]
            if tb > tp:
                if yv(tb - 1) <= total / count:
                    break
                r, count, total = _pool_run(yr, n - tb, n - tp, count, total, above=True)
                a = n - r
                stack[-1] = (ta, tp, a, tcount, ttotal)
            elif ttotal / tcount > total / count:
                a = ta
                count += tcount
                total += ttotal
                stack.pop()
            else:
                break
        stack.append((a, p, t, count, total))

    # every decision above compared the means as reported here, so the fit
    # is non-decreasing exactly
    fitted = y.copy()
    for a, p, _, count, total in stack:
        fitted[a:p] = total / count
    return fitted
