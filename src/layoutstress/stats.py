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


#: sorted positions whose ranks ranks_from_order writes at a time; beyond the
#: ranks and the mask, its temporaries then are a few vectors of this length
_RANK_CHUNK = 1 << 13


def ranks_from_order(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Average ranks of values, given an order that sorts them.

    A group of equal values at sorted positions [start, stop) shares the
    rank (start + stop + 1) / 2, an exact half-integer, so any sorting order
    gives the same ranks. A mask of where the sorted values change, one byte
    per value, is built from one gather of them, freed before the ranks are
    allocated; the ranks are then written _RANK_CHUNK sorted positions at a
    time, with two vectors of the number of groups when some values tie.
    """
    size = order.size
    sorted_vals = values[order]
    changes = np.empty(size, dtype=bool)
    changes[:1] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=changes[1:])
    del sorted_vals
    ranks = np.empty(size)
    if changes.all():
        for start in range(0, size, _RANK_CHUNK):
            stop = min(start + _RANK_CHUNK, size)
            ranks[order[start:stop]] = np.arange(start + 1.0, stop + 1.0)
        return ranks
    starts = np.flatnonzero(changes)
    group_ranks = starts + 1.0
    group_ranks[:-1] += starts[1:]
    group_ranks[-1] += size
    group_ranks /= 2.0
    del starts
    groups_before = 0
    for start in range(0, size, _RANK_CHUNK):
        stop = min(start + _RANK_CHUNK, size)
        group = np.cumsum(changes[start:stop])
        group += groups_before - 1
        ranks[order[start:stop]] = group_ranks[group]
        groups_before = int(group[-1]) + 1
        del group
    return ranks


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
    """
    # average ranks are half-integers summing to n(n + 1) / 2, so each mean
    # is exactly (n + 1) / 2; identical rankings then centre to ry == rx and
    # mirrored ones to ry == -rx bitwise, and sqrt(fl(S * S)) == S, so the
    # quotient in _correlation is exactly 1 or -1
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return _correlation(np.sum(rx * rx), np.sum(ry * ry), np.sum(rx * ry))


def rank_correlation_with_codes(rx: np.ndarray, codes: np.ndarray) -> float:
    """rank_correlation(rx, average_ranks(codes)), bit for bit, for unsigned
    integer codes; a code no value has is an empty bin, which nothing reads.

    The codes' average ranks are counted per code, without a sort, and
    centred in that table: its entries are the centred ranks
    rank_correlation would compute, as the mean is exactly (n + 1) / 2.
    Every product is then formed from the same two numbers as there and
    summed in the same order. Centres rx in place; besides rx and the codes
    it holds one pair vector at a time: bincount's intp copy, then products.
    """
    sizes = np.bincount(codes)
    table = np.cumsum(sizes) - sizes + (sizes + 1) / 2.0
    table -= (codes.size + 1) / 2.0
    rx -= rx.mean()
    sxx = np.sum(rx * rx)
    syy = np.sum((table * table)[codes])
    products = table[codes]
    products *= rx
    return _correlation(sxx, syy, np.sum(products))


def _correlation(sxx, syy, sxy) -> float:
    """Pearson correlation from the centred sums of squares and of products."""
    denominator = float(np.sqrt(sxx * syy))
    if denominator == 0.0:
        raise ConstantSeriesError("rank correlation is undefined for a constant series")
    return min(1.0, max(-1.0, float(sxy / denominator)))


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
