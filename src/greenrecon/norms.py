"""Holder norms and seminorms of sampled real functions on intervals.

Distances are plain (non-wrapping) differences of abscissas.  All quantities
are exact maxima over the supplied sample set and therefore lower bounds of
the corresponding continuum norms; they converge from below as the grid is
refined.  Consumers that verify inequalities against these values must keep
that one-sided character in mind.

The seminorm visits far fewer than all n^2/2 pairs and still returns the full
pair scan's value to the bit: short lags are scanned directly, and longer
pairs are grouped into blocks of consecutive points whose value range and
end abscissas bound every quotient between two blocks.  Block pairs are
expanded into point pairs in decreasing bound order until no bound can beat
the best quotient found.  The bounds hold for the rounded quotients because
rounding is monotone (see `_pairwise_max_quotient`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# relative allowance in the seminorm's bounds, whose powers may differ in the
# last ulp from the vectorised power of the pair quotients
_MARGIN = 16 * np.finfo(float).eps
# most point pairs one batch of the block scan evaluates (128 kB per array)
_BATCH = 16384


@dataclass(frozen=True)
class SampledFunction:
    """A real function known at finitely many points of an interval.

    Parameters
    ----------
    grid : strictly increasing abscissas
    values : one real value per abscissa
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise InvalidInputError("grid needs at least two points")
        if values.shape != grid.shape:
            raise InvalidInputError("values must match the grid point for point")
        if not np.all(np.diff(grid) > 0):
            raise InvalidInputError("grid must be strictly increasing")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise InvalidInputError("grid and values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.grid.size


def closed_interval(values, period: float) -> SampledFunction:
    """One period of samples at n uniform points of [0, period), as a
    function on the closed interval [0, period]: the right endpoint is
    exactly ``period`` and repeats the first value."""
    values = np.asarray(values, dtype=float)
    grid = np.concatenate([np.arange(values.size) * (period / values.size), [period]])
    return SampledFunction(grid, np.concatenate([values, values[:1]]))


def sup_norm(f: SampledFunction) -> float:
    """Largest absolute sample value (lower bound of the true sup norm)."""
    if not isinstance(f, SampledFunction):
        raise InvalidInputError("expected a SampledFunction")
    return float(np.max(np.abs(f.values)))


def _block_size(n: int) -> int:
    """Points per block: 8 up to n = 8191, then the power of two within a
    factor sqrt(2) of sqrt(n)/8, which keeps the block count near 8 sqrt(n)."""
    return 1 << max(3, n.bit_length() // 2 - 3)


def _lag_quotient(grid, values, k: int, alpha: float) -> tuple[float, np.ndarray]:
    """Largest pair quotient at index lag k, and the lag's distances."""
    d = grid[k:] - grid[:-k]  # positive: the grid strictly increases
    return float(np.max(np.abs(values[k:] - values[:-k]) / d ** alpha)), d


def _pairwise_max_quotient(f: SampledFunction, alpha: float) -> float:
    """max over distinct sample pairs of |v_j - v_i| / (x_j - x_i)^alpha.

    Every pair that is computed at all is computed with the float operations
    of a full pair scan, and every pair left out provably cannot exceed the
    result, so the result is the full scan's to the bit.  With blocks of b
    consecutive points (`_block_size`):

    1. Lags k = 1 ... b-1 are scanned one vectorised pass each.  Every pair at
       a larger lag is at least ``nearest``, the smallest distance at lag k,
       apart, and its value difference is at most ``osc`` = max(v) - min(v),
       so the scan returns once osc / nearest^alpha cannot beat the best
       quotient found.
    2. Lags 2b, 4b, 8b, ... raise ``best`` with exact quotients of distant
       pairs before any bound is compared with it.
    3. Block pairs I < J on the diagonals K = J - I are bounded by
       max(hi_I - lo_J, hi_J - lo_I) / (first_J - last_I)^alpha, from each
       block's largest and least value and its first and last abscissa.
       Diagonals are built in order of K, a chunk at a time, and end at the
       first K whose nearest block gap gives no bound above ``best`` even with
       the full ``osc``: every farther pair is at least that far apart.
    4. The block pairs whose bound beats ``best`` are expanded into their
       point pairs in decreasing bound order, in batches that double up to
       ``_BATCH`` pairs, until the next bound is no larger than ``best``.

    Each bound holds for the computed quotients, not just the exact ones,
    because rounding is monotone: v_j - v_i <= hi_J - lo_I exactly, so
    fl(v_j - v_i) <= fl(hi_J - lo_I); and x_j - x_i >= first_J - last_I (or
    the lag's nearest distance), so the same holds for their computed
    differences.  Division is monotone too.  Only the power may differ by an
    ulp from monotone, and from the scalar power of the stopping tests;
    ``_MARGIN`` covers both.
    """
    grid, values, n = f.grid, f.values, f.n
    osc = float(np.max(values) - np.min(values))
    b = _block_size(n)
    best = 0.0
    for k in range(1, min(b, n)):
        q, d = _lag_quotient(grid, values, k, alpha)
        best = max(best, q)
        if osc / float(np.min(d)) ** alpha * (1.0 + _MARGIN) <= best:
            return best
    if n <= b:
        return best
    k = 2 * b
    while k < n:
        best = max(best, _lag_quotient(grid, values, k, alpha)[0])
        k *= 2

    starts = np.arange(0, n, b)
    blocks = starts.size
    hi = np.maximum.reduceat(values, starts)
    lo = np.minimum.reduceat(values, starts)
    first = grid[starts]
    last = grid[np.minimum(starts + (b - 1), n - 1)]
    bounds, lefts, rights = [], [], []
    width = max(1, _BATCH // blocks)
    for k0 in range(1, blocks, width):
        diag = np.arange(k0, min(blocks, k0 + width))
        counts = blocks - diag
        offsets = np.cumsum(counts) - counts
        left = np.arange(counts.sum()) - np.repeat(offsets, counts)
        right = left + np.repeat(diag, counts)
        gap = first[right] - last[left]
        nearest = np.minimum.reduceat(gap, offsets)
        beaten = np.flatnonzero(osc / nearest ** alpha * (1.0 + _MARGIN) <= best)
        end = offsets[beaten[0]] if beaten.size else gap.size
        left, right, gap = left[:end], right[:end], gap[:end]
        bound = (np.maximum(hi[left] - lo[right], hi[right] - lo[left])
                 / gap ** alpha * (1.0 + _MARGIN))
        keep = bound > best
        bounds.append(bound[keep])
        lefts.append(left[keep])
        rights.append(right[keep])
        if beaten.size:
            break

    bound = np.concatenate(bounds)
    order = np.argsort(-bound)
    bound = bound[order]
    left = np.concatenate(lefts)[order] * b
    right = np.concatenate(rights)[order] * b
    offsets = np.arange(b)
    most = max(1, _BATCH // (b * b))  # block pairs per batch
    pos, take = 0, max(1, most // 16)
    while pos < bound.size and bound[pos] > best:
        stop = pos + int(np.count_nonzero(bound[pos:pos + take] > best))
        i = left[pos:stop, None] + offsets
        j = np.minimum(right[pos:stop, None] + offsets, n - 1)  # the last block may be short
        dv = values[j][:, None, :] - values[i][:, :, None]
        d = grid[j][:, None, :] - grid[i][:, :, None]
        best = max(best, float(np.max(np.abs(dv) / d ** alpha)))
        pos, take = stop, min(2 * take, most)
    return best


def holder_seminorm(f: SampledFunction, alpha: float) -> float:
    """Holder seminorm [f]_{0,alpha} over all sample pairs, exact on the grid.

    The result lower-bounds the continuum seminorm and is monotone under grid
    refinement.  It equals a full pair scan to the bit; the block-bound scan
    that computes it is described in `_pairwise_max_quotient`.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    return _pairwise_max_quotient(f, float(alpha))


def holder_norm(f: SampledFunction, k: int, alpha: float,
                derivative_values=None) -> float:
    """Holder norm: sum of sup norms of derivatives up to order k, plus the
    alpha-seminorm of the k-th derivative (omitted when alpha is zero).

    For k = 1 the derivative samples ``derivative_values`` are required;
    finite differences are deliberately not offered.
    """
    if k not in (0, 1):
        raise InvalidInputError("k must be 0 or 1")
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in [0, 1], got {alpha}")
    total = sup_norm(f)
    if k == 1:
        if derivative_values is None:
            raise InvalidInputError("k = 1 requires explicit derivative samples")
        dv = np.asarray(derivative_values, dtype=float)
        if dv.shape != f.values.shape:
            raise InvalidInputError("derivative samples must match the grid")
        f = SampledFunction(f.grid, dv)
        total += sup_norm(f)
    if alpha > 0:
        total += holder_seminorm(f, alpha)
    return total
