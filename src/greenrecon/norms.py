"""Holder norms and seminorms of sampled real functions on intervals.

Distances are plain (non-wrapping) differences of abscissas.  All quantities
are exact maxima over the supplied sample set and therefore lower bounds of
the corresponding continuum norms; they converge from below as the grid is
refined.  Consumers that verify inequalities against these values must keep
that one-sided character in mind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# relative allowance in the lag scan's stopping bound, whose scalar power may
# differ in the last ulp from the vectorised power the pair quotients use
_MARGIN = 16 * np.finfo(float).eps


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


def _pairwise_max_quotient(f: SampledFunction, alpha: float) -> float:
    """max over distinct sample pairs of |v_i - v_j| / |x_i - x_j|^alpha.

    Pairs are visited by index lag k = 1, 2, ...  Every pair's quotient is
    computed exactly as a full pair scan computes it, so the result is the
    same to the bit.

    Every pair at a larger lag is at least ``nearest``, the smallest distance
    at lag k, apart, and this holds for the computed distances too: a pair at
    lag k' > k spans a lag-k pair whose grid difference is no larger, and
    rounding is monotone.  Its value difference is at most max(v) - min(v),
    so the scan stops once that over ``nearest``^alpha cannot beat the best
    quotient found; ``_MARGIN`` covers the power.
    """
    grid, values = f.grid, f.values
    osc = float(np.max(values) - np.min(values))
    best = 0.0
    for k in range(1, f.n):
        d = grid[k:] - grid[:-k]  # positive: the grid strictly increases
        best = max(best, float(np.max(np.abs(values[k:] - values[:-k]) / d ** alpha)))
        if osc / float(np.min(d)) ** alpha * (1.0 + _MARGIN) <= best:
            break
    return best


def holder_seminorm(f: SampledFunction, alpha: float) -> float:
    """Holder seminorm [f]_{0,alpha} over all sample pairs, exact on the grid.

    The result lower-bounds the continuum seminorm and is monotone under grid
    refinement.
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
