"""Holder norms and seminorms of sampled real functions on intervals.

All quantities are exact maxima over the supplied sample set and therefore
lower bounds of the corresponding continuum norms; they converge from below
as the grid is refined.  Consumers that verify inequalities against these
values must keep that one-sided character in mind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral import derivative_samples
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
    periodic : whether distances wrap around modulo ``period``
    period : the period; required when ``periodic`` and must cover the grid

    For periodic functions the distance between two abscissas is the shortest
    wraparound distance.
    """

    grid: np.ndarray
    values: np.ndarray
    periodic: bool = False
    period: float | None = None

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
        if self.periodic:
            if self.period is None or not self.period > 0:
                raise InvalidInputError("periodic functions need a positive period")
            if grid[-1] - grid[0] >= self.period + 1e-12 * self.period:
                raise InvalidInputError("grid span exceeds the period")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @classmethod
    def uniform(cls, values, period: float, periodic: bool = True,
                start: float = 0.0) -> "SampledFunction":
        """Samples at n uniform points of [start, start + period), end excluded."""
        values = np.asarray(values, dtype=float)
        grid = start + np.arange(values.size) * (period / values.size)
        return cls(grid, values, periodic=periodic, period=period if periodic else None)

    @property
    def n(self) -> int:
        return self.grid.size


def sup_norm(f: SampledFunction) -> float:
    """Largest absolute sample value (lower bound of the true sup norm)."""
    if not isinstance(f, SampledFunction):
        raise InvalidInputError("expected a SampledFunction")
    return float(np.max(np.abs(f.values)))


def _pairwise_max_quotient(f: SampledFunction, values: np.ndarray, alpha: float) -> float:
    """max over distinct sample pairs of |v_i - v_j| / d(x_i, x_j)^alpha.

    Pairs are visited by index lag k = 1, 2, ...; on a periodic grid the
    circular lag k takes the index lags k and n - k together.  Every pair's
    quotient is computed exactly as a full pair scan computes it, so the
    result is the same to the bit.

    Every pair at a larger lag is at least ``nearest``, the smallest distance
    at lag k, apart, and this holds for the computed distances too: a pair at
    lag k' > k spans, in the direction of its shorter arc, a lag-k pair whose
    grid difference is no larger (or, for an arc across the period, no
    smaller), and rounding is monotone.  Its value difference is at most
    max(v) - min(v), so the scan stops once that over ``nearest``^alpha
    cannot beat the best quotient found; ``_MARGIN`` covers the power.
    """
    grid, n = f.grid, f.n
    osc = float(np.max(values) - np.min(values))
    best = 0.0
    for k in range(1, n // 2 + 1 if f.periodic else n):
        lags = (k, n - k) if f.periodic and 2 * k != n else (k,)
        nearest = np.inf
        for lag in lags:
            d = grid[lag:] - grid[:-lag]
            if f.periodic:
                d = np.minimum(d, f.period - d)
            num = np.abs(values[lag:] - values[:-lag])
            mask = d > 0  # coincident abscissas (periodic wrap) carry equal values
            quot = np.zeros_like(d)
            np.divide(num, d ** alpha, out=quot, where=mask)
            best = max(best, float(np.max(quot)))
            nearest = min(nearest, float(np.min(d)))
        if nearest > 0 and osc / nearest ** alpha * (1.0 + _MARGIN) <= best:
            break
    return best


def holder_seminorm(f: SampledFunction, alpha: float) -> float:
    """Holder seminorm [f]_{0,alpha} over all sample pairs, exact on the grid.

    The distance is periodic when the function is; the result lower-bounds the
    continuum seminorm and is monotone under grid refinement.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    return _pairwise_max_quotient(f, f.values, float(alpha))


def holder_norm(f: SampledFunction, k: int, alpha: float,
                derivative_values=None) -> float:
    """Holder norm: sum of sup norms of derivatives up to order k, plus the
    alpha-seminorm of the k-th derivative (omitted when alpha is zero).

    For k = 1 the derivative samples are taken from ``derivative_values`` when
    given; otherwise they are computed by spectral differentiation, which
    requires a uniform periodic grid. Finite differences are deliberately not
    offered.
    """
    if k not in (0, 1):
        raise InvalidInputError("k must be 0 or 1")
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in [0, 1], got {alpha}")
    total = sup_norm(f)
    if k == 0:
        if alpha > 0:
            total += holder_seminorm(f, alpha)
        return total
    if derivative_values is not None:
        dv = np.asarray(derivative_values, dtype=float)
        if dv.shape != f.values.shape:
            raise InvalidInputError("derivative samples must match the grid")
    else:
        dv = _spectral_derivative(f)
    df = SampledFunction(f.grid, dv, periodic=f.periodic, period=f.period)
    total += sup_norm(df)
    if alpha > 0:
        total += holder_seminorm(df, alpha)
    return total


def _spectral_derivative(f: SampledFunction) -> np.ndarray:
    if not f.periodic:
        raise InvalidInputError(
            "k = 1 on non-periodic data requires explicit derivative samples")
    h = np.diff(f.grid)
    step = f.period / f.n
    if not np.allclose(h, step, rtol=0, atol=1e-9 * step):
        raise InvalidInputError("spectral differentiation needs a uniform grid")
    if abs((f.grid[-1] - f.grid[0]) + step - f.period) > 1e-9 * f.period:
        raise InvalidInputError("uniform periodic grid must cover one full period")
    return derivative_samples(f.values, f.period)


def composition_seminorm_bound(xi_seminorm: float, eta_lipschitz: float,
                               alpha: float) -> float:
    """Upper bound [xi]_{0,alpha} * [eta]_{0,1}^alpha for the alpha-seminorm
    of a composition xi(eta(.)) with eta Lipschitz."""
    if xi_seminorm < 0 or eta_lipschitz < 0:
        raise InvalidInputError("seminorms are nonnegative")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    return float(xi_seminorm) * float(eta_lipschitz) ** float(alpha)
