"""Internal spectral toolkit for uniform periodic samples.

Everything here works with real samples on a uniform grid x_j = j*period/n
(endpoint excluded) and represents the data by its trigonometric interpolant.
For even n the Nyquist mode is treated as a pure cosine, which is the unique
real-valued convention.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, InvalidInputError


def uniform_grid(n: int, period: float, start: float = 0.0) -> np.ndarray:
    """Uniform grid of n points on [start, start + period), endpoint excluded."""
    return start + np.arange(n) * (period / n)


# Baby steps per giant step, and points per block: a block's table of powers
# is 32 x 512 complex values, 256 KB, whatever the number of points.
_BABY = 32
_BLOCK = 512


def _power_sum(coeffs: np.ndarray, z) -> np.ndarray:
    """sum_k coeffs[k] * z**k, of the shape of z, by baby-step/giant-step
    evaluation (Paterson & Stockmeyer, SIAM J. Comput. 1973).

    For each block of points: the powers z**0 ... z**(b-1) by running product,
    one matrix product with the coefficients as ceil(K/b) rows of b, then
    Horner in w = z**b over those rows.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    b = min(_BABY, coeffs.size)
    rows = -(-coeffs.size // b)
    table = np.zeros(rows * b, dtype=complex)
    table[: coeffs.size] = coeffs
    table = table.reshape(rows, b)              # table[m, j] = coeffs[m*b + j]
    out = np.empty(flat.size, dtype=complex)
    powers = np.empty((b, min(_BLOCK, flat.size)), dtype=complex)
    for lo in range(0, flat.size, _BLOCK):
        zb = flat[lo: lo + _BLOCK]
        p = powers[:, : zb.size]
        p[0] = 1.0
        for j in range(1, b):
            np.multiply(p[j - 1], zb, out=p[j])
        partial = table @ p
        acc = partial[-1]
        if rows > 1:
            w = p[-1] * zb
            for m in range(rows - 2, -1, -1):
                acc *= w
                acc += partial[m]
        out[lo: lo + zb.size] = acc
    return out.reshape(z.shape)


def _synthesize(coeffs: np.ndarray, step: float, x, first: int = 0) -> np.ndarray:
    """Re sum_k coeffs[k] * z**(first + k) with z = exp(1j*step*x): one exp
    per point, then the blocked power sum, in memory linear in the number of
    points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.exp(1j * step * x)
    return (_power_sum(coeffs, z) * z ** first).real


class TrigInterpolant:
    """Trigonometric interpolant of real samples on a uniform periodic grid.

    Parameters
    ----------
    values : array of real samples at ``uniform_grid(n, period)``
    period : period of the underlying function

    The interpolant can be evaluated at arbitrary points, differentiated
    spectrally, and antidifferentiated (see :class:`CumulativeTrig`).
    """

    def __init__(self, values, period: float):
        values = np.array(values, dtype=float)
        if values.ndim != 1 or values.size < 4:
            raise InvalidInputError("need a flat array of at least 4 samples")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("samples must be finite")
        if values.size % 2:
            raise InvalidInputError("sample count must be even")
        self.n = values.size
        self.values = values
        self.period = float(period)
        self.coeffs = np.fft.rfft(values) / self.n
        self.omega = 2.0 * np.pi * np.arange(self.coeffs.size) / self.period
        # synthesis weights: mean and Nyquist count once, interior modes twice
        w = np.full(self.coeffs.size, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        self._w = w

    @property
    def mean(self) -> float:
        return float(self.coeffs[0].real)

    def __call__(self, x) -> np.ndarray:
        return _synthesize(self._w * self.coeffs, self.omega[1], x)

    def derivative_at(self, x) -> np.ndarray:
        """Derivative of the interpolant at arbitrary points."""
        return _synthesize(self._w * self.coeffs * (1j * self.omega), self.omega[1], x)

    def antiderivative(self, mean: float | None = None) -> "CumulativeTrig":
        return CumulativeTrig(self, mean=mean)


class CumulativeTrig:
    """Antiderivative S of a trigonometric interpolant, with S(0) = 0.

    S(x) = mean*x + P(x) where P is the periodic part. The mean slope may be
    overridden (used to pin a cumulative map to an exact total increment).
    """

    def __init__(self, interp: TrigInterpolant, mean: float | None = None):
        self.interp = interp
        self.mean = interp.mean if mean is None else float(mean)
        wc = interp._w[1:] * interp.coeffs[1:]
        self.pcoeffs = wc / (1j * interp.omega[1:])
        self.omega = interp.omega[1:]
        self.p0 = -float(np.sum(self.pcoeffs).real)
        self.period = interp.period

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        periodic = _synthesize(self.pcoeffs, self.interp.omega[1], x, first=1)
        return self.mean * x + periodic + self.p0

    def slope(self, x) -> np.ndarray:
        """dS/dx, i.e. the interpolant itself (with the overridden mean)."""
        return self.interp(x) + (self.mean - self.interp.mean)

    @property
    def total(self) -> float:
        """S(period) = mean * period (the periodic part vanishes)."""
        return self.mean * self.period

    def node_values(self) -> np.ndarray:
        """S at the original uniform nodes, computed by inverse FFT."""
        n = self.interp.n
        full = np.zeros(n // 2 + 1, dtype=complex)
        # rfft normalization: irfft expects unscaled coefficients
        full[1:] = self.interp.coeffs[1:] / (1j * self.interp.omega[1:]) * n
        # Nyquist cosine integrates to a sine, which vanishes at the nodes
        full[-1] = 0.0
        periodic = np.fft.irfft(full, n)
        x = uniform_grid(n, self.period)
        return self.mean * x + periodic - periodic[0]


def derivative_samples(values, period: float) -> np.ndarray:
    """Spectral derivative of uniform periodic samples, at the same nodes."""
    values = np.asarray(values, dtype=float)
    n = values.size
    c = np.fft.rfft(values)
    omega = 2.0 * np.pi * np.arange(c.size) / period
    d = c * (1j * omega)
    if n % 2 == 0:
        d[-1] = 0.0  # Nyquist cosine has zero derivative at the nodes
    return np.fft.irfft(d, n)


def resample_uniform(values, m: int) -> np.ndarray:
    """Resample uniform periodic samples onto m uniform points (FFT zero-pad)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if m == n:
        return values.copy()
    if m < n:
        raise InvalidInputError("resample target must not be coarser")
    c = np.fft.rfft(values)
    out = np.zeros(m // 2 + 1, dtype=complex)
    out[: n // 2] = c[: n // 2]
    if n % 2 == 0:
        out[n // 2] = 0.5 * c[n // 2]  # split Nyquist when it becomes interior
    else:
        out[: c.size] = c
    return np.fft.irfft(out, m) * (m / n)


def trig_sup_abs(values, oversample: int = 8) -> float:
    """Supremum of |interpolant| of uniform periodic samples.

    Resamples on an oversampled grid and polishes the discrete maximum with a
    parabolic fit; accurate to roughly (oversample*n)^-4 relative.
    """
    values = np.asarray(values, dtype=float)
    fine = np.abs(resample_uniform(values, oversample * values.size))
    i = int(np.argmax(fine))
    m = fine.size
    ym, y0, yp = fine[(i - 1) % m], fine[i], fine[(i + 1) % m]
    den = ym - 2.0 * y0 + yp
    best = y0
    if den < -1e-300:
        best = y0 - (yp - ym) ** 2 / (8.0 * den)
    return float(max(best, y0, np.max(np.abs(values))))


def _newton_seed(cumulative: CumulativeTrig, t: np.ndarray) -> np.ndarray:
    """Starting guesses for S(x) = t: the cubic-Hermite interpolant of the
    inverse through the node table (x_j, S(x_j)) with slopes 1/S'(x_j), one
    irfft and no synthesis, clipped to each target's node interval.  Falls
    back to the linear guess everywhere if the table is not strictly
    increasing, and for a target next to a node slope that is not positive."""
    n, period = cumulative.interp.n, cumulative.period
    linear = period * np.clip(t / cumulative.total, 0.0, 1.0)
    xs = np.append(uniform_grid(n, period), period)
    ss = np.append(cumulative.node_values(), cumulative.total)
    h = np.diff(ss)
    if not np.all(h > 0):
        return linear
    slopes = cumulative.interp.values + (cumulative.mean - cumulative.interp.mean)
    slopes = np.append(slopes, slopes[0])
    j = np.clip(np.searchsorted(ss, t, side="right") - 1, 0, n - 1)
    ok = (slopes[j] > 0) & (slopes[j + 1] > 0)
    inv = 1.0 / np.where(slopes > 0, slopes, 1.0)   # dx/dS at the nodes
    u = (t - ss[j]) / h[j]
    seed = (xs[j] + u * u * (3.0 - 2.0 * u) * (xs[j + 1] - xs[j])
            + h[j] * u * (1.0 - u) * ((1.0 - u) * inv[j] - u * inv[j + 1]))
    return np.where(ok, np.clip(seed, xs[j], xs[j + 1]), linear)


def invert_increasing(cumulative: CumulativeTrig, targets,
                      tol: float | None = None, max_iter: int = 100) -> np.ndarray:
    """Solve S(x) = t for each target on [0, period], S strictly increasing.

    Newton iteration on the interpolant from the node-table seed, with a
    bracketing bisection fallback; terminates when every residual
    |S(x) - t| falls below ``tol`` (default: a few dozen ulps of the total
    increment, which keeps downstream spectra at rounding level), else
    raises :class:`ConvergenceError` after ``max_iter`` iterations.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    hi = cumulative.period
    span = cumulative.total            # S(0) = 0 and S(period) = total by construction
    if not span > 0:
        raise InvalidInputError("cumulative function is not increasing on the interval")
    if tol is None:
        tol = 64.0 * np.finfo(float).eps * max(1.0, abs(span))
    t = np.clip(t, 0.0, span)  # targets beyond the range map to the nearer end
    xlo = np.zeros(t.shape)
    xhi = np.full(t.shape, hi)
    x = _newton_seed(cumulative, t)
    worst = np.inf
    for _ in range(max_iter):
        resid = cumulative(x) - t
        worst = float(np.max(np.abs(resid)))
        if worst <= tol:
            break
        xlo = np.where(resid < 0, x, xlo)
        xhi = np.where(resid > 0, x, xhi)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - resid / cumulative.slope(x)
        bad = ~np.isfinite(xn) | (xn < xlo) | (xn > xhi)
        x = np.where(bad, 0.5 * (xlo + xhi), xn)
    else:
        raise ConvergenceError(max_iter, worst, tol)
    # pin exact endpoints
    x = np.where(t <= 0.0, 0.0, x)
    x = np.where(t >= span, hi, x)
    return x
