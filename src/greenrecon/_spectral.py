"""Internal spectral toolkit for uniform periodic samples.

Everything here works with real samples on a uniform grid x_j = j*period/n
(endpoint excluded) and represents the data by its trigonometric interpolant.
For even n the Nyquist mode is treated as a pure cosine, which is the unique
real-valued convention.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, InvalidInputError


def uniform_grid(n: int, period: float) -> np.ndarray:
    """Uniform grid of n points on [0, period), endpoint excluded."""
    return np.arange(n) * (period / n)


# A block's table of powers and its matrix product hold (b + rows) x block
# complex values: at most `_BUDGET`, 512 KB, above the 512-point floor.
_BUDGET = 32768
_MIN_BLOCK = 512
_MAX_BABY = 32


def _blocking(K: int) -> tuple[int, int, int]:
    """The shape of a K-term power sum: baby steps b, rows = ceil(K/b), and
    points per block.

    A block makes b - 1 + 2(rows - 1) + 1 elementwise passes, fewest near
    b = sqrt(2K), so b = min(32, ceil(sqrt(2K))), unless one row of K powers
    (K - 1 passes) makes at most two passes more: a one-row product is a
    matrix-vector product, which costs about two passes less than a matrix
    product of several rows (K <= 13).  A block is the widest power of two
    of points whose powers and products fit `_BUDGET`, and at least 512;
    from K = 1024 on, that is 512 points of 32 powers.
    """
    b = min(_MAX_BABY, math.isqrt(2 * K - 1) + 1)
    rows = -(-K // b)
    if K - 1 <= (b - 1) + 2 * (rows - 1) + 1 + 2:
        b, rows = K, 1
    return b, rows, max(_MIN_BLOCK, 1 << ((_BUDGET // (b + rows)).bit_length() - 1))


def _power_sum(coeffs: np.ndarray, z) -> np.ndarray:
    """sum_k coeffs[k] * z**k, of the shape of z, by baby-step/giant-step
    evaluation (Paterson & Stockmeyer, SIAM J. Comput. 1973).

    For each block of points (shaped by :func:`_blocking`): the powers
    z**0 ... z**(b-1) by running product, one matrix product with the
    coefficients as ceil(K/b) rows of b, then Horner in w = z**b over those
    rows.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    K = coeffs.size
    b, rows, block = _blocking(K)
    table = np.zeros(rows * b, dtype=complex)
    table[:K] = coeffs
    table = table.reshape(rows, b)              # table[m, j] = coeffs[m*b + j]
    out = np.empty(flat.size, dtype=complex)
    powers = np.empty((b, min(block, flat.size)), dtype=complex)
    for lo in range(0, flat.size, block):
        zb = flat[lo: lo + block]
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


def _chopped(coeffs: np.ndarray) -> np.ndarray:
    """The leading coefficients up to the last one whose modulus exceeds
    eps * max|c| (one term if all are zero): the rounding-plateau cut of
    Aurentz & Trefethen (ACM TOMS 2017).  On |z| = 1 the K - k terms left out
    move a power sum by at most (K - k) * eps * max|c|, within the rounding
    bound of the full sum.  A spectrum without a plateau keeps every term
    (white noise), or all but the last few (a derivative's k-weighted ones).
    """
    modulus = np.abs(coeffs)
    above = np.flatnonzero(modulus > np.finfo(float).eps * modulus.max())
    return coeffs[: above[-1] + 1 if above.size else 1]


def _synthesize(coeffs: np.ndarray, step: float, x, first: int = 0) -> np.ndarray:
    """Re sum_k coeffs[k] * z**(first + k) with z = exp(1j*step*x): one exp
    per point, then the blocked power sum of the coefficients :func:`_chopped`
    at the rounding plateau, in memory linear in the number of points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.exp(1j * step * x)
    return (_power_sum(_chopped(coeffs), z) * z ** first).real


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


def trig_sup_abs(values) -> float:
    """Supremum of |interpolant| of uniform periodic samples.

    Resamples on a grid 8 times finer and polishes the discrete maximum with
    a parabolic fit; accurate to roughly (8n)^-4 relative.
    """
    values = np.asarray(values, dtype=float)
    fine = np.abs(resample_uniform(values, 8 * values.size))
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
        tol = 64.0 * np.finfo(float).eps * span
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
