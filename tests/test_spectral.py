"""Trig synthesis against an mpmath direct sum, its cut at the rounding
plateau, and the monotone inversion.

The reference evaluates the trigonometric polynomial defined by the float64
rfft coefficients exactly (phases 2*pi*k*x/period in 40-digit arithmetic), so
what is measured is the rounding of the synthesis itself.
"""

import mpmath
import numpy as np
import pytest

import greenrecon
from greenrecon import _spectral, conformal
from greenrecon._spectral import TrigInterpolant, invert_increasing
from greenrecon.errors import ConvergenceError, GreenreconError
from greenrecon.families import perturbed_disk

PERIOD = 3.7
SIZES = (16, 512, 4096)


def smooth_samples(n):
    t = 2 * np.pi * np.arange(n) / n
    return np.exp(np.cos(t)) + 0.3 * np.sin(3 * t)


def noise_samples(n):
    return np.random.default_rng(n).standard_normal(n)


def points(n):
    """Twelve off-grid points: four in [0, P), eight in the periods around it."""
    rng = np.random.default_rng([n, 1])
    shifts = np.array([0, 0, 0, 0, -2, -1, 1, 2, -2, -1, 1, 2])
    return rng.uniform(0.0, PERIOD, shifts.size) + PERIOD * shifts


def reference(interp, x, kind):
    """interp(x), its derivative or its antiderivative (S(0) = 0), by direct sum.

    Powers z**k of z = exp(2j*pi*x/period) come from a running product in
    40 digits, whose rounding stays far below float64 for k <= n/2.
    """
    with mpmath.workdps(40):
        step = 2 * mpmath.pi / mpmath.mpf(PERIOD)
        wc = [mpmath.mpf(float(w)) * mpmath.mpc(complex(c))
              for w, c in zip(interp._w, interp.coeffs)]
        out = []
        for xv in x:
            xv = mpmath.mpf(float(xv))
            z = mpmath.expj(step * xv)
            total = {"value": wc[0].real, "derivative": 0,
                     "antiderivative": wc[0].real * xv}[kind]
            zk = mpmath.mpc(1)
            for k in range(1, len(wc)):
                zk *= z
                if kind == "value":
                    total += (wc[k] * zk).real
                elif kind == "derivative":
                    total += (wc[k] * 1j * k * step * zk).real
                else:
                    total += (wc[k] / (1j * k * step) * (zk - 1)).real
            out.append(float(total))
    return np.array(out)


def assert_close(got, ref, samples, x):
    """|got - ref| <= tol * (1 + |x|/P) * max|ref| at every point.

    The rounding of the phase 2*pi*k*x/P grows with |x| in any float64
    synthesis, hence the factor; tol is 1e-12 for white noise and 1e-14 for
    smooth data, whose high modes are negligible.
    """
    tol = 1e-12 if samples is noise_samples else 1e-14
    err = np.abs(got - ref)
    assert np.all(err <= tol * (1 + np.abs(x) / PERIOD) * np.max(np.abs(ref)))


@pytest.mark.parametrize("samples", [smooth_samples, noise_samples], ids=["smooth", "noise"])
@pytest.mark.parametrize("n", SIZES)
class TestSynthesisOracle:
    def test_values(self, samples, n):
        interp = TrigInterpolant(samples(n), PERIOD)
        x = points(n)
        assert_close(interp(x), reference(interp, x, "value"), samples, x)

    def test_derivative(self, samples, n):
        interp = TrigInterpolant(samples(n), PERIOD)
        x = points(n)
        assert_close(interp.derivative_at(x), reference(interp, x, "derivative"), samples, x)

    def test_antiderivative(self, samples, n):
        interp = TrigInterpolant(samples(n), PERIOD)
        x = points(n)
        got = interp.antiderivative()(x)
        assert_close(got, reference(interp, x, "antiderivative"), samples, x)

    def test_antiderivative_endpoints(self, samples, n):
        cum = TrigInterpolant(samples(n), PERIOD).antiderivative()
        scale = np.max(np.abs(cum(points(n))))
        assert abs(cum(0.0)[0]) <= 1e-14 * scale
        assert abs(cum(PERIOD)[0] - cum.total) <= 1e-14 * scale


class TestSynthesisShapes:
    def test_scalar_and_zero_d_inputs(self):
        interp = TrigInterpolant(smooth_samples(16), PERIOD)
        ref = reference(interp, [0.3], "value")
        for x in (0.3, np.float64(0.3), np.array(0.3)):
            for method in (interp, interp.derivative_at, interp.antiderivative()):
                assert method(x).shape == (1,)
            assert interp(x) == pytest.approx(ref, rel=1e-14)

    def test_empty_input(self):
        interp = TrigInterpolant(smooth_samples(16), PERIOD)
        assert interp(np.array([])).shape == (0,)
        assert interp.antiderivative()(np.array([])).shape == (0,)

    def test_samples_reproduced_at_nodes(self):
        values = noise_samples(512)
        interp = TrigInterpolant(values, PERIOD)
        nodes = np.arange(512) * (PERIOD / 512)
        assert np.max(np.abs(interp(nodes) - values)) <= 1e-12 * np.max(np.abs(values))


EPS = np.finfo(float).eps


@pytest.fixture
def kept_lengths(monkeypatch):
    """The coefficient count of every power sum that `_synthesize` makes."""
    power_sum, sizes = _spectral._power_sum, []

    def spy(coeffs, z):
        sizes.append(coeffs.size)
        return power_sum(coeffs, z)

    monkeypatch.setattr(_spectral, "_power_sum", spy)
    return sizes


class TestPlateauCut:
    """`_synthesize` sums the coefficients up to the last one above eps * max|c|."""

    @pytest.mark.parametrize("first", [0, 1])
    def test_white_noise_keeps_every_term(self, first, kept_lengths):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(1025) + 1j * rng.standard_normal(1025)
        x = points(2048)
        step = 2 * np.pi / PERIOD
        got = _spectral._synthesize(c, step, x, first=first)
        assert kept_lengths == [c.size]
        z = np.exp(1j * step * x)
        assert np.array_equal(got, (_spectral._power_sum(c, z) * z ** first).real)

    @pytest.mark.parametrize("r", [0.7, 0.9])
    def test_geometric_spectrum_stops_at_eps(self, r, kept_lengths):
        # c_k = r**k with max|c| = 1: the terms above eps are k < log(eps)/log(r)
        bound = np.log(EPS) / np.log(r)
        assert 1e-3 < bound % 1 < 1 - 1e-3    # far from a tie at the cut
        c = r ** np.arange(1025) + 0j
        x = points(2048)
        got = _spectral._synthesize(c, 2 * np.pi / PERIOD, x)
        kept = int(np.ceil(bound))
        assert kept_lengths == [kept]
        full = _spectral._power_sum(c, np.exp(2j * np.pi * x / PERIOD)).real
        dropped = np.sum(np.abs(c[kept:]))
        # both float sums also carry their own rounding, a few ulps of sum|c|
        assert np.max(np.abs(got - full)) <= dropped + 4 * EPS * np.sum(np.abs(c))

    def test_all_zero_coefficients_keep_one_term(self, kept_lengths):
        got = _spectral._synthesize(np.zeros(513, dtype=complex), 1.0, points(1024), first=1)
        assert kept_lengths == [1]
        assert np.array_equal(got, np.zeros(12))

    def test_scalar_point(self):
        c = 0.5 ** np.arange(257) + 0j
        got = _spectral._synthesize(c, 1.0, 0.3)
        assert np.array_equal(got, _spectral._synthesize(c, 1.0, np.array([0.3])))
        assert got[0] == pytest.approx((1 / (1 - 0.5 * np.exp(0.3j))).real, abs=1e-14)


def positive_cumulative(n=512):
    """Antiderivative of a strictly positive datum (min 0.4) on [0, PERIOD)."""
    t = 2 * np.pi * np.arange(n) / n
    values = 1.0 + 0.4 * np.cos(t) + 0.2 * np.sin(5 * t) + 0.01 * noise_samples(n)
    return TrigInterpolant(values, PERIOD).antiderivative()


class TestInvertIncreasing:
    @pytest.mark.parametrize("tol", [None, 1e-13])
    def test_every_residual_within_tol(self, tol):
        cum = positive_cumulative()
        s_lo, s_hi = cum(0.0)[0], cum(PERIOD)[0]
        targets = np.linspace(s_lo, s_hi, 1001)
        x = invert_increasing(cum, targets, tol=tol)
        if tol is None:
            tol = 64.0 * np.finfo(float).eps * max(1.0, s_hi - s_lo)
        assert np.max(np.abs(cum(x) - targets)) <= tol
        assert np.all(np.diff(x) > 0)

    def test_targets_beyond_the_range_map_to_the_ends(self):
        cum = positive_cumulative()
        x = invert_increasing(cum, [-0.5, cum.total / 2, cum.total + 0.5])
        assert x[0] == 0.0 and x[2] == PERIOD
        assert abs(cum(x[1])[0] - cum.total / 2) <= 1e-13

    def test_forward_inversion_makes_at_most_three_syntheses(self, monkeypatch):
        synthesize = _spectral._synthesize
        calls, per_inversion = [], []

        def counting_synthesis(*args, **kwargs):
            calls.append(1)
            return synthesize(*args, **kwargs)

        def counted_inversion(*args, **kwargs):
            calls.clear()
            x = invert_increasing(*args, **kwargs)
            per_inversion.append(len(calls))
            return x

        monkeypatch.setattr(_spectral, "_synthesize", counting_synthesis)
        monkeypatch.setattr(conformal, "invert_increasing", counted_inversion)
        conformal.forward_operator(perturbed_disk(0.3), 2048)
        assert len(per_inversion) == 1 and 1 <= per_inversion[0] <= 3

    def test_iteration_limit_raises(self):
        cum = positive_cumulative()
        targets = np.linspace(0.1, cum.total - 0.1, 257)
        with pytest.raises(ConvergenceError) as err:
            invert_increasing(cum, targets, tol=1e-13, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.tol == 1e-13
        assert err.value.residual > 1e-13
        assert "1 iterations" in str(err.value)

    def test_error_is_exported_package_error(self):
        assert greenrecon.ConvergenceError is ConvergenceError
        assert issubclass(ConvergenceError, GreenreconError)


def coarse_cumulative():
    """The positive datum at n = 16, where the node-table seed is coarse."""
    return positive_cumulative(16)


def peaked_cumulative():
    """exp(a cos t) with minimum 1e-3 of its maximum, at n = 64."""
    t = 2 * np.pi * np.arange(64) / 64
    return TrigInterpolant(np.exp(-0.5 * np.log(1e-3) * np.cos(t)), PERIOD).antiderivative()


def touching_cumulative():
    """1 - cos t vanishes at the node t = 0: targets next to it take the
    linear guess instead of the node-table seed."""
    t = 2 * np.pi * np.arange(16) / 16
    return TrigInterpolant(1.0 - np.cos(t), PERIOD).antiderivative()


@pytest.mark.parametrize("make", [coarse_cumulative, peaked_cumulative, touching_cumulative])
class TestInversionFallback:
    def test_every_residual_within_tol(self, make):
        cum = make()
        targets = np.linspace(0.0, cum.total, 1001)
        x = invert_increasing(cum, targets)
        tol = 64.0 * np.finfo(float).eps * max(1.0, cum.total)
        assert np.max(np.abs(cum(x) - targets)) <= tol
        assert np.all(np.diff(x) > 0)

    def test_iteration_limit_raises(self, make):
        cum = make()
        targets = np.linspace(0.0, cum.total, 257)
        with pytest.raises(ConvergenceError) as err:
            invert_increasing(cum, targets, tol=1e-13, max_iter=1)
        assert err.value.iterations == 1
