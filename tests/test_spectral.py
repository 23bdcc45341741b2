"""Trig synthesis against an mpmath direct sum, its cut at the rounding
plateau, and the monotone inversion.

The reference evaluates the trigonometric polynomial defined by the float64
rfft coefficients exactly (phases 2*pi*k*x/period in 40-digit arithmetic), so
what is measured is the rounding of the synthesis itself.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenrecon
from greenrecon import _spectral, conformal
from greenrecon.boundary import build_cumulative
from greenrecon._spectral import TrigInterpolant, invert_increasing
from greenrecon.errors import ConvergenceError, GreenreconError, InvalidInputError
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


@pytest.fixture
def synthesis_calls(monkeypatch):
    """A list that gets one entry per call of `_synthesize`."""
    synthesize, calls = _spectral._synthesize, []
    monkeypatch.setattr(_spectral, "_synthesize",
                        lambda *args, **kwargs: calls.append(1) or synthesize(*args, **kwargs))
    return calls


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

    def test_forward_inversion_makes_one_synthesis(self, synthesis_calls):
        # forward_operator synthesizes nothing but its inversion's residual
        conformal.forward_operator(perturbed_disk(0.3), 2048)
        assert synthesis_calls == [1]

    @pytest.mark.parametrize("n", [512, 2048])
    def test_cumulative_map_inversion_makes_one_synthesis(self, synthesis_calls, n):
        # a datum at n = 128 takes 3 (the parent loop 5), at n = 256 takes 2
        cm = build_cumulative(conformal.forward_operator(perturbed_disk(0.3), n))
        synthesis_calls.clear()
        cm.s_of(conformal.boundary_grid(n))
        assert synthesis_calls == [1]

    def test_nan_target_refused_before_any_synthesis(self, synthesis_calls):
        cum = positive_cumulative()
        with pytest.raises(InvalidInputError):
            invert_increasing(cum, [1.0, np.nan])
        assert synthesis_calls == []
        assert np.array_equal(invert_increasing(cum, [-np.inf, np.inf]), [0.0, PERIOD])

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


def synthesized_slope_inversion(cum, targets):
    """The inversion loop before the certified step, kept as an oracle: the
    same node-table seed, then Newton steps with the synthesized slope until a
    synthesized residual is within the default tol (three syntheses on
    resolved data, one more than the certified loop's iterations)."""
    n, hi, span = cum.interp.n, cum.period, cum.total
    tol = 64.0 * np.finfo(float).eps * span
    t = np.clip(np.atleast_1d(np.asarray(targets, dtype=float)), 0.0, span)
    linear = hi * np.clip(t / span, 0.0, 1.0)
    xs = np.append(_spectral.uniform_grid(n, hi), hi)
    ss = np.append(cum.node_values(), span)
    h = np.diff(ss)
    x = linear
    if np.all(h > 0):
        slopes = cum.interp.values + (cum.mean - cum.interp.mean)
        slopes = np.append(slopes, slopes[0])
        j = np.clip(np.searchsorted(ss, t, side="right") - 1, 0, n - 1)
        ok = (slopes[j] > 0) & (slopes[j + 1] > 0)
        inv = 1.0 / np.where(slopes > 0, slopes, 1.0)
        u = (t - ss[j]) / h[j]
        seed = (xs[j] + u * u * (3.0 - 2.0 * u) * (xs[j + 1] - xs[j])
                + h[j] * u * (1.0 - u) * ((1.0 - u) * inv[j] - u * inv[j + 1]))
        x = np.where(ok, np.clip(seed, xs[j], xs[j + 1]), linear)
    xlo, xhi = np.zeros(t.shape), np.full(t.shape, hi)
    for _ in range(100):
        resid = cum(x) - t
        if np.max(np.abs(resid)) <= tol:
            break
        xlo = np.where(resid < 0, x, xlo)
        xhi = np.where(resid > 0, x, xhi)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - resid / (cum.interp(x) + (cum.mean - cum.interp.mean))
        bad = ~np.isfinite(xn) | (xn < xlo) | (xn > xhi)
        x = np.where(bad, 0.5 * (xlo + xhi), xn)
    else:
        raise AssertionError("oracle did not converge")
    return np.where(t <= 0.0, 0.0, np.where(t >= span, hi, x))


def assert_matches_oracle(cum, targets):
    """invert_increasing against the oracle: every target within 1 ulp.  The
    table slope is within 1e-7 relative of the synthesized one, which moves a
    last step below an ulp at n >= 512, so a target may round to the other
    neighbour; on every case here the two agree to the bit."""
    got = invert_increasing(cum, targets)
    want = synthesized_slope_inversion(cum, targets)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def both_inversions(f, n):
    """The arclength inversion of `forward_operator` and the inverse
    cumulative map of the datum, each with its targets."""
    arclength = conformal._arclength_map(conformal.eval_fprime(f.canonical(), n))
    cm = build_cumulative(conformal.forward_operator(f, n))
    return [(arclength, _spectral.uniform_grid(n, arclength.total)),
            (cm._cum, conformal.boundary_grid(n) / (2 * np.pi))]


@st.composite
def positive_data(draw):
    """1 + Re sum c_k e^{ikt} at n nodes: up to 8 modes <= 16, sum |c_k| <= 0.5."""
    n = draw(st.sampled_from([16, 64, 512, 2048]))
    modes = np.array(draw(st.lists(st.integers(1, 16), min_size=1, max_size=8, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = rng.standard_normal(modes.size) + 1j * rng.standard_normal(modes.size)
    c *= draw(st.floats(0.0, 0.5)) / np.sum(np.abs(c))
    t = 2 * np.pi * np.arange(n) / n
    return TrigInterpolant(1.0 + (np.exp(1j * np.outer(t, modes)) @ c).real, PERIOD)


class TestCertifiedStep:
    @pytest.mark.parametrize("n", [512, 2048, 4096])
    @pytest.mark.parametrize("eps", [0.05, 0.2])
    def test_quadratic_family_matches_the_oracle(self, eps, n):
        for cum, targets in both_inversions(perturbed_disk(eps), n):
            assert_matches_oracle(cum, targets)

    def test_roundtrip_benchmark_maps_match_the_oracle(self):
        from perfbench.workloads import ROUNDTRIP_N, make_inputs
        for f in make_inputs("roundtrip", 1):
            for cum, targets in both_inversions(f, ROUNDTRIP_N):
                assert_matches_oracle(cum, targets)

    def test_one_iteration_suffices_on_resolved_data(self):
        (cum, targets), _ = both_inversions(perturbed_disk(0.2), 512)
        assert np.array_equal(invert_increasing(cum, targets, max_iter=1),
                              invert_increasing(cum, targets))

    @pytest.mark.parametrize("make", [positive_cumulative, coarse_cumulative,
                                      peaked_cumulative, touching_cumulative])
    def test_table_slope_within_its_bound(self, make):
        cum = make()
        xs, _, slopes, curvature = cum.node_table()
        E = _spectral._step_bounds(cum, xs[1])[0]
        x = np.random.default_rng(5).uniform(0.0, PERIOD, 2000)
        exact = cum.interp(x) + (cum.mean - cum.interp.mean)
        assert np.max(np.abs(_spectral._table_slope(xs, slopes, curvature, x) - exact)) <= E
        assert np.allclose(_spectral._table_slope(xs, slopes, curvature, xs), slopes,
                           rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [256, 512, 2048])
    def test_step_next_to_a_zero_slope_is_not_certified(self, n):
        """1 - cos t vanishes at t = 0.  The target 1e-12 takes the linear
        guess, whose step leaves the bracket and is bisected; the two others
        would certify on their own.  The solve must go on, and the steps of
        the targets in the first node interval certify only with the
        quadratic term counted."""
        t = 2 * np.pi * np.arange(n) / n
        cum = TrigInterpolant(1.0 - np.cos(t), PERIOD).antiderivative()
        for targets in ([1e-12, cum.total / 3, cum.total / 2],
                        np.linspace(0.0, cum.total, 1001)):
            x = invert_increasing(cum, targets)
            assert np.max(np.abs(cum(x) - targets)) <= 64.0 * np.finfo(float).eps * cum.total

    @pytest.mark.parametrize("n, kind", [(16, "spike"), (64, "spike"), (64, "noise"),
                                         (1024, "noise")])
    def test_rough_data_take_no_more_syntheses_than_the_oracle(self, synthesis_calls, n, kind):
        """Where the table slope's bound is loose the slope is synthesized,
        so Newton's steps stay as fast as the oracle's."""
        t = 2 * np.pi * np.arange(n) / n
        values = {"spike": 1.0 + 10.0 * np.exp(-(np.sin((t - np.pi) / 2) / 0.05) ** 2),
                  "noise": 1.0 + 0.5 * np.random.default_rng(n).uniform(-1.0, 1.0, n)}[kind]
        cum = TrigInterpolant(values, PERIOD).antiderivative()
        targets = np.linspace(0.0, cum.total, 1001)
        synthesized_slope_inversion(cum, targets)
        oracle = len(synthesis_calls)
        synthesis_calls.clear()
        invert_increasing(cum, targets)
        assert len(synthesis_calls) <= oracle

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(positive_data())
    def test_every_returned_residual_within_tol(self, interp):
        cum = interp.antiderivative()
        targets = np.linspace(0.0, cum.total, 257)
        x = invert_increasing(cum, targets)
        assert np.max(np.abs(cum(x) - targets)) <= 64.0 * np.finfo(float).eps * cum.total
