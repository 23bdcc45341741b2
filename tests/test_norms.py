from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenrecon import norms
from greenrecon.boundary import BoundaryFunction
from greenrecon.cli import main
from greenrecon.conformal import forward_operator
from greenrecon.errors import InvalidInputError
from greenrecon.families import perturbed_disk
from greenrecon.norms import (SampledFunction, closed_interval, holder_norm,
                              holder_seminorm, sup_norm)


def brute_force_seminorm(grid, values, alpha):
    """Independent O(N^2) oracle: plain double loop over every pair."""
    best = 0.0
    n = len(grid)
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(grid[i] - grid[j])
            best = max(best, abs(values[i] - values[j]) / d ** alpha)
    return best


def pair_scan_seminorm(f, alpha, rows=256):
    """Oracle: every sample pair, ``rows`` rows of the n-by-n pair matrix at a
    time, with the float operations that holder_seminorm applies to each
    pair, so the two agree to the bit."""
    best = 0.0
    for lo in range(0, f.n, rows):
        d = np.abs(f.grid[lo:lo + rows, None] - f.grid[None, :])
        num = np.abs(f.values[lo:lo + rows, None] - f.values[None, :])
        quot = np.zeros_like(d)
        np.divide(num, d ** alpha, out=quot, where=d > 0)
        best = max(best, float(np.max(quot)))
    return best


# points per block of the seminorm's block scan at the sizes drawn below
B = norms._block_size(96)
BLOCK_EDGE_SIZES = [2, B - 1, B, B + 1, 2 * B + 1]
alphas = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))


@st.composite
def sampled_functions(draw):
    """Uniform, non-uniform and closed-interval grids with noisy, smooth or
    constant values.  Sizes include the block scan's edge cases, wild grids
    change their spacing a million-fold inside a block, and values are
    scaled to 1e+-150."""
    n = draw(st.one_of(st.sampled_from(BLOCK_EDGE_SIZES), st.integers(2, 96)))
    period = draw(st.floats(1e-3, 1e3))
    spacing = draw(st.sampled_from(["uniform", "non-uniform", "wild", "closed"]))
    if spacing in ("non-uniform", "wild"):
        gap = (st.one_of(st.floats(1e-3, 1e-2), st.floats(0.5, 1.0)) if spacing == "non-uniform"
               else st.one_of(st.floats(1e-6, 2e-6), st.floats(1.0, 2.0)))
        gaps = np.array(draw(st.lists(gap, min_size=n, max_size=n)))
        grid = np.concatenate([[0.0], np.cumsum(gaps[:-1])]) * (period / np.sum(gaps))
    else:
        grid = np.arange(n) * (period / n)
    kind = draw(st.sampled_from(["noise", "smooth", "constant"]))
    if kind == "noise":
        values = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    elif kind == "smooth":
        coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
        values = sum(c * np.cos(2.0 * np.pi * (k + 1) * grid / period + k)
                     for k, c in enumerate(coeffs))
    else:
        values = np.full(n, draw(st.floats(-1e3, 1e3)))
    values = values * draw(st.sampled_from([1.0, 1e150, 1e-150]))
    if spacing == "closed":  # [0, period] with the endpoint repeating the start
        return SampledFunction(np.append(grid, period), np.append(values, values[0]))
    return SampledFunction(grid, values)


@st.composite
def near_ties(draw):
    """(f, alpha) with v = c (x - x_0)^alpha on a uniform grid: every pair with
    the first point has quotient c up to rounding, in every block, and a few
    values are moved by one ulp."""
    n = draw(st.one_of(st.sampled_from(BLOCK_EDGE_SIZES), st.integers(2 * B + 2, 96)))
    alpha = draw(alphas)
    grid = draw(st.floats(-8.0, 8.0)) + np.arange(n) * 2.0 ** draw(st.integers(-8, 2))
    values = draw(st.sampled_from([1.0, -3.0, 1e150, 1e-150])) * (grid - grid[0]) ** alpha
    moved = draw(st.lists(st.integers(1, n - 1), max_size=4))
    values[moved] = np.nextafter(values[moved], draw(st.sampled_from([-np.inf, np.inf])))
    return SampledFunction(grid, values), alpha


class TestLagScanEqualsPairScan:
    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(f=sampled_functions(), alpha=alphas)
    def test_random_grids(self, f, alpha):
        assert holder_seminorm(f, alpha) == pair_scan_seminorm(f, alpha)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=near_ties())
    def test_near_ties_across_blocks(self, case):
        f, alpha = case
        assert holder_seminorm(f, alpha) == pair_scan_seminorm(f, alpha)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(f=sampled_functions(), alpha=alphas, b=st.sampled_from([2, 3, 5, 16, 32]))
    def test_any_block_size(self, f, alpha, b):
        # the block size is a fixed function of n; here other sizes are
        # forced on small grids, since exactness must not depend on it
        with mock.patch.object(norms, "_block_size", lambda n: b):
            assert holder_seminorm(f, alpha) == pair_scan_seminorm(f, alpha)

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_maximum_at_the_nearest_ends_of_two_blocks(self, alpha):
        # Four blocks: 0 at x = 0 ... B-1; 0.5 on a cluster halfway to the
        # third block, which starts at x = B and holds 1; 1 on a fourth block
        # far off.  The largest quotient, 1, is the pair (B-1, 2B): the
        # nearest ends of blocks 0 and 2, at a lag that neither the short
        # lags nor the seed lags visit.  Only a bound measured between those
        # two ends keeps it, and only the second diagonal holds it.
        grid = np.concatenate([np.arange(B), B - 0.5 + 1e-3 * np.arange(B),
                               B + np.arange(B), 1000.0 + np.arange(B)])
        f = SampledFunction(grid, np.repeat([0.0, 0.5, 1.0, 1.0], B))
        assert holder_seminorm(f, alpha) == pair_scan_seminorm(f, alpha) == 1.0

    def test_second_block_size(self):
        # n = 8192 is the first size with 16-point blocks
        s = np.arange(8192) * (2 * np.pi / 8192)
        f = closed_interval(np.cos(s) + 0.2 * np.cos(2 * s + 1.0), 6.0)
        assert norms._block_size(f.n) == 16
        assert holder_seminorm(f, 0.5) == pair_scan_seminorm(f, 0.5)

    def test_sweep_traffic(self, monkeypatch, tmp_path):
        # every seminorm a small sweep measures, recorded as it is measured
        seen = []
        measure = norms.holder_seminorm

        def recorded(f, alpha):
            value = measure(f, alpha)
            seen.append((f, alpha, value))
            return value

        monkeypatch.setattr(norms, "holder_seminorm", recorded)
        code = main(["sweep", "--family", "z+eps*z^2", "--eps", "0.1:0.2:0.1",
                     "--theorem", "all", "--alpha", "0.5", "--n", "128",
                     "--out", str(tmp_path / "sweep")])
        assert code == 0 and len(seen) >= 10
        assert all(f.n == 129 for f, _, _ in seen)
        for f, alpha, value in seen:
            assert value == pair_scan_seminorm(f, alpha)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(n=st.integers(2, 64), value=st.floats(-1e6, 1e6),
           alpha=st.floats(0.0, 1.0, exclude_min=True))
    def test_constant_data_is_zero(self, n, value, alpha):
        f = closed_interval(np.full(n, value), 2.0)
        assert holder_seminorm(f, alpha) == pair_scan_seminorm(f, alpha) == 0.0

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_forward_datum(self, alpha):
        phi = forward_operator(perturbed_disk(0.2), 1024)
        for f in (phi.as_interval_function(), SampledFunction(phi.grid, phi.values)):
            assert holder_seminorm(f, alpha) == pair_scan_seminorm(f, alpha)

    def test_later_lag_closer_than_extrapolated(self):
        # steps 0.01, 1, 0.01: the lag-3 pair (1.02 apart) is closer than
        # 3/2 of the nearest lag-2 pair (1.01) and holds the maximum, so the
        # scan must not stop on a bound guessed from lag 2
        f = SampledFunction([0.0, 0.01, 1.01, 1.02], [0.0, 0.05, 0.95, 1.0])
        assert holder_seminorm(f, 0.5) == pair_scan_seminorm(f, 0.5)
        assert holder_seminorm(f, 0.5) == pytest.approx(1.02 ** -0.5, rel=1e-15)

    def test_maximum_at_the_last_lag(self):
        # the endpoints hold the only large difference
        f = SampledFunction(np.linspace(0.0, 1.0, 40), np.r_[0.0, np.full(38, 0.5), 2.0])
        for alpha in (0.05, 0.5):
            assert holder_seminorm(f, alpha) == pair_scan_seminorm(f, alpha)

    @pytest.mark.parametrize("alpha, x2", [
        (0.2, "0x1.202cd07652d91p-1"), (0.7, "0x1.211fc5c316e14p-1"),
        (0.2, "0x1.194e0d275d503p+0"), (0.7, "0x1.0039e57593658p+0"),
        (0.3, "0x1.9bd952e8cee4cp+0"), (0.3, "0x1.ca261aa644f88p+0")])
    def test_stop_bound_rounding_margin(self, alpha, x2):
        # Lag 2 and lag 3 each hold a pair at the same computed distance B;
        # the lag-3 pair alone differs by the full oscillation.  A scalar
        # B**alpha may exceed the vectorised one by an ulp, so without its
        # margin the stopping bound ends the scan before lag 3.
        x2 = float.fromhex(x2)
        grid = np.array([-1.5, np.nextafter(-1.5, 0.0), x2, np.nextafter(x2, 3.0)])
        f = SampledFunction(grid, [0.0, 1e-15, 1.0 - 2.0 ** -53, 1.0])
        assert holder_seminorm(f, alpha) == pair_scan_seminorm(f, alpha)


class TestClosedInterval:
    @pytest.mark.parametrize("n, period", [(96, np.pi), (96, 7.3), (100, np.pi)])
    def test_right_endpoint_is_the_period(self, n, period):
        # arange(n + 1) * (period / n) misses the period by an ulp for the
        # last two cases
        values = np.cos(np.arange(n))
        f = closed_interval(values, period)
        assert f.grid[-1] == period and f.values[-1] == values[0]
        assert np.array_equal(f.grid[:-1], np.arange(n) * (period / n))
        assert np.array_equal(f.values[:-1], values)
        phi = BoundaryFunction(values, period).as_interval_function()
        assert np.array_equal(phi.grid, f.grid) and np.array_equal(phi.values, f.values)


class TestSupNorm:
    def test_constant(self):
        f = SampledFunction(np.linspace(0, 1, 17), np.full(17, 3.5))
        assert sup_norm(f) == 3.5

    def test_mixed_signs(self):
        f = SampledFunction([0.0, 0.5, 1.0], [-2.0, 1.0, 0.0])
        assert sup_norm(f) == 2.0

    def test_sine_converges_to_one(self):
        grid = np.arange(1024) * (2 * np.pi / 1024)
        f = SampledFunction(grid, np.sin(grid))
        assert abs(sup_norm(f) - 1.0) <= 1e-4
        # refinement never decreases the measured sup
        coarse = SampledFunction(grid[::4], np.sin(grid[::4]))
        assert sup_norm(coarse) <= sup_norm(f)

    def test_rejects_too_small_grid(self):
        with pytest.raises(InvalidInputError):
            SampledFunction([0.0], [1.0])


class TestHolderSeminorm:
    def test_constant_is_zero(self):
        f = SampledFunction(np.linspace(0, 2, 33), np.full(33, 7.0))
        for alpha in (0.25, 0.5, 1.0):
            assert holder_seminorm(f, alpha) == 0.0

    def test_linear_lipschitz(self):
        grid = np.linspace(0, 1, 101)
        f = SampledFunction(grid, grid.copy())
        assert holder_seminorm(f, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_half_exponent(self):
        # the quotient |sqrt(s) - 0| / s^(1/2) equals 1 for every pair with 0
        grid = np.linspace(0, 1, 2048)
        f = SampledFunction(grid, np.sqrt(grid))
        assert abs(holder_seminorm(f, 0.5) - 1.0) <= 1e-3

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        grid = np.sort(rng.uniform(0, 3, 60))
        grid[0], grid[-1] = 0.0, 3.0
        values = rng.normal(size=60)
        f = SampledFunction(grid, values)
        for alpha in (0.3, 0.5, 1.0):
            assert holder_seminorm(f, alpha) == pytest.approx(
                brute_force_seminorm(grid, values, alpha), rel=1e-13)

    def test_alpha_out_of_range(self):
        f = SampledFunction([0.0, 1.0], [0.0, 1.0])
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidInputError):
                holder_seminorm(f, alpha)


class TestHolderNorm:
    def test_constant_k0(self):
        f = SampledFunction(np.linspace(0, 1, 33), np.full(33, 4.25))
        assert holder_norm(f, 0, 0.5) == 4.25

    def test_linear_k0_alpha1(self):
        grid = np.linspace(0, 1, 65)
        f = SampledFunction(grid, grid.copy())
        assert holder_norm(f, 0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_supplied_derivative_takes_precedence(self):
        grid = np.arange(64) * (2 * np.pi / 64)
        f = SampledFunction(grid, np.cos(grid))
        value = holder_norm(f, 1, 0.0, derivative_values=-np.sin(grid))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_k1_nonperiodic_without_derivative_rejected(self):
        f = SampledFunction(np.linspace(0, 1, 33), np.linspace(0, 1, 33) ** 2)
        with pytest.raises(InvalidInputError):
            holder_norm(f, 1, 0.5)

    def test_k_out_of_range(self):
        f = SampledFunction([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(InvalidInputError):
            holder_norm(f, 2, 0.5)


class TestInvariants:
    def test_refinement_monotone(self):
        rng = np.random.default_rng(3)
        grid = np.sort(rng.uniform(0, 1, 40))
        values = rng.normal(size=40)
        f = SampledFunction(grid, values)
        extra_g = rng.uniform(0, 1, 25)
        extra_v = rng.normal(size=25)
        g = np.concatenate([grid, extra_g])
        v = np.concatenate([values, extra_v])
        order = np.argsort(g, kind="stable")
        keep = np.concatenate([[True], np.diff(g[order]) > 0])
        refined = SampledFunction(g[order][keep], v[order][keep])
        for alpha in (0.3, 0.7, 1.0):
            assert holder_seminorm(refined, alpha) >= holder_seminorm(f, alpha)

    def test_exponent_comparison_on_grid(self):
        rng = np.random.default_rng(4)
        grid = np.sort(rng.uniform(0, 2, 50))
        f = SampledFunction(grid, rng.normal(size=50))
        alpha, beta = 0.4, 0.8
        diam = grid[-1] - grid[0]
        assert holder_seminorm(f, alpha) <= (
            holder_seminorm(f, beta) * diam ** (beta - alpha) * (1 + 1e-12))

    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(8, 40))
            grid = np.sort(rng.uniform(0, 1, n))
            grid[0] = 0.0
            u = rng.normal(size=n)
            v = rng.normal(size=n)
            lam = float(rng.normal()) * 3.0
            alpha = float(rng.uniform(0.2, 1.0))
            fu = SampledFunction(grid, u)
            fv = SampledFunction(grid, v)
            fsum = SampledFunction(grid, u + v)
            flam = SampledFunction(grid, lam * u)
            su, sv = holder_seminorm(fu, alpha), holder_seminorm(fv, alpha)
            assert holder_seminorm(flam, alpha) == pytest.approx(
                abs(lam) * su, rel=1e-13, abs=1e-13)
            assert sup_norm(flam) == pytest.approx(abs(lam) * sup_norm(fu),
                                                   rel=1e-13, abs=1e-13)
            assert holder_seminorm(fsum, alpha) <= su + sv + 1e-13 * max(1.0, su + sv)
