import math

import numpy as np
import pytest

from greenrecon.boundary import BoundaryFunction, build_cumulative
from greenrecon.conformal import ConformalMap, boundary_grid, forward_operator
from greenrecon.errors import CompatibilityError, InvalidInputError
from greenrecon.families import disk, disk_for_constant, perturbed_disk
from greenrecon.reconstruct import (exp_series, integrate_series,
                                    reconstruct_fprime, roundtrip_error)

TWO_PI = 2 * np.pi


def constant_datum(C, n=64):
    return BoundaryFunction(np.full(n, C), 1.0 / C)


def recurrence_exp_series(exponent, degree):
    """Oracle: coefficients of exp(g) truncated at ``degree`` by the derivative
    recurrence m*b_m = sum_{j=1..m} j*g_j*b_{m-j}, exact algebra at the
    truncation order in O(degree^2) operations."""
    g = np.zeros(degree + 1, dtype=complex)
    g[: min(exponent.size, degree + 1)] = exponent[: degree + 1]
    b = np.zeros(degree + 1, dtype=complex)
    b[0] = np.exp(g[0])
    jg = np.arange(degree + 1) * g
    for m in range(1, degree + 1):
        b[m] = np.dot(jg[1:m + 1], b[m - 1::-1][:m]) / m
    return b


class TestExpSeries:
    def test_single_mode_taylor(self):
        c = 0.3 - 0.2j
        out = exp_series(np.array([0.0, c]), 8)
        expected = np.array([c ** k / math.factorial(k) for k in range(9)])
        assert np.allclose(out, expected, atol=1e-15)

    def test_against_taylor_composition_oracle(self):
        # brute-force oracle of the recurrence oracle: sum g^j / j! by repeated
        # polynomial products (this exponent is not resolved on 22 nodes)
        rng = np.random.default_rng(2)
        g = rng.normal(size=6) * 0.3 + 1j * rng.normal(size=6) * 0.3
        degree = 10
        acc = np.zeros(degree + 1, complex)
        acc[0] = 1.0
        term = np.zeros(degree + 1, complex)
        term[0] = 1.0
        for j in range(1, 40):
            term = np.convolve(term, g)[: degree + 1] / j
            acc += term
        assert np.allclose(recurrence_exp_series(g, degree), acc, atol=1e-12)

    @pytest.mark.parametrize("half", [8, 64, 1024])
    def test_nodes_agree_with_the_recurrence_on_decaying_exponents(self, half):
        # exponents whose coefficients fall to rounding by degree half, as the
        # analytic completion of a resolved datum does
        rng = np.random.default_rng(half)
        k = np.arange(half)
        for _ in range(5):
            rho = 10.0 ** (-rng.uniform(16.0, 30.0) / half)
            g = 0.5 * (rng.normal(size=half) + 1j * rng.normal(size=half)) * rho ** k
            diff = exp_series(g, half - 1) - recurrence_exp_series(g, half - 1)
            assert np.max(np.abs(diff)) <= 1e-13


class TestIntegrateSeries:
    def test_constant_derivative(self):
        f = integrate_series([1.0], 0.5j)
        assert np.allclose(f.coefficients, [0.5j, 1.0])

    def test_polynomial_antiderivative(self):
        f = integrate_series([1.0, 0.2], 1.0)
        assert np.allclose(f.coefficients, [1.0, 1.0, 0.1])

    def test_derivative_roundtrip_identity(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
        f = ConformalMap(coeffs)
        g = integrate_series(f.fprime_coefficients(), coeffs[0])
        assert np.max(np.abs(g.coefficients - coeffs)) <= 1e-14


class TestReconstruct:
    def test_constant_datum_gives_disk_map(self):
        C = 0.2
        result = reconstruct_fprime(constant_datum(C), 0j, 1.0 / (TWO_PI * C), 128)
        expected = disk_for_constant(C).coefficients
        rebuilt = np.zeros_like(expected)
        rebuilt[: result.map.coefficients.size] = result.map.coefficients[:2]
        assert result.gamma == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(result.map.coefficients[2:])) <= 1e-14
        assert np.allclose(rebuilt, expected, atol=1e-12)
        assert result.consistent

    def test_unit_disk_normalization(self):
        phi = BoundaryFunction(np.full(64, 1 / TWO_PI), TWO_PI)
        result = reconstruct_fprime(phi, 0j, 1.0 + 0j, 64)
        expected = np.zeros(33, complex)
        expected[1] = 1.0
        assert np.max(np.abs(result.map.coefficients - expected)) <= 1e-10

    def test_quadratic_roundtrip_coefficients(self):
        f = perturbed_disk(0.1)
        phi = forward_operator(f, 1024)
        result = reconstruct_fprime(phi, f.zeta_o, f.zeta_b, 1024)
        recovered = result.map.coefficients
        assert abs(recovered[0]) <= 1e-10
        assert recovered[1] == pytest.approx(1.0, abs=1e-6)
        assert recovered[2] == pytest.approx(0.1, abs=1e-6)
        assert np.max(np.abs(recovered[3:])) <= 1e-6

    def test_gamma_recovers_rotation(self):
        gamma0 = 0.7
        f = perturbed_disk(0.1).rotated(gamma0)
        phi = forward_operator(f, 256)
        result = reconstruct_fprime(phi, f.zeta_o, f.zeta_b, 256)
        assert result.gamma == pytest.approx(gamma0, abs=1e-10)

    def test_gamma_stable_under_refinement(self):
        f = perturbed_disk(0.15).rotated(0.4)
        phi = forward_operator(f, 512)
        g1 = reconstruct_fprime(phi, f.zeta_o, f.zeta_b, 512).gamma
        g2 = reconstruct_fprime(phi, f.zeta_o, f.zeta_b, 1024).gamma
        assert abs(g1 - g2) <= 1e-8

    def test_boundary_modulus_identity(self):
        # reconstructed |f'| times 2 pi psi equals one on the circle grid
        f = perturbed_disk(0.2)
        n = 256
        phi = forward_operator(f, n)
        result = reconstruct_fprime(phi, f.zeta_o, f.zeta_b, n)
        cm = build_cumulative(phi)
        theta = boundary_grid(n)
        psi = phi.interpolant()(cm.s_of(theta))
        modulus = np.abs(result.map.fprime(np.exp(1j * theta)))
        assert np.max(np.abs(TWO_PI * psi * modulus - 1)) <= 1e-8

    def test_inconsistent_base_point_distance_flagged(self):
        phi = BoundaryFunction(np.full(64, 1 / TWO_PI), TWO_PI)
        result = reconstruct_fprime(phi, 0j, 2.0 + 0j, 64)  # |I| = 1 != 2
        assert not result.consistent
        assert result.normalization_residual == pytest.approx(-1.0, abs=1e-10)
        assert result.gamma == pytest.approx(0.0, abs=1e-12)

    def test_incompatible_datum_raises(self):
        bad = BoundaryFunction(np.full(32, 0.3), 1.0)
        with pytest.raises(CompatibilityError):
            reconstruct_fprime(bad, 0j, 1.0, 64)

    def test_identical_base_points_rejected(self):
        with pytest.raises(InvalidInputError):
            reconstruct_fprime(constant_datum(0.2), 1j, 1j, 64)

    def test_injectivity_surrogate(self):
        # equal data reconstruct to equal coefficient sets
        f = perturbed_disk(0.1)
        n = 512
        phi = forward_operator(f, n)
        first = reconstruct_fprime(phi, f.zeta_o, f.zeta_b, n)
        phi2 = forward_operator(first.map, n)
        assert np.max(np.abs(phi2.values - phi.values)) <= 1e-10
        second = reconstruct_fprime(phi2, f.zeta_o, f.zeta_b, n)
        a, b = first.map.coefficients, second.map.coefficients
        assert np.max(np.abs(a - b)) <= 1e-8

    def test_log_modulus_matches_within_tail(self):
        # well-resolved rough datum reconstructed on a coarse circle grid:
        # the boundary log-modulus is reproduced up to the discarded tail
        f = perturbed_disk(0.3)
        phi = forward_operator(f, 1024)
        n = 64
        result = reconstruct_fprime(phi, f.zeta_o, f.zeta_b, n)
        assert result.tail_energy > 1e-12  # genuinely unresolved tail
        cm = build_cumulative(phi)
        theta = boundary_grid(n)
        psi = phi.interpolant()(cm.s_of(theta))
        g = np.log(1.0 / (TWO_PI * psi))
        rec = np.log(np.abs(result.map.fprime(np.exp(1j * theta))))
        c = np.abs(np.fft.fft(g) / n)
        tail_sup = 2.0 * np.sum(c[n // 4 + 1: n // 2 + 1])
        assert np.max(np.abs(rec - g)) <= 10 * tail_sup + 1e-10


class TestRoundtripError:
    def test_identity_map(self):
        assert roundtrip_error(ConformalMap([0, 1.0]), 128) <= 1e-10

    def test_disk_family(self):
        for rho in (0.5, 1.0, 2.0):
            f = disk(rho=rho, zeta_o=0.2 - 0.1j)
            assert roundtrip_error(f, 128) <= 1e-10

    def test_spectral_decay_while_resolving(self):
        # while the grid still resolves new spectrum, doubling n gains far
        # more than a factor of four; beyond that the error is rounding-level
        f = ConformalMap([0, 1, 0.1, 0.05])
        e32 = roundtrip_error(f, 32)
        e64 = roundtrip_error(f, 64)
        e128 = roundtrip_error(f, 128)
        assert e32 > 1e-7 and e64 > 1e-12  # still resolving
        assert e64 <= e32 / 4
        assert e128 <= e64 / 4

    def test_under_resolved_datum_named_in_error(self):
        # the forward datum of z + 0.35z^2 at n = 32 integrates to ~1.008
        with pytest.raises(CompatibilityError) as err:
            roundtrip_error(perturbed_disk(0.35), 32)
        assert err.value.n == 32
        assert err.value.integral == pytest.approx(1.00801, abs=1e-5)
        assert "n = 32 samples" in str(err.value)
        assert "under-resolved" in str(err.value)
