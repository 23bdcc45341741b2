import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from greenrecon._spectral import _blocking, _power_sum, derivative_samples
from greenrecon.conformal import (ConformalMap, _on_nodes, _polyline_is_simple,
                                  _total_turning, arclength, boundary_grid, c1_gap,
                                  eval_boundary, eval_fprime, forward_operator, node_table)
from greenrecon.errors import (AliasingError, CompatibilityError, DataFormatError,
                               DegenerateMapError, InvalidInputError)
from greenrecon.families import (disk, disk_for_constant, equal_perimeter_pair,
                                 fourier_disk, parse_family, perturbed_disk)
from greenrecon.files import load_map, save_map
from greenrecon.reconstruct import reconstruct_fprime

TWO_PI = 2 * np.pi


class TestConformalMap:
    def test_marked_points(self):
        f = perturbed_disk(0.1)
        assert f.zeta_o == 0
        assert f.zeta_b == pytest.approx(1.1)

    def test_inconsistent_zeta_b_rejected(self):
        with pytest.raises(InvalidInputError):
            ConformalMap([0, 1.0], zeta_b=2.0)

    def test_rotation_and_scaling(self):
        f = perturbed_disk(0.1)
        g = f.rotated(0.7).scaled(2.0)
        assert g.zeta_o == f.zeta_o
        assert g.coefficients[1] == pytest.approx(2.0 * np.exp(0.7j))

    def test_canonical_frame(self):
        f = perturbed_disk(0.1).rotated(1.2)
        g = f.canonical()
        assert g.coefficients[1].imag == pytest.approx(0.0, abs=1e-15)
        assert g.coefficients[1].real > 0
        # speed is rotation-invariant, so the canonical frame changes nothing
        assert np.allclose(np.abs(eval_fprime(g, 64)),
                           np.abs(eval_fprime(f, 64)), atol=1e-13)

    def test_canonical_is_idempotent(self):
        f = perturbed_disk(0.1)
        for gamma in np.linspace(0.1, TWO_PI, 60):
            g = f.rotated(gamma).canonical()
            assert g.coefficients[1].imag == 0 and g.coefficients[1].real > 0
            assert g.canonical() is g

    def test_validate_clean_map(self):
        assert perturbed_disk(0.2).validate(256) == []

    def test_validate_flags_loop(self):
        # z + 0.6 z^2 is not univalent: the boundary curve self-intersects
        warnings = perturbed_disk(0.6).validate(256)
        assert warnings


def scan_is_simple(points, chunk=256):
    """Every ordered segment pair by the cross-product test: the oracle of
    the KD-tree candidate-pair scan in ``_polyline_is_simple``."""
    n = points.size
    p = np.column_stack([points.real, points.imag])
    d = np.roll(p, -1, axis=0) - p

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        i = np.arange(lo, hi)[:, None]
        gap = (np.arange(n)[None, :] - i) % n
        relevant = (gap > 1) & (gap < n - 1)
        di, dj = d[lo:hi, None, :], d[None, :, :]
        r = p[None, :, :] - p[lo:hi, None, :]
        denom = cross(di, dj)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = cross(r, dj) / denom
            u = cross(r, di) / denom
        hit = (np.abs(denom) > 1e-300) & (t > 0) & (t < 1) & (u > 0) & (u < 1) & relevant
        if np.any(hit):
            return False
    return True


@st.composite
def star_polygons(draw):
    """Vertices at jittered angles around the origin: simple when the jitter
    keeps the angles in order, often self-intersecting when it does not."""
    n = draw(st.sampled_from([4, 5, 16, 64, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    jitter = draw(st.sampled_from([0.0, 0.4, 3.0]))
    angles = TWO_PI * (np.arange(n) + jitter * rng.standard_normal(n)) / n
    radii = rng.uniform(draw(st.sampled_from([0.1, 0.9])), 1.0, n)
    return radii * np.exp(1j * angles)


class TestPolylineSimplicity:
    @settings(max_examples=60, deadline=None)
    @given(star_polygons())
    def test_star_polygons_match_the_scan(self, points):
        expected = scan_is_simple(points)
        assert _polyline_is_simple(points) == expected
        assert _polyline_is_simple(points, chunk=7) == expected

    @pytest.mark.parametrize("n", [64, 512])
    def test_quadratic_family_matches_the_scan(self, n):
        verdicts = []
        for eps in np.arange(1, 10) / 10:
            points = eval_boundary(perturbed_disk(eps), n)
            verdicts.append(_polyline_is_simple(points))
            assert verdicts[-1] == scan_is_simple(points)
        assert verdicts == [True] * 5 + [False] * 4

    @pytest.mark.parametrize("eps", [0.45, 0.6])
    def test_quadratic_family_at_4096(self, eps):
        points = eval_boundary(perturbed_disk(eps), 4096)
        assert _polyline_is_simple(points) == scan_is_simple(points) == (eps < 0.5)


class TestEvalBoundary:
    def test_identity_fourth_roots(self):
        values = eval_boundary(ConformalMap([0, 1.0]), 4)
        assert np.allclose(values, [1, 1j, -1, -1j], atol=1e-14)

    def test_disk_family_circle(self):
        f = disk(rho=0.75, zeta_o=0.3 + 0.1j)
        values = eval_boundary(f, 64)
        assert np.allclose(np.abs(values - (0.3 + 0.1j)), 0.75, atol=1e-14)

    def test_quadratic_modulus_envelope(self):
        # |f(e^{i t})| = |1 + 0.1 e^{i t}| after factoring out e^{i t}
        f = perturbed_disk(0.1)
        theta = boundary_grid(128)
        expected = np.abs(1 + 0.1 * np.exp(1j * theta))
        assert np.allclose(np.abs(eval_boundary(f, 128)), expected, atol=1e-13)
        assert np.min(expected) >= 0.9 - 1e-12
        assert np.max(expected) <= 1.1 + 1e-12

    def test_aliasing_refused(self):
        with pytest.raises(AliasingError):
            eval_boundary(perturbed_disk(0.1, k=4), 6)


class TestEvalFprime:
    def test_disk_constant(self):
        f = disk(rho=0.5, zeta_o=1j, gamma=0.3)
        values = eval_fprime(f, 32)
        assert np.allclose(np.abs(values), 0.5, atol=1e-14)
        assert np.allclose(np.mod(np.angle(values), TWO_PI), 0.3, atol=1e-12)

    def test_quadratic_closed_form(self):
        f = perturbed_disk(0.1)
        theta = boundary_grid(256)
        values = eval_fprime(f, 256)
        assert np.allclose(np.abs(values),
                           np.sqrt(1.04 + 0.4 * np.cos(theta)), atol=1e-13)

    def test_argument_winding_zero(self):
        values = eval_fprime(perturbed_disk(0.2), 256)
        assert abs(_total_turning(values, 0) / TWO_PI) <= 1e-10

    def test_degenerate_derivative_refused(self):
        # f' = 1 + z vanishes at theta = pi, which is a grid node
        with pytest.raises(DegenerateMapError):
            eval_fprime(perturbed_disk(0.5), 64)


def horner(coeffs, z):
    """sum_k coeffs[k] * z**k by Horner's rule: the oracle of the blocked
    power-sum kernel and of the zero-padded FFT."""
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1].tolist():
        out *= z
        out += c
    return out


@st.composite
def power_sums(draw):
    """Coefficient counts where the baby steps or the row count of
    `_blocking` change, point counts on both sides of the first and second
    block of the count drawn, points on the unit circle or inside it, and a
    2-D z that is not contiguous (two columns of the points)."""
    size = draw(st.sampled_from([1, 2, 8, 9, 13, 14, 32, 33, 127, 128, 513, 1024, 1025]))
    block = _blocking(size)[2]
    count = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    shape = (2, count) if draw(st.booleans()) else (count,)
    radius = 1.0 if draw(st.booleans()) else rng.uniform(0.0, 1.0, shape)
    z = radius * np.exp(1j * rng.uniform(0.0, TWO_PI, shape))
    return coeffs, z.T


class TestPowerSum:
    @settings(max_examples=80, deadline=None)
    @given(power_sums())
    def test_agrees_with_horner(self, case):
        coeffs, z = case
        got = _power_sum(coeffs, z)
        assert got.shape == z.shape
        assert np.all(np.abs(got - horner(coeffs, z)) <= 1e-13 * np.sum(np.abs(coeffs)))

    @pytest.mark.parametrize("size", [*range(1, 40), 127, 128, 250, 513, 1023, 1024, 1025, 4097])
    def test_blocking_fits_the_budget(self, size):
        b, rows, block = _blocking(size)
        assert 1 <= b <= 32 and b * rows >= size
        assert (b + rows) * block <= 32768 or block == 512
        assert block & (block - 1) == 0 and block >= 512
        if size <= 13:
            assert rows == 1
        if size >= 1024:
            assert (b, block) == (32, 512)

    def test_scalar_and_zero_d_inputs(self):
        f = perturbed_disk(0.3, k=3)
        for z in (0.3 + 0.4j, np.complex128(0.3 + 0.4j), np.array(0.3 + 0.4j), 0.5):
            for coeffs, method in ((f.coefficients, f), (f.fprime_coefficients(), f.fprime)):
                got = method(z)
                assert got.shape == ()
                assert abs(got - horner(coeffs, z)) <= 1e-15 * np.sum(np.abs(coeffs))


def horner_c1_gap(f1, f2, n):
    """The C1 gap by Horner's rule at the roots of unity: the oracle of the
    zero-padded FFT route."""
    z = np.exp(1j * boundary_grid(n))
    df = horner(f1.coefficients, z) - horner(f2.coefficients, z)
    dfp = horner(f1.fprime_coefficients(), z) - horner(f2.fprime_coefficients(), z)
    return float(np.max(np.abs(df)) + np.max(np.abs(dfp)))


@st.composite
def node_maps(draw):
    """n in {16, 64, 512} and two maps of random complex coefficients with
    degree at most n/2, at scales from 1e-3 to 1e3."""
    n = draw(st.sampled_from([16, 64, 512]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def coefficients():
        size = draw(st.integers(2, n // 2 + 1))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        decay = draw(st.sampled_from([0.0, 0.05, 0.5]))
        raw = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return scale * raw * np.exp(-decay * np.arange(size))

    return n, ConformalMap(coefficients()), ConformalMap(coefficients())


class TestNodeEvaluator:
    @settings(max_examples=60, deadline=None)
    @given(node_maps())
    def test_agrees_with_horner(self, case):
        n, f1, f2 = case
        z = np.exp(1j * boundary_grid(n))
        for c in (f1.coefficients, f1.fprime_coefficients()):
            assert np.max(np.abs(_on_nodes(c, n) - horner(c, z))) \
                <= 1e-13 * np.sum(np.abs(c))
        l1 = sum(np.sum(np.abs(c)) for f in (f1, f2)
                 for c in (f.coefficients, f.fprime_coefficients()))
        gap = c1_gap(node_table(f1, n), node_table(f2, n))
        assert abs(gap - horner_c1_gap(f1, f2, n)) <= 1e-13 * l1

    def test_gap_refuses_a_coarse_grid(self):
        with pytest.raises(AliasingError):
            node_table(perturbed_disk(0.1, k=4), 6)

    @pytest.mark.parametrize("n", [2 ** k for k in range(6, 15)])
    def test_each_row_equals_its_own_transform(self, n):
        # the three rows of one inverse FFT, each against the transform of that row alone
        rng = np.random.default_rng(n)
        for size in (2, 3, n // 8, n // 2 + 1):
            f = ConformalMap(rng.standard_normal(size) + 1j * rng.standard_normal(size))
            d = f.fprime_coefficients()
            for row, coeffs in zip(node_table(f, n), (f.coefficients, d, np.arange(d.size) * d)):
                assert np.array_equal(row, _on_nodes(coeffs, n)), (n, size)

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.45])
    def test_second_derivative_row_of_a_quadratic(self, eps):
        # z f'' = 2 eps z on z + eps z^2; the FFT's twiddles and np.exp differ by a few ulps
        for n in (64, 1024, 16384):
            z = np.exp(1j * boundary_grid(n))
            assert np.max(np.abs(node_table(perturbed_disk(eps), n)[2] - 2 * eps * z)) \
                <= 2e-15 * 2 * eps

    def test_second_derivative_row_matches_mpmath(self):
        f, n = fourier_disk(FOURIER_MAP), 256
        a = [mpmath.mpc(complex(c)) for c in f.coefficients]
        with mpmath.workdps(40):
            ref = []
            for j in range(n):
                z = mpmath.expj(2 * mpmath.pi * j / n)
                ref.append(complex(sum(k * (k - 1) * a[k] * z ** (k - 1)
                                       for k in range(2, len(a)))))
        ref = np.array(ref)
        assert np.max(np.abs(node_table(f, n)[2] - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestArclength:
    def test_disk_linear(self):
        rho = 0.8
        s, L = arclength(disk(rho=rho), 64)
        assert L == pytest.approx(TWO_PI * rho, abs=1e-13)
        assert np.allclose(s, rho * boundary_grid(64), atol=1e-13)

    def test_identity_perimeter(self):
        _, L = arclength(ConformalMap([0, 1.0]), 64)
        assert L == pytest.approx(TWO_PI, abs=1e-14)

    def test_quadrature_oracle(self):
        f = perturbed_disk(0.1)
        _, L = arclength(f, 512)
        oracle, _ = quad(lambda t: np.sqrt(1.04 + 0.4 * np.cos(t)), 0, TWO_PI,
                         epsabs=1e-12, epsrel=1e-12, limit=200)
        assert L == pytest.approx(oracle, abs=1e-9)

    def test_polyline_perimeter_second_order(self):
        f = perturbed_disk(0.15)
        _, L = arclength(f, 2048)

        def polyline_perimeter(n):
            pts = eval_boundary(f, n)
            return float(np.sum(np.abs(np.roll(pts, -1) - pts)))

        err_n = abs(polyline_perimeter(128) - L)
        err_2n = abs(polyline_perimeter(256) - L)
        assert err_2n < err_n
        assert err_n / err_2n == pytest.approx(4.0, rel=0.2)


class TestForwardOperator:
    def test_under_resolved_datum_refused_where_it_is_made(self):
        # |integral - 1| of z + 0.44 z^2 is about 1e-4 at n = 512 and 1e-11 at 2048
        with pytest.raises(CompatibilityError) as err:
            forward_operator(perturbed_disk(0.44), 512)
        assert err.value.n == 512 and "n = 512 samples" in str(err.value)
        phi = forward_operator(perturbed_disk(0.44), 2048)
        assert phi.compatibility_residual() <= 1e-8

    def test_unit_disk_constant_datum(self):
        phi = forward_operator(ConformalMap([0, 1.0]), 256)
        assert phi.L == pytest.approx(TWO_PI, abs=1e-13)
        assert np.max(np.abs(phi.values - 1 / TWO_PI)) <= 1e-12

    def test_constant_datum_family(self):
        # maps zeta_o + e^{i gamma} z / (2 pi C) are exactly the constant-C data
        C = 0.21
        phi = forward_operator(disk_for_constant(C, zeta_o=0.4j, gamma=1.1), 128)
        assert np.max(np.abs(phi.values - C)) <= 1e-12
        assert phi.L == pytest.approx(1.0 / C, abs=1e-12)

    def test_quadratic_extrema(self):
        # |f'| extremes 0.8 and 1.2 at theta = pi and 0 give the datum range
        phi = forward_operator(perturbed_disk(0.1), 1024)
        assert phi.values[0] == pytest.approx(1 / (2.4 * np.pi), abs=1e-8)
        assert np.min(phi.values) == pytest.approx(1 / (2.4 * np.pi), abs=1e-8)
        # theta = pi sits at arclength L/2 by symmetry, a grid point
        assert phi.values[phi.n // 2] == pytest.approx(1 / (1.6 * np.pi), abs=1e-8)
        assert np.max(phi.values) == pytest.approx(1 / (1.6 * np.pi), abs=1e-8)

    def test_compatibility_and_positivity(self):
        for f in (perturbed_disk(0.2), fourier_disk({2: 0.08, 3: 0.05j})):
            phi = forward_operator(f, 256)
            assert phi.compatibility_residual() <= 1e-8
            assert phi.min_value() > 0

    def test_parametric_identity(self):
        # 2 pi * datum(s(theta)) * s'(theta) = 1 with a spectral derivative
        f = perturbed_disk(0.15)
        n = 256
        s, L = arclength(f, n)
        theta = boundary_grid(n)
        mean = L / TWO_PI
        s_prime = derivative_samples(s - mean * theta, TWO_PI) + mean
        phi = forward_operator(f, n)
        datum_at_s = phi.interpolant()(s)
        assert np.max(np.abs(TWO_PI * datum_at_s * s_prime - 1)) <= 1e-8

    def test_pushforward_routes_agree(self):
        # the map route (psi = 1/(2 pi |f'|) and psi' = psi Im(z f''/f') from
        # the map's power sums, s from the polyline's arclength tags) equals
        # the arclength datum pulled back through its inverse cumulative map
        from greenrecon._spectral import TrigInterpolant
        from greenrecon.boundary import build_cumulative
        from greenrecon.stability import DomainSample

        for eps, n in ((0.05, 128), (0.15, 256), (0.3, 1024)):
            d = DomainSample(perturbed_disk(eps), n)
            phi = forward_operator(d.f, n)
            s = build_cumulative(phi).s_of(boundary_grid(n))
            psi = phi.interpolant()(s)
            psi_prime = TrigInterpolant(phi.derivative(), phi.L)(s) / (TWO_PI * psi)
            direct, direct_prime = d.circle
            assert np.max(np.abs(d.polyline.arclengths - s)) <= 1e-14
            assert np.max(np.abs(direct - psi)) <= 1e-14
            assert np.max(np.abs(direct_prime - psi_prime)) <= 1e-12

    def test_rotation_covariance(self):
        f = perturbed_disk(0.12)
        g = f.rotated(1.23)
        n = 128
        assert np.allclose(np.abs(eval_fprime(f, n)),
                           np.abs(eval_fprime(g, n)), atol=1e-13)
        sf, Lf = arclength(f, n)
        sg, Lg = arclength(g, n)
        assert Lf == pytest.approx(Lg, abs=1e-13)
        assert np.allclose(sf, sg, atol=1e-12)
        assert np.allclose(forward_operator(f, n).values,
                           forward_operator(g, n).values, atol=1e-12)


def elliptic_datum(eps, n, nodes, derivative=False):
    """The datum of z + eps z^2 at the uniform arclength nodes s_j = j L / n,
    in 30 digits; with ``derivative``, its arclength derivative there.

    |f'(e^{i t})| = sqrt(1 + 4 eps^2 + 4 eps cos t), so with m = 8 eps/(1 + 2 eps)^2
    the arclength is s(t) = 2 (1 + 2 eps) E(t/2 | m) and L = 4 (1 + 2 eps) E(m),
    elliptic integrals of the second kind; s(t_j) = s_j is solved by findroot.
    phi' = -|f'|'/(2 pi |f'|^3) with |f'|' = -2 eps sin t/|f'|, so
    phi'(s_j) = eps sin t_j / (pi |f'|^4).
    """
    with mpmath.workdps(30):
        e = mpmath.mpf(eps)
        a = 1 + 2 * e
        m = 8 * e / a ** 2
        L = 4 * a * mpmath.ellipe(m)
        values = []
        for j in nodes:
            target = L * int(j) / n
            t = mpmath.findroot(lambda t: 2 * a * mpmath.ellipe(t / 2, m) - target,
                                2 * mpmath.pi * int(j) / n)
            speed = mpmath.sqrt(1 + 4 * e ** 2 + 4 * e * mpmath.cos(t))
            if derivative:
                values.append(float(e * mpmath.sin(t) / (mpmath.pi * speed ** 4)))
            else:
                values.append(float(1 / (2 * mpmath.pi * speed)))
    return np.array(values)


class TestDatumOracle:
    @pytest.mark.parametrize("eps, n", [(0.1, 512), (0.3, 1024), (0.45, 4096)])
    def test_values_match_elliptic_arclength(self, eps, n):
        # 32 nodes, one in each n/32 stretch of the grid
        nodes = np.arange(32) * (n // 32) + np.random.default_rng(n).integers(0, n // 32, 32)
        ref = elliptic_datum(eps, n, nodes)
        phi = forward_operator(perturbed_disk(eps), n)
        assert np.max(np.abs(phi.values[nodes] - ref) / ref) <= 1e-14

    @pytest.mark.parametrize("eps, n", [(0.1, 512), (0.2, 2048), (0.3, 1024), (0.45, 4096)])
    def test_derivative_matches_elliptic_arclength(self, eps, n):
        # phi' comes from the map's f' and z f'', not from an interpolant of |f'|
        nodes = np.arange(32) * (n // 32) + np.random.default_rng(n).integers(0, n // 32, 32)
        ref = elliptic_datum(eps, n, nodes, derivative=True)
        dphi = forward_operator(perturbed_disk(eps), n).derivative()
        assert np.max(np.abs(dphi[nodes] - ref)) <= 1e-13 * np.max(np.abs(dphi))


FOURIER_MAP = {2: 0.1 + 0.05j, 3: -0.04j, 5: 0.02}


def mpmath_psi_prime(f, theta):
    """d/d theta of 1/(2 pi |f'(e^{i theta})|) by mpmath's numerical
    differentiation in 30 digits, independent of the closed form."""
    with mpmath.workdps(30):
        d = [mpmath.mpc(complex(c)) for c in f.fprime_coefficients()]

        def psi(t):
            return 1 / (2 * mpmath.pi * abs(mpmath.polyval(d[::-1], mpmath.expj(t))))

        return np.array([float(mpmath.diff(psi, mpmath.mpf(float(t)))) for t in theta])


class TestCircleData:
    @pytest.mark.parametrize("f", [perturbed_disk(0.35), fourier_disk(FOURIER_MAP)],
                             ids=["quadratic", "fourier"])
    def test_psi_prime_at_the_nodes_matches_mpmath(self, f):
        from greenrecon.stability import DomainSample
        _, psi_prime = DomainSample(f, 512).circle
        ref = mpmath_psi_prime(f.canonical(), boundary_grid(512))
        assert np.max(np.abs(psi_prime - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("f", [perturbed_disk(0.2), fourier_disk(FOURIER_MAP)],
                             ids=["quadratic", "fourier"])
    def test_rebuilt_map_has_the_true_derivative(self, f, n):
        # the rebuilt map has degree n/2, all but f's own terms at rounding level
        phi = forward_operator(f, n)
        rebuilt = reconstruct_fprime(phi, f.zeta_o, f.zeta_b, n).map
        dphi = phi.derivative()
        got = forward_operator(rebuilt, n).derivative()
        assert np.max(np.abs(got - dphi)) <= 1e-13 * np.max(np.abs(dphi))

    def test_node_table_and_power_sums_agree(self):
        # the sample's psi and psi' come from its node table; forward_operator
        # reads the same circle data by power sums at its inverted angles.  At
        # the nodes the two routes differ by up to 9.0e-16 relative for psi and
        # 4.9e-15 of max|psi'| on these maps, and by up to 1.5e-15 and 8.2e-15 on
        # the 64 seed-1 roundtrip maps (n = 2048) and 64 shape_compare maps
        # (n = 4096); the bounds are about three and five times the latter
        from perfbench.workloads import make_inputs

        from greenrecon import conformal
        from greenrecon.stability import DomainSample

        maps = [perturbed_disk(eps) for eps in (0.01, 0.1, 0.35)]
        maps += [fourier_disk(FOURIER_MAP)] + make_inputs("roundtrip", 1, count=8)
        for f in maps:
            for n in (512, 2048):
                d = DomainSample(f, n)
                psi, psi_prime = d.circle
                ref, ref_prime = conformal._circle_data(d.f, boundary_grid(n))
                assert np.max(np.abs(psi - ref) / ref) <= 4e-15
                assert np.max(np.abs(psi_prime - ref_prime)) <= 4e-14 * np.max(np.abs(ref_prime))

    def test_power_sums_stop_at_the_plateau(self, monkeypatch):
        from greenrecon import conformal
        f, n = perturbed_disk(0.2), 2048
        rebuilt = reconstruct_fprime(forward_operator(f, n), f.zeta_o, f.zeta_b, n).map
        power_sum, sizes = conformal._power_sum, []

        def spy(coeffs, z):
            sizes.append(coeffs.size)
            return power_sum(coeffs, z)

        monkeypatch.setattr(conformal, "_power_sum", spy)
        conformal._circle_data(rebuilt, boundary_grid(n))
        assert rebuilt.degree == n // 2
        assert len(sizes) == 2 and max(sizes) < 16


class TestDilation:
    """A dilation by a power of two c scales phi by 1/c, phi' by 1/c^2 and L
    by c, and every tolerance on the way is relative, so the floats are the
    same at any size of the domain."""

    @pytest.mark.parametrize("c", [2.0 ** -60, 2.0 ** -20, 0.5, 2.0 ** 20],
                             ids=["2^-60", "2^-20", "2^-1", "2^20"])
    @pytest.mark.parametrize("f", [perturbed_disk(0.3), fourier_disk(FOURIER_MAP)],
                             ids=["quadratic", "fourier"])
    def test_datum_is_bit_identical(self, f, c):
        phi = forward_operator(f, 512)
        small = forward_operator(f.scaled(c), 512)
        assert np.array_equal(small.values * c, phi.values)
        assert np.array_equal(small.derivative() * c * c, phi.derivative())
        assert small.L / c == phi.L

    def test_tiny_disk_is_a_disk(self):
        phi = forward_operator(disk(rho=1e-13), 64)
        assert np.max(np.abs(phi.values * 1e-13 * TWO_PI - 1)) <= 1e-14
        assert disk(rho=1e-7).validate(64) == []


class TestFamilies:
    def test_parse_family(self):
        f = parse_family("z+eps*z^2")(0.1)
        assert np.allclose(f.coefficients, [0, 1, 0.1])
        g = parse_family("z + eps*z^5")(0.02)
        assert g.degree == 5 and g.coefficients[5] == pytest.approx(0.02)
        d = parse_family("disk")(0.7)
        assert d.coefficients[1] == pytest.approx(0.7)
        with pytest.raises(InvalidInputError):
            parse_family("z+eps*sin(z)")

    def test_equal_perimeter_pair(self):
        f1, f2 = equal_perimeter_pair(0.1, n=256)
        _, L1 = arclength(f1, 256)
        _, L2 = arclength(f2, 256)
        assert L1 == pytest.approx(L2, abs=1e-10)


class TestMapFiles:
    def test_roundtrip(self, tmp_path):
        f = fourier_disk({2: 0.1, 3: 0.02 - 0.03j})
        path = tmp_path / "map.map"
        save_map(path, f)
        loaded = load_map(path)
        assert np.allclose(loaded.coefficients, f.coefficients, atol=1e-16)
        assert loaded.zeta_b == pytest.approx(f.zeta_b)

    def test_bad_coefficient_index(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text("zeta_o 0 0\nzeta_b 1 0\n0 0 0\n2 1 0\n")
        with pytest.raises(DataFormatError) as err:
            load_map(path)
        assert err.value.line_no == 4

    def test_mismatched_sum_rejected(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text("zeta_o 0 0\nzeta_b 5 0\n0 0 0\n1 1 0\n")
        with pytest.raises(DataFormatError):
            load_map(path)

    @pytest.mark.parametrize("comments", [0, 3000], ids=["short", "past-8-KiB"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, comments):
        # the whole file is decoded at once, so the line is right however far
        # into the file the byte lies
        path = tmp_path / "bad.map"
        path.write_bytes(b"# note\n" * comments
                         + b"zeta_o 0 0\nzeta_b 1.1 0\n0 0 0\n1 1 0\n2 0.1\xff 0\n")
        with pytest.raises(DataFormatError) as err:
            load_map(path)
        assert err.value.line_no == comments + 5
        assert "0xff" in str(err.value)

    def test_non_finite_coefficient_names_its_line(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text("zeta_o 0 0\nzeta_b 1 0\n0 0 0\n1 nan 0\n")
        with pytest.raises(DataFormatError) as err:
            load_map(path)
        assert err.value.line_no == 4
        assert "not finite" in str(err.value)
