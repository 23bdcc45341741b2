import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from greenrecon import geometry
from greenrecon.conformal import ConformalMap
from greenrecon.errors import InvalidInputError
from greenrecon.families import disk, disk_for_constant, fourier_disk, perturbed_disk
from greenrecon.geometry import (DomainBoundary, _total_turning, align_rotation,
                                 boundary_of, hausdorff_discretization_bound,
                                 hausdorff_distance, inradius_circumradius,
                                 largest_inscribed_circle, save_polyline,
                                 smallest_enclosing_circle)

TWO_PI = 2 * np.pi


def circle_boundary(radius=1.0, center=0j, n=256, phase=0.0):
    theta = phase + np.arange(n) * (TWO_PI / n)
    return DomainBoundary(points=center + radius * np.exp(1j * theta),
                          zeta_o=center, arclengths=radius * theta, thetas=theta)


def pair_scan_hausdorff(b1, b2):
    """Oracle: the two directed sup-inf distances over every sample pair,
    with the np.abs that hausdorff_distance applies, so they agree to the bit."""
    def directed(a, b):
        worst = 0.0
        for lo in range(0, a.size, 256):
            block = np.abs(a[lo:lo + 256, None] - b[None, :])
            worst = max(worst, float(np.max(np.min(block, axis=1))))
        return worst
    return max(directed(b1.points, b2.points), directed(b2.points, b1.points))


def scan_polyline_distance(point, points):
    """Oracle: distance to the polyline by projecting onto every edge and
    taking ``np.hypot`` of every residual, as largest_inscribed_circle did
    before its segment table."""
    p = np.asarray([point.real, point.imag])
    a = np.column_stack([points.real, points.imag])
    b = np.roll(a, -1, axis=0)
    ab = b - a
    ap = p[None, :] - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.einsum("ij,ij->i", ap, ab) / np.maximum(denom, 1e-300), 0.0, 1.0)
    proj = a + t[:, None] * ab
    d = np.hypot(p[0] - proj[:, 0], p[1] - proj[:, 1])
    return float(np.min(d))


def scan_inscribed_circle(b):
    """Oracle: largest_inscribed_circle with the turning test at every
    evaluation and the full scan for the distance."""
    pts = b.points

    def neg_depth(xy):
        c = complex(xy[0], xy[1])
        try:
            if abs(_total_turning(pts, c) / TWO_PI - 1.0) > 1e-6:
                return 0.0  # outside
        except InvalidInputError:
            return 0.0
        return -scan_polyline_distance(c, pts)

    rho0, _ = inradius_circumradius(b)
    best_xy = np.array([b.zeta_o.real, b.zeta_o.imag])
    best = neg_depth(best_xy)
    for radius in (0.2 * rho0, 0.45 * rho0, 0.7 * rho0):
        for angle in np.arange(8) * (TWO_PI / 8):
            xy = np.array([b.zeta_o.real + radius * np.cos(angle),
                           b.zeta_o.imag + radius * np.sin(angle)])
            val = neg_depth(xy)
            if val < best:
                best, best_xy = val, xy
    result = minimize(neg_depth, best_xy, method="Nelder-Mead",
                      options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
    center = complex(result.x[0], result.x[1])
    return center, float(-result.fun)


def polyline(points, zeta_o=0j):
    # the arclength tags play no part in the distance
    return DomainBoundary(points=points, zeta_o=zeta_o,
                          arclengths=np.arange(points.size, dtype=float))


@st.composite
def star_points(draw):
    """A closed star-shaped polyline about 0: jittered angles, random radii."""
    n = draw(st.integers(8, 96))
    radii = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    jitter = draw(st.lists(st.floats(-0.4, 0.4), min_size=n, max_size=n))
    theta = (np.arange(n) + np.array(jitter)) * (TWO_PI / n)
    return np.array(radii) * np.exp(1j * theta)


class TestHausdorffEqualsPairScan:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(p1=star_points(), p2=star_points(),
           scale=st.sampled_from([1.0, 1e-160, 3e5]),
           center=st.complex_numbers(max_magnitude=3.0))
    def test_random_polylines(self, p1, p2, scale, center):
        b1 = polyline(scale * (center + p1), scale * center)
        b2 = polyline(scale * (center + p2), scale * center)
        assert hausdorff_distance(b1, b2) == pair_scan_hausdorff(b1, b2)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(p=star_points(), scale=st.sampled_from([1.0, 1e-160]))
    def test_identical_polylines(self, p, scale):
        b = polyline(scale * p)
        assert hausdorff_distance(b, b) == pair_scan_hausdorff(b, b) == 0.0

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(p=star_points(), scale=st.sampled_from([1.0, 1e-160]))
    def test_near_identical_polylines(self, p, scale):
        b1 = polyline(scale * p)
        b2 = polyline(scale * p * (1.0 + 1e-14))
        assert hausdorff_distance(b1, b2) == pair_scan_hausdorff(b1, b2)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(c2=st.complex_numbers(max_magnitude=0.2),
           c3=st.complex_numbers(max_magnitude=0.1),
           n=st.sampled_from([64, 256, 512]))
    def test_near_identical_maps(self, c2, c3, n):
        f = fourier_disk({2: c2, 3: c3})
        g = ConformalMap(f.coefficients * (1.0 + 1e-14))
        b1, b2 = boundary_of(f, n), boundary_of(g, n)
        assert hausdorff_distance(b1, b2) == pair_scan_hausdorff(b1, b2)

    @staticmethod
    def ring_near_origin(near):
        """A circle polygon about 0.4 through the origin, its vertex at angle
        pi replaced by the vertices ``near``."""
        ring = 0.4 + 0.4 * np.exp(1j * np.arange(32) * (TWO_PI / 32))
        return polyline(np.concatenate([ring[:16], near, ring[17:]]), 0.4)

    def test_squares_below_the_subnormal_range(self):
        # Squared distances of about 1e-324 round to 0, 1 or 2 subnormal
        # units, so the tree's order of nearest distances differs from the
        # true one and only an absolute allowance keeps the right points.
        b1 = self.ring_near_origin([0.0, 2.3e-162 + 1e-170j])
        b2 = self.ring_near_origin([1.6e-162 + 1.6e-162j, 2.3e-162])
        assert hausdorff_distance(b1, b2) == pair_scan_hausdorff(b1, b2)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(near1=st.lists(st.complex_numbers(max_magnitude=4.0), min_size=1, max_size=4),
           near2=st.lists(st.complex_numbers(max_magnitude=4.0), min_size=1, max_size=4))
    def test_points_near_the_origin(self, near1, near2):
        b1 = self.ring_near_origin(np.r_[0.0, 1e-162 * np.array(near1)])
        b2 = self.ring_near_origin(np.r_[0.0, 1e-162 * np.array(near2)])
        assert hausdorff_distance(b1, b2) == pair_scan_hausdorff(b1, b2)

    def test_tiny_coordinates_near_ties(self):
        # directed distances 0.3 + 1e-9 cos(3 theta) at 1e-160, whose squares
        # are subnormal unless the coordinates are rescaled
        theta = np.arange(512) * (TWO_PI / 512)
        inner = 1e-160 * np.exp(1j * theta)
        outer = (1.3 + 1e-9 * np.cos(3 * theta + 0.1)) * inner
        b1, b2 = polyline(inner), polyline(outer)
        assert hausdorff_distance(b1, b2) == pair_scan_hausdorff(b1, b2)

    def test_large_maps(self):
        b1 = boundary_of(perturbed_disk(0.1), 2048)
        b2 = boundary_of(fourier_disk({2: 0.05, 3: 0.03}), 1024)
        assert hausdorff_distance(b1, b2) == pair_scan_hausdorff(b1, b2)
        assert hausdorff_distance(b1, b1) == 0.0


class TestDomainBoundary:
    def test_winding_validation(self):
        theta = np.arange(64) * (TWO_PI / 64)
        points = np.exp(1j * theta)
        with pytest.raises(InvalidInputError):
            DomainBoundary(points=points, zeta_o=2.0 + 0j, arclengths=theta)

    def test_non_finite_samples_rejected(self):
        theta = np.arange(64) * (TWO_PI / 64)
        for bad in (np.nan, np.inf):
            points = np.exp(1j * theta)
            points[3] = bad
            with pytest.raises(InvalidInputError, match="finite"):
                DomainBoundary(points=points, zeta_o=0j, arclengths=theta)

    def test_from_map(self):
        b = boundary_of(perturbed_disk(0.1), 128)
        assert b.n == 128
        assert b.zeta_o == 0
        assert np.all(np.diff(b.arclengths) > 0)


class TestRadii:
    def test_circle(self):
        rho, big_r = inradius_circumradius(circle_boundary(radius=0.7, center=1j))
        assert rho == pytest.approx(0.7, abs=1e-14)
        assert big_r == pytest.approx(0.7, abs=1e-14)

    def test_quadratic_perturbation(self):
        b = boundary_of(perturbed_disk(0.1), 1024)
        rho, big_r = inradius_circumradius(b)
        assert rho == pytest.approx(0.9, abs=1e-6)
        assert big_r == pytest.approx(1.1, abs=1e-6)

    def test_ellipse_samples(self):
        a, bb, n = 2.0, 1.0, 256
        theta = np.arange(n) * (TWO_PI / n)
        pts = a * np.cos(theta) + 1j * bb * np.sin(theta)
        chord = np.cumsum(np.abs(np.diff(np.concatenate([[pts[-1]], pts]))))
        boundary = DomainBoundary(points=pts, zeta_o=0j,
                                  arclengths=chord, thetas=theta)
        rho, big_r = inradius_circumradius(boundary)
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert big_r == pytest.approx(2.0, abs=1e-12)

    def test_rho_le_R(self):
        for eps in (0.0, 0.05, 0.2):
            rho, big_r = inradius_circumradius(boundary_of(perturbed_disk(eps), 256))
            assert rho <= big_r + 1e-15

    def test_radii_gap_below_map_gap(self):
        # the circumradius/inradius gap never exceeds the sup distance to the
        # constant-datum disk map of radius rho, whatever its rotation
        for eps in (0.05, 0.1, 0.2):
            f = perturbed_disk(eps)
            b = boundary_of(f, 512)
            rho, big_r = inradius_circumradius(b)
            f_c = disk_for_constant(1.0 / (TWO_PI * rho))
            gap = np.max(np.abs(b.points - boundary_of(f_c, 512).points))
            assert big_r - rho <= gap + 1e-12


class TestHausdorff:
    def test_identical(self):
        b = circle_boundary()
        assert hausdorff_distance(b, b) == 0.0

    def test_concentric_circles(self):
        b1 = circle_boundary(radius=1.0)
        b2 = circle_boundary(radius=1.3)
        assert hausdorff_distance(b1, b2) == pytest.approx(0.3, abs=1e-13)

    def test_circle_vs_quadratic_image(self):
        n = 512
        b1 = circle_boundary(n=n)
        b2 = boundary_of(perturbed_disk(0.1), n)
        d = hausdorff_distance(b1, b2)
        tolerance = 2 * max(b1.max_edge(), b2.max_edge())
        assert abs(d - 0.1) <= tolerance
        assert hausdorff_discretization_bound(b1, b2) == pytest.approx(
            0.5 * max(b1.max_edge(), b2.max_edge()))

    def test_metric_properties(self):
        b1 = circle_boundary(radius=1.0)
        b2 = boundary_of(perturbed_disk(0.1), 256)
        b3 = boundary_of(fourier_disk({2: 0.05, 3: 0.03}), 256)
        d12 = hausdorff_distance(b1, b2)
        d21 = hausdorff_distance(b2, b1)
        assert d12 == d21  # symmetry, exact
        assert d12 > 0
        d13 = hausdorff_distance(b1, b3)
        d23 = hausdorff_distance(b2, b3)
        assert d13 <= d12 + d23 + 1e-15

    def test_rotation_invariance(self):
        b1 = boundary_of(perturbed_disk(0.1), 256)
        b2 = boundary_of(fourier_disk({2: 0.05, 3: 0.03}), 256)
        d = hausdorff_distance(b1, b2)
        phase = np.exp(0.9j)
        r1 = DomainBoundary(points=phase * b1.points, zeta_o=0j,
                            arclengths=b1.arclengths)
        r2 = DomainBoundary(points=phase * b2.points, zeta_o=0j,
                            arclengths=b2.arclengths)
        assert hausdorff_distance(r1, r2) == pytest.approx(d, abs=1e-12)


class TestAlignRotation:
    def test_identical_maps(self):
        f = perturbed_disk(0.1)
        gamma, rotated = align_rotation(f, f, mode="proof")
        assert gamma == 0.0
        assert np.array_equal(rotated.coefficients, f.coefficients)

    def test_optimal_recovers_rotation(self):
        f1 = perturbed_disk(0.1)
        gamma0 = 0.8
        f2 = f1.rotated(gamma0)
        gamma, rotated = align_rotation(f1, f2, mode="optimal", n=512)
        assert abs((gamma + gamma0 + np.pi) % TWO_PI - np.pi) <= 1e-8
        residual = np.max(np.abs(boundary_of(f1, 512).points
                                 - boundary_of(rotated, 512).points))
        assert residual <= 1e-10

    def test_proof_mode_matches_rotation_constants(self):
        f1 = perturbed_disk(0.1)
        f2 = f1.rotated(0.8)
        gamma, rotated = align_rotation(f1, f2, mode="proof")
        assert np.angle(rotated.coefficients[1]) == pytest.approx(0.0, abs=1e-14)

    def test_optimal_no_worse_than_proof(self):
        f1 = perturbed_disk(0.1)
        f2 = fourier_disk({2: 0.08, 3: 0.04}).rotated(0.3)
        n = 256

        def residual(rotated):
            return np.max(np.abs(boundary_of(f1, n).points
                                 - boundary_of(rotated, n).points))

        _, by_proof = align_rotation(f1, f2, mode="proof", n=n)
        _, by_opt = align_rotation(f1, f2, mode="optimal", n=n)
        assert residual(by_opt) <= residual(by_proof) + 1e-14

    def test_distinct_base_points_rejected(self):
        with pytest.raises(InvalidInputError):
            align_rotation(disk(zeta_o=0j), disk(zeta_o=1j), mode="proof")


class TestFreeCenterDisks:
    def test_regular_polygon_radii(self):
        n = 256
        b = circle_boundary(n=n)
        _, big_r = smallest_enclosing_circle(b.points)
        assert big_r == pytest.approx(1.0, abs=1e-9)
        _, rho = largest_inscribed_circle(b)
        # the inscribed circle of the polyline is the polygon's incircle
        assert rho == pytest.approx(np.cos(np.pi / n), abs=1e-7)

    def test_offset_circle(self):
        b = circle_boundary(radius=0.5, center=0.2 + 0.1j, n=128)
        center, big_r = smallest_enclosing_circle(b.points)
        assert abs(center - (0.2 + 0.1j)) <= 1e-7
        assert big_r == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("radius", [1e-170, 1e160])
    def test_extreme_scales(self, radius):
        # squared coordinates underflow below about 1e-154 and overflow above
        # about 1e154, and Welzl's absolute 1e-12 slack swallows any domain
        # narrower than that
        b = circle_boundary(radius=radius, n=64)
        _, big_r = inradius_circumradius(b)
        center, r_free = smallest_enclosing_circle(b.points)
        assert r_free == pytest.approx(big_r, rel=1e-12)
        assert abs(center) <= 1e-12 * radius
        center, rho_free = largest_inscribed_circle(b)
        assert rho_free == pytest.approx(np.cos(np.pi / 64) * radius, rel=1e-12)
        assert abs(center) <= 1e-12 * radius

    @pytest.mark.parametrize("exponent, shift", [(-600, -596), (600, 345)])
    def test_scaling_is_exact(self, exponent, shift):
        # the disks of the circle of radius 2^e are those of the circle of
        # radius 2^(e - shift), which needs no scaling, times 2^shift
        b = circle_boundary(radius=2.0 ** exponent, n=64)
        ref = circle_boundary(radius=2.0 ** (exponent - shift), n=64)
        assert geometry._coordinate_shift(b.points) == shift
        assert geometry._coordinate_shift(ref.points) == 0
        for disk_of in (largest_inscribed_circle, lambda b: smallest_enclosing_circle(b.points)):
            (center, radius), (center_ref, radius_ref) = disk_of(b), disk_of(ref)
            assert radius == math.ldexp(radius_ref, shift)
            assert center == complex(math.ldexp(center_ref.real, shift),
                                     math.ldexp(center_ref.imag, shift))


@st.composite
def star_domains(draw):
    """A rotated, offset star polyline about its base point: a smooth radius
    of a few random modes, plus vertex noise of random size."""
    n = draw(st.integers(64, 1024))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 3e5]))
    center = draw(st.complex_numbers(max_magnitude=3.0))
    phase = draw(st.floats(0.0, TWO_PI))
    noise = draw(st.sampled_from([0.0, 1e-3, 0.2]))
    theta = TWO_PI * np.arange(n) / n
    k = np.arange(2, 6)[:, None]
    modes = rng.uniform(-0.06, 0.06, (2, 4, 1))
    radius = (1.0 + np.sum(modes[0] * np.cos(k * theta) + modes[1] * np.sin(k * theta), axis=0)
              + noise * rng.uniform(-1.0, 1.0, n))
    return polyline(scale * (center + radius * np.exp(1j * (theta + phase))), scale * center)


class TestInscribedCircleEqualsScan:
    @settings(max_examples=16, derandomize=True, deadline=None)
    @given(b=star_domains())
    def test_random_star_domains(self, b):
        assert largest_inscribed_circle(b) == scan_inscribed_circle(b)

    @pytest.mark.parametrize("b", [
        circle_boundary(n=4096),
        circle_boundary(radius=3e5, center=1.2e5 - 3.3e5j, n=4096, phase=0.3),
        boundary_of(perturbed_disk(0.2), 4096),
    ], ids=["regular", "regular-offset", "perturbed-0.2"])
    def test_n4096(self, b):
        assert largest_inscribed_circle(b) == scan_inscribed_circle(b)

    @pytest.mark.parametrize("scale", [1.0, 1e-158])
    def test_distance_at_the_center_of_a_regular_polygon(self, scale):
        # the least squared distance and the least hypot fall on different
        # edges here: at scale 1 only the relative allowance keeps the right
        # one, at 1e-158 (subnormal squares) only the absolute one
        b = circle_boundary(radius=scale, n=256)
        assert geometry._NegDepth(b).distance(0.0, 0.0) == scan_polyline_distance(0j, b.points)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(n=st.sampled_from([8, 64, 256, 512]),
           scale=st.sampled_from([1.0, 3e5, 1e-158]),
           offset=st.complex_numbers(max_magnitude=1.0),
           phase=st.floats(0.0, 1.0))
    def test_distance_near_tied_edges(self, n, scale, offset, phase):
        # within a few ulps of the center of a regular polygon every edge is
        # about as near as the nearest; at 1e-158 the squares are subnormal
        b = circle_boundary(radius=scale, n=n, phase=phase)
        p = scale * 1e-16 * offset
        assert (geometry._NegDepth(b).distance(p.real, p.imag)
                == scan_polyline_distance(p, b.points))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(b=star_domains(), where=st.complex_numbers(max_magnitude=1.5))
    def test_distance_anywhere(self, b, where):
        p = b.zeta_o + abs(b.points[0] - b.zeta_o) * where
        assert (geometry._NegDepth(b).distance(p.real, p.imag)
                == scan_polyline_distance(p, b.points))


def count_turning_tests(monkeypatch):
    calls = []

    def counted(points, center):
        calls.append(center)
        return _total_turning(points, center)

    monkeypatch.setattr(geometry, "_total_turning", counted)
    return calls


class TestInsideShortcut:
    def test_turning_test_runs_outside_half_the_deepest_depth(self, monkeypatch):
        neg_depth = geometry._NegDepth(circle_boundary(n=256))
        calls = count_turning_tests(monkeypatch)
        depth = -neg_depth(np.array([0.0, 0.0]))
        assert len(calls) == 1 and depth > 0.99
        assert neg_depth(np.array([0.45 * depth, 0.0])) < 0  # certified
        assert len(calls) == 1
        shallow = -neg_depth(np.array([0.0, 0.55 * depth]))  # beyond half
        assert len(calls) == 2 and shallow < depth
        # certified by the deepest point, not by the last one evaluated
        assert neg_depth(np.array([0.0, -0.45 * depth])) < 0
        assert len(calls) == 2
        assert neg_depth(np.array([2.0, 0.0])) == 0.0  # outside
        assert len(calls) == 3

    def test_turning_test_in_under_a_quarter_of_evaluations(self, monkeypatch):
        b = boundary_of(perturbed_disk(0.2), 512)
        evaluations = []
        call = geometry._NegDepth.__call__

        def counted(self, xy):
            evaluations.append(xy)
            return call(self, xy)

        monkeypatch.setattr(geometry._NegDepth, "__call__", counted)
        calls = count_turning_tests(monkeypatch)
        largest_inscribed_circle(b)
        assert len(evaluations) > 100
        assert 4 * len(calls) < len(evaluations)


class TestPolylineExport:
    def test_csv_structure(self, tmp_path):
        b = boundary_of(perturbed_disk(0.1), 64)
        path = tmp_path / "poly.csv"
        save_polyline(path, b)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,s,re,im"
        assert len(lines) == 65
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and first[2] == pytest.approx(1.1)
