import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenrecon.conformal import ConformalMap
from greenrecon.errors import InvalidInputError
from greenrecon.families import disk, disk_for_constant, fourier_disk, perturbed_disk
from greenrecon.geometry import (DomainBoundary, align_rotation, boundary_of,
                                 hausdorff_discretization_bound,
                                 hausdorff_distance, inradius_circumradius,
                                 largest_inscribed_circle, save_polyline,
                                 smallest_enclosing_circle)

TWO_PI = 2 * np.pi


def circle_boundary(radius=1.0, center=0j, n=256):
    theta = np.arange(n) * (TWO_PI / n)
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
