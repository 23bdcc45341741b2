import math
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from greenrecon import conformal, geometry
from greenrecon.conformal import ConformalMap, arclength, eval_boundary, forward_operator
from greenrecon.errors import ConvergenceError, InvalidInputError
from greenrecon.families import disk, disk_for_constant, fourier_disk, perturbed_disk
from greenrecon.geometry import (DomainBoundary, _total_turning, align_rotation,
                                 boundary_of, hausdorff_discretization_bound,
                                 hausdorff_distance, inradius_circumradius,
                                 largest_inscribed_circle, smallest_enclosing_circle)
from greenrecon.files import save_polyline
from greenrecon.reconstruct import reconstruct_fprime
from greenrecon.stability import DomainSample

TWO_PI = 2 * np.pi


def circle_boundary(radius=1.0, center=0j, n=256, phase=0.0):
    theta = phase + np.arange(n) * (TWO_PI / n)
    return DomainBoundary(points=center + radius * np.exp(1j * theta), zeta_o=center)


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


def welzl_enclosing_circle(points):
    """Oracle: Welzl's incremental method over Python complex scalars, as
    smallest_enclosing_circle computed it before its support-set iteration
    (same shuffle, formulas and cover slack), in the same frame: the
    differences p - points[0], scaled by a power of two."""
    points = np.asarray(points, dtype=complex)
    origin = complex(points[0])
    local = points - origin
    shift = geometry._coordinate_shift(local)
    pts = [complex(p) for p in geometry._ldexp(local, -shift)]
    rng = np.random.default_rng(20260808)
    order = rng.permutation(len(pts))
    shuffled = [pts[i] for i in order]

    def circle_two(a, b):
        center = 0.5 * (a + b)
        return center, abs(a - center)

    def circumcircle(a, b, c):
        ax, ay = a.real, a.imag
        bx, by = b.real, b.imag
        cx, cy = c.real, c.imag
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if abs(d) < 1e-300:
            return None
        ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
        uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
        center = complex(ux, uy)
        return center, abs(a - center)

    def covers(circle, p, slack=1e-12):
        center, r = circle
        return abs(p - center) <= r * (1 + slack) + slack

    circle = (shuffled[0], 0.0)
    for i, p in enumerate(shuffled):
        if covers(circle, p):
            continue
        circle = (p, 0.0)
        for j in range(i):
            q = shuffled[j]
            if covers(circle, q):
                continue
            circle = circle_two(p, q)
            for k in range(j):
                r = shuffled[k]
                if covers(circle, r):
                    continue
                candidate = circumcircle(p, q, r)
                if candidate is not None:
                    circle = candidate
    center, radius = circle
    return origin + complex(geometry._ldexp(center, shift)), math.ldexp(radius, shift)


def brute_force_enclosing_circle(points):
    """Oracle: the least of the circles on two points as a diameter and the
    circles through three points (centers by a linear solve) that cover
    every point."""
    candidates = [(0.5 * (a + b), 0.5 * abs(a - b)) for a, b in combinations(points, 2)]
    for a, b, c in combinations(points, 3):
        lhs = 2.0 * np.array([[(b - a).real, (b - a).imag],
                              [(c - a).real, (c - a).imag]])
        if abs(np.linalg.det(lhs)) < 1e-12:
            continue
        x, y = np.linalg.solve(lhs, [abs(b) ** 2 - abs(a) ** 2, abs(c) ** 2 - abs(a) ** 2])
        candidates.append((complex(x, y), abs(a - complex(x, y))))
    return min(((center, radius) for center, radius in candidates
                if np.all(np.abs(points - center) <= radius * (1 + 1e-12))),
               key=lambda circle: circle[1])


def polyline(points, zeta_o=0j):
    return DomainBoundary(points=points, zeta_o=zeta_o)


@st.composite
def star_points(draw):
    """A closed star-shaped polyline about 0: jittered angles, random radii."""
    n = draw(st.integers(8, 96))
    radii = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    jitter = draw(st.lists(st.floats(-0.4, 0.4), min_size=n, max_size=n))
    theta = (np.arange(n) + np.array(jitter)) * (TWO_PI / n)
    return np.array(radii) * np.exp(1j * theta)


QUADRATIC_CUBIC = fourier_disk({2: 0.1 + 0.05j, 3: -0.04j})


def moved(f, zeta_o):
    """f with its base point moved to zeta_o."""
    return ConformalMap(np.r_[zeta_o, f.coefficients[1:]])


def translated_pair(shift):
    """perturbed_disk(0.1) at n = 4096 against itself moved by shift."""
    b = boundary_of(perturbed_disk(0.1), 4096)
    return b, DomainBoundary(points=b.points + shift, zeta_o=b.zeta_o + shift)


def jagged_star(seed, n):
    """A closed polyline about 0 with n independent random radii in [1, 1.3)."""
    theta = np.arange(n) * (TWO_PI / n)
    radii = 1.0 + 0.3 * np.random.default_rng(seed).uniform(size=n)
    return polyline(radii * np.exp(1j * theta))


class TestHausdorffEqualsPairScan:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(p1=star_points(), p2=star_points(),
           scale=st.sampled_from([1.0, 1e-160, 3e5]),
           center=st.complex_numbers(max_magnitude=3.0))
    def test_random_polylines(self, p1, p2, scale, center):
        b1 = polyline(scale * (center + p1), scale * center)
        b2 = polyline(scale * (center + p2), scale * center)
        assert hausdorff_distance(b1, b2) == pair_scan_hausdorff(b1, b2)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(p1=star_points(), p2=star_points(),
           shift=st.complex_numbers(max_magnitude=5.0),
           scale=st.sampled_from([1.0, 1e-160, 3e5]))
    def test_shifted_polylines(self, p1, p2, shift, scale):
        # the second boundary's points lie anywhere about the first one's base
        # point: near it (the KD-tree fallback), across the angle cut (windows
        # that wrap) and far out (narrow windows)
        b1 = polyline(scale * p1)
        b2 = polyline(scale * (p2 + shift), scale * shift)
        assert hausdorff_distance(b1, b2) == pair_scan_hausdorff(b1, b2)
        assert hausdorff_distance(b2, b1) == pair_scan_hausdorff(b1, b2)

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

    # Pairs for each outcome of the prune before the KD-tree: no point
    # survives (identical, near-identical, and concentric circles, whose
    # bounds all tie up to rounding), a few do (two distinct maps), most do
    # (jagged stars); then polar angles about the base point of one boundary
    # only, and boundaries far from the origin; last, a boundary against
    # itself moved by several domain sizes, whose survivors' bound disks hold
    # the base point (the KD-tree fallback), and moved by half a size, where
    # no point survives.
    @pytest.mark.parametrize("pair", [
        lambda: (boundary_of(QUADRATIC_CUBIC, 4096),) * 2,
        lambda: (boundary_of(QUADRATIC_CUBIC, 4096),
                 boundary_of(ConformalMap(QUADRATIC_CUBIC.coefficients * (1.0 + 1e-14)), 4096)),
        lambda: (circle_boundary(n=4096), circle_boundary(1.3, n=4096, phase=np.pi / 4096)),
        lambda: (boundary_of(QUADRATIC_CUBIC, 4096),
                 boundary_of(fourier_disk({2: 0.1, 5: 0.02}), 4096)),
        lambda: (jagged_star(1, 4096), jagged_star(2, 4096)),
        lambda: (boundary_of(perturbed_disk(0.1), 512),
                 boundary_of(moved(fourier_disk({2: 0.05, 3: 0.03}), 0.2 - 0.1j), 512)),
        lambda: (boundary_of(moved(perturbed_disk(0.1), 1000.0), 1024),
                 boundary_of(moved(fourier_disk({2: 0.05, 3: 0.03}), 1000.0), 1024)),
        lambda: (boundary_of(moved(perturbed_disk(0.1), 1e6), 1024),
                 boundary_of(moved(fourier_disk({2: 0.05, 3: 0.03}), 1e6), 1024)),
        lambda: translated_pair(3.0),
        lambda: translated_pair(0.5),
    ], ids=["identical-4096", "near-identical-4096", "concentric-half-step-4096",
            "distinct-maps-4096", "jagged-stars-4096", "base-points-differ",
            "zeta_o-1e3", "zeta_o-1e6", "translated-3-4096", "translated-0.5-4096"])
    def test_prune_outcomes(self, pair):
        b1, b2 = pair()
        assert (hausdorff_distance(b1, b2) == hausdorff_distance(b2, b1)
                == pair_scan_hausdorff(b1, b2))

    @pytest.mark.parametrize("f", [perturbed_disk(0.3), moved(QUADRATIC_CUBIC, 0.3 - 0.5j)])
    def test_kd_tree_runs_on_no_point_of_matched_boundaries(self, monkeypatch, f):
        queried = []
        kernel = geometry._directed_sup_inf
        monkeypatch.setattr(geometry, "_directed_sup_inf",
                            lambda a, b: queried.append(a.size) or kernel(a, b))
        b = boundary_of(f, 2048)
        assert hausdorff_distance(b, b) == 0.0
        rebuilt = reconstruct_fprime(forward_operator(f, 2048), f.zeta_o, f.zeta_b, 2048).map
        b_rebuilt = boundary_of(rebuilt, 2048)
        assert hausdorff_distance(b, b_rebuilt) == pair_scan_hausdorff(b, b_rebuilt)
        assert queried == []

    @pytest.fixture
    def kd_calls(self, monkeypatch):
        """The sizes of the point sets the KD-tree kernel runs on."""
        calls = []
        kernel = geometry._directed_sup_inf
        monkeypatch.setattr(geometry, "_directed_sup_inf",
                            lambda a, b: calls.append(a.size) or kernel(a, b))
        return calls

    @pytest.mark.parametrize("pair, runs", [
        (lambda: translated_pair(3.0), True),
        (lambda: (boundary_of(QUADRATIC_CUBIC, 4096),
                  boundary_of(fourier_disk({2: 0.1, 5: 0.02}), 4096)), False),
    ], ids=["translated-3-4096", "distinct-maps-4096"])
    def test_kd_tree_runs_only_where_a_bound_disk_holds_the_base_point(
            self, kd_calls, pair, runs):
        b1, b2 = pair()
        expected = pair_scan_hausdorff(b1, b2)
        assert hausdorff_distance(b1, b2) == hausdorff_distance(b2, b1) == expected
        assert (kd_calls != []) == runs

    @pytest.mark.parametrize("budget", [0, 32, 10 ** 9])
    def test_window_budget_picks_the_route_not_the_value(self, monkeypatch, kd_calls, budget):
        # jagged stars leave survivors whose windows hold about 14-26 points
        # of b per point of b in all: over a budget of 0, within 32
        monkeypatch.setattr(geometry, "_WINDOW_BUDGET", budget)
        b1, b2 = jagged_star(1, 4096), jagged_star(2, 4096)
        expected = pair_scan_hausdorff(b1, b2)
        assert hausdorff_distance(b1, b2) == hausdorff_distance(b2, b1) == expected
        assert (kd_calls != []) == (budget == 0)


class TestDomainBoundary:
    def test_winding_validation(self):
        theta = np.arange(64) * (TWO_PI / 64)
        points = np.exp(1j * theta)
        with pytest.raises(InvalidInputError):
            DomainBoundary(points=points, zeta_o=2.0 + 0j)

    def test_non_finite_samples_rejected(self):
        theta = np.arange(64) * (TWO_PI / 64)
        for bad in (np.nan, np.inf):
            points = np.exp(1j * theta)
            points[3] = bad
            with pytest.raises(InvalidInputError, match="finite"):
                DomainBoundary(points=points, zeta_o=0j)
        # a NaN winding number about such a base point must not pass the test
        for bad in (np.nan, np.inf, np.nan * 1j):
            with pytest.raises(InvalidInputError, match="finite"):
                DomainBoundary(points=np.exp(1j * theta), zeta_o=bad)

    def test_base_point_stored_as_complex(self):
        b = DomainBoundary(points=np.exp(1j * np.arange(64) * (TWO_PI / 64)), zeta_o=0)
        assert type(b.zeta_o) is complex and b.zeta_o == 0

    def test_from_map(self):
        f = perturbed_disk(0.1)
        b = boundary_of(f, 128)
        assert b.n == 128
        assert b.zeta_o == 0
        assert np.all(np.diff(DomainSample(f, 128).arclengths) > 0)

    def test_from_map_takes_no_derivative_or_arclength(self, monkeypatch):
        # the polyline is the map's values alone: its arclengths are arclength(f, n)
        def refuse(*args):
            raise AssertionError("boundary_of evaluated f' or an arclength")

        monkeypatch.setattr(conformal, "eval_fprime", refuse)
        monkeypatch.setattr(conformal, "_arclength_map", refuse)
        f = fourier_disk({2: 0.05, 3: 0.03})
        b = boundary_of(f, 256)
        assert np.array_equal(b.points, eval_boundary(f, 256))
        assert b.zeta_o == f.zeta_o


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
        boundary = DomainBoundary(points=pts, zeta_o=0j)
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
        r1 = DomainBoundary(points=phase * b1.points, zeta_o=0j)
        r2 = DomainBoundary(points=phase * b2.points, zeta_o=0j)
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
        # about 1e154, and the enclosing circle's absolute 1e-12 cover slack
        # swallows any domain narrower than that
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
def star_domains(draw, scales=(1.0, 3e5), noises=(0.0, 1e-3, 0.2)):
    """A rotated, offset star polyline about its base point: a smooth radius
    of a few random modes, plus vertex noise of random size."""
    n = draw(st.integers(64, 1024))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from(scales))
    center = draw(st.complex_numbers(max_magnitude=3.0))
    phase = draw(st.floats(0.0, TWO_PI))
    noise = draw(st.sampled_from(noises))
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
        boundary_of(QUADRATIC_CUBIC, 4096),
        boundary_of(fourier_disk({2: 0.05, 5: 0.02}), 4096),
        boundary_of(moved(fourier_disk({3: 0.08j, 4: -0.03}), 0.3 - 0.5j), 4096),
    ], ids=["regular", "regular-offset", "perturbed-0.2", "quadratic-cubic",
            "modes-2-5", "modes-3-4-off-origin"])
    def test_n4096(self, b):
        assert largest_inscribed_circle(b) == scan_inscribed_circle(b)

    def test_few_evaluations_scan_every_edge(self, monkeypatch):
        # the coarse grid and the first iterations scan all n edges, the rest
        # only those that can be nearest; scipy's minimize is not called
        b = boundary_of(perturbed_disk(0.2), 4096)
        scanned = []
        evaluate = geometry._NegDepth.distance_and_side

        def spy(self, x, y):
            scanned.append(self._table[0].size)
            return evaluate(self, x, y)

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.optimize.minimize called")

        monkeypatch.setattr(geometry._NegDepth, "distance_and_side", spy)
        monkeypatch.setattr(scipy.optimize, "minimize", refuse)
        largest_inscribed_circle(b)
        assert 3 * scanned.count(b.n) <= len(scanned)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(b=st.one_of(
               star_domains(),
               st.builds(lambda n, scale, phase: circle_boundary(radius=scale, n=n, phase=phase),
                         st.sampled_from([8, 64, 256, 512]),
                         st.sampled_from([1.0, 3e5, 1e-158]), st.floats(0.0, 1.0)),
               st.just(circle_boundary(radius=3e5, center=1.2e5 - 3.3e5j))),
           where=st.complex_numbers(max_magnitude=1.5),
           size=st.sampled_from([0.0, 1e-16, 1e-9, 1e-4, 1e-2, 0.3, 2.0]),
           data=st.data())
    def test_working_set_changes_no_value(self, b, where, size, data):
        # a disk anywhere around the domain, from a point to wider than it,
        # and points inside it and on its rim: the rescanned table gives the
        # full scan's distance and side
        scale = abs(b.points[0] - b.zeta_o)
        center = b.zeta_o + scale * where
        radius = scale * size
        neg_depth, full = geometry._NegDepth(b), geometry._NegDepth(b)
        neg_depth.rescan(center.real, center.imag, radius)
        reach = st.one_of(st.just(1.0), st.floats(0.0, 1.0))
        for _ in range(8):
            p = center + radius * data.draw(reach) * np.exp(1j * data.draw(st.floats(0.0, TWO_PI)))
            d, inside = neg_depth.distance_and_side(p.real, p.imag)
            assert d == scan_polyline_distance(p, b.points)
            assert inside == full.distance_and_side(p.real, p.imag)[1]

    def test_far_wall_of_a_channel(self):
        # in a channel of width 1, the center 0.1 above the floor, a point
        # 0.45 above the center is nearer the roof, 0.9 from the center: the
        # table keeps the edges within D(c) + 2 radius of it, not D(c) + radius
        floor = np.linspace(-8.0, 8.0, 512, endpoint=False)
        side = np.linspace(0.0, 1.0, 8, endpoint=False)
        b = polyline(np.concatenate([floor, 8.0 + 1j * side, -floor + 1j, -8.0 + 1j - 1j * side]),
                     0.5j)
        neg_depth = geometry._NegDepth(b)
        neg_depth.rescan(0.0, 0.1, 0.45)
        assert 2 * neg_depth._table[0].size <= b.n
        d, inside = neg_depth.distance_and_side(0.0, 0.55)
        assert d == scan_polyline_distance(0.55j, b.points) == pytest.approx(0.45)
        assert inside

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


def plateau_well(x, y):
    """Minus the depth in the unit disk about 0.2 - 0.1i, 0.0 outside it."""
    return min(0.0, math.hypot(x - 0.2, y + 0.1) - 1.0)


def scipy_nelder_mead(fun, x, y):
    """scipy's Nelder-Mead with largest_inscribed_circle's options: x, y,
    fun, nit and success, and every point it evaluated."""
    points = []

    def traced(xy):
        points.append((float(xy[0]), float(xy[1])))
        return fun(*points[-1])

    result = minimize(traced, np.array([x, y]), method="Nelder-Mead",
                      options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
    return (float(result.x[0]), float(result.x[1]), float(result.fun), result.nit,
            bool(result.success)), points


class TestNelderMead:
    @pytest.mark.parametrize("fun, x, y, shrinks, ties, converged", [
        (lambda x, y: (x - 1.0) ** 2 + 2.0 * (y + 0.5) ** 2, 0.0, 0.7, False, False, True),
        (lambda x, y: (x - 1.0) ** 2 + 2.0 * (y + 0.5) ** 2, 0.3, 0.0, False, False, True),
        (lambda x, y: (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2, -1.2, 1.0, False, False, True),
        (plateau_well, 1.1, 0.3, False, False, True),
        (plateau_well, 1.1, 0.5, True, True, True),
        (lambda x, y: math.floor(4.0 * ((x - 0.3) ** 2 + (y + 0.2) ** 2)) / 4.0, 1.0, 1.0,
         True, True, True),
        (lambda x, y: math.floor(1e4 * (abs(x) + abs(y - 0.001))), -0.047, -0.023,
         True, True, True),
        (lambda x, y: x + 2.0 * y, 1.0, 1.0, False, False, False),
    ], ids=["zero-x", "zero-y", "rosenbrock", "well-across-the-rim", "plateau",
            "terraces", "diamond-terraces-across-zero", "unbounded-to-maxiter"])
    def test_nelder_mead_equals_scipy(self, fun, x, y, shrinks, ties, converged):
        # x, fun, nit and success equal scipy's, every evaluated point too,
        # and each lies in the disk the loop announced for its iteration
        points, values, disks = [], [], []

        def traced(px, py):
            if disks:
                (cx, cy, r), count = disks[-1]
                assert math.hypot(px - cx, py - cy) <= r
                disks[-1][1] = count + 1
            points.append((px, py))
            values.append(fun(px, py))
            return values[-1]

        result = geometry._nelder_mead(traced, x, y, lambda *disk: disks.append([disk, 0]))
        expected, expected_points = scipy_nelder_mead(fun, x, y)
        assert result == expected
        assert points == expected_points
        assert len(disks) == result[3] - 1
        # a shrink is the only step with four evaluations
        assert any(count == 4 for _, count in disks) == shrinks
        assert (len(set(values)) < len(values)) == ties
        assert result[4] == converged
        assert (result[3] == 400) != converged


def regular_polygon(n):
    return np.exp(1j * np.arange(n) * (TWO_PI / n))


class TestEnclosingCircle:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(b=star_domains())
    def test_equals_welzl_on_random_star_domains(self, b):
        assert smallest_enclosing_circle(b.points) == welzl_enclosing_circle(b.points)

    @pytest.mark.parametrize("points", [
        *(regular_polygon(n) for n in (64, 256, 4096)),
        *(boundary_of(perturbed_disk(eps / 100), 512).points for eps in range(1, 21)),
    ], ids=[*(f"{n}-gon" for n in (64, 256, 4096)),
            *(f"perturbed-0.{eps:02d}" for eps in range(1, 21))])
    def test_near_welzl_on_co_circular_supports(self, points):
        # four or more points tie for the support here, and which of them
        # define the circle depends on the order they are met in
        center, radius = smallest_enclosing_circle(points)
        center_ref, radius_ref = welzl_enclosing_circle(points)
        assert abs(radius - radius_ref) <= 2 * np.spacing(radius_ref)
        assert abs(center - center_ref) <= 1e-12 * radius_ref
        assert np.all(np.abs(points - center) <= radius * (1 + 1e-12))

    def test_equals_brute_force_on_few_points(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(6, 11))
            points = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            _, radius = smallest_enclosing_circle(points)
            _, radius_ref = brute_force_enclosing_circle(points)
            assert radius == pytest.approx(radius_ref, rel=1e-14, abs=0)

    @pytest.mark.parametrize("points", [
        boundary_of(perturbed_disk(0.49), 4096).points, regular_polygon(4096),
    ], ids=["perturbed-0.49", "4096-gon"])
    def test_terminates_at_n4096(self, points):
        center, radius = smallest_enclosing_circle(points)
        assert np.all(np.abs(points - center) <= radius * (1 + 1e-12))

    @pytest.mark.parametrize("n", [512, 4096])
    @pytest.mark.parametrize("zeta_o", [1e3, 1e4])
    def test_far_from_the_origin(self, n, zeta_o):
        # circumcircles formed in absolute coordinates lose |zeta_o|^2 * eps
        # in their squares, which stops the iteration short of converging
        _, radius_ref = smallest_enclosing_circle(boundary_of(perturbed_disk(0.2), n).points)
        points = boundary_of(ConformalMap([zeta_o, 1.0, 0.2]), n).points
        center, radius = smallest_enclosing_circle(points)
        assert abs(radius - radius_ref) <= 1e-14 * radius_ref
        assert np.all(np.abs(points - center) <= radius * (1 + 1e-12))

    def test_iteration_cap_raises(self, monkeypatch):
        # a support update that never grows the circle must not loop forever
        monkeypatch.setattr(geometry, "_support_circle",
                            lambda pts, support: ((complex(pts[0]), 0.0), [0]))
        with pytest.raises(ConvergenceError):
            smallest_enclosing_circle(regular_polygon(64))

    @pytest.mark.parametrize("points, match", [
        (np.array([], dtype=complex), "non-empty"),
        (np.array([1, np.nan, 2j, -1]), "finite"),
        (np.array([1, np.inf, 2j, -1]), "finite"),
    ], ids=["empty", "nan", "inf"])
    def test_bad_input_refused(self, points, match):
        with pytest.raises(InvalidInputError, match=match):
            smallest_enclosing_circle(points)


def reflex_vertices(points):
    """Positions of the vertices where a counterclockwise polyline turns right."""
    before = points - np.roll(points, 1)
    after = np.roll(points, -1) - points
    return np.flatnonzero((np.conj(before) * after).imag < 0)


class TestSideTest:
    @pytest.mark.parametrize("scale", [1.0, 3e5])
    @pytest.mark.parametrize("noise", [0.0, 1e-3, 0.2])
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_side_equals_turning_verdict(self, scale, noise, data):
        # points all over and around the domain, and points a fraction of an
        # edge from reflex vertices, where one edge alone gives the wrong side
        b = data.draw(star_domains(scales=(scale,), noises=(noise,)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        pts = b.points
        size = float(np.max(np.abs(pts - b.zeta_o)))
        probes = b.zeta_o + 1.6 * size * np.sqrt(rng.uniform(0, 1, 24)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 24))
        reflex = reflex_vertices(pts)
        if reflex.size:
            v = rng.choice(reflex, 24)
            probes = np.append(probes, pts[v] + b.edge_lengths()[v]
                               * 10.0 ** rng.uniform(-6, 0, 24)
                               * np.exp(2j * np.pi * rng.uniform(0, 1, 24)))
        neg_depth = geometry._NegDepth(b)
        top = max(np.max(np.abs(pts.real)), np.max(np.abs(pts.imag)))
        for p in probes:
            d, inside = neg_depth.distance_and_side(p.real, p.imag)
            if d < 1e-9 * top:
                continue  # on the polyline to rounding, where no side test holds
            assert inside == (abs(_total_turning(pts, p) / TWO_PI - 1.0) <= 1e-6)

    def test_base_point_outside_a_looped_polyline_is_refused(self):
        # z + 0.3 z^4 is not univalent: its polyline loops, and the nearest
        # edges to the base point run clockwise
        with pytest.raises(InvalidInputError, match="base point outside"):
            largest_inscribed_circle(boundary_of(perturbed_disk(0.3, k=4), 64))


class TestPolylineExport:
    def test_csv_structure(self, tmp_path):
        f = perturbed_disk(0.1)
        path = tmp_path / "poly.csv"
        save_polyline(path, boundary_of(f, 64), arclength(f, 64)[0])
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,s,re,im"
        assert len(lines) == 65
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and first[2] == pytest.approx(1.1)

    def test_one_arclength_per_sample(self, tmp_path):
        f = perturbed_disk(0.1)
        with pytest.raises(InvalidInputError, match="one arclength per boundary sample"):
            save_polyline(tmp_path / "poly.csv", boundary_of(f, 64), arclength(f, 32)[0])
        assert list(tmp_path.iterdir()) == []
