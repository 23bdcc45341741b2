"""Set-geometric quantities on sampled boundaries: Hausdorff distance,
radii of centered inscribed/enclosing disks, free-center disk variants, and
rotation alignment of two maps about their common interior base point."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from .boundary import _write_atomic
from .conformal import (ConformalMap, _total_turning, arclength, boundary_grid,
                        eval_boundary)
from .errors import InvalidInputError

TWO_PI = 2.0 * np.pi
# how far below the largest KD-tree distance a point may still hold the
# supremum: relative, and absolute (in coordinates scaled into [0.5, 1)) for
# squared distances that underflow
_KD_RTOL = 1e-12
_KD_ATOL = 2.0 ** -500
# how far above the least squared point-to-edge distance an edge may still
# hold the least hypot: relative, and absolute for squares that underflow
_SQ_RTOL = 1e-12
_SQ_ATOL = np.finfo(float).tiny
# the free-center disks scale coordinates by a power of two so that the
# largest magnitude lies in [2^(lo-1), 2^hi): below, their absolute
# tolerances (Welzl's 1e-12 slack, Nelder-Mead's xatol and fatol, the 1e-300
# floors) would swamp the domain; above, squares and the circumcircle's cubic
# terms would overflow.  Coordinates already in range are left as they are.
_COORD_RANGE = (-3, 256)


@dataclass(frozen=True)
class DomainBoundary:
    """Closed boundary polyline with arclength tags.

    ``points`` holds one sample per vertex with the closing edge implied
    (the first point is not repeated).  The interior base point must wind
    once around the polyline.
    """

    points: np.ndarray
    zeta_o: complex
    arclengths: np.ndarray
    thetas: np.ndarray | None = field(default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        s = np.asarray(self.arclengths, dtype=float)
        if pts.ndim != 1 or pts.size < 8:
            raise InvalidInputError("need at least 8 boundary samples")
        if s.shape != pts.shape:
            raise InvalidInputError("arclength tags must match the samples")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("boundary samples must be finite")
        if not np.all(np.diff(s) > 0):
            raise InvalidInputError("arclength tags must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "arclengths", s)
        if self.thetas is None:
            object.__setattr__(self, "thetas", boundary_grid(pts.size))
        else:
            object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=float))
        winding = _total_turning(pts, complex(self.zeta_o)) / TWO_PI
        if abs(winding - 1.0) > 1e-6:
            raise InvalidInputError(
                f"base point winding number {winding:.8f}, expected 1")

    @property
    def n(self) -> int:
        return self.points.size

    def edge_lengths(self) -> np.ndarray:
        return np.abs(np.roll(self.points, -1) - self.points)

    def max_edge(self) -> float:
        return float(np.max(self.edge_lengths()))


def boundary_of(f: ConformalMap, n: int) -> DomainBoundary:
    """Sample a map's boundary into a polyline with arclength tags."""
    s, _ = arclength(f, n)
    return DomainBoundary(points=eval_boundary(f, n), zeta_o=f.zeta_o, arclengths=s)


def inradius_circumradius(b: DomainBoundary) -> tuple[float, float]:
    """Radii of the largest disk inside and the smallest disk containing the
    domain, both centered at the interior base point (sample extrema)."""
    r = np.abs(b.points - b.zeta_o)
    return float(np.min(r)), float(np.max(r))


def _directed_sup_inf(a: np.ndarray, b: np.ndarray) -> float:
    """sup over a of inf over b of |a - b|, exact over the sample pairs.

    A KD-tree gives every point of a its nearest distance to b, up to
    rounding.  Only the points of a whose tree distance comes within
    ``_KD_RTOL`` (or ``_KD_ATOL``) of the largest can hold the supremum; for
    those, |a - b| is recomputed with ``np.abs`` against every point of b that
    the tree places within the same allowance of the nearest, so the result
    is the brute-force pair scan's to the bit.  Coordinates are scaled by a
    power of two into [0.5, 1) first, which is exact and keeps the tree's
    squared distances clear of overflow and of most underflow.
    """
    top = max(np.max(np.abs(z)) for z in (a.real, a.imag, b.real, b.imag))
    exponent = np.frexp(top)[1]
    scaled_a, scaled_b = (np.ldexp(np.column_stack([z.real, z.imag]), -exponent)
                          for z in (a, b))
    tree = cKDTree(scaled_b)
    dist, _ = tree.query(scaled_a)
    cand = np.flatnonzero(dist >= np.max(dist) * (1.0 - _KD_RTOL) - _KD_ATOL)
    balls = tree.query_ball_point(scaled_a[cand],
                                  dist[cand] * (1.0 + _KD_RTOL) + _KD_ATOL)
    counts = np.fromiter(map(len, balls), dtype=np.intp, count=cand.size)
    near = np.fromiter(chain.from_iterable(balls), dtype=np.intp,
                       count=int(counts.sum()))
    owner = np.repeat(np.arange(cand.size), counts)
    nearest = np.full(cand.size, np.inf)
    np.minimum.at(nearest, owner, np.abs(a[cand[owner]] - b[near]))
    return float(np.max(nearest))


def hausdorff_distance(b1: DomainBoundary, b2: DomainBoundary) -> float:
    """Two-sided Hausdorff distance between the sampled boundaries, exact over
    the sample sets (larger of the two directed sup-inf distances)."""
    return max(_directed_sup_inf(b1.points, b2.points),
               _directed_sup_inf(b2.points, b1.points))


def hausdorff_discretization_bound(b1: DomainBoundary, b2: DomainBoundary) -> float:
    """Half the largest polyline edge: how far the sampled distance can sit
    from the distance between the underlying curves."""
    return 0.5 * max(b1.max_edge(), b2.max_edge())


def align_rotation(f1: ConformalMap, f2: ConformalMap, mode: str = "proof",
                   n: int = 1024) -> tuple[float, ConformalMap]:
    """Rotate the second map about zeta_o to match the first.

    ``proof`` mode equates the rotation constants of the two boundary-kernel
    representations: the analytic completion of each log-modulus is real at
    the origin, so the constant is exactly arg f'(0) and the matching rotation
    is their difference.  ``optimal`` mode minimizes the sup-norm boundary
    residual over a 4096-point angle grid refined by golden-section search.
    Returns the applied angle and the rotated map.
    """
    if abs(f1.zeta_o - f2.zeta_o) > 1e-12 * max(1.0, abs(f1.zeta_o)):
        raise InvalidInputError("maps must share the interior base point")
    if mode == "proof":
        g1 = _rotation_constant(f1)
        g2 = _rotation_constant(f2)
        gamma = float(np.mod(g1 - g2 + np.pi, TWO_PI) - np.pi)
        return gamma, f2.rotated(gamma)
    if mode != "optimal":
        raise InvalidInputError(f"unknown alignment mode {mode!r}")

    m = max(n, 2 * f1.degree, 2 * f2.degree)
    w1 = eval_boundary(f1, m) - f1.zeta_o
    w2 = eval_boundary(f2, m) - f2.zeta_o

    def residual(gamma: float) -> float:
        return float(np.max(np.abs(w1 - np.exp(1j * gamma) * w2)))

    grid = np.arange(4096) * (TWO_PI / 4096)
    coarse = [residual(g) for g in grid]
    k = int(np.argmin(coarse))
    lo = grid[k] - TWO_PI / 4096
    hi = grid[k] + TWO_PI / 4096
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = residual(c), residual(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = residual(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = residual(d)
    gamma = float(np.mod(0.5 * (a + b) + np.pi, TWO_PI) - np.pi)
    return gamma, f2.rotated(gamma)


def _rotation_constant(f: ConformalMap) -> float:
    a1 = complex(f.coefficients[1])
    if abs(a1) == 0:
        raise InvalidInputError("f'(0) vanishes; rotation constant undefined")
    return float(np.angle(a1))


def _coordinate_shift(points: np.ndarray) -> int:
    """Exponent s such that points / 2^s have their largest coordinate
    magnitude within `_COORD_RANGE`; 0 for points already within it."""
    top = max(np.max(np.abs(points.real)), np.max(np.abs(points.imag)))
    exponent = int(np.frexp(top)[1])
    lo, hi = _COORD_RANGE
    return min(max(0, exponent - hi), exponent - lo)


def _ldexp(z, exponent: int):
    """z * 2^exponent, coordinate by coordinate, for complex scalars and arrays."""
    return np.ldexp(np.real(z), exponent) + 1j * np.ldexp(np.imag(z), exponent)


def smallest_enclosing_circle(points: np.ndarray) -> tuple[complex, float]:
    """Smallest circle containing all points (Welzl's move-to-front method,
    deterministic shuffle).  Coordinates are scaled by a power of two into
    `_COORD_RANGE` and the circle scaled back, both exact."""
    points = np.asarray(points, dtype=complex)
    shift = _coordinate_shift(points)
    pts = [complex(p) for p in _ldexp(points, -shift)]
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
    return complex(_ldexp(center, shift)), math.ldexp(radius, shift)


class _NegDepth:
    """Objective of `largest_inscribed_circle`: minus the distance from a point
    to the polyline when the point is inside the domain, 0.0 when it is not.

    The edges are laid out once: their starts ``ax, ay``, their vectors
    ``abx, aby`` and ``den = max(|ab|^2, 1e-300)``, with four n-sized
    buffers that every evaluation reuses.  The deepest inside point evaluated
    so far, ``(x, y, depth)``, lets later points skip the turning test.
    """

    def __init__(self, b: DomainBoundary):
        pts = b.points
        end = np.roll(pts, -1)
        self.points = pts
        self.ax, self.ay = pts.real.copy(), pts.imag.copy()
        self.abx, self.aby = end.real - self.ax, end.imag - self.ay
        self.den = np.maximum(self.abx * self.abx + self.aby * self.aby, 1e-300)
        self._t, self._dx, self._dy, self._sq = np.empty((4, pts.size))
        self.deepest = (0.0, 0.0, 0.0)

    def distance(self, x: float, y: float) -> float:
        """Distance from (x, y) to the polyline: the least ``np.hypot`` from
        the point to its clamped projection on each edge, to the bit."""
        t, dx, dy, sq = self._t, self._dx, self._dy, self._sq
        np.subtract(x, self.ax, out=t)
        t *= self.abx
        np.subtract(y, self.ay, out=dy)
        dy *= self.aby
        t += dy
        t /= self.den
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        for d, a, ab, p in ((dx, self.ax, self.abx, x), (dy, self.ay, self.aby, y)):
            np.multiply(t, ab, out=d)
            d += a
            np.subtract(p, d, out=d)
        np.multiply(dx, dx, out=t)
        np.multiply(dy, dy, out=sq)
        sq += t
        near = (sq <= sq.min() * (1.0 + _SQ_RTOL) + _SQ_ATOL).nonzero()[0]
        return float(np.hypot(dx[near], dy[near]).min())

    def __call__(self, xy) -> float:
        x, y = float(xy[0]), float(xy[1])
        cx, cy, depth = self.deepest
        if not math.hypot(x - cx, y - cy) < 0.5 * depth:
            try:
                if abs(_total_turning(self.points, complex(x, y)) / TWO_PI - 1.0) > 1e-6:
                    return 0.0  # outside
            except InvalidInputError:
                return 0.0
        d = self.distance(x, y)
        if d > depth:
            self.deepest = (x, y, d)
        return -d


def largest_inscribed_circle(b: DomainBoundary) -> tuple[complex, float]:
    """Largest disk inside the domain, center free.

    Coarse search over a polar grid around the base point followed by a
    Nelder-Mead polish of the distance-to-boundary function; adequate for the
    star-shaped domains this package produces.

    Two shortcuts make each evaluation cheap and leave every value as the
    turning test and the full projection-and-hypot scan give it:

    * The turning test runs only for points at least half the depth d away
      from the deepest inside point evaluated so far.  A point nearer than
      that is inside: the segment joining the two stays more than d/2 from
      the polyline, so the winding number cannot change along it.  At that
      distance every edge subtends an angle bounded away from pi, so the
      turning sum's rounding stays far below the test's 1e-6 tolerance and
      the test would also have said inside.
    * The distance takes ``np.hypot`` only on the edges whose squared
      distance is within a relative ``_SQ_RTOL``, or an absolute
      ``_SQ_ATOL``, of the least.  Squares and hypots come from the same
      rounded residuals; a square errs by a few ulps (and by a few subnormal
      units once it underflows, which the absolute part covers), a hypot by
      one ulp.  An edge whose hypot is least therefore has a square within
      that allowance of the least square, and is always among the candidates.

    Coordinates outside `_COORD_RANGE` are scaled by a power of two first, and
    the disk scaled back; both are exact.
    """
    shift = _coordinate_shift(b.points)
    if shift:
        center, radius = largest_inscribed_circle(replace(
            b, points=_ldexp(b.points, -shift), zeta_o=complex(_ldexp(b.zeta_o, -shift))))
        return complex(_ldexp(center, shift)), math.ldexp(radius, shift)
    neg_depth = _NegDepth(b)
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


def save_polyline(path, b: DomainBoundary) -> None:
    """CSV export: one ``theta,s,re,im`` row per boundary sample."""
    lines = ["theta,s,re,im"]
    for theta, s, p in zip(b.thetas, b.arclengths, b.points):
        lines.append(f"{theta:.17g},{s:.17g},{p.real:.17g},{p.imag:.17g}")
    _write_atomic(path, "\n".join(lines) + "\n")
