"""Set-geometric quantities on sampled boundaries: Hausdorff distance,
radii of centered inscribed/enclosing disks, free-center disk variants, and
rotation alignment of two maps about their common interior base point."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from .conformal import ConformalMap, _total_turning, arclength, eval_boundary
from .errors import ConvergenceError, InvalidInputError

TWO_PI = 2.0 * np.pi
# how far below the largest KD-tree distance a point may still hold the
# supremum: relative, and absolute (in coordinates scaled into [0.5, 1)) for
# squared distances that underflow
_KD_RTOL = 1e-12
_KD_ATOL = 2.0 ** -500
# the points of b, by offset in polar-angle order, that bound a point's
# nearest distance from above before the KD-tree runs
_ANGLE_NEIGHBOURS = np.arange(-3, 3)
# how far above the least squared point-to-edge distance an edge may still
# hold the least hypot: relative, and absolute for squares that underflow
_SQ_RTOL = 1e-12
_SQ_ATOL = np.finfo(float).tiny
# the free-center disks scale coordinates by a power of two so that the
# largest magnitude lies in [2^(lo-1), 2^hi): below, their absolute
# tolerances (the enclosing circle's cover slack, Nelder-Mead's xatol and
# fatol, the 1e-300 floors) would swamp the domain; above, squares and the
# circumcircle's cubic terms would overflow.  Coordinates already in range are
# left as they are.
_COORD_RANGE = (-3, 256)
# a point lies in a circle of radius r when its distance to the center is at
# most r * (1 + _COVER_SLACK) + _COVER_SLACK
_COVER_SLACK = 1e-12


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


def _by_angle(points: np.ndarray, center: complex) -> tuple[np.ndarray, np.ndarray]:
    """The points sorted by polar angle about ``center``, and those angles."""
    theta = np.angle(points - center)
    order = np.argsort(theta)
    return points[order], theta[order]


def _pruned_sup_inf(a: np.ndarray, theta_a: np.ndarray, b: np.ndarray,
                    theta_b: np.ndarray, floor: float = 0.0) -> float:
    """max(floor, sup over a of inf over b of |a - b|), the same bits as
    :func:`_directed_sup_inf`, which runs only on the points of a that can
    hold the supremum (Taha & Hanbury, IEEE TPAMI 2015).

    b is sorted by the polar angles ``theta_b``.  Each point of a takes as
    upper bound u the least ``np.abs`` distance to the points of b nearest in
    angle; one exact row, the nearest distance at the point of largest u,
    bounds the supremum from below, and ``low`` is the larger of it and
    ``floor``.  A point with u <= low has its nearest distance at most low,
    so only the points with u > low go to the kernel.  The angles decide only
    how many points survive, never the value.
    """
    k = np.searchsorted(theta_b, theta_a)
    near = (k[:, None] + _ANGLE_NEIGHBOURS) % b.size
    upper = np.min(np.abs(a[:, None] - b[near]), axis=1)
    low = max(floor, float(np.min(np.abs(a[np.argmax(upper)] - b))))
    rest = a[upper > low]
    return max(low, _directed_sup_inf(rest, b)) if rest.size else low


def hausdorff_distance(b1: DomainBoundary, b2: DomainBoundary) -> float:
    """Two-sided Hausdorff distance between the sampled boundaries, exact over
    the sample sets (larger of the two directed sup-inf distances).

    Each directed distance is certified before the KD-tree runs: an upper
    bound per point from the samples nearest in polar angle about
    ``b1.zeta_o``, one exact row at the point of largest bound, and a strict
    prune of every point whose bound does not exceed that row's value (or,
    in the second direction, the first direction's distance).  The KD-tree
    kernel sees only the survivors (none for identical boundaries or for a
    map against its rebuilt map), so the result equals the brute-force pair
    scan to the bit; the worst case, when every point survives, is the
    kernel's cost plus O(n).
    """
    s1 = _by_angle(b1.points, b1.zeta_o)
    s2 = _by_angle(b2.points, b1.zeta_o)
    # the first direction's value is a floor for the second: a point of b2
    # that cannot exceed it cannot change the maximum
    return _pruned_sup_inf(*s2, *s1, floor=_pruned_sup_inf(*s1, *s2))


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


def _circle_two(a: complex, b: complex) -> tuple[complex, float]:
    center = 0.5 * (a + b)
    return center, abs(a - center)


def _circumcircle(a: complex, b: complex, c: complex) -> tuple[complex, float] | None:
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


def _covers(circle: tuple[complex, float], p: complex) -> bool:
    center, r = circle
    return abs(p - center) <= r * (1.0 + _COVER_SLACK) + _COVER_SLACK


def _support_circle(pts: np.ndarray, support: list[int]
                    ) -> tuple[tuple[complex, float], list[int]]:
    """Smallest circle of the few points ``pts[support]`` (``support`` in
    ascending order) by the plain incremental loop: a point outside the
    circle of the points before it lies on the boundary of their circle with
    it.  Returns the circle and the ascending positions of the points it was
    computed from.  Each formula takes its points later position first, as
    the same loop over all points does.
    """
    z = [complex(pts[i]) for i in support]
    circle, used = (z[0], 0.0), support[:1]
    for i, p in enumerate(z):
        if _covers(circle, p):
            continue
        circle, used = (p, 0.0), [support[i]]
        for j in range(i):
            if _covers(circle, z[j]):
                continue
            circle, used = _circle_two(p, z[j]), [support[j], support[i]]
            for k in range(j):
                if _covers(circle, z[k]):
                    continue
                candidate = _circumcircle(p, z[j], z[k])
                if candidate is not None:
                    circle, used = candidate, [support[k], support[j], support[i]]
    return circle, used


def smallest_enclosing_circle(points: np.ndarray) -> tuple[complex, float]:
    """Smallest circle containing all points, by the support-set iteration
    of Elzinga & Hearn (Transportation Science, 1972).

    The points are put in a fixed pseudo-random order.  A support set S of
    at most three points starts as the first point, and its circle is the
    smallest circle of S.  Each step measures every distance to the center
    in one array pass; if the farthest point lies outside the circle (beyond
    a relative and absolute slack of ``_COVER_SLACK``), it joins S, the
    smallest circle of those at most four points is computed, and S becomes
    the points that define it.  The new circle contains the old S, whose
    smallest circle is unique and misses the added point, so the radius
    strictly increases: no S repeats, and the loop ends.  It ends when the
    circle contains every point; being the smallest circle of a subset, the
    circle is then the smallest of all the points.  A loop that has not ended
    after n steps raises `ConvergenceError`.

    The circles of S are computed as Welzl's incremental method
    (Welzl, LNCS 555, 1991) computes them over the same order, from the same
    formulas with the later point first, so when the circle's defining
    points are unique the result is that method's to the bit.  Coordinates
    are scaled by a power of two into `_COORD_RANGE` and the circle scaled
    back, both exact.
    """
    points = np.asarray(points, dtype=complex)
    if points.ndim != 1 or points.size == 0:
        raise InvalidInputError("need a non-empty 1-D array of points")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points must be finite")
    shift = _coordinate_shift(points)
    order = np.random.default_rng(20260808).permutation(points.size)
    pts = _ldexp(points, -shift)[order]
    circle, support = (complex(pts[0]), 0.0), [0]
    for _ in range(points.size):
        center, radius = circle
        dist = np.abs(pts - center)
        far = int(np.argmax(dist))
        allowed = radius * (1.0 + _COVER_SLACK) + _COVER_SLACK
        if dist[far] <= allowed:
            return complex(_ldexp(center, shift)), math.ldexp(radius, shift)
        circle, support = _support_circle(pts, sorted(support + [far]))
    raise ConvergenceError(points.size, float(dist[far] - radius), allowed - radius)


class _NegDepth:
    """Objective of `largest_inscribed_circle`: minus the distance from a point
    to the polyline when the point is inside the domain, 0.0 when it is not.

    The edges of ``b``'s points scaled by 2^-shift are laid out once: starts
    ``ax, ay``, vectors ``abx, aby``, ``den = max(|ab|^2, 1e-300)`` and unit
    left normals ``nx, ny`` (Python floats, as each evaluation reads one or
    two), with five n-sized buffers that every evaluation overwrites.
    """

    def __init__(self, b: DomainBoundary, shift: int = 0):
        pts = _ldexp(b.points, -shift)
        end = np.roll(pts, -1)
        self.ax, self.ay = pts.real.copy(), pts.imag.copy()
        self.abx, self.aby = end.real - self.ax, end.imag - self.ay
        self.den = np.maximum(self.abx * self.abx + self.aby * self.aby, 1e-300)
        length = np.sqrt(self.den)
        self.nx, self.ny = (-self.aby / length).tolist(), (self.abx / length).tolist()
        self._t, self._dx, self._dy, self._sq, self._dx2 = np.empty((5, pts.size))

    def distance_and_side(self, x: float, y: float) -> tuple[float, bool]:
        """Distance from (x, y) to the polyline, the least ``np.hypot`` to a
        clamped projection on an edge (to the bit), and whether it is inside."""
        t, dx, dy, sq, dx2 = self._t, self._dx, self._dy, self._sq, self._dx2
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
        np.multiply(dx, dx, out=dx2)
        np.multiply(dy, dy, out=sq)
        sq += dx2
        i = int(sq.argmin())
        near = (sq <= sq[i] * (1.0 + _SQ_RTOL) + _SQ_ATOL).nonzero()[0]
        # a projection clamped to an end of edge i is the vertex it shares
        # with edge j; elsewhere j = i, and the doubled normal has the same sign
        end = t.item(i)
        j = (i + (end == 1.0) - (end == 0.0)) % t.size
        side = ((self.nx[i] + self.nx[j]) * dx.item(i)
                + (self.ny[i] + self.ny[j]) * dy.item(i))
        return float(np.hypot(dx[near], dy[near]).min()), side > 0.0

    def distance(self, x: float, y: float) -> float:
        return self.distance_and_side(x, y)[0]

    def __call__(self, xy) -> float:
        d, inside = self.distance_and_side(float(xy[0]), float(xy[1]))
        return -d if inside else 0.0


def largest_inscribed_circle(b: DomainBoundary) -> tuple[complex, float]:
    """Largest disk inside the domain, center free.

    Coarse search over a polar grid around the base point followed by a
    Nelder-Mead polish of the distance-to-boundary function; adequate for the
    star-shaped domains this package produces.

    One scan of the edges gives each evaluation both its values:

    * The side comes from the nearest point (the pseudonormal test of
      Baerentzen & Aanaes, IEEE TVCG 2005): the point is inside when its
      residual points along the normal there, the edge's unit left normal
      or, at a vertex (read off the clamp), the sum of its two edges'
      normals, which points inward at convex and reflex vertices alike.
      The test needs a simple polyline, counterclockwise about ``zeta_o``:
      `DomainBoundary` checks that the base point winds once, and
      `DomainSample`'s univalence test that the polyline is simple.
    * The distance takes ``np.hypot`` only on the edges whose squared
      distance is within a relative ``_SQ_RTOL``, or an absolute
      ``_SQ_ATOL``, of the least.  Squares and hypots come from the same
      rounded residuals; a square errs by a few ulps (and by a few subnormal
      units once it underflows, which the absolute part covers), a hypot by
      one ulp.  An edge whose hypot is least therefore has a square within
      that allowance of the least square, and is always among the candidates.

    Coordinates are scaled by a power of two into `_COORD_RANGE` and the disk
    scaled back, both exact.
    """
    shift = _coordinate_shift(b.points)
    zeta_o = complex(_ldexp(b.zeta_o, -shift))
    neg_depth = _NegDepth(b, shift)
    rho0 = float(np.min(np.abs(_ldexp(b.points, -shift) - zeta_o)))
    best_xy = np.array([zeta_o.real, zeta_o.imag])
    best = neg_depth(best_xy)
    if best == 0.0:
        raise InvalidInputError(
            "base point outside: the polyline is not simple and counterclockwise")
    for radius in (0.2 * rho0, 0.45 * rho0, 0.7 * rho0):
        for angle in np.arange(8) * (TWO_PI / 8):
            xy = np.array([zeta_o.real + radius * np.cos(angle),
                           zeta_o.imag + radius * np.sin(angle)])
            val = neg_depth(xy)
            if val < best:
                best, best_xy = val, xy
    result = minimize(neg_depth, best_xy, method="Nelder-Mead",
                      options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
    center = complex(result.x[0], result.x[1])
    return complex(_ldexp(center, shift)), math.ldexp(float(-result.fun), shift)
