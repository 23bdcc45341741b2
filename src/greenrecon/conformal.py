"""Truncated power series maps of the closed unit disk and the forward
operator taking a map to its boundary datum.

A map f(z) = sum a_k z^k is stored by its coefficients together with the
marked points zeta_o = f(0) (interior base point) and zeta_b = f(1)
(boundary base point).  The forward operator evaluates

    s(theta) = integral_0^theta |f'(e^{it})| dt,
    datum    = 1 / (2*pi*|f'(e^{i theta})|),

and resamples the datum onto a uniform arclength grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from ._spectral import (TrigInterpolant, _power_sum, derivative_samples, invert_increasing,
                        uniform_grid)
from .boundary import BoundaryFunction, _write_atomic
from .errors import AliasingError, DataFormatError, DegenerateMapError, InvalidInputError

TWO_PI = 2.0 * np.pi
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class ConformalMap:
    """Truncated power series f(z) = a_0 + a_1 z + ... + a_M z^M on the disk.

    Invariants: a_0 equals the interior base point; the coefficient sum equals
    the boundary base point f(1) within 1e-8.  Nonvanishing of f' on the
    boundary and simplicity of the boundary curve are univalence proxies
    checked by :meth:`validate`, which returns warnings rather than raising,
    because nearly degenerate maps are legitimate test inputs.
    """

    coefficients: np.ndarray
    zeta_b: complex | None = field(default=None)

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size < 2:
            raise InvalidInputError("need at least two coefficients")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        total = complex(np.sum(coeffs))
        if self.zeta_b is None:
            object.__setattr__(self, "zeta_b", total)
        elif abs(complex(self.zeta_b) - total) > 1e-8 * max(1.0, abs(total)):
            raise InvalidInputError(
                f"coefficient sum {total} does not match zeta_b {self.zeta_b}")
        else:
            object.__setattr__(self, "zeta_b", complex(self.zeta_b))

    @property
    def zeta_o(self) -> complex:
        return complex(self.coefficients[0])

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def __call__(self, z) -> np.ndarray:
        return _power_sum(self.coefficients, z)

    def fprime_coefficients(self) -> np.ndarray:
        c = self.coefficients
        return c[1:] * np.arange(1, c.size)

    def fprime(self, z) -> np.ndarray:
        return _power_sum(self.fprime_coefficients(), z)

    def rotated(self, gamma: float) -> "ConformalMap":
        """Rotation of the image domain about zeta_o by angle gamma."""
        phase = np.exp(1j * gamma)
        coeffs = self.coefficients.copy()
        coeffs[1:] *= phase
        return ConformalMap(coeffs)

    def scaled(self, factor: float) -> "ConformalMap":
        """Dilation of the image domain about zeta_o by a positive factor."""
        if not factor > 0:
            raise InvalidInputError("scale factor must be positive")
        coeffs = self.coefficients.copy()
        coeffs[1:] *= factor
        return ConformalMap(coeffs)

    def canonical(self) -> "ConformalMap":
        """The rotation of this map with f'(0) real positive.

        Rotation-invariant quantities (speed, arclength, datum) computed in
        this frame agree to rounding level for commonly rotated inputs, which
        keeps downstream reports orientation-free.  f'(0) is set to exactly
        |f'(0)|, so the result is its own canonical map.
        """
        a1 = complex(self.coefficients[1])
        if abs(a1) == 0 or a1.imag == 0 and a1.real > 0:
            return self
        coeffs = self.rotated(-float(np.angle(a1))).coefficients
        coeffs[1] = abs(a1)
        return ConformalMap(coeffs)

    def validate(self, n: int = 512) -> list[str]:
        """Univalence proxy: nonvanishing f' on a dense boundary grid and a
        simple boundary polyline. Returns human-readable warnings."""
        warnings = []
        m = max(n, 2 * self.degree)
        fp = _on_nodes(self.fprime_coefficients(), m)
        smallest = float(np.min(np.abs(fp)))
        if smallest < 1e-6:
            warnings.append(f"|f'| as small as {smallest:.3g} on the boundary grid")
        if smallest > 0:
            winding = _total_turning(fp, 0) / TWO_PI
            if abs(winding) > 1e-6:
                warnings.append(f"argument of f' winds {winding:.3g} times (expected 0)")
        if not _polyline_is_simple(_on_nodes(self.coefficients, m)):
            warnings.append("boundary polyline self-intersects on the test grid")
        return warnings


def _total_turning(points: np.ndarray, center: complex) -> float:
    """Total change of arg(points - center) around the closed polygon through
    the points, in radians: 2 pi times the winding number about center."""
    rel = points - center
    if np.min(np.abs(rel)) == 0:
        raise InvalidInputError("base point lies on the boundary")
    closed = np.concatenate([rel, rel[:1]])
    return float(np.sum(np.angle(closed[1:] / closed[:-1])))


def _polyline_is_simple(points: np.ndarray, chunk: int = 1 << 16) -> bool:
    """Segment intersection test for the closed polyline.

    Segments that cross have start points at most the sum of their lengths
    apart, so only start points within twice the longest edge (a KD-tree
    query, widened by a rounding margin) are paired, and each pair is tested
    in both orders, as a scan of all ordered pairs would test it.
    """
    n = points.size
    p = np.column_stack([points.real, points.imag])
    d = np.roll(p, -1, axis=0) - p

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    def crosses(i, j):
        di, dj = d[i], d[j]
        r = p[j] - p[i]
        denom = cross(di, dj)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = cross(r, dj) / denom
            u = cross(r, di) / denom
        return np.any((np.abs(denom) > 1e-300) & (t > 0) & (t < 1) & (u > 0) & (u < 1))

    reach = 2.0 * float(np.max(np.hypot(d[:, 0], d[:, 1])))
    pairs = cKDTree(p).query_pairs(reach * (1.0 + 1e-9), output_type="ndarray")
    # skip adjacent segments (they share an endpoint)
    gap = (pairs[:, 1] - pairs[:, 0]) % n
    pairs = pairs[(gap > 1) & (gap < n - 1)]
    for lo in range(0, len(pairs), chunk):
        i, j = pairs[lo: lo + chunk].T
        if crosses(i, j) or crosses(j, i):
            return False
    return True


def _check_grid(f: ConformalMap, n: int) -> None:
    if n < 2 * f.degree:
        raise AliasingError(
            f"grid size {n} is below twice the map degree {f.degree}")


def boundary_grid(n: int) -> np.ndarray:
    return uniform_grid(n, TWO_PI)


def _on_nodes(coeffs: np.ndarray, n: int) -> np.ndarray:
    """sum_k coeffs[k] z^k at the n-th roots of unity z = exp(1j*boundary_grid(n)).

    Exact polynomial evaluation (for n > degree) realized by zero-padded
    Fourier synthesis; every boundary-node value of a map comes from here.
    """
    padded = np.zeros(n, dtype=complex)
    padded[: coeffs.size] = coeffs
    return np.fft.ifft(padded) * n


def eval_boundary(f: ConformalMap, n: int) -> np.ndarray:
    """f at the n-th roots of unity, in order of increasing angle."""
    _check_grid(f, n)
    return _on_nodes(f.coefficients, n)


def eval_fprime(f: ConformalMap, n: int) -> np.ndarray:
    """f' at the n-th roots of unity, in order of increasing angle; refuses
    maps whose derivative (nearly) vanishes at a node."""
    _check_grid(f, n)
    values = _on_nodes(f.fprime_coefficients(), n)
    smallest = np.min(np.abs(values))
    if smallest < DEGENERACY_TOL:
        raise DegenerateMapError(
            f"|f'| = {smallest:.3g} at a boundary node; map is degenerate")
    return values


def c1_gap(f1: ConformalMap, f2: ConformalMap, n: int) -> float:
    """sup|f1 - f2| + sup|f1' - f2'| over the n-th roots of unity."""
    df = eval_boundary(f1, n) - eval_boundary(f2, n)
    dfp = _on_nodes(f1.fprime_coefficients(), n) - _on_nodes(f2.fprime_coefficients(), n)
    return float(np.max(np.abs(df)) + np.max(np.abs(dfp)))


def arclength(f: ConformalMap, n: int) -> tuple[np.ndarray, float]:
    """Cumulative arclength s(theta_k) along the boundary and the perimeter L.

    Spectral antidifferentiation of |f'| over theta; L = 2*pi times the mean.
    """
    _interp, cumulative = _speed_machinery(f, n)
    return cumulative.node_values(), cumulative.total


def _speed_machinery(f: ConformalMap, n: int):
    # the speed |f'| is rotation-invariant; evaluating it in the canonical
    # frame makes the float path independent of the input's orientation
    interp = TrigInterpolant(np.abs(eval_fprime(f.canonical(), n)), TWO_PI)
    return interp, interp.antiderivative()


def forward_operator(f: ConformalMap, n: int, alpha: float = 0.5) -> BoundaryFunction:
    """The boundary datum of a map, on a uniform arclength grid of [0, L).

    The parametric pairs (s(theta), 1/(2*pi*|f'(e^{i theta})|)) are resampled
    in s by inverting the monotone arclength map; the datum value and its
    arclength derivative are then evaluated through the interpolant of |f'|,
    which keeps the compatibility identities spectrally accurate.
    """
    interp, cumulative = _speed_machinery(f, n)
    L = cumulative.total
    s_targets = uniform_grid(n, L)
    theta = invert_increasing(cumulative, s_targets)
    speed = interp(theta)                      # |f'| at the mapped angles
    values = 1.0 / (TWO_PI * speed)
    # phi'(s) = d/d theta [1/(2 pi |f'|)] * d theta/d s, d theta/d s = 1/|f'|
    dspeed = interp.derivative_at(theta)
    derivative = -dspeed / (TWO_PI * speed ** 3)
    return BoundaryFunction(values, L, alpha=alpha, derivative_values=derivative)


def pushforward_datum(f: ConformalMap, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The datum transported to the circle, psi = 1/(2*pi*|f'|), and its
    theta-derivative psi' = -(|f'|)'/(2*pi*|f'|^2), at the theta grid.

    psi equals the arclength datum composed with the inverse cumulative map,
    read off the map without an inversion; (|f'|)' is the spectral derivative
    of the speed samples, in the canonical frame as in :func:`forward_operator`.
    """
    speed = np.abs(eval_fprime(f.canonical(), n))
    return (1.0 / (TWO_PI * speed),
            -derivative_samples(speed, TWO_PI) / (TWO_PI * speed ** 2))


def save_map(path, f: ConformalMap) -> None:
    """Write a map in the plain-text exchange format: zeta_o, zeta_b, then
    one ``k re(a_k) im(a_k)`` row per coefficient."""
    lines = [
        f"zeta_o {f.zeta_o.real:.17g} {f.zeta_o.imag:.17g}",
        f"zeta_b {f.zeta_b.real:.17g} {f.zeta_b.imag:.17g}",
    ]
    for k, a in enumerate(f.coefficients):
        lines.append(f"{k} {a.real:.17g} {a.imag:.17g}")
    _write_atomic(path, "\n".join(lines) + "\n")


def load_map(path) -> ConformalMap:
    """Read a map written by :func:`save_map`."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    rows = [(i + 1, line.strip()) for i, line in enumerate(raw)
            if line.strip() and not line.lstrip().startswith("#")]
    if len(rows) < 4:
        raise DataFormatError(path, len(raw), "expected two marked points and coefficients")

    def parse_point(row, key):
        line_no, text = row
        parts = text.split()
        if len(parts) != 3 or parts[0] != key:
            raise DataFormatError(path, line_no, f"expected '{key} re im'")
        try:
            return complex(float(parts[1]), float(parts[2]))
        except ValueError:
            raise DataFormatError(path, line_no, "bad number in marked point") from None

    zeta_o = parse_point(rows[0], "zeta_o")
    zeta_b = parse_point(rows[1], "zeta_b")
    coeffs = []
    for idx, (line_no, text) in enumerate(rows[2:]):
        parts = text.split()
        if len(parts) != 3:
            raise DataFormatError(path, line_no, "expected 'k re im'")
        try:
            k = int(parts[0])
            a = complex(float(parts[1]), float(parts[2]))
        except ValueError:
            raise DataFormatError(path, line_no, "bad number in coefficient row") from None
        if k != idx:
            raise DataFormatError(path, line_no, f"coefficient index {k}, expected {idx}")
        coeffs.append(a)
    coeffs = np.asarray(coeffs, dtype=complex)
    if abs(coeffs[0] - zeta_o) > 1e-12 * max(1.0, abs(zeta_o)):
        raise DataFormatError(path, rows[2][0], "a_0 does not match zeta_o")
    try:
        return ConformalMap(coeffs, zeta_b=zeta_b)
    except InvalidInputError as exc:
        raise DataFormatError(path, rows[1][0], str(exc)) from None
