"""Boundary data of arclength, the cumulative map and its inverse, class
membership checks, and perimeter rescaling.

A boundary datum is a strictly positive function phi of arclength s on
[0, L), sampled uniformly, whose integral over one period equals one.  Its
cumulative map Phi(s) = 2*pi * integral_0^s phi carries arclength to the
circle angle; the inverse pulls circle data back to arclength.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import norms
from ._spectral import CumulativeTrig, TrigInterpolant, invert_increasing, uniform_grid
from .errors import CompatibilityError, InvalidInputError

COMPATIBILITY_TOL = 1e-8
INVERSION_TOL = 1e-12  # absolute, in circle-angle units

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class BoundaryFunction:
    """Samples of a boundary datum at N uniform arclength points of [0, L).

    Parameters
    ----------
    values : samples of phi, one per grid point
    L : perimeter (length of the arclength interval)
    alpha : Holder exponent associated with the datum, in (0, 1]
    derivative_values : optional samples of phi'; when absent, derivatives are
        obtained by spectral differentiation of the trigonometric interpolant

    Structural requirements (even N >= 16, finite samples) are enforced here;
    positivity and the unit-integral compatibility condition are verified by
    the operations that rely on them, so that deliberately inconsistent data
    can still be represented and reported on.
    """

    values: np.ndarray
    L: float
    alpha: float = 0.5
    derivative_values: np.ndarray | None = field(default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 16:
            raise InvalidInputError("need at least 16 samples")
        if values.size % 2:
            raise InvalidInputError("sample count must be even")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("samples must be finite")
        if not self.L > 0:
            raise InvalidInputError("perimeter must be positive")
        norms._check_alpha(self.alpha)
        object.__setattr__(self, "values", values)
        if self.derivative_values is not None:
            dv = np.asarray(self.derivative_values, dtype=float)
            if dv.shape != values.shape:
                raise InvalidInputError("derivative samples must match the grid")
            object.__setattr__(self, "derivative_values", dv)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def grid(self) -> np.ndarray:
        return uniform_grid(self.n, self.L)

    def integral(self) -> float:
        """Integral of the trigonometric interpolant over one period."""
        return float(np.mean(self.values) * self.L)

    def compatibility_residual(self) -> float:
        return abs(self.integral() - 1.0)

    def min_value(self) -> float:
        return float(np.min(self.values))

    def interpolant(self) -> TrigInterpolant:
        return TrigInterpolant(self.values, self.L)

    def derivative(self) -> np.ndarray:
        """phi' samples: the supplied ones, else the spectral derivative."""
        if self.derivative_values is not None:
            return self.derivative_values
        from ._spectral import derivative_samples
        return derivative_samples(self.values, self.L)

    def as_interval_function(self) -> norms.SampledFunction:
        """The datum as a function on the closed interval [0, L] (plain
        distances), with the right endpoint duplicating the left one."""
        return norms.closed_interval(self.values, self.L)

    def holder_norm0(self) -> float:
        """Measured ||phi||_{0,alpha,[0,L]} on the grid."""
        return norms.holder_norm(self.as_interval_function(), 0, self.alpha)

    def holder_norm1(self) -> float:
        """Measured ||phi||_{1,alpha,[0,L]} on the grid."""
        dv = self.derivative()
        return norms.holder_norm(self.as_interval_function(), 1, self.alpha,
                                 derivative_values=np.concatenate([dv, [dv[0]]]))


class CumulativeMap:
    """The cumulative map Phi(s) = 2*pi * integral_0^s phi and its inverse.

    Built spectrally from a boundary datum; the mean slope is pinned so that
    Phi(L) = 2*pi exactly.  Inversion uses Newton iteration on the monotone
    interpolant with a bisection fallback; endpoints map exactly.
    """

    def __init__(self, cumulative: CumulativeTrig, L: float):
        self._cum = cumulative
        self.L = float(L)

    def theta_of(self, s) -> np.ndarray:
        """Phi at arbitrary arclength points."""
        return TWO_PI * self._cum(s)

    def phi_of(self, s) -> np.ndarray:
        """The datum at arbitrary arclength points: the interpolant that Phi
        integrates."""
        return self._cum.interp(s)

    def theta_nodes(self) -> np.ndarray:
        """Phi at the datum's own uniform grid."""
        return TWO_PI * self._cum.node_values()

    def s_of(self, theta) -> np.ndarray:
        """Inverse map: arclength with |Phi(s) - theta| below tolerance.

        Angles outside [0, 2*pi] are reduced modulo 2*pi (documented
        behavior); the endpoints 0 and 2*pi map exactly to 0 and L.  A NaN or
        infinite angle, which has no residue, raises :class:`InvalidInputError`.
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if not np.all(np.isfinite(theta)):
            raise InvalidInputError("angles must be finite")
        reduced = np.where((theta >= 0) & (theta <= TWO_PI), theta, np.mod(theta, TWO_PI))
        targets = reduced / TWO_PI
        # default tolerance sits at rounding level, far inside INVERSION_TOL
        return invert_increasing(self._cum, targets)


def build_cumulative(phi: BoundaryFunction) -> CumulativeMap:
    """Cumulative map of a datum by spectral antidifferentiation.

    Requires the compatibility integral to equal 1 within ``COMPATIBILITY_TOL``,
    so that inconsistent data is surfaced, not masked.  Phi(L) = 2*pi is
    enforced exactly by pinning the mean of the interpolant.
    """
    integral = phi.integral()
    if abs(integral - 1.0) > COMPATIBILITY_TOL:
        raise CompatibilityError(integral, COMPATIBILITY_TOL, phi.n)
    interp = TrigInterpolant(phi.values, phi.L)
    cumulative = interp.antiderivative(mean=1.0 / phi.L)
    if np.min(phi.values) <= 0:
        raise InvalidInputError("datum must be strictly positive to be invertible")
    return CumulativeMap(cumulative, phi.L)


def invert_cumulative(cm: CumulativeMap, theta) -> np.ndarray | float:
    """Arclength s = Phi^{-1}(theta); scalar in, scalar out."""
    s = cm.s_of(theta)
    return float(s[0]) if np.isscalar(theta) else s


@dataclass(frozen=True)
class ClassReport:
    """Grid-level membership report for the positivity/Holder-bound classes."""

    min_value: float
    norm0: float
    norm1: float | None
    m: float
    M0: float
    M1: float | None
    violations: tuple[str, ...]

    @property
    def in_g0(self) -> bool:
        return self.min_value >= self.m and self.norm0 <= self.M0

    @property
    def in_g1(self) -> bool:
        if self.norm1 is None or self.M1 is None:
            return False
        return self.in_g0 and self.norm1 <= self.M1


def validate_class(phi: BoundaryFunction, m: float, M0: float,
                   M1: float | None = None) -> ClassReport:
    """Measure min phi and the Holder norms and compare with (m, M0, M1).

    Violations are reported, never raised: the caller decides what to do with
    data that leaves the class.
    """
    violations = []
    min_value = phi.min_value()
    if min_value <= 0:
        violations.append(f"positivity violated: min phi = {min_value:.6g}")
    elif min_value < m:
        violations.append(f"lower bound violated: min phi = {min_value:.6g} < m = {m:.6g}")
    norm0 = phi.holder_norm0()
    if norm0 > M0:
        violations.append(f"norm bound violated: ||phi||_0 = {norm0:.6g} > M0 = {M0:.6g}")
    norm1 = None
    if M1 is not None:
        norm1 = phi.holder_norm1()
        if norm1 > M1:
            violations.append(f"norm bound violated: ||phi||_1 = {norm1:.6g} > M1 = {M1:.6g}")
    if phi.compatibility_residual() > COMPATIBILITY_TOL:
        violations.append(
            f"compatibility violated: integral = {phi.integral():.12g}")
    return ClassReport(min_value=min_value, norm0=norm0, norm1=norm1,
                       m=m, M0=M0, M1=M1, violations=tuple(violations))


def rescale_to_common_interval(phi1: BoundaryFunction, phi2: BoundaryFunction
                               ) -> tuple[BoundaryFunction, BoundaryFunction, float]:
    """Rescale two data on grids of one size onto the common interval [0, L],
    L the average perimeter: phi_hat_j(s) = phi_j(L_j * s / L).

    The rescaling is exact sample reuse: values are unchanged, the sup norm
    is preserved exactly, and derivative samples pick up the factor L_j / L.
    """
    if phi1.n != phi2.n:
        raise InvalidInputError(
            f"data must share the grid size for rescaling, got n = {phi1.n} and {phi2.n}")
    L = 0.5 * (phi1.L + phi2.L)

    def rescaled(phi: BoundaryFunction) -> BoundaryFunction:
        return BoundaryFunction(phi.values, L, alpha=phi.alpha,
                                derivative_values=(phi.L / L) * phi.derivative())

    return rescaled(phi1), rescaled(phi2), L
