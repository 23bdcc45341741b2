"""Inverse operator: rebuild a disk map from its boundary datum.

The boundary modulus of the derivative is 1/(2*pi*psi) with psi the datum
composed with the inverse cumulative map, so log f' is recovered from the
analytic completion of log(1/(2*pi*psi)) on the circle.  That completion is
evaluated through Fourier coefficients, which diagonalize the boundary kernel
(e^{it}+z)/(e^{it}-z) exactly and avoid its singularity:

    (1/2 pi) * integral (e^{it}+z)/(e^{it}-z) g(t) dt = c_0 + 2 sum_{k>=1} c_k z^k,

with c_k the Fourier coefficients of g.  Exponentiating the truncated series
with exact power-series algebra gives f' up to a rotation e^{i gamma}; gamma
is fixed by requiring the radial integral of f' on [0, 1] to reach from the
interior base point to the boundary base point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryFunction, build_cumulative
from .conformal import ConformalMap, boundary_grid, c1_gap
from .errors import InvalidInputError

TWO_PI = 2.0 * np.pi
NORMALIZATION_RTOL = 1e-6


@dataclass(frozen=True)
class ReconstructionResult:
    """A reconstructed map plus the residuals that qualify it.

    ``normalization_residual`` is the (signed) difference between the modulus
    of the radial integral of f' and the requested |zeta_b - zeta_o|; a value
    beyond the relative tolerance marks a datum inconsistent with the
    prescribed base points, flagged rather than rejected because stability
    experiments probe such data on purpose.
    """

    map: ConformalMap
    gamma: float
    compatibility_residual: float
    normalization_residual: float
    tail_energy: float
    consistent: bool


def exp_series(exponent: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients of exp(g(z)) truncated at ``degree``, for a power series g.

    Uses the derivative recurrence m*b_m = sum_{j=1..m} j*g_j*b_{m-j}, which is
    exact algebra at the truncation order (no sampling error beyond the
    input's own truncation).
    """
    g = np.zeros(degree + 1, dtype=complex)
    g[: min(exponent.size, degree + 1)] = exponent[: degree + 1]
    b = np.zeros(degree + 1, dtype=complex)
    b[0] = np.exp(g[0])
    jg = np.arange(degree + 1) * g
    for m in range(1, degree + 1):
        b[m] = np.dot(jg[1:m + 1], b[m - 1::-1][:m]) / m
    return b


def integrate_series(fprime_coefficients, zeta_o: complex) -> ConformalMap:
    """Term-by-term antiderivative of a derivative series, pinned at zeta_o."""
    d = np.asarray(fprime_coefficients, dtype=complex)
    if not np.all(np.isfinite(d)):
        raise InvalidInputError("derivative coefficients must be finite")
    coeffs = np.concatenate([[complex(zeta_o)], d / np.arange(1, d.size + 1)])
    return ConformalMap(coeffs)


def reconstruct_fprime(phi: BoundaryFunction, zeta_o: complex, zeta_b: complex,
                       n: int) -> ReconstructionResult:
    """Rebuild the map whose boundary datum is ``phi``.

    Steps: build the inverse cumulative map; push the datum to the circle;
    expand the boundary log-modulus in Fourier modes; sum the analytic
    completion as a power series; exponentiate with the series recurrence
    (truncating f' at degree n/2 - 1 so the integrated map has degree n/2);
    rotate so the radial integral matches zeta_b - zeta_o; antidifferentiate.
    """
    zeta_o = complex(zeta_o)
    zeta_b = complex(zeta_b)
    if abs(zeta_b - zeta_o) <= 0:
        raise InvalidInputError("marked points must be distinct")
    if n < 16 or n % 2:
        raise InvalidInputError("n must be even and at least 16")
    compatibility_residual = phi.compatibility_residual()
    cm = build_cumulative(phi)  # raises CompatibilityError beyond tolerance

    theta = boundary_grid(n)
    s_of_theta = cm.s_of(theta)
    psi = phi.interpolant()(s_of_theta)
    if np.min(psi) <= 0:
        raise InvalidInputError("datum must stay strictly positive on the circle grid")
    g = np.log(1.0 / (TWO_PI * psi))

    c = np.fft.fft(g) / n
    half = n // 2
    exponent = np.zeros(half, dtype=complex)
    exponent[0] = c[0].real
    exponent[1:half] = 2.0 * c[1:half]
    tail_energy = float(np.sum(np.abs(c[half // 2 + 1: half + 1]) ** 2))

    fprime_coeffs = exp_series(exponent, half - 1)
    radial = complex(np.sum(fprime_coeffs / np.arange(1, fprime_coeffs.size + 1)))
    gamma = float(np.angle((zeta_b - zeta_o) / radial))
    normalization_residual = float(abs(radial) - abs(zeta_b - zeta_o))
    consistent = abs(normalization_residual) <= NORMALIZATION_RTOL * abs(zeta_b - zeta_o)

    rotated = np.exp(1j * gamma) * fprime_coeffs
    rebuilt = integrate_series(rotated, zeta_o)
    return ReconstructionResult(
        map=rebuilt,
        gamma=gamma,
        compatibility_residual=compatibility_residual,
        normalization_residual=normalization_residual,
        tail_energy=tail_energy,
        consistent=consistent,
    )


def roundtrip_error(f: ConformalMap, n: int, alignment: str = "proof") -> float:
    """Size of f minus the reconstruction of its own datum.

    Measured as sup|difference of maps| plus sup|difference of derivatives|
    over the boundary nodes, after rotation alignment about zeta_o.
    """
    from .conformal import forward_operator
    from .geometry import align_rotation

    phi = forward_operator(f, n)
    result = reconstruct_fprime(phi, f.zeta_o, f.zeta_b, n)
    _, matched = align_rotation(f, result.map, mode=alignment, n=n)
    return c1_gap(f, matched, n)
