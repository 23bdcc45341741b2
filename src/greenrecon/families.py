"""Built-in analytic map families used by the sweeps and the test suite."""

from __future__ import annotations

import re

import numpy as np

from .conformal import ConformalMap, arclength
from .errors import InvalidInputError

TWO_PI = 2.0 * np.pi


def disk(rho: float = 1.0, zeta_o: complex = 0j, gamma: float = 0.0) -> ConformalMap:
    """The disk map zeta_o + e^{i gamma} rho z (constant datum 1/(2 pi rho))."""
    if not rho > 0:
        raise InvalidInputError("radius must be positive")
    return ConformalMap([complex(zeta_o), rho * np.exp(1j * gamma)])


def disk_for_constant(C: float, zeta_o: complex = 0j, gamma: float = 0.0) -> ConformalMap:
    """The unique map (up to rotation) whose datum is the constant C."""
    if not C > 0:
        raise InvalidInputError("constant datum must be positive")
    return disk(rho=1.0 / (TWO_PI * C), zeta_o=zeta_o, gamma=gamma)


def perturbed_disk(eps: float, k: int = 2) -> ConformalMap:
    """z + eps * z^k; univalent for |eps| < 1/k."""
    if k < 2:
        raise InvalidInputError("perturbation power must be at least 2")
    coeffs = np.zeros(k + 1, dtype=complex)
    coeffs[1] = 1.0
    coeffs[k] = eps
    return ConformalMap(coeffs)


def fourier_disk(perturbations: dict[int, complex]) -> ConformalMap:
    """z plus a finite sum of higher-order perturbation modes c_k z^k."""
    if not perturbations:
        return ConformalMap([0j, 1.0 + 0j])
    top = max(perturbations)
    if min(perturbations) < 2:
        raise InvalidInputError("perturbation powers must be at least 2")
    coeffs = np.zeros(top + 1, dtype=complex)
    coeffs[1] = 1.0
    for k, c in perturbations.items():
        coeffs[k] = c
    return ConformalMap(coeffs)


def equal_perimeter_pair(eps: float, k: int = 2, n: int = 512
                         ) -> tuple[ConformalMap, ConformalMap]:
    """A perturbed disk rescaled to the unit disk's perimeter, with the unit
    disk as partner (both share the interior base point 0)."""
    f = perturbed_disk(eps, k)
    _, L = arclength(f, n)
    return f.scaled(TWO_PI / L), disk()


_FAMILY_RE = re.compile(r"^z\+eps\*z\^(\d+)$")


def parse_family(selector: str):
    """Map a family selector string to a callable eps -> ConformalMap.

    Supported selectors: ``disk`` (eps is the radius) and ``z+eps*z^k`` for an
    integer power k >= 2 (whitespace ignored).
    """
    text = selector.replace(" ", "")
    if text == "disk":
        return lambda eps: disk(rho=eps)
    if text == "z+eps*z^2" or text == "z+eps*z2":
        return lambda eps: perturbed_disk(eps, 2)
    match = _FAMILY_RE.match(text)
    if match:
        k = int(match.group(1))
        if k < 2:
            raise InvalidInputError(f"family {selector!r}: perturbation power must be at least 2")
        return lambda eps: perturbed_disk(eps, k)
    raise InvalidInputError(f"unknown family {selector!r}; try 'disk' or 'z+eps*z^k'")
