"""Exception types shared across the package."""


class GreenreconError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(GreenreconError, ValueError):
    """An argument is structurally invalid (bad shape, range, or flag combination)."""


class CompatibilityError(GreenreconError):
    """A boundary datum does not integrate to one within tolerance.

    Carries the measured integral and the datum's sample count n, so callers
    can report, renormalize or recompute at a larger n.
    """

    def __init__(self, integral: float, tolerance: float, n: int):
        self.integral = float(integral)
        self.tolerance = float(tolerance)
        self.n = int(n)
        super().__init__(
            f"boundary datum of n = {self.n} samples integrates to {self.integral:.17g}, "
            f"expected 1 within {self.tolerance:g}; a forward datum this far from 1 "
            f"is usually under-resolved: recompute it at a larger n"
        )


class ConvergenceError(GreenreconError):
    """An iterative solver hit its iteration limit with residual above tol."""

    def __init__(self, iterations: int, residual: float, tol: float):
        self.iterations = int(iterations)
        self.residual = float(residual)
        self.tol = float(tol)
        super().__init__(
            f"no convergence after {self.iterations} iterations: "
            f"max residual {self.residual:.3g} > tol {self.tol:.3g}"
        )


class DegenerateMapError(GreenreconError):
    """The derivative of a map vanishes (or nearly vanishes) on the boundary grid."""


class AliasingError(InvalidInputError):
    """Requested grid is too coarse for the polynomial degree of the map."""


class DataFormatError(GreenreconError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = int(line_no)
        super().__init__(f"{self.path}:{self.line_no}: {message}")
