"""greenrecon: planar domains from Green's-function boundary data.

A numpy library for the forward operator taking a conformal map of the
unit disk to the boundary normal derivative of the domain's Green's function,
the inverse reconstruction of the map from that datum, and numerical
verification of quantitative stability inequalities with explicit constants.
Importing it loads no scipy module: scipy's KD-tree serves only fallbacks,
and is imported where they run.
"""

from .boundary import (BoundaryFunction, CumulativeMap, build_cumulative,
                       invert_cumulative, rescale_to_common_interval,
                       validate_class)
from .conformal import (ConformalMap, arclength, eval_boundary, eval_fprime,
                        forward_operator)
from .errors import (AliasingError, CompatibilityError, ConvergenceError,
                     DataFormatError, DegenerateMapError, GreenreconError,
                     InvalidInputError, NotUnivalentError)
from .files import load_boundary_data, load_map, save_boundary_data, save_map
from .geometry import (DomainBoundary, align_rotation, boundary_of,
                       hausdorff_discretization_bound, hausdorff_distance,
                       inradius_circumradius)
from .norms import SampledFunction, holder_norm, holder_seminorm, sup_norm
from .reconstruct import (ReconstructionResult, integrate_series,
                          reconstruct_fprime, roundtrip_error)
from .stability import (ConstantsBundle, DomainSample, StabilityReport, c_alpha,
                        check_theorem_disco, check_theorem_lugua_hausdorff,
                        check_theorem_raggi, check_theorem_stab_gen,
                        check_theorem_ultimo, reports_to_csv)

__version__ = "0.1.0"

__all__ = [
    "AliasingError", "BoundaryFunction", "CompatibilityError", "ConformalMap",
    "ConstantsBundle", "ConvergenceError", "CumulativeMap", "DataFormatError",
    "DegenerateMapError", "DomainBoundary", "DomainSample", "GreenreconError",
    "InvalidInputError", "NotUnivalentError",
    "ReconstructionResult", "SampledFunction", "StabilityReport",
    "align_rotation", "arclength", "boundary_of", "build_cumulative",
    "c_alpha", "check_theorem_disco", "check_theorem_lugua_hausdorff",
    "check_theorem_raggi", "check_theorem_stab_gen", "check_theorem_ultimo",
    "eval_boundary", "eval_fprime",
    "forward_operator", "hausdorff_discretization_bound", "hausdorff_distance",
    "holder_norm", "holder_seminorm", "inradius_circumradius",
    "integrate_series", "invert_cumulative", "load_boundary_data", "load_map",
    "reconstruct_fprime", "reports_to_csv", "rescale_to_common_interval",
    "roundtrip_error", "save_boundary_data", "save_map",
    "sup_norm", "validate_class",
]
