"""Reconstruct an unknown domain from its Green's-function boundary datum.

A Fourier-perturbed disk plays the unknown domain: only its boundary datum
(a function of arclength) and the two marked points are handed to the
reconstruction.  The recovered boundary is compared with the truth in the
Hausdorff distance and exported as CSV polylines.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from greenrecon import (arclength, boundary_of, forward_operator, hausdorff_distance,
                        inradius_circumradius, reconstruct_fprime)
from greenrecon.families import fourier_disk
from greenrecon.files import save_polyline

n = 512
truth = fourier_disk({2: 0.08, 3: 0.05 - 0.02j, 5: 0.01j})
datum = forward_operator(truth, n)
print(f"unknown domain: perimeter {datum.L:.8f}, "
      f"datum range [{datum.values.min():.6f}, {datum.values.max():.6f}]")

result = reconstruct_fprime(datum, truth.zeta_o, truth.zeta_b, n)
print(f"reconstruction: gamma = {result.gamma:.3e}, "
      f"consistent = {result.consistent}")

b_true = boundary_of(truth, n)
b_rec = boundary_of(result.map, n)
print(f"Hausdorff distance truth vs reconstruction: "
      f"{hausdorff_distance(b_true, b_rec):.3e}")
rho, big_r = inradius_circumradius(b_rec)
print(f"recovered inradius/circumradius about the pole: {rho:.6f}, {big_r:.6f}")

out = pathlib.Path(__file__).resolve().parent / "output"
out.mkdir(exist_ok=True)
save_polyline(out / "true_boundary.csv", b_true, arclength(truth, n)[0])
save_polyline(out / "reconstructed_boundary.csv", b_rec, arclength(result.map, n)[0])
print(f"polylines written to {out}/")
