"""How tight the stability inequalities run on a perturbation family.

Each check reports lhs <= K * rhs with the explicit constant K assembled from
the hypothesis bounds; the ratio lhs / (K * rhs) says how much slack the
inequality has.  This sweep prints the ratio of the main row of each check
for z + eps z^2 against the unit disk.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from greenrecon import (DomainSample, check_theorem_disco,
                        check_theorem_lugua_hausdorff, check_theorem_raggi,
                        check_theorem_stab_gen, check_theorem_ultimo)
from greenrecon.families import disk, equal_perimeter_pair, perturbed_disk

alpha, n = 0.5, 256
d0 = DomainSample(disk(), n, alpha)  # each domain's datum and norms are computed once
print(f"alpha = {alpha}, n = {n}")
print(f"{'eps':>5}  {'raggi':>9}  {'disco':>9}  {'stab_gen':>9}  "
      f"{'lugua':>9}  {'hausdorff':>9}  {'ultimo':>9}")
for eps in (0.02, 0.05, 0.08, 0.12, 0.16, 0.20):
    d = DomainSample(perturbed_disk(eps), n, alpha)
    raggi = check_theorem_raggi(d)[0]
    disco = check_theorem_disco(d, 1 / (2 * np.pi))[0]
    stab = check_theorem_stab_gen(d, d0)[-1]
    g1, _ = equal_perimeter_pair(eps, n=n)
    lug = check_theorem_lugua_hausdorff(DomainSample(g1, n, alpha), d0)
    ult = check_theorem_ultimo(d, d0)
    print(f"{eps:>5.2f}  {raggi.ratio:>9.2e}  {disco.ratio:>9.2e}  "
          f"{stab.ratio:>9.2e}  {lug[-2].ratio:>9.2e}  {lug[-1].ratio:>9.2e}  "
          f"{ult[-2].ratio:>9.2e}")
    assert all(r.passed for r in [raggi, disco, stab] + lug + ult)
print("all checks passed")
