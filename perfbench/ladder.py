"""Size ladder: each costly layer timed at n = 256 ... 4096 on the workloads'
own generators, with the growth exponent of time against n."""

from __future__ import annotations

import statistics
import time

import numpy as np

import greenrecon

from spans import Tracer
from workloads import make_inputs

SIZES = (256, 512, 1024, 2048, 4096)
LAYERS = (
    "conformal.forward_operator",
    "reconstruct.reconstruct_fprime",
    "_spectral.invert_increasing",
    "norms.holder_seminorm",
    "geometry.hausdorff_distance",
    "geometry.largest_inscribed_circle",
)
MIN_STEP_S = 0.5     # small sizes repeat until this much time is spent
MAX_REPEATS = 7


def _step(f, g1, g2, datum, n: int) -> dict[str, float]:
    """One pass over every ladder layer at size n; inclusive seconds per layer."""
    with Tracer() as tracer:
        phi = greenrecon.forward_operator(f, n)
        greenrecon.reconstruct_fprime(phi, f.zeta_o, f.zeta_b, n)
        sampled = greenrecon.BoundaryFunction(datum.samples(n), datum.L)
        greenrecon.holder_seminorm(sampled.as_interval_function(), 0.5)
        b1, b2 = greenrecon.boundary_of(g1, n), greenrecon.boundary_of(g2, n)
        greenrecon.hausdorff_distance(b1, b2)
        greenrecon.geometry.largest_inscribed_circle(b1)
    return {layer: sum(s.duration for s in tracer.by_name(layer)) for layer in LAYERS}


def growth_exponents(seed: int) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Least-squares slope of log(time) on log(n) per layer, and the median
    seconds per size it was fitted to."""
    f = make_inputs("roundtrip", seed, 1)[0]
    g1, g2, datum = make_inputs("shape_compare", seed, 1)[0]
    seconds = {layer: [] for layer in LAYERS}
    for n in SIZES:
        runs = []
        start = time.perf_counter()
        while not runs or (time.perf_counter() - start < MIN_STEP_S
                           and len(runs) < MAX_REPEATS):
            runs.append(_step(f, g1, g2, datum, n))
        for layer in LAYERS:
            seconds[layer].append(statistics.median(r[layer] for r in runs))
    logn = np.log(np.asarray(SIZES, dtype=float))
    exponents = {}
    for layer, ts in seconds.items():
        if min(ts) > 0:
            exponents[layer] = float(np.polyfit(logn, np.log(ts), 1)[0])
        else:  # layer absent from the library
            exponents[layer] = 0.0
    return exponents, seconds
