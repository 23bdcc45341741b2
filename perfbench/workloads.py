"""Seeded input generators, one item runner per workload, and the checks
that decide whether an item's output is correct.

Every workload is a closed loop with a single caller: the next item is
issued when the previous one returns.  The program sees only the generated
inputs.  Library calls go through module attributes at call time (never
names bound at import), so the outside-in tracer sees them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import greenrecon
from greenrecon import cli, geometry

SWEEP_N = 512
SWEEP_STEPS = 2          # eps steps per sweep item
SWEEP_STEP = 1000        # their spacing, in units of 1e-4 (eps and eps + 0.1)
ROUNDTRIP_N = 2048
# The first eps of a sweep item, and sum k |a_k| of a roundtrip map, are drawn
# from ranges where nearly every item takes the same number of Newton steps
# (276 synthesis calls per sweep item, 25 per roundtrip map), so an item's
# cost, and each run's mix of costs, does not depend on the seed.
SWEEP_START = (0.02, 0.08)
ROUNDTRIP_SIZE = (0.25, 0.35)
SHAPE_N = 4096
ITEMS_PER_SEED = 64      # generated per run; the loop cycles through them
ROUNDTRIP_TOL = 1e-10
RADII_TOL = 1e-9
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# (theorem, row) pairs that `sweep --theorem all` reports for each eps
SWEEP_ROWS = sorted([
    ("raggi", "radii_gap"), ("raggi", "radii_gap_free_center"),
    ("disco", "map_gap_vs_disk"),
    ("stab_gen", "pushforward_seminorm_1"), ("stab_gen", "pushforward_seminorm_2"),
    ("stab_gen", "log_ratio_seminorm"), ("stab_gen", "map_gap"),
    ("lugua", "arclength_gap"), ("lugua", "pushforward_sup_gap"),
    ("lugua", "seminorm_from_derivative"), ("lugua", "pushforward_derivative_gap"),
    ("lugua", "map_gap"), ("hausdorff", "hausdorff"),
    ("ultimo", "rescaled_arclength_gap"), ("ultimo", "pushforward_sup_gap"),
    ("ultimo", "seminorm_from_derivative"), ("ultimo", "pushforward_derivative_gap"),
    ("ultimo", "map_gap"), ("ultimo", "hausdorff"),
])

_TAGS = {"sweep": 1, "sweep_jobs2": 1, "roundtrip": 2, "shape_compare": 3}


class CheckFailed(Exception):
    """An item ran but its output is wrong."""


@dataclass(frozen=True)
class Outcome:
    units: int        # work units completed (eps steps, reconstructions, comparisons)
    digest: str       # hash of the program's outputs, for identity checks


def rng_for(workload: str, seed: int) -> np.random.Generator:
    # both sweeps share a stream, so the same seed gives them the same items
    return np.random.default_rng([int(seed), _TAGS[workload]])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _spread(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` points of [0, 1): a seeded offset plus golden-ratio steps, so
    every prefix of the sequence covers [0, 1) evenly."""
    return (rng.uniform() + GOLDEN * np.arange(count)) % 1.0


def sweep_items(rng: np.random.Generator, count: int) -> list[tuple[float, ...]]:
    """eps values of each item: SWEEP_STEPS values SWEEP_STEP apart, the first
    in SWEEP_START, on a 1e-4 lattice so the CLI's range parser is exact."""
    lo, hi = (int(round(1e4 * e)) for e in SWEEP_START)
    starts = lo + np.rint((hi - lo) * _spread(rng, count)).astype(int)
    return [tuple((int(start) + i * SWEEP_STEP) / 1e4 for i in range(SWEEP_STEPS))
            for start in starts]


def random_map(rng: np.random.Generator, size: float, zeta_o: complex | None = None):
    """A univalent polynomial z-perturbation of degree 2..8.

    a_1 = 1 and sum_{k>=2} k |a_k| = size <= 0.6, so Re f' >= 0.4 on the disk.
    """
    degree = int(rng.integers(2, 9))
    a = rng.normal(size=degree - 1) + 1j * rng.normal(size=degree - 1)
    k = np.arange(2, degree + 1)
    a *= size / np.sum(k * np.abs(a))
    if zeta_o is None:
        zeta_o = complex(*rng.uniform(-1.0, 1.0, size=2))
    return greenrecon.ConformalMap(np.concatenate([[zeta_o, 1.0], a]))


@dataclass(frozen=True)
class TrigDatum:
    """phi(s) = (1 + Re sum_k c_k e^{2 pi i k s / L}) / L on [0, L), with
    sum |c_k| <= 0.5, and analytic bounds for its class constants."""

    L: float
    modes: np.ndarray
    c: np.ndarray

    def samples(self, n: int):
        s = np.arange(n) * (self.L / n)
        wave = np.exp(2j * np.pi * np.outer(s, self.modes) / self.L) @ self.c
        return (1.0 + wave.real) / self.L

    def bounds(self, alpha: float) -> tuple[float, float, float]:
        """(m, M0, M1) that the datum satisfies: min, sup + Holder seminorm
        of phi, and of phi', through |dv| <= min(Lip d, osc)."""
        a = np.abs(self.c) / self.L
        w = 2.0 * np.pi * self.modes / self.L
        total = float(np.sum(a))
        lip, lip2 = float(np.sum(a * w)), float(np.sum(a * w * w))
        m = 1.0 / self.L - total
        M0 = 1.0 / self.L + total + lip ** alpha * (2.0 * total) ** (1.0 - alpha)
        M1 = M0 + lip + lip2 ** alpha * (2.0 * lip) ** (1.0 - alpha)
        return m, M0, M1


def random_datum(rng: np.random.Generator) -> TrigDatum:
    count = int(rng.integers(1, 9))
    modes = np.sort(rng.choice(np.arange(1, 17), size=count, replace=False))
    c = rng.normal(size=count) + 1j * rng.normal(size=count)
    c *= rng.uniform(0.1, 0.5) / np.sum(np.abs(c))
    return TrigDatum(L=float(rng.uniform(2.0, 10.0)), modes=modes, c=c)


def make_inputs(workload: str, seed: int, count: int = ITEMS_PER_SEED) -> list:
    rng = rng_for(workload, seed)
    if workload in ("sweep", "sweep_jobs2"):
        return sweep_items(rng, count)
    if workload == "roundtrip":
        lo, hi = ROUNDTRIP_SIZE
        return [random_map(rng, lo + (hi - lo) * u) for u in _spread(rng, count)]
    if workload == "shape_compare":
        items = []
        for _ in range(count):
            f1 = random_map(rng, rng.uniform(0.1, 0.6))
            f2 = random_map(rng, rng.uniform(0.1, 0.6), zeta_o=f1.zeta_o)
            items.append((f1, f2, random_datum(rng)))
        return items
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------

def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def run_sweep(eps: tuple[float, ...], jobs: int, workdir: Path,
              n: int = SWEEP_N) -> Outcome:
    """One `greenrecon sweep --theorem all` over the item's eps values."""
    eps_text = f"{eps[0]:.4f}:{eps[-1]:.4f}:{eps[1] - eps[0]:.4f}"
    out = workdir / "sweep"
    argv = ["sweep", "--family", "z+eps*z^2", "--eps", eps_text,
            "--theorem", "all", "--alpha", "0.5", "--n", str(n),
            "--jobs", str(jobs), "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    _require(code == 0, f"sweep {eps_text} exited {code}: {stderr.getvalue().strip()}")
    data = (out / "sweep.csv").read_bytes()
    shutil.rmtree(out)
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    per = len(SWEEP_ROWS)
    _require(len(rows) == per * len(eps),
             f"sweep {eps_text}: {len(rows)} rows, expected {per * len(eps)}")
    for i, e in enumerate(eps):
        group = rows[i * per:(i + 1) * per]
        _require(sorted((r["theorem"], r["row"]) for r in group) == SWEEP_ROWS,
                 f"sweep eps={e}: unexpected (theorem, row) set")
        gap = next(float(r["lhs"]) for r in group
                   if (r["theorem"], r["row"]) == ("raggi", "radii_gap"))
        # z + eps z^2 has centered radii 1 - eps and 1 + eps, both on the grid
        _require(abs(gap - 2.0 * e) <= RADII_TOL,
                 f"sweep eps={e}: radii gap {gap!r}, expected {2 * e!r}")
    return Outcome(units=len(eps), digest=_digest(data))


def run_roundtrip(f, n: int = ROUNDTRIP_N) -> Outcome:
    """Datum of a map, the map rebuilt from it, and the Hausdorff distance
    of the two boundaries."""
    phi = greenrecon.forward_operator(f, n)
    result = greenrecon.reconstruct_fprime(phi, f.zeta_o, f.zeta_b, n)
    rebuilt = result.map.coefficients
    truth = np.zeros(max(rebuilt.size, f.coefficients.size), dtype=complex)
    truth[:f.coefficients.size] = f.coefficients
    padded = np.zeros_like(truth)
    padded[:rebuilt.size] = rebuilt
    coeff_err = float(np.max(np.abs(padded - truth)))
    d_h = greenrecon.hausdorff_distance(greenrecon.boundary_of(f, n),
                                        greenrecon.boundary_of(result.map, n))
    _require(coeff_err <= ROUNDTRIP_TOL, f"roundtrip coefficient error {coeff_err:.3g}")
    _require(d_h <= ROUNDTRIP_TOL, f"roundtrip Hausdorff distance {d_h:.3g}")
    return Outcome(units=1, digest=_digest(rebuilt, d_h))


def run_shape_compare(f1, f2, datum: TrigDatum, n: int = SHAPE_N,
                      alpha: float = 0.5) -> Outcome:
    """Compare two domains as sets, then check one datum's class membership."""
    b1, b2 = greenrecon.boundary_of(f1, n), greenrecon.boundary_of(f2, n)
    d_h = greenrecon.hausdorff_distance(b1, b2)
    disc = greenrecon.hausdorff_discretization_bound(b1, b2)
    rho1, big_r1 = greenrecon.inradius_circumradius(b1)
    rho2, big_r2 = greenrecon.inradius_circumradius(b2)
    _require(d_h + 1e-12 >= max(abs(big_r1 - big_r2), abs(rho1 - rho2)),
             f"d_H {d_h!r} below the radii gaps")
    free = []
    for b, rho, big_r in ((b1, rho1, big_r1), (b2, rho2, big_r2)):
        _, rho_free = geometry.largest_inscribed_circle(b)
        _, r_free = geometry.smallest_enclosing_circle(b.points)
        # a polyline edge of length e between vertices at distance >= rho
        # from the base point stays at distance >= rho - e^2 / (4 rho)
        sag = b.max_edge() ** 2 / (4.0 * rho)
        _require(rho_free >= rho - sag - 1e-12,
                 f"free-center inradius {rho_free!r} below centered {rho!r}")
        _require(r_free <= big_r * (1.0 + 1e-9),
                 f"enclosing radius {r_free!r} above centered {big_r!r}")
        free += [rho_free, r_free]

    m, M0, M1 = datum.bounds(alpha)
    phi = greenrecon.BoundaryFunction(datum.samples(n), datum.L, alpha=alpha)
    report = greenrecon.validate_class(phi, m, M0, M1)
    _require(not report.violations, "validate_class: " + "; ".join(report.violations))
    return Outcome(units=1, digest=_digest(d_h, disc, rho1, big_r1, rho2, big_r2,
                                           *free, report))


def run_item(workload: str, item, workdir: Path) -> Outcome:
    if workload == "sweep":
        return run_sweep(item, 1, workdir)
    if workload == "sweep_jobs2":
        return run_sweep(item, 2, workdir)
    if workload == "roundtrip":
        return run_roundtrip(item)
    if workload == "shape_compare":
        return run_shape_compare(*item)
    raise ValueError(f"unknown workload {workload!r}")
