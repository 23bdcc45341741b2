"""Numerical verification of the stability inequalities.

Each check reads its domains from :class:`DomainSample` values, which fix
each domain's Holder exponent and compute its datum, circle pushforward,
polyline and norms once, when they are made.
It measures the left-hand side of one inequality (a geometric gap
between two maps or domains), measures the right-hand norms of the datum
difference, assembles the explicit constant from the hypothesis bounds, and
reports the ratio lhs / (K * rhs).  A check passes when the ratio does not
exceed 1 + PASS_TOL.

Measurement conventions
-----------------------
* Norms written over an arclength or angle interval are measured with plain
  (non-wrapping) distances on the closed interval, grid endpoints included.
* Seminorms are exact maxima over the sample pairs and therefore lower
  bounds of the continuum seminorms; sup norms of smooth periodic fields are
  evaluated on the trigonometric interpolant (oversampled and polished), so
  that right-hand sides are not understated relative to left-hand secants.
* Class constants (m, M0, M1) default to values measured from the data,
  which gives the tightest legitimate check; explicit hypothesis values can
  be supplied and are used verbatim when the data actually satisfies them,
  otherwise the check falls back to measured values and says so in ``notes``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from . import norms
from ._spectral import trig_sup_abs
from .boundary import BoundaryFunction, rescale_to_common_interval
from .conformal import (ConformalMap, _arclength_map, _circle_values, _univalence_faults,
                        c1_gap, forward_operator, node_table)
from .errors import InvalidInputError, NotUnivalentError
from .families import disk_for_constant
from .files import format_number
from .geometry import (DomainBoundary, align_rotation, hausdorff_distance, inradius_circumradius,
                       largest_inscribed_circle, smallest_enclosing_circle)

TWO_PI = 2.0 * np.pi
PASS_TOL = 1e-9
# Left-hand sides at or below this absolute level count as exactly zero; they
# are float dust from symmetric configurations (identical inputs, disks).
ZERO_TOL = 1e-12

CSV_HEADER = "theorem,row,lhs,rhs,K,product,ratio,pass,n,alignment,m,M0,M1,L1,L2,alpha"


# ---------------------------------------------------------------------------
# the kernel constant
# ---------------------------------------------------------------------------

# terms of cot(t/2)'s Laurent series on hand for c_alpha: on [0, pi] the
# tail after the 30th is below 4^-30 of the leading term, past double precision
_COT_TERMS = 30


@cache
def _cot_coefficients() -> tuple[float, ...]:
    """b_j = 2 |B_2j| / (2j)! for j = 1 .. _COT_TERMS, the coefficients of
    cot(t/2) = 2/t - sum_j b_j t^(2j-1) (Abramowitz & Stegun 4.3.70), from
    Bernoulli numbers in exact rational arithmetic: sum_k C(m+1, k) B_k = 0
    at m = 2j, where B_1 = -1/2 is the only odd one that is not zero."""
    even = [Fraction(1)]
    for j in range(1, _COT_TERMS + 1):
        head = sum(math.comb(2 * j + 1, 2 * i) * even[i] for i in range(j))
        even.append((Fraction(2 * j + 1, 2) - head) / (2 * j + 1))
    return tuple(float(2 * abs(even[j]) / math.factorial(2 * j))
                 for j in range(1, _COT_TERMS + 1))


@cache
def _c_alpha_series(alpha: float, epsabs: float) -> float:
    scale = 2.0 ** alpha / (4.0 * math.pi ** 2)
    power = math.pi ** alpha
    terms = [2.0 * power / alpha]
    for j, b in enumerate(_cot_coefficients(), 1):
        term = b * power * math.pi ** (2 * j) / (alpha + 2 * j)
        terms.append(-term)
        # each term is below a quarter of the one before, so the tail is
        # below a third of the last term taken
        if term / 3.0 <= epsabs:
            break
    return scale * math.fsum(terms)


def c_alpha(alpha: float, epsabs: float = 1e-17) -> float:
    """The conjugate-kernel constant (2^a / 4 pi^2) * int_0^pi t^a cot(t/2) dt.

    Finite for every a in (0, 1]; at a = 1 it equals ln(2)/pi.  The integral
    is taken term by term from cot(t/2) = 2/t - sum_j b_j t^(2j-1), with
    b_j = 2 |B_2j| / (2j)!, which converges for |t| < 2 pi:

        int_0^pi t^a cot(t/2) dt = 2 pi^a / a - sum_j b_j pi^(a+2j) / (a+2j).

    ``epsabs`` is the absolute truncation tolerance of that integral: terms
    are taken until the tail's bound is at most ``epsabs``, or until the 30
    terms on hand run out, past double precision.  The integral is at least
    2 pi ln 2 (its value at a = 1), so the default is about a hundredth of
    its ulp.  The terms are summed with one rounding (``math.fsum``).
    """
    epsabs = float(epsabs)
    if not (math.isfinite(epsabs) and epsabs > 0.0):
        raise InvalidInputError(f"epsabs must be finite and positive, got {epsabs}")
    return _c_alpha_series(float(norms._check_alpha(alpha)), epsabs)


# ---------------------------------------------------------------------------
# constants bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsBundle:
    """Hypothesis constants and every assembled inequality constant.

    The assemblies are re-derived from the intermediate bounds (see the
    comments in :meth:`assemble`); unit tests recompute each one from its
    constituents.
    """

    alpha: float
    m: float
    M0: float
    M1: float | None = None
    L: float | None = None
    L1: float | None = None
    L2: float | None = None
    p: float | None = None
    P: float | None = None
    c_alpha: float = 0.0
    C1: float = 0.0
    C2: float = 0.0
    K_stab: float = 0.0
    K_disco: float = 0.0
    A: float | None = None
    B: float | None = None
    K1: float | None = None
    K2: float | None = None
    K_lugua: float = math.nan
    K_ultimo: float = math.nan

    @classmethod
    def assemble(cls, alpha: float, m: float, M0: float, M1: float | None = None,
                 L: float | None = None, L1: float | None = None,
                 L2: float | None = None, p: float | None = None,
                 P: float | None = None) -> "ConstantsBundle":
        if not (0 < m <= M0):
            raise InvalidInputError(f"need 0 < m <= M0, got m={m}, M0={M0}")
        if M1 is not None and not M0 <= M1 * (1 + 1e-12):
            raise InvalidInputError(f"need M0 <= M1, got M0={M0}, M1={M1}")
        if p is not None and P is not None:
            sides = [x for x in (L1, L2) if x is not None]
            if sides and not (0 < p <= min(sides) and max(sides) <= P):
                raise InvalidInputError("need 0 < p <= L1, L2 <= P")
        try:
            bundle = cls._assembled(alpha, m, M0, M1, L, L1, L2, p, P)
        except (ZeroDivisionError, OverflowError):
            bundle = None
        if bundle is None or not bundle._finite():
            raise InvalidInputError(
                f"an assembled constant is not finite for alpha={alpha}, m={m}, M0={M0}, "
                f"M1={M1}, p={p}, P={P}: the hypothesis bounds are out of float range")
        return bundle

    @classmethod
    def _assembled(cls, alpha, m, M0, M1, L, L1, L2, p, P) -> "ConstantsBundle":
        ca = c_alpha(alpha)
        # Sup/seminorm control of the log-ratio of the circle data:
        #   [log psi1 - log psi2]_a <= C1 * sup|dpsi| + C2 * [dpsi]_a
        C1 = M0 ** 2 / ((TWO_PI) ** alpha * m ** (alpha + 3.0))
        C2 = M0 / m ** 2
        # Pointwise on the closed disk, splitting f1'-f2' into a modulus gap
        # and a phase gap smoothed by the conjugate kernel:
        #   |f1'-f2'| <= (1/(2 pi m^2)) sup|dpsi| + (c_a/m) [h]_a,
        # the same bound controls sup|f1-f2| after radial integration, and
        # [h]_a expands through C1, C2; adding both contributions and taking
        # the common coefficient of sup|dpsi| + [dpsi]_a gives
        K_stab = 2.0 * (1.0 / (TWO_PI * m ** 2) + ca * C1 / m + ca * C2 / m)
        # Moving the circle norm back to the arclength interval costs the
        # Lipschitz constant of the inverse cumulative map (1/(2 pi m)) on the
        # seminorm term only:
        K_disco = K_stab * (1.0 + 1.0 / (TWO_PI * m) ** alpha)

        A = B = K1 = K2 = None
        K_lugua = math.nan
        K_ultimo = math.nan
        if M1 is not None and L is not None:
            # equal perimeters: sup of the circle-data gap in terms of the
            # arclength-data gap (composition step plus interpolation of the
            # plain sup through the a-power, using sup|dphi| <= 2 M1):
            A = M1 * (L / m) ** alpha + (2.0 * M1) ** (1.0 - alpha)
            # derivative gap of the circle data: three-way split of the
            # quotient phi'/ (2 pi phi) composed with the inverse cumulative
            # maps; the middle term reuses A:
            B = (M1 / m) * (L / m) ** alpha + (M1 / m ** 2) * A
            # 2 pi sup|dpsi'| <= B * sup|dphi|^a + (1/m) sup|dphi'|, and the
            # seminorm obeys [dpsi]_a <= (2 pi)^(1-a) sup|dpsi'|, so
            #   ||f1-f2||_C1 <= K_stab [ (A + (2pi)^-a B) sup|dphi|^a
            #                            + ((2pi)^-a / m) sup|dphi'| ]
            K_lugua = K_stab * max(A + TWO_PI ** (-alpha) * B,
                                   TWO_PI ** (-alpha) / m)
        if M1 is not None and p is not None and P is not None:
            # general perimeters, rescaled data; E denotes the combined gap
            #   E = |L1-L2|/P + sup|dphi_hat| / M1  (E <= 4 always)
            K1 = M1 * (((M1 / m) * P ** 3 / p ** 2) ** alpha + 4.0 ** (1.0 - alpha))
            # derivative-gap constant, split as in the equal-perimeter case
            # with the rescaled quotients; the extra third piece carries the
            # perimeter mismatch of the two rescaling factors:
            #   term1: (M1/m) ((M1/m) P^3/p^2)^a  (rescaled arclength gap)
            #   term2: (M1/m^2) K1                 (through the sup gap)
            #   term3: (M1 P^3 /(p^3 m)) 4^(1-a)   (rescale-factor mismatch)
            K2 = ((M1 / m) * ((M1 / m) * P ** 3 / p ** 2) ** alpha
                  + (M1 / m ** 2) * K1
                  + (M1 * P ** 3 / (p ** 3 * m)) * 4.0 ** (1.0 - alpha))
            K_ultimo = K_stab * max(K1 + TWO_PI ** (-alpha) * K2,
                                    TWO_PI ** (-alpha) * P / (p * m))
        return cls(alpha=alpha, m=m, M0=M0, M1=M1, L=L, L1=L1, L2=L2, p=p, P=P,
                   c_alpha=ca, C1=C1, C2=C2, K_stab=K_stab, K_disco=K_disco,
                   A=A, B=B, K1=K1, K2=K2, K_lugua=K_lugua, K_ultimo=K_ultimo)

    def _finite(self) -> bool:
        """Whether every constant that was assembled is finite; K_lugua and
        K_ultimo stay NaN ("not applicable") when their hypotheses are absent."""
        values = [self.c_alpha, self.C1, self.C2, self.K_stab, self.K_disco]
        values += [x for x in (self.A, self.B, self.K1, self.K2) if x is not None]
        values += [self.K_lugua] if self.A is not None else []
        values += [self.K_ultimo] if self.K1 is not None else []
        return all(math.isfinite(x) for x in values)

    @property
    def K_hausdorff(self) -> float:
        # sup|dphi'| <= (2 M1)^(1-a) (sup|dphi| + sup|dphi'|)^a turns the
        # mixed right-hand side into the a-power of the C1 norm.
        if self.M1 is None or math.isnan(self.K_lugua):
            return math.nan
        return self.K_lugua * (1.0 + (2.0 * self.M1) ** (1.0 - self.alpha))

    @property
    def K_corollary(self) -> float:
        # E <= max(1/P, 1/M1) * (|L1-L2| + sup|dphi_hat|)
        if self.M1 is None or self.P is None or math.isnan(self.K_ultimo):
            return math.nan
        return self.K_ultimo * max(max(1.0 / self.P, 1.0 / self.M1) ** self.alpha, 1.0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """One verified inequality: lhs <= K * rhs_norm, pass iff ratio <= 1 + tol.

    ``ratio`` is zero when the left side is float dust (below ``ZERO_TOL``)
    and infinite when the left side is genuine but the right side vanishes.
    """

    theorem: str
    row: str
    lhs: float
    rhs_norm: float
    K: float
    n: int
    alignment: str
    m: float
    M0: float
    alpha: float
    M1: float | None = None
    L1: float | None = None
    L2: float | None = None
    notes: str = ""

    @property
    def product(self) -> float:
        return self.K * self.rhs_norm

    @property
    def ratio(self) -> float:
        if self.lhs <= ZERO_TOL:
            return 0.0
        if self.product <= 0.0:
            return math.inf
        return self.lhs / self.product

    @property
    def passed(self) -> bool:
        return self.ratio <= 1.0 + PASS_TOL

    def csv_row(self) -> str:
        def num(x):
            return "" if x is None else format_number(x)

        fields = [self.theorem, self.row, num(self.lhs), num(self.rhs_norm),
                  num(self.K), num(self.product), num(self.ratio),
                  "true" if self.passed else "false", str(self.n),
                  self.alignment, num(self.m), num(self.M0), num(self.M1),
                  num(self.L1), num(self.L2), num(self.alpha)]
        return ",".join(fields)


def reports_to_csv(reports) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in reports]) + "\n"


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def _interval_seminorm(values: np.ndarray, period: float, alpha: float) -> float:
    return norms.holder_seminorm(norms.closed_interval(values, period), alpha)


@dataclass(frozen=True, eq=False)
class DomainSample:
    """One domain at grid size n and Holder exponent alpha, as every check
    reads it.

    The map is stored in the canonical frame (f'(0) real positive): every
    reported quantity is rotation-invariant, and the frame makes the float
    path independent of the input's orientation.  A grid too coarse for the
    map, and a map that fails a univalence test at this n (so that its image
    is not known to be a domain), are rejected here, and so is a datum that
    does not integrate to 1 (`CompatibilityError`).  Every field is computed
    here, when the sample is made: the node table (f, f', z f'' at the theta
    grid), which the univalence test, the circle data (psi, psi'), the polyline,
    its arclengths s and the checks' map gaps read, the boundary datum at alpha
    and the parts of its measured Holder norms.  Checks that share a sample
    share all of them; :meth:`scaled` maps them to a dilation of the domain.
    """

    f: ConformalMap
    n: int
    alpha: float = 0.5
    nodes: np.ndarray = field(init=False, repr=False)  # rows f, f', z f'' at the nodes
    datum: BoundaryFunction = field(init=False, repr=False)
    circle: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    polyline: DomainBoundary = field(init=False, repr=False)
    arclengths: np.ndarray = field(init=False, repr=False)  # s at the nodes, as arclength(f, n)
    sups: tuple[float, float] = field(init=False)  # sup|phi|, sup|phi'| on the grid
    seminorm: float = field(init=False)    # [phi]_alpha on the closed interval [0, L]
    seminorm1: float = field(init=False)   # [phi']_alpha on the closed interval [0, L]

    def __post_init__(self):
        f, n, alpha = self.f.canonical(), self.n, self.alpha
        nodes = node_table(f, n)
        faults = _univalence_faults(nodes)
        if faults:
            raise NotUnivalentError(f"map is not univalent at n = {n}: {'; '.join(faults)}")
        datum = forward_operator(f, n, alpha)
        dv = datum.derivative()
        # the datum pulled back to the theta grid, read off the map without an inversion
        self._fill(f=f, nodes=nodes, datum=datum, circle=_circle_values(nodes[1], nodes[2]),
                   polyline=DomainBoundary(nodes[0], f.zeta_o),
                   arclengths=_arclength_map(nodes[1]).node_values(),
                   sups=(float(np.max(np.abs(datum.values))), float(np.max(np.abs(dv)))),
                   seminorm=_interval_seminorm(datum.values, datum.L, alpha),
                   seminorm1=_interval_seminorm(dv, datum.L, alpha))

    def _fill(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def norm0(self) -> float:
        """sup|phi| + [phi]_alpha, as ``datum.holder_norm0``."""
        return self.sups[0] + self.seminorm

    @property
    def norm1(self) -> float:
        """sup|phi| + sup|phi'| + [phi']_alpha, as ``datum.holder_norm1``."""
        return self.sups[0] + self.sups[1] + self.seminorm1

    def scaled(self, c: float) -> "DomainSample":
        """The sample of this domain dilated by c about zeta_o, mapped from
        this one without a forward operator, a univalence test or a seminorm.

        A dilation keeps univalence, the grid's resolution and the datum's
        unit integral.  It takes the node rows to zeta_o + c(f - zeta_o), c f',
        c z f'' (row f is the polyline), the arclengths s to c s, the datum to
        phi/c on [0, cL] with phi'/c^2, psi and psi' to psi/c and psi'/c, and
        [phi]_a, [phi']_a to c^(-1-a) and c^(-2-a) times themselves.  For a
        power-of-two c and zeta_o = 0 the tests find every array bit-identical
        to that of ``DomainSample(f.scaled(c))``, and the norms within a few ulps.
        """
        if not (math.isfinite(c) and c > 0):
            raise InvalidInputError(f"scale factor must be positive and finite, got {c}")
        phi, (psi, psi_prime), b = self.datum, self.circle, self.polyline
        nodes = c * self.nodes
        nodes[0] = b.zeta_o + c * (self.nodes[0] - b.zeta_o)
        scaled = object.__new__(type(self))
        scaled._fill(
            f=self.f.scaled(c), n=self.n, alpha=self.alpha, nodes=nodes,
            datum=BoundaryFunction(phi.values / c, c * phi.L, alpha=self.alpha,
                                   derivative_values=phi.derivative() / c / c),
            circle=(psi / c, psi_prime / c),
            polyline=DomainBoundary(nodes[0], b.zeta_o), arclengths=c * self.arclengths,
            sups=(self.sups[0] / c, self.sups[1] / c / c),
            seminorm=self.seminorm / c / c ** self.alpha,
            seminorm1=self.seminorm1 / c / c / c ** self.alpha)
        return scaled


def _same_n_alpha(d1: DomainSample, d2: DomainSample) -> tuple[int, float]:
    if (d1.n, d1.alpha) != (d2.n, d2.alpha):
        raise InvalidInputError(
            "samples must share the grid size and the Holder exponent for comparison, "
            f"got n = {d1.n} and {d2.n}, alpha = {d1.alpha} and {d2.alpha}")
    return d1.n, d1.alpha


def _merge_constant(supplied, measured, mode: str, notes: list[str], name: str):
    """Use the supplied hypothesis value when the data satisfies it."""
    if supplied is None:
        return measured
    ok = supplied <= measured if mode == "lower" else supplied >= measured
    if ok:
        return float(supplied)
    notes.append(f"{name}={supplied:g} violated by data (measured {measured:g}); "
                 "using measured value")
    return measured


def _class_constants(samples, notes: list[str], m, M0, M1=None, with_M1: bool = False):
    """Class constants (m, M0, M1) for the samples' data at their alpha: each
    supplied value where the data satisfy it, else the measured one (said in
    ``notes``).  M1 is None unless ``with_M1``."""
    m_meas = min(d.datum.min_value() for d in samples)
    if m_meas <= 0:
        raise InvalidInputError("data must be strictly positive for the class bounds")
    M0_meas = max(d.norm0 for d in samples)
    m = _merge_constant(m, m_meas, "lower", notes, "m")
    M0 = _merge_constant(M0, M0_meas, "upper", notes, "M0")
    if not with_M1:
        return m, M0, None
    # the hypothesis constant must dominate both Holder norms
    M1_meas = max(M0_meas, *(d.norm1 for d in samples))
    return m, M0, _merge_constant(M1, M1_meas, "upper", notes, "M1")


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def check_theorem_stab_gen(d1: DomainSample, d2: DomainSample, *,
                           alignment: str = "proof", m: float | None = None,
                           M0: float | None = None) -> list[StabilityReport]:
    """C1-norm gap of two maps against the Holder norm of the gap of their
    circle data, after rotation about the common interior base point.

    The rows before ``map_gap`` check the circle-data seminorm estimates it
    rests on:

    * each pushed datum: [psi_j]_a <= [phi_j]_a / (2 pi m)^a;
    * the log ratio: [h]_a <= C1 sup|psi1-psi2| + C2 [psi1-psi2]_a.
    """
    n, alpha = _same_n_alpha(d1, d2)
    notes: list[str] = []
    m, M0, _ = _class_constants((d1, d2), notes, m, M0)
    bundle = ConstantsBundle.assemble(alpha, m, M0, L1=d1.datum.L, L2=d2.datum.L)

    (psi1, _), (psi2, _) = d1.circle, d2.circle
    dpsi = psi1 - psi2
    sup_dpsi = trig_sup_abs(dpsi)
    seminorm_dpsi = _interval_seminorm(dpsi, TWO_PI, alpha)
    gamma, f2r = align_rotation(d1.f, d2.f, mode=alignment, n=n)
    nodes2 = d2.nodes if gamma == 0.0 else node_table(f2r, n)
    common = dict(theorem="stab_gen", n=n, alignment=alignment, m=bundle.m,
                  M0=bundle.M0, M1=None, L1=bundle.L1, L2=bundle.L2, alpha=alpha,
                  notes="; ".join(notes))
    rows = [StabilityReport(
        row=f"pushforward_seminorm_{j}", lhs=_interval_seminorm(psi, TWO_PI, alpha),
        rhs_norm=d.seminorm, K=(TWO_PI * bundle.m) ** (-alpha), **common)
        for j, (psi, d) in enumerate(((psi1, d1), (psi2, d2)), start=1)]
    rows.append(StabilityReport(
        row="log_ratio_seminorm",
        lhs=_interval_seminorm(np.log(psi1) - np.log(psi2), TWO_PI, alpha),
        rhs_norm=bundle.C1 * sup_dpsi + bundle.C2 * seminorm_dpsi, K=1.0, **common))
    rows.append(StabilityReport(
        row="map_gap", lhs=c1_gap(d1.nodes, nodes2), rhs_norm=sup_dpsi + seminorm_dpsi,
        K=bundle.K_stab, **common))
    return rows


def _constant_gap_row(theorem: str, row: str, lhs: float, d: DomainSample,
                      C: float, alignment: str, m, M0) -> StabilityReport:
    """A raggi or disco row: lhs against the Holder norm of datum - C on the
    arclength interval, with the class widened to hold C when it does not."""
    notes: list[str] = []
    m, M0, _ = _class_constants((d,), notes, m, M0)
    if not m <= C <= M0:
        # the hypothesis wants C inside [m, M0]; widen the class and say so
        notes.append(f"C={C:g} outside [m, M0]=[{m:g}, {M0:g}]; widened")
        m, M0 = min(m, C), max(M0, C)
    phi = d.datum
    bundle = ConstantsBundle.assemble(d.alpha, m, M0, L1=phi.L, L2=1.0 / C)
    # subtracting a constant leaves the seminorm as it is
    rhs = trig_sup_abs(phi.values - C) + d.seminorm
    # raggi's inequality carries disco's constant
    return StabilityReport(
        theorem=theorem, row=row, lhs=lhs, rhs_norm=rhs, K=bundle.K_disco,
        n=d.n, alignment=alignment, m=bundle.m, M0=bundle.M0, M1=None,
        L1=phi.L, L2=1.0 / C, alpha=d.alpha, notes="; ".join(notes))


def check_theorem_disco(d: DomainSample, C: float | None = None, *,
                        alignment: str = "proof", m: float | None = None,
                        M0: float | None = None) -> list[StabilityReport]:
    """Distance of a map from the constant-datum disk map with datum C
    (default 1/L, the disk of the map's perimeter), bounded through the
    Holder norm of datum - C on the arclength interval."""
    if C is None:
        C = 1.0 / d.datum.L
    _, f_C = align_rotation(d.f, disk_for_constant(C, zeta_o=d.f.zeta_o),
                            mode=alignment, n=d.n)
    return [_constant_gap_row("disco", "map_gap_vs_disk", c1_gap(d.nodes, node_table(f_C, d.n)),
                              d, C, alignment, m, M0)]


def check_theorem_raggi(d: DomainSample, *, m: float | None = None,
                        M0: float | None = None) -> list[StabilityReport]:
    """Gap between the centered circumradius and inradius, plus the
    free-center variant, against the Holder norm of datum - 1/(2 pi rho)."""
    b = d.polyline
    rho, R = inradius_circumradius(b)
    _, rho_free = largest_inscribed_circle(b)
    _, R_free = smallest_enclosing_circle(b.points)
    return [_constant_gap_row("raggi", row, hi - lo, d, 1.0 / (TWO_PI * lo), "proof", m, M0)
            for row, lo, hi in (("radii_gap", rho, R),
                                ("radii_gap_free_center", rho_free, R_free))]


def _chain(d1: DomainSample, d2: DomainSample, alignment: str, bundle: ConstantsBundle,
           notes: list[str], arc_scales, rows) -> list[StabilityReport]:
    """The six rows of the equal- and general-perimeter chains.

    Both measure the same left-hand sides: the arclength gap of the inverse
    cumulative maps (each scaled by ``arc_scales``), sup and seminorm of
    dpsi, 2 pi sup|dpsi'|, the C1-norm map gap and the Hausdorff distance.
    ``rows`` holds each theorem's (theorem, row, rhs, K) for all rows but the
    third, [dpsi]_a <= (2 pi)^(1-a) sup|dpsi'|, which the two share.
    """
    n, alpha = d1.n, d1.alpha
    (psi1, psi1_prime), (psi2, psi2_prime) = d1.circle, d2.circle
    dpsi = psi1 - psi2
    sup_dpsi_prime = trig_sup_abs(psi1_prime - psi2_prime)
    s1, s2 = d1.arclengths, d2.arclengths
    gamma, f2r = align_rotation(d1.f, d2.f, mode=alignment, n=n)
    # a zero angle leaves the partner as it is; a rotation keeps its arclengths s2
    nodes2 = d2.nodes if gamma == 0.0 else node_table(f2r, n)
    polyline2 = d2.polyline if gamma == 0.0 else DomainBoundary(nodes2[0], d2.f.zeta_o)
    lhs = [float(np.max(np.abs(arc_scales[0] * s1 - arc_scales[1] * s2))),
           trig_sup_abs(dpsi), _interval_seminorm(dpsi, TWO_PI, alpha),
           TWO_PI * sup_dpsi_prime, c1_gap(d1.nodes, nodes2),
           hausdorff_distance(d1.polyline, polyline2)]
    rows = list(rows)
    rows.insert(2, (rows[0][0], "seminorm_from_derivative", sup_dpsi_prime,
                    TWO_PI ** (1.0 - alpha)))
    common = dict(n=n, alignment=alignment, m=bundle.m, M0=bundle.M0, M1=bundle.M1,
                  L1=bundle.L1, L2=bundle.L2, alpha=alpha, notes="; ".join(notes))
    return [StabilityReport(theorem=theorem, row=row, lhs=x, rhs_norm=rhs, K=K, **common)
            for x, (theorem, row, rhs, K) in zip(lhs, rows)]


def check_theorem_lugua_hausdorff(d1: DomainSample, d2: DomainSample, *,
                                  alignment: str = "proof",
                                  m: float | None = None, M0: float | None = None,
                                  M1: float | None = None) -> list[StabilityReport]:
    """Equal-perimeter stability chain: arclength gap of the inverse
    cumulative maps, sup and derivative gaps of the circle data, the C1-norm
    map gap, and the Hausdorff-distance corollary."""
    _, alpha = _same_n_alpha(d1, d2)
    phi1, phi2 = d1.datum, d2.datum
    L = phi1.L
    if abs(phi1.L - phi2.L) > 1e-8 * max(1.0, L):
        raise InvalidInputError(
            "perimeters differ; use check_theorem_ultimo for that case")
    notes: list[str] = []
    m, M0, M1 = _class_constants((d1, d2), notes, m, M0, M1, with_M1=True)
    bundle = ConstantsBundle.assemble(alpha, m, M0, M1=M1, L=L, L1=phi1.L, L2=phi2.L)

    sup_dphi = trig_sup_abs(phi1.values - phi2.values)
    sup_dphi_prime = trig_sup_abs(phi1.derivative() - phi2.derivative())
    return _chain(d1, d2, alignment, bundle, notes, (1.0, 1.0), [
        ("lugua", "arclength_gap", sup_dphi, L / m),
        ("lugua", "pushforward_sup_gap", sup_dphi ** alpha, bundle.A),
        ("lugua", "pushforward_derivative_gap",
         bundle.B * sup_dphi ** alpha + sup_dphi_prime / m, 1.0),
        ("lugua", "map_gap", sup_dphi ** alpha + sup_dphi_prime, bundle.K_lugua),
        ("hausdorff", "hausdorff", (sup_dphi + sup_dphi_prime) ** alpha,
         bundle.K_hausdorff)])


def check_theorem_ultimo(d1: DomainSample, d2: DomainSample, *,
                         alignment: str = "proof", m: float | None = None,
                         M0: float | None = None, M1: float | None = None,
                         p: float | None = None, P: float | None = None
                         ) -> list[StabilityReport]:
    """General-perimeter stability chain on the rescaled common interval,
    including the Hausdorff-distance corollary."""
    _, alpha = _same_n_alpha(d1, d2)
    phi1, phi2 = d1.datum, d2.datum
    notes: list[str] = []
    m, M0, M1 = _class_constants((d1, d2), notes, m, M0, M1, with_M1=True)
    L1, L2 = phi1.L, phi2.L
    p = _merge_constant(p, min(L1, L2), "lower", notes, "p")
    P = _merge_constant(P, max(L1, L2), "upper", notes, "P")
    bundle = ConstantsBundle.assemble(alpha, m, M0, M1=M1, L1=L1, L2=L2, p=p, P=P)

    hat1, hat2, L = rescale_to_common_interval(phi1, phi2)
    sup_dhat = trig_sup_abs(hat1.values - hat2.values)
    sup_dhat_prime = trig_sup_abs(hat1.derivative() - hat2.derivative())
    E = abs(L1 - L2) / P + sup_dhat / M1
    return _chain(d1, d2, alignment, bundle, notes, (L / L1, L / L2), [
        ("ultimo", "rescaled_arclength_gap", E, (M1 / m) * P ** 2 / p),
        ("ultimo", "pushforward_sup_gap", E ** alpha, bundle.K1),
        ("ultimo", "pushforward_derivative_gap",
         bundle.K2 * E ** alpha + (P / (p * m)) * sup_dhat_prime, 1.0),
        ("ultimo", "map_gap", E ** alpha + sup_dhat_prime, bundle.K_ultimo),
        ("ultimo", "hausdorff", (sup_dhat + abs(L1 - L2)) ** alpha + sup_dhat_prime,
         bundle.K_corollary)])


@dataclass(frozen=True)
class Theorem:
    """How ``check`` and ``sweep`` run one check: ``run(d, partner, **options)``
    gives its reports (partner None for a single-domain theorem), ``options``
    names the CLI options it reads besides m and M0, by dest ("map2", the
    partner, marks a pair theorem), and ``headline`` is the (theorem, row) a sweep plots."""

    run: Callable[..., list[StabilityReport]]
    options: tuple[str, ...]
    headline: tuple[str, str]


# by --theorem selector; each run looks its check up in this module when it
# runs, so a rebound check_theorem_* is the one called
THEOREMS = {
    "raggi": Theorem(lambda d, _, **kw: check_theorem_raggi(d, **kw),
                     (), ("raggi", "radii_gap")),
    "disco": Theorem(lambda d, _, c=None, **kw: check_theorem_disco(d, c, **kw),
                     ("c", "alignment"), ("disco", "map_gap_vs_disk")),
    "stab-gen": Theorem(lambda d, d2, **kw: check_theorem_stab_gen(d, d2, **kw),
                        ("map2", "alignment"), ("stab_gen", "map_gap")),
    # lugua wants equal perimeters, so d is scaled to the partner's
    "lugua": Theorem(lambda d, d2, **kw: check_theorem_lugua_hausdorff(
        d.scaled(d2.datum.L / d.datum.L), d2, **kw),
        ("map2", "alignment", "M1"), ("lugua", "map_gap")),
    "ultimo": Theorem(lambda d, d2, **kw: check_theorem_ultimo(d, d2, **kw),
                      ("map2", "alignment", "M1", "p", "P"), ("ultimo", "map_gap")),
}
