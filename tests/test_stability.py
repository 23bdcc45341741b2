import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from greenrecon import boundary, norms, stability
from greenrecon._spectral import invert_increasing
from greenrecon.conformal import _univalence_faults, forward_operator, node_table
from greenrecon.errors import (AliasingError, CompatibilityError, InvalidInputError,
                               NotUnivalentError)
from greenrecon.families import (disk, disk_for_constant, equal_perimeter_pair, fourier_disk,
                                 perturbed_disk)
from greenrecon.stability import (ConstantsBundle, DomainSample, StabilityReport,
                                  c_alpha, check_theorem_disco,
                                  check_theorem_lugua_hausdorff,
                                  check_theorem_raggi, check_theorem_stab_gen,
                                  check_theorem_ultimo, reports_to_csv, CSV_HEADER)
from greenrecon.geometry import align_rotation, boundary_of, hausdorff_distance
from greenrecon.norms import holder_seminorm

TWO_PI = 2 * np.pi


def c_alpha_series_oracle(alpha, split=0.5):
    """Independent evaluation: Laurent-series head plus smooth-tail quadrature.

    cot(t/2) = 2/t - sum_j (2|B_2j| / (2j)!) t^(2j-1), so the head integral
    has the closed form 2 d^a/a - sum_j b_j d^(a+2j)/(a+2j).
    """
    bernoulli = {1: 1 / 6, 2: 1 / 30, 3: 1 / 42, 4: 1 / 30,
                 5: 5 / 66, 6: 691 / 2730, 7: 7 / 6}
    head = 2 * split ** alpha / alpha
    for j, b2j in bernoulli.items():
        coeff = 2 * b2j / math.factorial(2 * j)
        head -= coeff * split ** (alpha + 2 * j) / (alpha + 2 * j)
    tail, _ = quad(lambda t: t ** alpha / np.tan(0.5 * t), split, np.pi,
                   epsabs=1e-13, epsrel=1e-13, limit=400)
    return 2.0 ** alpha / (4 * np.pi ** 2) * (head + tail)


def c_alpha_mpmath(alpha):
    """30-digit reference.  Substituting t = u^(1/a) turns t^a cot(t/2) dt
    into u cot(u^(1/a)/2) u^(1/a - 1) du / a, which tends to 2/a at u = 0,
    so the quadrature sees no endpoint singularity."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        integral = mpmath.quad(lambda u: u * mpmath.cot(u ** (1 / a) / 2) * u ** (1 / a - 1) / a,
                               [0, mpmath.pi ** a])
        return 2 ** a / (4 * mpmath.pi ** 2) * integral


class TestCAlpha:
    def test_closed_form_at_one(self):
        assert abs(c_alpha(1.0) - math.log(2) / math.pi) <= 1e-10

    def test_series_oracle_agreement(self):
        for alpha in (0.25, 0.5, 0.75, 1.0):
            assert c_alpha(alpha) == pytest.approx(
                c_alpha_series_oracle(alpha), abs=1e-12)
            assert c_alpha(alpha) == pytest.approx(
                c_alpha_series_oracle(alpha, split=0.3), abs=1e-12)

    def test_refinement_stable(self):
        for alpha in (0.25, 0.5, 0.75, 1.0):
            assert abs(c_alpha(alpha, epsabs=1e-13)
                       - c_alpha(alpha, epsabs=1e-11)) <= 1e-12

    def test_positive_finite(self):
        for alpha in (0.05, 0.5, 1.0):
            value = c_alpha(alpha)
            assert np.isfinite(value) and value > 0

    def test_invalid_alpha(self):
        for alpha in (0.0, -1.0, 1.5):
            with pytest.raises(InvalidInputError):
                c_alpha(alpha)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_mpmath_reference_within_four_ulps(self, alpha):
        value = c_alpha(alpha)
        assert abs(mpmath.mpf(value) - c_alpha_mpmath(alpha)) <= 4 * math.ulp(value)

    def test_value_at_one_half_unchanged(self):
        # the value the adaptive quadrature gave, on which the criterion-8
        # sweep (alpha = 0.5) is byte-identical
        assert c_alpha(0.5) == 0.20761131858385207

    def test_closed_form_at_one_to_the_bit(self):
        assert c_alpha(1.0) == math.log(2) / math.pi

    @pytest.mark.parametrize("epsabs", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tolerance_refused_before_any_work(self, monkeypatch, epsabs):
        def series(alpha, tol):
            raise AssertionError("the series ran")

        monkeypatch.setattr(stability, "_c_alpha_series", series)
        with pytest.raises(InvalidInputError, match="epsabs"):
            c_alpha(0.5, epsabs=epsabs)

    def test_tolerance_bounds_the_truncation(self):
        # the tail after the last term taken is below epsabs in the integral,
        # that is 2^a / (4 pi^2) * epsabs in c_a
        for alpha in (0.05, 0.5, 1.0):
            exact = c_alpha_mpmath(alpha)
            for epsabs in (1e-3, 1e-8, 1e-11):
                gap = abs(mpmath.mpf(c_alpha(alpha, epsabs=epsabs)) - exact)
                assert gap <= 2 ** alpha / (4 * math.pi ** 2) * epsabs + 4 * math.ulp(exact)


class TestConstantsBundle:
    def test_assemblies_from_constituents(self):
        alpha, m, M0, M1 = 0.5, 0.12, 0.3, 0.5
        L, p, P = 6.0, 5.5, 7.0
        b = ConstantsBundle.assemble(alpha, m, M0, M1=M1, L=L, L1=5.5, L2=7.0,
                                     p=p, P=P)
        ca = c_alpha(alpha)
        C1 = M0 ** 2 / (TWO_PI ** alpha * m ** (alpha + 3))
        C2 = M0 / m ** 2
        assert b.C1 == pytest.approx(C1, rel=1e-14)
        assert b.C2 == pytest.approx(C2, rel=1e-14)
        assert b.K_stab == pytest.approx(
            2 * (1 / (TWO_PI * m ** 2) + ca * C1 / m + ca * C2 / m), rel=1e-14)
        assert b.K_disco == pytest.approx(
            b.K_stab * (1 + (TWO_PI * m) ** (-alpha)), rel=1e-14)
        A = M1 * (L / m) ** alpha + (2 * M1) ** (1 - alpha)
        B = (M1 / m) * (L / m) ** alpha + (M1 / m ** 2) * A
        assert b.A == pytest.approx(A, rel=1e-14)
        assert b.B == pytest.approx(B, rel=1e-14)
        assert b.K_lugua == pytest.approx(
            b.K_stab * max(A + TWO_PI ** (-alpha) * B, TWO_PI ** (-alpha) / m),
            rel=1e-14)
        assert b.K_hausdorff == pytest.approx(
            b.K_lugua * (1 + (2 * M1) ** (1 - alpha)), rel=1e-14)
        K1 = M1 * (((M1 / m) * P ** 3 / p ** 2) ** alpha + 4 ** (1 - alpha))
        K2 = ((M1 / m) * ((M1 / m) * P ** 3 / p ** 2) ** alpha
              + (M1 / m ** 2) * K1 + (M1 * P ** 3 / (p ** 3 * m)) * 4 ** (1 - alpha))
        assert b.K1 == pytest.approx(K1, rel=1e-14)
        assert b.K2 == pytest.approx(K2, rel=1e-14)
        assert b.K_ultimo == pytest.approx(
            b.K_stab * max(K1 + TWO_PI ** (-alpha) * K2,
                           TWO_PI ** (-alpha) * P / (p * m)), rel=1e-14)
        assert b.K_corollary == pytest.approx(
            b.K_ultimo * max(max(1 / P, 1 / M1) ** alpha, 1.0), rel=1e-14)

    def test_monotone_in_hypothesis_constants(self):
        alpha = 0.5
        ms = [0.08, 0.12, 0.2]
        M0s = [0.3, 0.5, 0.9]
        for M0 in M0s:
            ks = [ConstantsBundle.assemble(alpha, m, M0).K_stab for m in ms]
            assert ks == sorted(ks, reverse=True)  # decreasing in m
        for m in ms:
            ks = [ConstantsBundle.assemble(alpha, m, M0).K_stab for M0 in M0s]
            assert ks == sorted(ks)  # increasing in M0

    def test_invariants_enforced(self):
        with pytest.raises(InvalidInputError):
            ConstantsBundle.assemble(0.5, m=0.5, M0=0.2)
        with pytest.raises(InvalidInputError):
            ConstantsBundle.assemble(0.5, m=0.1, M0=0.5, M1=0.3)
        with pytest.raises(InvalidInputError):
            ConstantsBundle.assemble(0.5, m=0.1, M0=0.5, M1=0.6,
                                     L1=5.0, L2=6.0, p=5.5, P=7.0)

    @pytest.mark.parametrize("m", [1e-80, 1e-300])
    def test_constants_out_of_float_range_are_refused(self, m):
        # m = 1e-80 overflows K_stab to inf; m = 1e-300 underflows m^(a+3) to 0
        with pytest.raises(InvalidInputError, match="not finite"):
            ConstantsBundle.assemble(0.5, m, 1.0)

    def test_not_applicable_constants_stay_nan(self):
        b = ConstantsBundle.assemble(0.5, 0.1, 0.5)
        assert math.isnan(b.K_lugua) and math.isnan(b.K_ultimo)


class TestReportMechanics:
    def make(self, lhs, rhs, K=1.0):
        return StabilityReport(theorem="t", row="r", lhs=lhs, rhs_norm=rhs,
                               K=K, n=64, alignment="proof", m=0.1, M0=0.2,
                               alpha=0.5)

    def test_ratio_and_pass(self):
        assert self.make(0.5, 1.0).ratio == 0.5
        assert self.make(0.5, 1.0).passed
        assert not self.make(2.0, 1.0).passed
        assert self.make(0.0, 0.0).ratio == 0.0  # float dust counts as zero
        assert self.make(1e-13, 0.0).passed
        assert self.make(1e-3, 0.0).ratio == math.inf

    def test_csv_shape(self):
        text = reports_to_csv([self.make(0.5, 1.0)])
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[7] == "true"
        assert fields[12] == ""  # absent M1 stays empty


class TestDomainSample:
    def test_non_univalent_map_refused(self):
        # f' = 1 + 1.2 z vanishes in the disk and the boundary curve loops
        with pytest.raises(NotUnivalentError) as err:
            DomainSample(perturbed_disk(0.6), 256)
        message = str(err.value)
        assert "n = 256" in message and "winds" in message and "self-intersects" in message

    def test_univalent_map_near_the_limit_accepted(self):
        # z + eps z^2 is univalent for eps < 1/2, and passes the univalence
        # tests; its datum at this n integrates to 1.0037, so the sample
        # itself is refused when it is made
        assert _univalence_faults(node_table(perturbed_disk(0.49), 4096)) == []
        with pytest.raises(CompatibilityError, match="n = 4096"):
            DomainSample(perturbed_disk(0.49), 4096)

    def test_map_stored_in_canonical_frame(self):
        d = DomainSample(perturbed_disk(0.1).rotated(2.0), 128)
        a1 = complex(d.f.coefficients[1])
        assert a1.real > 0 and a1.imag == 0

    def test_values_match_direct_computation(self):
        f = perturbed_disk(0.15)
        for alpha in (0.5, 1.0):
            d = DomainSample(f, 256, alpha)
            phi = forward_operator(f, 256, alpha)
            assert d.datum.alpha == alpha
            assert np.array_equal(d.datum.values, phi.values)
            assert d.seminorm == holder_seminorm(phi.as_interval_function(), alpha)
            assert d.norm0 == phi.holder_norm0()
            assert d.norm1 == phi.holder_norm1()
            assert np.array_equal(d.polyline.points, boundary_of(f, 256).points)

    def test_checks_share_one_datum_per_sample(self, monkeypatch):
        calls = Counter()

        def counting(f, n, *args, **kwargs):
            calls[(tuple(f.coefficients), n)] += 1
            return forward_operator(f, n, *args, **kwargs)

        monkeypatch.setattr(stability, "forward_operator", counting)
        d, d0 = DomainSample(perturbed_disk(0.1), 128), DomainSample(disk(), 128)
        check_theorem_raggi(d)
        check_theorem_disco(d, 1 / TWO_PI)
        check_theorem_stab_gen(d, d0)
        check_theorem_ultimo(d, d0)
        assert sorted(calls.values()) == [1, 1]

    def test_each_check_measures_each_seminorm_once(self, monkeypatch):
        # [phi - C]_a is the sample's [phi]_a; stab_gen measures [psi_1]_a,
        # [psi_2]_a, [h]_a and [dpsi]_a once each, ultimo and lugua [dpsi]_a
        # (lugua's rescaled sample maps its norms from d's)
        d, d0 = DomainSample(perturbed_disk(0.1), 128), DomainSample(disk(), 128)
        calls = []

        def counting(f, alpha):
            calls.append(alpha)
            return holder_seminorm(f, alpha)

        monkeypatch.setattr(norms, "holder_seminorm", counting)
        counts = []
        for check in (lambda: check_theorem_raggi(d),
                      lambda: check_theorem_disco(d, 1 / TWO_PI),
                      lambda: check_theorem_stab_gen(d, d0),
                      lambda: check_theorem_ultimo(d, d0),
                      lambda: stability.THEOREMS["lugua"].run(d, d0)):
            calls.clear()
            check()
            counts.append(len(calls))
        assert counts == [0, 0, 4, 1, 1]

    def test_under_resolved_grid_rejected_at_construction(self):
        with pytest.raises(AliasingError, match="grid size 64"):
            DomainSample(perturbed_disk(0.1, k=40), 64)

    def test_circle_derivative_against_mpmath(self):
        # psi' = -(d|f'|/d theta) / (2 pi |f'|^2), with
        # d|f'|/d theta = Re(conj(f') i z f'') / |f'| at z = e^{i theta}
        n = 512
        d = DomainSample(perturbed_disk(0.35), n)
        _, psi_prime = d.circle
        a = [mpmath.mpc(complex(c)) for c in d.f.coefficients]
        with mpmath.workdps(40):
            ref = []
            for k in range(n):
                z = mpmath.expj(2 * mpmath.pi * k / n)
                fp = sum(j * a[j] * z ** (j - 1) for j in range(1, len(a)))
                fpp = sum(j * (j - 1) * a[j] * z ** (j - 2) for j in range(2, len(a)))
                speed = abs(fp)
                dspeed = mpmath.re(mpmath.conj(fp) * 1j * z * fpp) / speed
                ref.append(float(-dspeed / (2 * mpmath.pi * speed ** 2)))
        assert np.max(np.abs(psi_prime - np.array(ref))) <= 1e-12

    def test_circle_runs_no_inversion(self, monkeypatch):
        d = DomainSample(perturbed_disk(0.15), 256)
        _ = d.datum
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return invert_increasing(*args, **kwargs)

        monkeypatch.setattr(boundary, "invert_increasing", counting)
        _ = d.circle
        assert calls == []
        boundary.build_cumulative(d.datum).s_of(1.0)  # the datum route is counted
        assert calls == [1]

    def test_pair_checks_reject_mismatched_n(self):
        d1 = DomainSample(perturbed_disk(0.1), 128)
        for d2, message in ((DomainSample(disk(), 256), "n = 128 and 256"),
                            (DomainSample(disk(), 128, 1.0), "alpha = 0.5 and 1.0")):
            for check in (check_theorem_stab_gen, check_theorem_lugua_hausdorff,
                          check_theorem_ultimo):
                with pytest.raises(InvalidInputError, match=message):
                    check(d1, d2)

    @pytest.mark.parametrize("call", [
        lambda d: check_theorem_raggi(d, 0.5),
        lambda d: check_theorem_disco(d, 1 / TWO_PI, 0.5),
        lambda d: check_theorem_stab_gen(d, d, 0.5),
        lambda d: check_theorem_lugua_hausdorff(d, d, 0.5),
        lambda d: check_theorem_ultimo(d, d, 0.5)],
        ids=["raggi", "disco", "stab_gen", "lugua", "ultimo"])
    def test_positional_alpha_refused(self, call):
        # the sample fixes alpha; a positional 0.5 must not bind to the next parameter
        with pytest.raises(TypeError):
            call(DomainSample(disk(), 64))


SCALED_MAPS = {"perturbed": perturbed_disk(0.1),
               "fourier": fourier_disk({2: 0.1 + 0.05j, 3: -0.04j, 5: 0.02})}


def _sample_fields(d):
    """Every array and number of a sample, by name."""
    return dict(nodes=d.nodes, values=d.datum.values, derivative=d.datum.derivative_values,
                L=d.datum.L, psi=d.circle[0], psi_prime=d.circle[1], points=d.polyline.points,
                arclengths=d.polyline.arclengths, seminorm=d.seminorm, norm0=d.norm0,
                norm1=d.norm1)


class TestScaledSample:
    """``DomainSample.scaled`` against the sample rebuilt from the dilated map."""

    N = 512

    @pytest.fixture(scope="class", params=list(SCALED_MAPS))
    def sample(self, request):
        return DomainSample(SCALED_MAPS[request.param], self.N)

    def test_power_of_two_scales_are_exact(self, sample):
        norms_ = ("seminorm", "norm0", "norm1")
        for k in range(-20, 21):
            c = 2.0 ** k
            mapped = _sample_fields(sample.scaled(c))
            rebuilt = _sample_fields(DomainSample(sample.f.scaled(c), self.N))
            for name in set(mapped) - set(norms_):
                assert np.array_equal(mapped[name], rebuilt[name]), (k, name)
            for name in norms_:
                assert abs(mapped[name] - rebuilt[name]) <= 8 * np.spacing(rebuilt[name]), (k, name)

    def test_other_scales_agree_to_rounding(self, sample):
        for c in (3.0, DomainSample(disk(), self.N).datum.L / sample.datum.L):
            mapped = _sample_fields(sample.scaled(c))
            rebuilt = _sample_fields(DomainSample(sample.f.scaled(c), self.N))
            for name, x in rebuilt.items():
                gap = np.max(np.abs(mapped[name] - x))
                assert gap <= 1e-14 * np.max(np.abs(x)), (c, name, gap)

    def test_keeps_map_grid_and_exponent(self, sample):
        scaled = sample.scaled(3.0)
        assert (scaled.n, scaled.alpha) == (sample.n, sample.alpha)
        assert np.array_equal(scaled.f.coefficients, sample.f.scaled(3.0).coefficients)

    def test_runs_no_forward_operator_or_univalence_test(self, sample, monkeypatch):
        calls = []
        for name in ("forward_operator", "node_table", "_univalence_faults", "_arclength_map",
                     "_circle_values"):
            monkeypatch.setattr(stability, name, lambda *a, name=name: calls.append(name))
        monkeypatch.setattr(norms, "holder_seminorm", lambda *a: calls.append("seminorm"))
        sample.scaled(3.0)
        assert calls == []

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_scale_refused(self, sample, c):
        with pytest.raises(InvalidInputError, match="scale factor"):
            sample.scaled(c)


class TestStabGen:
    def test_identical_maps(self):
        d = DomainSample(perturbed_disk(0.1), 128)
        rows = check_theorem_stab_gen(d, d)
        assert [r.row for r in rows] == ["pushforward_seminorm_1", "pushforward_seminorm_2",
                                         "log_ratio_seminorm", "map_gap"]
        main = rows[-1]
        assert main.lhs == 0.0
        assert all(r.passed for r in rows)

    def test_two_disks_closed_form(self):
        rho1, rho2 = 1.0, 1.05
        f1, f2 = disk(rho=rho1), disk(rho=rho2)
        rows = check_theorem_stab_gen(DomainSample(f1, 128), DomainSample(f2, 128))
        main = rows[-1]
        # constant data: sup gap |1/(2 pi rho1) - 1/(2 pi rho2)|, no seminorm
        expected_rhs = abs(1 / (TWO_PI * rho1) - 1 / (TWO_PI * rho2))
        assert main.rhs_norm == pytest.approx(expected_rhs, rel=1e-8)
        assert main.lhs == pytest.approx(2 * abs(rho1 - rho2), rel=1e-10)
        assert main.m == pytest.approx(1 / (TWO_PI * rho2), rel=1e-10)
        assert main.passed

    def test_perturbation_sweep_passes(self):
        f0 = disk()
        for alpha in (0.5, 1.0):
            for eps in (0.05, 0.15):
                rows = check_theorem_stab_gen(DomainSample(perturbed_disk(eps), 256, alpha),
                                              DomainSample(f0, 256, alpha))
                assert all(r.passed for r in rows), [
                    (r.row, r.ratio) for r in rows if not r.passed]

    def test_optimal_alignment_recorded(self):
        d1, d2 = DomainSample(perturbed_disk(0.1), 128), DomainSample(disk(), 128)
        by_proof = check_theorem_stab_gen(d1, d2)[-1]
        by_opt = check_theorem_stab_gen(d1, d2, alignment="optimal")[-1]
        assert by_proof.alignment == "proof"
        assert by_opt.alignment == "optimal"
        assert by_opt.passed
        # both angles are near zero for this pair, so the measurements agree
        assert by_opt.lhs == pytest.approx(by_proof.lhs, abs=1e-6)

    def test_supplied_constants_used_or_rejected(self):
        d1, d2 = DomainSample(perturbed_disk(0.1), 128), DomainSample(disk(), 128)
        rows = check_theorem_stab_gen(d1, d2, m=0.01, M0=5.0)
        assert rows[-1].m == 0.01 and rows[-1].M0 == 5.0
        rows = check_theorem_stab_gen(d1, d2, m=0.5)
        assert rows[-1].m < 0.5  # measured fallback
        assert "violated" in rows[-1].notes

    def test_fallback_note_on_every_row(self):
        # the seminorm rows use the same fallback m as map_gap
        rows = check_theorem_stab_gen(DomainSample(perturbed_disk(0.1), 128),
                                      DomainSample(disk(), 128), m=0.5)
        assert [r.row for r in rows] == ["pushforward_seminorm_1", "pushforward_seminorm_2",
                                         "log_ratio_seminorm", "map_gap"]
        assert len({(r.m, r.notes) for r in rows}) == 1
        assert rows[0].m < 0.5 and "m=0.5 violated by data" in rows[0].notes


class TestDisco:
    def test_fixed_point(self):
        C = 1 / TWO_PI
        rows = check_theorem_disco(DomainSample(disk_for_constant(C, gamma=0.4), 128), C)
        assert rows[0].lhs <= 1e-12
        assert rows[0].passed

    def test_quadratic_sweep(self):
        C = 1 / TWO_PI
        ratios = []
        for eps in (0.02, 0.05, 0.1, 0.2):
            rows = check_theorem_disco(DomainSample(perturbed_disk(eps), 256), C)
            assert all(r.passed for r in rows)
            ratios.append(rows[0].ratio)
        # diagnostic only: the tightness profile is logged, not asserted
        print("disco tightness vs eps:", ratios)

    def test_constant_outside_class_noted(self):
        rows = check_theorem_disco(DomainSample(perturbed_disk(0.05), 128), 5.0)
        assert "outside" in rows[0].notes

    def test_default_constant_is_one_over_the_perimeter(self):
        d = DomainSample(perturbed_disk(0.1), 128)
        assert check_theorem_disco(d) == check_theorem_disco(d, 1 / d.datum.L)


class TestRaggi:
    def test_disk(self):
        rows = check_theorem_raggi(DomainSample(disk(rho=0.8), 128))
        assert rows[0].row == "radii_gap"
        assert rows[0].lhs <= 1e-12
        assert all(r.passed for r in rows)

    def test_quadratic_closed_form(self):
        rows = check_theorem_raggi(DomainSample(perturbed_disk(0.1), 1024))
        main = rows[0]
        assert main.lhs == pytest.approx(0.2, abs=1e-6)
        # C = 1/(2 pi rho) with rho = 0.9 enters through L2 = 1/C
        assert main.L2 == pytest.approx(1.8 * np.pi, abs=1e-6)
        assert main.passed

    def test_sweep_ratio_bounded(self):
        ratios = []
        for eps in (0.05, 0.1, 0.15, 0.2):
            rows = check_theorem_raggi(DomainSample(perturbed_disk(eps), 256))
            assert all(r.passed for r in rows)
            ratios.append(rows[0].ratio)
        assert max(ratios) <= 1.0  # comfortably inside the bound


def lugua_inputs(eps, n=256, alpha=0.5):
    f1, f2 = equal_perimeter_pair(eps, n=n)
    return DomainSample(f1, n, alpha), DomainSample(f2, n, alpha)


class TestLuguaHausdorff:
    def test_equal_data_trivial(self):
        d1, d2 = lugua_inputs(0.0)
        rows = check_theorem_lugua_hausdorff(d1, d2)
        assert [r.row for r in rows] == [
            "arclength_gap", "pushforward_sup_gap", "seminorm_from_derivative",
            "pushforward_derivative_gap", "map_gap", "hausdorff"]
        assert all(r.passed for r in rows)
        assert all(r.lhs <= 1e-12 for r in rows)

    def test_perturbed_pair_passes(self):
        for alpha in (0.5, 1.0):
            d1, d2 = lugua_inputs(0.1, alpha=alpha)
            rows = check_theorem_lugua_hausdorff(d1, d2)
            assert all(r.passed for r in rows), [
                (r.row, r.ratio) for r in rows if not r.passed]

    def test_hausdorff_row_matches_geometry(self):
        d1, d2 = lugua_inputs(0.12)
        rows = check_theorem_lugua_hausdorff(d1, d2)
        d = hausdorff_distance(boundary_of(d1.f, d1.n), boundary_of(d2.f, d1.n))
        # proof alignment leaves the disk partner in place here (gamma = 0)
        assert rows[-1].lhs == pytest.approx(d, abs=1e-12)

    def test_unequal_perimeters_redirected(self):
        n = 128
        d1, d2 = DomainSample(perturbed_disk(0.1), n), DomainSample(disk(), n)
        with pytest.raises(InvalidInputError, match="ultimo"):
            check_theorem_lugua_hausdorff(d1, d2)


class TestUltimo:
    def test_equal_perimeters_reduce_to_lugua(self):
        d1, d2 = lugua_inputs(0.1)
        lugua = check_theorem_lugua_hausdorff(d1, d2)
        ultimo = check_theorem_ultimo(d1, d2)
        by_row_l = {r.row: r for r in lugua}
        by_row_u = {r.row: r for r in ultimo}
        pairs = [("arclength_gap", "rescaled_arclength_gap"),
                 ("pushforward_sup_gap", "pushforward_sup_gap"),
                 ("seminorm_from_derivative", "seminorm_from_derivative"),
                 ("pushforward_derivative_gap", "pushforward_derivative_gap"),
                 ("map_gap", "map_gap")]
        for row_l, row_u in pairs:
            assert by_row_u[row_u].lhs == pytest.approx(
                by_row_l[row_l].lhs, abs=1e-10)

    def test_two_disks_closed_form(self):
        n = 256
        rho1, rho2 = 1.0, 1.05
        d1, d2 = DomainSample(disk(rho=rho1), n), DomainSample(disk(rho=rho2), n)
        rows = check_theorem_ultimo(d1, d2)
        by_row = {r.row: r for r in rows}
        L1, L2 = TWO_PI * rho1, TWO_PI * rho2
        M1 = 1 / (TWO_PI * rho1)  # the larger of the two constant data norms
        sup_gap = abs(1 / L1 - 1 / L2)
        expected_E = abs(L1 - L2) / L2 + sup_gap / M1
        assert by_row["rescaled_arclength_gap"].rhs_norm == pytest.approx(
            expected_E, rel=1e-9)
        assert by_row["rescaled_arclength_gap"].lhs <= 1e-10
        assert by_row["pushforward_sup_gap"].lhs == pytest.approx(sup_gap, rel=1e-9)
        assert all(r.passed for r in rows)

    def test_perturbed_pair_passes(self):
        n = 256
        for alpha in (0.5, 1.0):
            d1, d2 = DomainSample(perturbed_disk(0.15), n, alpha), DomainSample(disk(), n, alpha)
            rows = check_theorem_ultimo(d1, d2)
            assert all(r.passed for r in rows), [
                (r.row, r.ratio) for r in rows if not r.passed]

    def test_hypothesis_perimeter_bounds_fall_back(self):
        n = 128
        d1, d2 = DomainSample(perturbed_disk(0.1), n), DomainSample(disk(), n)
        rows = check_theorem_ultimo(d1, d2, p=7.0)
        assert "violated" in rows[0].notes
        assert all(r.passed for r in rows)

    @pytest.mark.parametrize("alignment", ["proof", "optimal"])
    def test_hausdorff_row_measures_the_aligned_partner(self, alignment):
        # proof alignment of canonical samples turns by exactly 0.0 and reuses
        # the partner's polyline; optimal alignment turns it and rebuilds it
        n = 128
        d1 = DomainSample(perturbed_disk(0.1), n)
        d2 = DomainSample(fourier_disk({2: 0.05 + 0.05j, 3: 0.03}), n)
        gamma, f2r = align_rotation(d1.f, d2.f, mode=alignment, n=n)
        assert (gamma == 0.0) == (alignment == "proof")
        rows = check_theorem_ultimo(d1, d2, alignment=alignment)
        assert rows[-1].lhs == hausdorff_distance(d1.polyline, boundary_of(f2r, n))


def _report_fields(r):
    return np.array([r.lhs, r.rhs_norm, r.K, r.product,
                     0.0 if r.ratio == 0 else r.ratio,
                     r.m, r.M0, r.M1 or 0.0, r.L1, r.L2])


class TestRotationSoundness:
    def test_common_rotation_leaves_reports_unchanged(self):
        rng = np.random.default_rng(17)
        f1 = perturbed_disk(0.12)
        f2 = disk()
        base = check_theorem_stab_gen(DomainSample(f1, 128), DomainSample(f2, 128))
        for _ in range(5):
            delta = float(rng.uniform(0, TWO_PI))
            rows = check_theorem_stab_gen(DomainSample(f1.rotated(delta), 128),
                                          DomainSample(f2.rotated(delta), 128))
            for r0, r1 in zip(base, rows):
                assert np.max(np.abs(_report_fields(r0) - _report_fields(r1))) <= 1e-9


class TestRefinementSoundness:
    def test_doubling_n_keeps_passes(self):
        f = perturbed_disk(0.15)
        for n in (128, 256):
            d = DomainSample(f, n)
            rows = check_theorem_stab_gen(d, DomainSample(disk(), n))
            rows += check_theorem_raggi(d)
            rows += check_theorem_disco(d, 1 / TWO_PI)
            assert all(r.passed for r in rows)


class TestTheoremTable:
    @pytest.fixture(scope="class")
    def samples(self):
        return DomainSample(perturbed_disk(0.1), 128), DomainSample(disk(), 128)

    def test_each_check_is_run_by_exactly_one_entry(self, samples, monkeypatch):
        checks = [name for name in dir(stability) if name.startswith("check_theorem_")]
        called = []

        def recorder(name):
            return lambda *args, **kwargs: called.append(name) or []

        for name in checks:
            monkeypatch.setattr(stability, name, recorder(name))
        runs = {}
        for selector, theorem in stability.THEOREMS.items():
            called.clear()
            theorem.run(*samples)
            runs[selector], = called  # looked up in the module when it runs
        assert sorted(runs.values()) == sorted(checks)

    @pytest.mark.parametrize("selector", list(stability.THEOREMS))
    def test_headline_row_is_reported(self, samples, selector):
        theorem = stability.THEOREMS[selector]
        rows = theorem.run(*samples)
        assert theorem.headline in {(r.theorem, r.row) for r in rows}
        assert all(r.passed for r in rows)
