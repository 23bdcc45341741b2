import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from greenrecon import boundary, norms, stability
from greenrecon._spectral import invert_increasing
from greenrecon.conformal import forward_operator
from greenrecon.errors import AliasingError, InvalidInputError
from greenrecon.families import disk, disk_for_constant, equal_perimeter_pair, perturbed_disk
from greenrecon.stability import (ConstantsBundle, DomainSample, StabilityReport,
                                  c_alpha, check_theorem_disco,
                                  check_theorem_lugua_hausdorff,
                                  check_theorem_raggi, check_theorem_stab_gen,
                                  check_theorem_ultimo, reports_to_csv, CSV_HEADER)
from greenrecon.geometry import boundary_of, hausdorff_distance
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
    def test_map_stored_in_canonical_frame(self):
        d = DomainSample(perturbed_disk(0.1).rotated(2.0), 128)
        a1 = complex(d.f.coefficients[1])
        assert a1.real > 0 and a1.imag == 0

    def test_values_match_direct_computation(self):
        f = perturbed_disk(0.15)
        d = DomainSample(f, 256)
        phi = forward_operator(f, 256)
        assert np.array_equal(d.datum.values, phi.values)
        for alpha in (0.5, 1.0):
            assert d.seminorm(alpha) == holder_seminorm(phi.as_interval_function(), alpha)
            assert d.norm0(alpha) == phi.holder_norm0(alpha)
            assert d.norm1(alpha) == phi.holder_norm1(alpha)
        assert np.array_equal(d.polyline.points, boundary_of(f, 256).points)

    def test_checks_share_one_datum_per_sample(self, monkeypatch):
        calls = Counter()

        def counting(f, n, *args, **kwargs):
            calls[(tuple(f.coefficients), n)] += 1
            return forward_operator(f, n, *args, **kwargs)

        monkeypatch.setattr(stability, "forward_operator", counting)
        d, d0 = DomainSample(perturbed_disk(0.1), 128), DomainSample(disk(), 128)
        check_theorem_raggi(d, 0.5)
        check_theorem_disco(d, 1 / TWO_PI, 0.5)
        check_theorem_stab_gen(d, d0, 0.5)
        check_theorem_ultimo(d, d0, 0.5)
        assert sorted(calls.values()) == [1, 1]

    def test_each_check_measures_each_seminorm_once(self, monkeypatch):
        # [phi - C]_a is the sample's [phi]_a; stab_gen measures [psi_1]_a,
        # [psi_2]_a, [h]_a and [dpsi]_a once each, ultimo [dpsi]_a
        d, d0 = DomainSample(perturbed_disk(0.1), 128), DomainSample(disk(), 128)
        d.fill(0.5)
        d0.fill(0.5)
        calls = []

        def counting(f, alpha):
            calls.append(alpha)
            return holder_seminorm(f, alpha)

        monkeypatch.setattr(norms, "holder_seminorm", counting)
        counts = []
        for check in (lambda: check_theorem_raggi(d, 0.5),
                      lambda: check_theorem_disco(d, 1 / TWO_PI, 0.5),
                      lambda: check_theorem_stab_gen(d, d0, 0.5),
                      lambda: check_theorem_ultimo(d, d0, 0.5)):
            calls.clear()
            check()
            counts.append(len(calls))
        assert counts == [0, 0, 4, 1]

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
        d1, d2 = DomainSample(perturbed_disk(0.1), 128), DomainSample(disk(), 256)
        for check in (check_theorem_stab_gen, check_theorem_lugua_hausdorff,
                      check_theorem_ultimo):
            with pytest.raises(InvalidInputError, match="n = 128 and 256"):
                check(d1, d2, 0.5)


class TestStabGen:
    def test_identical_maps(self):
        d = DomainSample(perturbed_disk(0.1), 128)
        rows = check_theorem_stab_gen(d, d, 0.5)
        assert [r.row for r in rows] == ["pushforward_seminorm_1", "pushforward_seminorm_2",
                                         "log_ratio_seminorm", "map_gap"]
        main = rows[-1]
        assert main.lhs == 0.0
        assert all(r.passed for r in rows)

    def test_two_disks_closed_form(self):
        rho1, rho2 = 1.0, 1.05
        f1, f2 = disk(rho=rho1), disk(rho=rho2)
        rows = check_theorem_stab_gen(DomainSample(f1, 128), DomainSample(f2, 128), 0.5)
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
                rows = check_theorem_stab_gen(DomainSample(perturbed_disk(eps), 256),
                                              DomainSample(f0, 256), alpha)
                assert all(r.passed for r in rows), [
                    (r.row, r.ratio) for r in rows if not r.passed]

    def test_optimal_alignment_recorded(self):
        d1, d2 = DomainSample(perturbed_disk(0.1), 128), DomainSample(disk(), 128)
        by_proof = check_theorem_stab_gen(d1, d2, 0.5)[-1]
        by_opt = check_theorem_stab_gen(d1, d2, 0.5, alignment="optimal")[-1]
        assert by_proof.alignment == "proof"
        assert by_opt.alignment == "optimal"
        assert by_opt.passed
        # both angles are near zero for this pair, so the measurements agree
        assert by_opt.lhs == pytest.approx(by_proof.lhs, abs=1e-6)

    def test_supplied_constants_used_or_rejected(self):
        d1, d2 = DomainSample(perturbed_disk(0.1), 128), DomainSample(disk(), 128)
        rows = check_theorem_stab_gen(d1, d2, 0.5, m=0.01, M0=5.0)
        assert rows[-1].m == 0.01 and rows[-1].M0 == 5.0
        rows = check_theorem_stab_gen(d1, d2, 0.5, m=0.5)
        assert rows[-1].m < 0.5  # measured fallback
        assert "violated" in rows[-1].notes

    def test_fallback_note_on_every_row(self):
        # the seminorm rows use the same fallback m as map_gap
        rows = check_theorem_stab_gen(DomainSample(perturbed_disk(0.1), 128),
                                      DomainSample(disk(), 128), 0.5, m=0.5)
        assert [r.row for r in rows] == ["pushforward_seminorm_1", "pushforward_seminorm_2",
                                         "log_ratio_seminorm", "map_gap"]
        assert len({(r.m, r.notes) for r in rows}) == 1
        assert rows[0].m < 0.5 and "m=0.5 violated by data" in rows[0].notes


class TestDisco:
    def test_fixed_point(self):
        C = 1 / TWO_PI
        rows = check_theorem_disco(DomainSample(disk_for_constant(C, gamma=0.4), 128),
                                   C, 0.5)
        assert rows[0].lhs <= 1e-12
        assert rows[0].passed

    def test_quadratic_sweep(self):
        C = 1 / TWO_PI
        ratios = []
        for eps in (0.02, 0.05, 0.1, 0.2):
            rows = check_theorem_disco(DomainSample(perturbed_disk(eps), 256), C, 0.5)
            assert all(r.passed for r in rows)
            ratios.append(rows[0].ratio)
        # diagnostic only: the tightness profile is logged, not asserted
        print("disco tightness vs eps:", ratios)

    def test_constant_outside_class_noted(self):
        rows = check_theorem_disco(DomainSample(perturbed_disk(0.05), 128), 5.0, 0.5)
        assert "outside" in rows[0].notes


class TestRaggi:
    def test_disk(self):
        rows = check_theorem_raggi(DomainSample(disk(rho=0.8), 128), 0.5)
        assert rows[0].row == "radii_gap"
        assert rows[0].lhs <= 1e-12
        assert all(r.passed for r in rows)

    def test_quadratic_closed_form(self):
        rows = check_theorem_raggi(DomainSample(perturbed_disk(0.1), 1024), 0.5)
        main = rows[0]
        assert main.lhs == pytest.approx(0.2, abs=1e-6)
        # C = 1/(2 pi rho) with rho = 0.9 enters through L2 = 1/C
        assert main.L2 == pytest.approx(1.8 * np.pi, abs=1e-6)
        assert main.passed

    def test_sweep_ratio_bounded(self):
        ratios = []
        for eps in (0.05, 0.1, 0.15, 0.2):
            rows = check_theorem_raggi(DomainSample(perturbed_disk(eps), 256), 0.5)
            assert all(r.passed for r in rows)
            ratios.append(rows[0].ratio)
        assert max(ratios) <= 1.0  # comfortably inside the bound


def lugua_inputs(eps, n=256):
    f1, f2 = equal_perimeter_pair(eps, n=n)
    return DomainSample(f1, n), DomainSample(f2, n)


class TestLuguaHausdorff:
    def test_equal_data_trivial(self):
        d1, d2 = lugua_inputs(0.0)
        rows = check_theorem_lugua_hausdorff(d1, d2, 0.5)
        assert [r.row for r in rows] == [
            "arclength_gap", "pushforward_sup_gap", "seminorm_from_derivative",
            "pushforward_derivative_gap", "map_gap", "hausdorff"]
        assert all(r.passed for r in rows)
        assert all(r.lhs <= 1e-12 for r in rows)

    def test_perturbed_pair_passes(self):
        for alpha in (0.5, 1.0):
            d1, d2 = lugua_inputs(0.1)
            rows = check_theorem_lugua_hausdorff(d1, d2, alpha)
            assert all(r.passed for r in rows), [
                (r.row, r.ratio) for r in rows if not r.passed]

    def test_hausdorff_row_matches_geometry(self):
        d1, d2 = lugua_inputs(0.12)
        rows = check_theorem_lugua_hausdorff(d1, d2, 0.5)
        d = hausdorff_distance(boundary_of(d1.f, d1.n), boundary_of(d2.f, d1.n))
        # proof alignment leaves the disk partner in place here (gamma = 0)
        assert rows[-1].lhs == pytest.approx(d, abs=1e-12)

    def test_unequal_perimeters_redirected(self):
        n = 128
        d1, d2 = DomainSample(perturbed_disk(0.1), n), DomainSample(disk(), n)
        with pytest.raises(InvalidInputError, match="ultimo"):
            check_theorem_lugua_hausdorff(d1, d2, 0.5)


class TestUltimo:
    def test_equal_perimeters_reduce_to_lugua(self):
        d1, d2 = lugua_inputs(0.1)
        lugua = check_theorem_lugua_hausdorff(d1, d2, 0.5)
        ultimo = check_theorem_ultimo(d1, d2, 0.5)
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
        rows = check_theorem_ultimo(d1, d2, 0.5)
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
            d1, d2 = DomainSample(perturbed_disk(0.15), n), DomainSample(disk(), n)
            rows = check_theorem_ultimo(d1, d2, alpha)
            assert all(r.passed for r in rows), [
                (r.row, r.ratio) for r in rows if not r.passed]

    def test_hypothesis_perimeter_bounds_fall_back(self):
        n = 128
        d1, d2 = DomainSample(perturbed_disk(0.1), n), DomainSample(disk(), n)
        rows = check_theorem_ultimo(d1, d2, 0.5, p=7.0)
        assert "violated" in rows[0].notes
        assert all(r.passed for r in rows)


def _report_fields(r):
    return np.array([r.lhs, r.rhs_norm, r.K, r.product,
                     0.0 if r.ratio == 0 else r.ratio,
                     r.m, r.M0, r.M1 or 0.0, r.L1, r.L2])


class TestRotationSoundness:
    def test_common_rotation_leaves_reports_unchanged(self):
        rng = np.random.default_rng(17)
        f1 = perturbed_disk(0.12)
        f2 = disk()
        base = check_theorem_stab_gen(DomainSample(f1, 128), DomainSample(f2, 128), 0.5)
        for _ in range(5):
            delta = float(rng.uniform(0, TWO_PI))
            rows = check_theorem_stab_gen(DomainSample(f1.rotated(delta), 128),
                                          DomainSample(f2.rotated(delta), 128), 0.5)
            for r0, r1 in zip(base, rows):
                assert np.max(np.abs(_report_fields(r0) - _report_fields(r1))) <= 1e-9


class TestRefinementSoundness:
    def test_doubling_n_keeps_passes(self):
        f = perturbed_disk(0.15)
        for n in (128, 256):
            d = DomainSample(f, n)
            rows = check_theorem_stab_gen(d, DomainSample(disk(), n), 0.5)
            rows += check_theorem_raggi(d, 0.5)
            rows += check_theorem_disco(d, 1 / TWO_PI, 0.5)
            assert all(r.passed for r in rows)
