import warnings

import numpy as np
import pytest

from greenrecon.boundary import (BoundaryFunction, COMPATIBILITY_TOL,
                                 INVERSION_TOL, build_cumulative,
                                 invert_cumulative, rescale_to_common_interval,
                                 validate_class)
from greenrecon.conformal import arclength, forward_operator
from greenrecon.errors import (CompatibilityError, DataFormatError,
                               InvalidInputError)
from greenrecon.families import perturbed_disk
from greenrecon.files import (load_boundary_data, save_boundary_data, save_map,
                              save_polyline, write_atomic)
from greenrecon.geometry import boundary_of
from greenrecon.norms import holder_seminorm

TWO_PI = 2 * np.pi


def constant_datum(n=64, L=TWO_PI):
    return BoundaryFunction(np.full(n, 1.0 / L), L)


def cosine_datum(n=128, L=5.0, amplitude=0.5):
    s = np.arange(n) * (L / n)
    return BoundaryFunction((1 + amplitude * np.cos(TWO_PI * s / L)) / L, L)


class TestBoundaryFunction:
    def test_structural_validation(self):
        with pytest.raises(InvalidInputError):
            BoundaryFunction(np.full(8, 0.1), 1.0)  # too few samples
        with pytest.raises(InvalidInputError):
            BoundaryFunction(np.full(17, 0.1), 1.0)  # odd count
        with pytest.raises(InvalidInputError):
            BoundaryFunction(np.full(16, 0.1), 1.0, alpha=1.5)

    def test_integral_and_residual(self):
        phi = constant_datum()
        assert phi.integral() == pytest.approx(1.0, abs=1e-15)
        assert phi.compatibility_residual() <= 1e-15


class TestBuildCumulative:
    def test_constant_datum_identity(self):
        cm = build_cumulative(constant_datum())
        s = np.linspace(0, TWO_PI, 17)
        assert np.allclose(cm.theta_of(s), s, atol=1e-13)
        assert invert_cumulative(cm, np.pi) == pytest.approx(np.pi, abs=1e-12)

    def test_constant_general_scale(self):
        L = 4.0
        cm = build_cumulative(constant_datum(L=L))
        # phi = 1/L, so the angle grows linearly at rate 2*pi/L
        s = np.linspace(0, L, 9)
        assert np.allclose(cm.theta_of(s), TWO_PI * s / L, atol=1e-13)

    def test_cosine_closed_form_antiderivative(self):
        L = 5.0
        phi = cosine_datum(L=L)
        cm = build_cumulative(phi)
        s = phi.grid
        # integral of (1 + 0.5 cos(2 pi s / L)) / L, scaled by 2 pi
        expected = TWO_PI * s / L + 0.5 * np.sin(TWO_PI * s / L)
        assert np.max(np.abs(cm.theta_of(s) - expected)) <= 1e-10
        assert np.max(np.abs(cm.theta_nodes() - expected)) <= 1e-10

    def test_endpoints_exact(self):
        cm = build_cumulative(cosine_datum())
        assert invert_cumulative(cm, 0.0) == 0.0
        assert invert_cumulative(cm, TWO_PI) == cm.L

    def test_compatibility_rejected_with_measured_integral(self):
        bad = BoundaryFunction(np.full(32, 0.2), 6.0)  # integral 1.2
        with pytest.raises(CompatibilityError) as err:
            build_cumulative(bad)
        assert err.value.integral == pytest.approx(1.2, abs=1e-12)
        assert err.value.tolerance == COMPATIBILITY_TOL
        assert err.value.n == 32


class TestInversion:
    def test_roundtrip_random_angles(self):
        phi = cosine_datum()
        cm = build_cumulative(phi)
        rng = np.random.default_rng(0)
        theta = rng.uniform(0, TWO_PI, 1000)
        recovered = cm.theta_of(cm.s_of(theta))
        assert np.max(np.abs(recovered - theta)) <= 1e-10
        assert np.max(np.abs(recovered - theta)) <= INVERSION_TOL * TWO_PI

    def test_against_pure_bisection_oracle(self):
        phi = cosine_datum()
        cm = build_cumulative(phi)
        rng = np.random.default_rng(1)
        for theta in rng.uniform(0, TWO_PI, 25):
            lo, hi = 0.0, phi.L
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if cm.theta_of(np.array([mid]))[0] < theta:
                    lo = mid
                else:
                    hi = mid
            assert invert_cumulative(cm, theta) == pytest.approx(
                0.5 * (lo + hi), abs=1e-10)

    def test_constant_datum_midpoint(self):
        L = 3.7
        cm = build_cumulative(constant_datum(L=L))
        assert invert_cumulative(cm, np.pi) == pytest.approx(L / 2, abs=1e-12)

    def test_angle_reduced_modulo(self):
        cm = build_cumulative(constant_datum())
        assert invert_cumulative(cm, TWO_PI + np.pi) == pytest.approx(np.pi, abs=1e-10)
        assert invert_cumulative(cm, -np.pi) == pytest.approx(np.pi, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_refused(self, bad):
        cm = build_cumulative(cosine_datum())
        with pytest.raises(InvalidInputError):
            cm.s_of([1.0, bad])

    def test_slopes_bounded_below(self):
        phi = cosine_datum()
        cm = build_cumulative(phi)
        nodes = cm.theta_nodes()
        slopes = np.diff(nodes) / (phi.L / phi.n)
        assert np.min(slopes) >= TWO_PI * phi.min_value() - 1e-10

    @pytest.mark.parametrize("datum", [cosine_datum(n=256, L=3.3, amplitude=0.4),
                                       forward_operator(perturbed_disk(0.2), 512)],
                             ids=["cosine", "z+0.2z^2"])
    def test_phi_of_is_the_datum_interpolant(self, datum):
        cm = build_cumulative(datum)
        s = cm.s_of(np.arange(512) * (TWO_PI / 512))
        assert np.array_equal(cm.phi_of(s), datum.interpolant()(s))

    def test_pushforward_perimeter_identity(self):
        # integral over the circle of 1/(2 pi psi) recovers the perimeter
        phi = cosine_datum(n=256, L=3.3, amplitude=0.4)
        cm = build_cumulative(phi)
        theta = np.arange(512) * (TWO_PI / 512)
        psi = phi.interpolant()(cm.s_of(theta))
        integral = np.mean(1.0 / (TWO_PI * psi)) * TWO_PI
        assert integral == pytest.approx(phi.L, abs=1e-8)


class TestValidateClass:
    def test_constant_in_class(self):
        report = validate_class(constant_datum(), m=0.1, M0=1.0)
        assert report.in_g0
        assert report.min_value == pytest.approx(1 / TWO_PI, abs=1e-12)
        assert report.violations == ()

    def test_negative_sample_flagged(self):
        values = np.full(32, 0.2)
        values[5] = -0.05
        phi = BoundaryFunction(values, 5.0)
        report = validate_class(phi, m=0.1, M0=10.0)
        assert not report.in_g0
        assert any("positivity" in v for v in report.violations)

    def test_cosine_extrema(self):
        L = 5.0
        phi = cosine_datum(L=L)
        report = validate_class(phi, m=0.5 / L - 1e-12, M0=10.0, M1=100.0)
        assert report.min_value == pytest.approx(0.5 / L, abs=1e-12)
        assert report.in_g0 and report.in_g1


class TestRescale:
    def test_equal_perimeters_identity(self):
        phi1 = cosine_datum(L=4.0)
        phi2 = cosine_datum(L=4.0, amplitude=0.2)
        hat1, hat2, L = rescale_to_common_interval(phi1, phi2)
        assert L == 4.0
        assert np.array_equal(hat1.values, phi1.values)
        assert np.array_equal(hat2.values, phi2.values)

    def test_constants_scale_invariant_values(self):
        phi1 = constant_datum(L=4.0)
        phi2 = constant_datum(L=6.0)
        hat1, hat2, L = rescale_to_common_interval(phi1, phi2)
        assert L == 5.0
        assert np.all(hat1.values == 0.25)
        assert np.all(hat2.values == pytest.approx(1 / 6, abs=1e-15))
        assert hat1.integral() == pytest.approx(L / 4.0, abs=1e-12)
        assert hat2.integral() == pytest.approx(L / 6.0, abs=1e-12)

    def test_sup_norm_exact_and_seminorm_scaling(self):
        phi1 = cosine_datum(L=4.0, amplitude=0.3)
        phi2 = cosine_datum(L=7.0, amplitude=0.3)
        hat1, hat2, L = rescale_to_common_interval(phi1, phi2)
        assert np.max(np.abs(hat1.values)) == np.max(np.abs(phi1.values))
        alpha = 0.5
        for phi, hat in ((phi1, hat1), (phi2, hat2)):
            original = holder_seminorm(phi.as_interval_function(), alpha)
            rescaled = holder_seminorm(hat.as_interval_function(), alpha)
            assert rescaled == pytest.approx(
                (phi.L / L) ** alpha * original, rel=1e-12)

    def test_unequal_grid_sizes_refused(self):
        with pytest.raises(InvalidInputError, match="n = 32 and 64"):
            rescale_to_common_interval(cosine_datum(n=32, L=4.0), cosine_datum(n=64, L=6.0))

    def test_derivative_scaling(self):
        phi1 = cosine_datum(L=4.0)
        phi2 = cosine_datum(L=8.0)
        hat1, hat2, L = rescale_to_common_interval(phi1, phi2)
        assert np.max(np.abs(hat2.derivative_values)) == pytest.approx(
            (phi2.L / L) * np.max(np.abs(phi2.derivative())), rel=1e-12)


class TestDataFiles:
    def test_roundtrip(self, tmp_path):
        phi = cosine_datum(n=64, L=3.5)
        deriv = phi.derivative()
        phi = BoundaryFunction(phi.values, phi.L, alpha=0.4, derivative_values=deriv)
        path = tmp_path / "datum.bdata"
        save_boundary_data(path, phi)
        loaded = load_boundary_data(path)
        assert loaded.L == phi.L
        assert loaded.alpha == 0.4
        assert np.allclose(loaded.values, phi.values, atol=1e-15)
        assert np.allclose(loaded.derivative_values, deriv, atol=1e-15)

    def test_bad_header_line_number(self, tmp_path):
        path = tmp_path / "bad.bdata"
        path.write_text("L 5.0\nbeta 0.5\n0 0.2\n")
        with pytest.raises(DataFormatError) as err:
            load_boundary_data(path)
        assert err.value.line_no == 2

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.bdata"
        path.write_bytes(b"L 1\nalpha 0.5\n0 1\n0.5 1\xff\n")
        with pytest.raises(DataFormatError) as err:
            load_boundary_data(path)
        assert err.value.line_no == 4

    def test_nonuniform_grid_rejected(self, tmp_path):
        phi = constant_datum(n=16, L=1.0)
        path = tmp_path / "datum.bdata"
        save_boundary_data(path, phi)
        lines = path.read_text().splitlines()
        parts = lines[4].split()
        parts[0] = str(float(parts[0]) + 0.01)
        lines[4] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError):
            load_boundary_data(path)

    @pytest.mark.parametrize("line_no, text", [
        (1, "L nan"), (2, "alpha 0"), (5, "0.125 nan"), (3, None)],
        ids=["nan-perimeter", "alpha-zero", "nan-sample", "fifteen-samples"])
    def test_refused_values_name_their_line(self, tmp_path, line_no, text):
        path = tmp_path / "datum.bdata"
        if text is None:  # 15 samples on a uniform grid: the first sample row is named
            rows = [f"{k / 15!r} 1" for k in range(15)]
            path.write_text("L 1\nalpha 0.5\n" + "\n".join(rows) + "\n")
        else:
            save_boundary_data(path, constant_datum(n=16, L=1.0))
            lines = path.read_text().splitlines()
            lines[line_no - 1] = text
            path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(DataFormatError) as err:
                load_boundary_data(path)
        assert err.value.line_no == line_no
        assert f"{path}:{line_no}: " in str(err.value)


class TestAtomicWrite:
    def test_failed_write_leaves_no_file(self, tmp_path):
        # a lone surrogate cannot be encoded, so the write fails before the rename
        with pytest.raises(UnicodeEncodeError):
            write_atomic(tmp_path / "out.csv", "1,2\n\ud800")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("save, obj", [
        (save_boundary_data, constant_datum(n=16, L=1.0)),
        (save_map, perturbed_disk(0.1)),
        (lambda path, b: save_polyline(path, b, arclength(perturbed_disk(0.1), 16)[0]),
         boundary_of(perturbed_disk(0.1), 16)),
    ], ids=["bdata", "map", "polyline"])
    def test_saves_replace_the_target_only_on_success(self, tmp_path, monkeypatch,
                                                      save, obj):
        target = tmp_path / "target"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("greenrecon.files.os.replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            save(target, obj)
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old\n"
        monkeypatch.undo()
        save(target, obj)
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() != "old\n"
