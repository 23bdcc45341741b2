import math
import sys
import threading
from collections import Counter

import pytest

from greenrecon import stability
from greenrecon.boundary import load_boundary_data
from greenrecon.cli import _apply_config, _build_parser, main
from greenrecon.conformal import load_map, save_map
from greenrecon.families import disk, perturbed_disk


@pytest.fixture
def disk_map(tmp_path):
    path = tmp_path / "disk.map"
    save_map(path, disk())
    return path


@pytest.fixture
def pert_map(tmp_path):
    path = tmp_path / "pert.map"
    save_map(path, perturbed_disk(0.1))
    return path


class TestCheckCommand:
    def test_raggi_on_disk_exits_zero_with_zero_lhs(self, tmp_path, disk_map, capsys):
        out = tmp_path / "out"
        code = main(["check", "--theorem", "raggi", "--map", str(disk_map),
                     "--out", str(out), "--n", "128"])
        assert code == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == stability.CSV_HEADER
        first = report[1].split(",")
        assert first[0] == "raggi" and first[1] == "radii_gap"
        assert float(first[2]) <= 1e-12
        assert "pass" in capsys.readouterr().out

    def test_violated_override_note_printed(self, tmp_path, pert_map, capsys):
        out = tmp_path / "out"
        assert main(["check", "--theorem", "raggi", "--map", str(pert_map),
                     "--out", str(out), "--n", "128", "--m", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [i for i, line in enumerate(lines) if line.startswith("raggi/")]
        assert len(rows) == 2
        for i in rows:
            note = lines[i + 1].strip()
            assert note.startswith("note: m=10 violated by data (measured 0.")
            assert note.endswith("using measured value")
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == stability.CSV_HEADER

    def test_no_note_lines_without_overrides(self, tmp_path, pert_map, capsys):
        assert main(["check", "--theorem", "raggi", "--map", str(pert_map),
                     "--out", str(tmp_path / "out"), "--n", "128"]) == 0
        assert "note:" not in capsys.readouterr().out

    def test_exit_two_on_failure(self, tmp_path, disk_map, monkeypatch):
        failing = stability.StabilityReport(
            theorem="raggi", row="radii_gap", lhs=2.0, rhs_norm=1.0, K=1.0,
            n=64, alignment="proof", m=0.1, M0=0.2, alpha=0.5)
        monkeypatch.setattr(stability, "check_theorem_raggi",
                            lambda *a, **k: [failing])
        code = main(["check", "--theorem", "raggi", "--map", str(disk_map),
                     "--out", str(tmp_path / "o"), "--n", "128"])
        assert code == 2

    def test_lugua_scales_the_map_to_the_disk_perimeter(self, tmp_path, pert_map):
        out = tmp_path / "out"
        assert main(["check", "--theorem", "lugua", "--map", str(pert_map),
                     "--out", str(out), "--n", "128"]) == 0
        first = (out / "report.csv").read_text().splitlines()[1].split(",")
        assert first[1] == "arclength_gap"
        assert float(first[13]) == float(first[14]) == pytest.approx(2 * math.pi)

    def test_missing_map_is_input_error(self, tmp_path):
        code = main(["check", "--theorem", "raggi", "--map",
                     str(tmp_path / "nope.map"), "--n", "128"])
        assert code == 1

    def test_invalid_n_rejected(self, disk_map, tmp_path):
        code = main(["check", "--theorem", "raggi", "--map", str(disk_map),
                     "--out", str(tmp_path / "o"), "--n", "100"])
        assert code == 1


class TestForwardInvertPipeline:
    def test_files_roundtrip(self, tmp_path, pert_map):
        out = tmp_path / "fwd"
        assert main(["forward", "--map", str(pert_map), "--out", str(out),
                     "--n", "128", "--emit-plots"]) == 0
        for name in ("datum.bdata", "cumulative.csv", "polyline.csv",
                     "fprime_abs.csv", "datum_plot.csv"):
            assert (out / name).exists()
        phi = load_boundary_data(out / "datum.bdata")
        assert phi.n == 128
        assert phi.compatibility_residual() <= 1e-8

        inv = tmp_path / "inv"
        assert main(["invert", "--data", str(out / "datum.bdata"),
                     "--zeta-o", "0,0", "--zeta-b", "1.1,0",
                     "--out", str(inv), "--n", "128"]) == 0
        rebuilt = load_map(inv / "reconstructed.map")
        assert abs(rebuilt.coefficients[1] - 1.0) <= 1e-6
        assert abs(rebuilt.coefficients[2] - 0.1) <= 1e-6
        report = dict(line.split(",") for line
                      in (inv / "invert_report.csv").read_text().splitlines()[1:])
        assert report["consistent"] == "true"
        assert abs(float(report["gamma"])) <= 1e-8

    def test_alpha_one_stored_as_one(self, tmp_path, pert_map, capsys):
        out = tmp_path / "fwd"
        assert main(["forward", "--map", str(pert_map), "--out", str(out),
                     "--n", "64", "--alpha", "1"]) == 0
        assert "alpha" not in capsys.readouterr().err
        assert load_boundary_data(out / "datum.bdata").alpha == 1.0

    def test_alpha_below_one_stored_silently(self, tmp_path, pert_map, capsys):
        out = tmp_path / "fwd"
        assert main(["forward", "--map", str(pert_map), "--out", str(out),
                     "--n", "64", "--alpha", "0.7"]) == 0
        assert "alpha" not in capsys.readouterr().err
        assert load_boundary_data(out / "datum.bdata").alpha == 0.7

    def test_roundtrip_command(self, tmp_path, pert_map):
        out = tmp_path / "rt"
        assert main(["roundtrip", "--map", str(pert_map), "--out", str(out),
                     "--n", "256"]) == 0
        lines = (out / "roundtrip.csv").read_text().splitlines()
        assert lines[0] == "n,error"
        sizes = [int(line.split(",")[0]) for line in lines[1:]]
        errors = [float(line.split(",")[1]) for line in lines[1:]]
        assert sizes == [64, 128, 256]
        assert max(errors) <= 1e-6

    def test_hausdorff_command(self, tmp_path, disk_map, pert_map):
        out = tmp_path / "h"
        assert main(["hausdorff", "--map", str(disk_map), "--map2",
                     str(pert_map), "--out", str(out), "--n", "256"]) == 0
        rows = dict(line.split(",") for line
                    in (out / "hausdorff.csv").read_text().splitlines()[1:])
        assert float(rows["hausdorff"]) == pytest.approx(0.1, abs=0.01)
        assert float(rows["rho2"]) == pytest.approx(0.9, abs=1e-6)


class TestConfigFile:
    def test_config_supplies_options(self, tmp_path, disk_map):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"[check]\ntheorem = raggi\nmap = {disk_map}\nn = 128\n"
            f"out = {tmp_path / 'o'}\n")
        assert main(["check", "--config", str(cfg)]) == 0

    def test_flags_override_config(self, tmp_path, disk_map, pert_map):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[check]\ntheorem = raggi\nmap = {disk_map}\nn = 128\n"
                       f"out = {tmp_path / 'a'}\n")
        assert main(["check", "--config", str(cfg), "--map", str(pert_map),
                     "--out", str(tmp_path / "b")]) == 0
        first = (tmp_path / "b" / "report.csv").read_text().splitlines()[1].split(",")
        # radii gap 0.2 proves the flag's map won over the config's disk
        assert float(first[2]) == pytest.approx(0.2, abs=1e-6)

    def test_unknown_key_line_numbered(self, tmp_path, disk_map, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[check]\ntheorem = raggi\nmap = {disk_map}\nbogus = 1\n")
        assert main(["check", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "run.cfg:4" in err and "bogus" in err

    def test_bad_value_line_numbered(self, tmp_path, disk_map, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[check]\ntheorem = raggi\nmap = {disk_map}\nn = lots\n")
        assert main(["check", "--config", str(cfg)]) == 1
        assert "run.cfg:4" in capsys.readouterr().err

    def test_keys_are_case_sensitive(self, tmp_path, disk_map):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[check]\ntheorem = ultimo\nmap = {disk_map}\n"
                       "M0 = 5\nM1 = 6\nP = 100\np = 0.5\n")
        args = _build_parser().parse_args(["check", "--config", str(cfg)])
        _apply_config(args)
        assert (args.M0, args.M1, args.P, args.p) == (5.0, 6.0, 100.0, 0.5)
        assert args.m is None

    def test_option_a_command_ignores_is_refused(self, tmp_path, disk_map, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invert", "--data", "datum.bdata", "--zeta-b", "1,0", "--alpha", "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha 0.5" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[hausdorff]\nmap = {disk_map}\nmap2 = {disk_map}\n"
                       "emit-plots = true\n")
        assert main(["hausdorff", "--config", str(cfg)]) == 1
        assert f"{cfg}:4: unknown option 'emit-plots' for command 'hausdorff'" \
            in capsys.readouterr().err

    def test_bad_value_line_is_the_keys_own(self, tmp_path, disk_map, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[sweep]\np = 1\n[check]\ntheorem = raggi\nmap = {disk_map}\n"
                       "P = 1\np = x\n")
        assert main(["check", "--config", str(cfg)]) == 1
        assert "run.cfg:7" in capsys.readouterr().err


class TestSweep:
    def test_small_sweep_structure(self, tmp_path):
        out = tmp_path / "s"
        code = main(["sweep", "--family", "z+eps*z^2", "--eps", "0.05:0.15:0.05",
                     "--theorem", "disco", "--alpha", "0.5", "--n", "128",
                     "--out", str(out), "--emit-plots"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == stability.CSV_HEADER
        assert len(lines) == 4  # one row per eps for the single-row theorem
        assert (out / "ratio_disco.csv").exists()

    def test_twenty_step_range_gives_twenty_rows(self, tmp_path):
        out = tmp_path / "s20"
        code = main(["sweep", "--family", "z+eps*z^2", "--eps", "0.01:0.2:0.01",
                     "--theorem", "disco", "--alpha", "0.5", "--n", "128",
                     "--out", str(out)])
        assert code == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 21

    def test_jobs_do_not_change_bytes(self, tmp_path):
        args = ["sweep", "--family", "z+eps*z^2", "--eps", "0.04:0.12:0.04",
                "--theorem", "stab-gen", "--alpha", "0.5", "--n", "128"]
        out1, out2 = tmp_path / "j1", tmp_path / "j8"
        assert main(args + ["--out", str(out1), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(out2), "--jobs", "8"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_env_var_default_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GREENRECON_JOBS", "2")
        out = tmp_path / "env"
        assert main(["sweep", "--family", "z+eps*z^2", "--eps", "0.1:0.1:0.1",
                     "--theorem", "raggi", "--alpha", "0.5", "--n", "128",
                     "--out", str(out)]) == 0

    def test_non_integer_env_jobs_is_input_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GREENRECON_JOBS", "two")
        assert main(["sweep", "--family", "z+eps*z^2", "--eps", "0.1:0.1:0.1",
                     "--theorem", "raggi", "--n", "128",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "GREENRECON_JOBS" in err and "'two'" in err

    def test_zero_env_jobs_names_the_variable(self, tmp_path, monkeypatch, capsys):
        argv = ["sweep", "--family", "z+eps*z^2", "--eps", "0.1:0.1:0.1",
                "--theorem", "raggi", "--n", "128", "--out", str(tmp_path / "x")]
        monkeypatch.setenv("GREENRECON_JOBS", "0")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "GREENRECON_JOBS" in err and "'0'" in err and "--jobs" not in err
        monkeypatch.delenv("GREENRECON_JOBS")
        assert main(argv + ["--jobs", "0"]) == 1
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_zero_config_jobs_names_the_file_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg0.ini"
        cfg.write_text("[sweep]\njobs = 0\n")
        assert main(["sweep", "--config", str(cfg), "--family", "z+eps*z^2",
                     "--eps", "0.1:0.1:0.1", "--theorem", "raggi", "--n", "128",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2: jobs must be at least 1, got '0'" in err and "--jobs" not in err

    def test_zero_alpha_flag_is_rejected(self, tmp_path, capsys):
        # a zero flag is a given value, not an absent one that takes the default
        assert main(["sweep", "--family", "z+eps*z^2", "--eps", "0.1:0.1:0.1",
                     "--theorem", "raggi", "--n", "128", "--alpha", "0",
                     "--out", str(tmp_path / "x")]) == 1
        assert "alpha must lie in (0, 1], got 0.0" in capsys.readouterr().err

    def test_bad_eps_range(self, tmp_path):
        assert main(["sweep", "--family", "z+eps*z^2", "--eps", "0.1-0.2",
                     "--theorem", "disco", "--n", "128",
                     "--out", str(tmp_path / "x")]) == 1


def _count_forward_calls(monkeypatch, argv):
    """(coefficients, n) -> forward_operator calls made by one ``main(argv)``."""
    calls = Counter()
    lock = threading.Lock()
    real = stability.forward_operator

    def counting(f, n, *args, **kwargs):
        with lock:
            calls[(tuple(f.coefficients), n)] += 1
        return real(f, n, *args, **kwargs)

    monkeypatch.setattr(stability, "forward_operator", counting)
    assert main(argv) == 0
    return calls


class TestSweepComputesEachDatumOnce:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_one_forward_operator_call_per_domain(self, tmp_path, monkeypatch, jobs):
        calls = _count_forward_calls(monkeypatch, [
            "sweep", "--family", "z+eps*z^2", "--eps", "0.05:0.15:0.1",
            "--theorem", "all", "--alpha", "0.5", "--n", "128",
            "--jobs", jobs, "--out", str(tmp_path / "s")])
        # f and its equal-perimeter rescaling per eps, and the unit disk
        assert len(calls) == 2 * 2 + 1
        assert set(calls.values()) == {1}

    def test_shared_disk_sample_filled_once_under_thread_stress(self, tmp_path,
                                                                monkeypatch):
        # more threads than cores, a short switch interval, and a theorem
        # whose every task reaches the shared disk sample at once
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            calls = _count_forward_calls(monkeypatch, [
                "sweep", "--family", "z+eps*z^2", "--eps", "0.01:0.16:0.01",
                "--theorem", "stab-gen", "--alpha", "0.5", "--n", "64",
                "--jobs", "8", "--out", str(tmp_path / "s")])
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 16 + 1
        assert set(calls.values()) == {1}
