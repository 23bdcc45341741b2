import math
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from greenrecon import cli, conformal, stability
from greenrecon.cli import main
from greenrecon.conformal import ConformalMap
from greenrecon.families import disk, perturbed_disk
from greenrecon.files import load_boundary_data, load_map, save_map


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

    def test_constants_out_of_float_range_are_input_errors(self, tmp_path, disk_map, capsys):
        out = tmp_path / "o"
        assert main(["check", "--theorem", "raggi", "--map", str(disk_map),
                     "--out", str(out), "--n", "128", "--m", "1e-300"]) == 1
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["check", "--theorem", "lugua", "--M1", "inf"], "--M1"),
        (["check", "--theorem", "stab-gen", "--M0", "inf"], "--M0"),
        (["check", "--theorem", "disco", "--c", "nan"], "--c"),
        (["invert", "--data", "datum.bdata", "--zeta-b", "inf,0"], "--zeta-b"),
    ], ids=["M1", "M0", "c", "zeta-b"])
    def test_non_finite_flag_is_refused(self, tmp_path, disk_map, capsys, argv, flag):
        out = tmp_path / "o"
        if argv[0] == "check":
            argv = argv + ["--map", str(disk_map)]
        assert main(argv + ["--n", "128", "--out", str(out)]) == 1
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("theorem, flag", [
        ("raggi", "--c"), ("stab-gen", "--c"), ("ultimo", "--c"),
        ("raggi", "--M1"), ("disco", "--M1"), ("stab-gen", "--M1"),
        ("raggi", "--p"), ("lugua", "--p"), ("disco", "--P"), ("lugua", "--P"),
        ("raggi", "--map2"), ("disco", "--map2"), ("raggi", "--alignment")])
    def test_option_the_theorem_does_not_read_is_refused(self, tmp_path, disk_map, capsys,
                                                          theorem, flag):
        out = tmp_path / "o"
        value = {"--map2": str(disk_map), "--alignment": "optimal"}.get(flag, "3")
        assert main(["check", "--theorem", theorem, "--map", str(disk_map), flag, value,
                     "--n", "128", "--out", str(out)]) == 1
        assert f"{flag} is not read by --theorem {theorem}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_map_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.map"
        path.write_bytes(b"zeta_o 0 0\nzeta_b 1.1 0\n0 0 0\n1 1 0\n2 0.1\xff 0\n")
        assert main(["check", "--theorem", "raggi", "--map", str(path), "--n", "128",
                     "--out", str(tmp_path / "o")]) == 1
        assert f"{path}:5: " in capsys.readouterr().err


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

    def test_keys_are_case_sensitive(self, tmp_path, disk_map, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[check]\ntheorem = ultimo\nmap = {disk_map}\n"
                       "M0 = 5\nM1 = 6\nP = 100\np = 0.5\n")
        seen = []
        monkeypatch.setitem(cli._HANDLERS, "check", lambda args: seen.append(args) or 0)
        assert main(["check", "--config", str(cfg)]) == 0
        args, = seen
        assert (args.M0, args.M1, args.P, args.p) == (5.0, 6.0, 100.0, 0.5)
        assert args.m is None

    def test_config_defaults_do_not_outlive_their_call(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\nn = 128\nemit-plots = true\n")
        seen = []
        monkeypatch.setitem(cli._HANDLERS, "sweep", lambda args: seen.append(args) or 0)
        argv = ["sweep", "--family", "z+eps*z^2", "--eps", "0.1:0.1:0.1", "--theorem", "raggi"]
        parser = cli._shared_parser()
        assert main(argv + ["--config", str(cfg)]) == 0
        assert main(argv) == 0
        assert [(args.n, args.emit_plots) for args in seen] == [(128, True), (512, False)]
        assert cli._shared_parser() is parser

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

    def test_percent_in_a_value_is_read_literally(self, tmp_path, disk_map):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[check]\ntheorem = raggi\nmap = {disk_map}\nn = 128\n"
                       f"out = {tmp_path / 'runs%1'}\n")
        assert main(["check", "--config", str(cfg)]) == 0
        assert (tmp_path / "runs%1" / "report.csv").exists()

    def test_malformed_line_names_its_own_line(self, tmp_path, disk_map, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[check]\ntheorem = raggi\nmap\nout = {tmp_path / 'o'}\n")
        assert main(["check", "--config", str(cfg), "--map", str(disk_map)]) == 1
        assert f"{cfg}:3: malformed line 'map'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["emit-plots = maybe", "alignment = Optimal",
                                      "theorem = Raggi", "n = 100", "alpha = 0",
                                      "alpha = 1.5", "jobs = 1.5"])
    def test_refused_value_exits_before_any_work(self, tmp_path, line, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "o"
        cfg.write_text(f"[sweep]\nfamily = z+eps*z^2\neps = 0.1:0.1:0.1\n{line}\n"
                       f"out = {out}\n")
        argv = ["sweep", "--config", str(cfg)]
        assert main(argv + (["--theorem", "raggi"] if "theorem" not in line else [])) == 1
        assert f"{cfg}:4: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"[sweep]\nfamily = z+eps*z^2\n# caf\xe9\n")
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert f"{cfg}:3: " in capsys.readouterr().err

    @pytest.mark.parametrize("section, line", [
        ("check", "M0 = inf"), ("invert", "zeta-b = inf,0")], ids=["M0", "zeta-b"])
    def test_non_finite_config_value_names_its_line(self, tmp_path, disk_map, capsys,
                                                    section, line):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "o"
        cfg.write_text(f"[{section}]\n{line}\nout = {out}\n")
        argv = {"check": ["check", "--theorem", "stab-gen", "--map", str(disk_map)],
                "invert": ["invert", "--data", "datum.bdata"]}[section]
        assert main(argv + ["--config", str(cfg), "--n", "128"]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2: {line.split()[0]} must be finite" in err
        assert not out.exists()

    def test_flag_wins_over_a_config_boolean(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "o"
        cfg.write_text(f"[sweep]\nfamily = z+eps*z^2\neps = 0.1:0.1:0.1\ntheorem = raggi\n"
                       f"n = 64\nemit-plots = false\nout = {out}\n")
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert not (out / "ratio_raggi.csv").exists()
        assert main(["sweep", "--config", str(cfg), "--emit-plots"]) == 0
        assert (out / "ratio_raggi.csv").exists()

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

    def test_zero_jobs_flag_is_input_error(self, tmp_path, capsys):
        argv = ["sweep", "--family", "z+eps*z^2", "--eps", "0.1:0.1:0.1",
                "--theorem", "raggi", "--n", "128", "--out", str(tmp_path / "x")]
        assert main(argv + ["--jobs", "0"]) == 1
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_zero_config_jobs_names_the_file_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg0.ini"
        cfg.write_text("[sweep]\njobs = 0\n")
        assert main(["sweep", "--config", str(cfg), "--family", "z+eps*z^2",
                     "--eps", "0.1:0.1:0.1", "--theorem", "raggi", "--n", "128",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2: jobs must be at least 1, got 0" in err and "--jobs" not in err

    def test_zero_alpha_flag_is_rejected(self, tmp_path, capsys):
        # a zero flag is a given value, not an absent one that takes the default
        assert main(["sweep", "--family", "z+eps*z^2", "--eps", "0.1:0.1:0.1",
                     "--theorem", "raggi", "--n", "128", "--alpha", "0",
                     "--out", str(tmp_path / "x")]) == 1
        assert "alpha must lie in (0, 1], got 0.0" in capsys.readouterr().err

    def test_non_domains_are_refused(self, tmp_path, capsys):
        # z + eps z^2 is not univalent for eps >= 1/2
        assert main(["sweep", "--family", "z+eps*z^2", "--eps", "0.6:0.8:0.2",
                     "--theorem", "raggi", "--n", "512",
                     "--out", str(tmp_path / "x")]) == 1
        assert "not univalent at n = 512" in capsys.readouterr().err
        assert not (tmp_path / "x" / "sweep.csv").exists()

    def test_unresolved_data_are_refused(self, tmp_path, capsys):
        # eps = 0.40 is resolved at n = 512, eps = 0.44 is not
        assert main(["sweep", "--family", "z+eps*z^2", "--eps", "0.40:0.48:0.04",
                     "--theorem", "raggi", "--n", "512",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "n = 512 samples" in err and "under-resolved" in err

    def test_refusal_names_its_eps(self, tmp_path, capsys):
        assert main(["sweep", "--family", "z+eps*z^2", "--eps", "0.40:0.48:0.04",
                     "--theorem", "raggi", "--n", "512", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("error: eps = 0.44: boundary datum of n = 512")

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_power_below_two_refused_with_the_selector(self, tmp_path, capsys, monkeypatch, k):
        # the family is refused when its selector is parsed, before any sample is made
        monkeypatch.setattr(stability, "DomainSample", None)
        family = f"z+eps*z^{k}"
        assert main(["sweep", "--family", family, "--eps", "0.1:0.2:0.1",
                     "--theorem", "raggi", "--n", "64", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"family {family!r}: perturbation power must be at least 2" in err
        assert "eps =" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("eps", ["nan:0.2:0.1", "0.1:0.2:nan", "0.1:inf:0.1",
                                     "0.1:0.2:inf", "-1e308:1e308:1", "0:1:1e-12",
                                     # rounded to 12 decimals, 1e-13 would run as the
                                     # disk and 1.5e-12 as 2e-12
                                     "1e-13:1e-13:1", "1.5e-12:1.5e-12:1"])
    def test_eps_range_that_names_nothing_is_refused(self, tmp_path, capsys, eps):
        out = tmp_path / "x"
        assert main(["sweep", "--family", "z+eps*z^2", f"--eps={eps}", "--theorem", "raggi",
                     "--n", "64", "--out", str(out)]) == 1
        assert "--eps" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_eps_range_across_zero_runs_its_values(self, tmp_path):
        # -0.3 + 3 * 0.1 is 5.6e-17: float dust that rounding sheds
        out = tmp_path / "x"
        assert main(["sweep", "--family", "z+eps*z^2", "--eps=-0.3:0.3:0.1",
                     "--theorem", "raggi", "--n", "256", "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
        # z + eps z^2 has centered radii 1 - eps and 1 + eps, so the gap is 2|eps|
        gaps = [float(r[2]) for r in rows if r[1] == "radii_gap"]
        assert gaps == pytest.approx([0.6, 0.4, 0.2, 0.0, 0.2, 0.4, 0.6], abs=1e-12)

    def test_alignment_raggi_does_not_read_is_refused(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["sweep", "--family", "z+eps*z^2", "--eps", "0.1:0.1:0.1",
                     "--theorem", "raggi", "--alignment", "optimal", "--n", "64",
                     "--out", str(out)]) == 1
        assert "--alignment is not read by --theorem raggi" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_eps_range(self, tmp_path):
        assert main(["sweep", "--family", "z+eps*z^2", "--eps", "0.1-0.2",
                     "--theorem", "disco", "--n", "128",
                     "--out", str(tmp_path / "x")]) == 1


def _count_calls(monkeypatch, argv, *names):
    """For each of ``stability``'s functions ``names``, the calls that one
    ``main(argv)`` makes to it, as a Counter over (coefficients, n)."""
    counts = [Counter() for _ in names]
    lock = threading.Lock()

    def counting(calls, real):
        def counted(f, n, *args, **kwargs):
            with lock:
                calls[(tuple(f.coefficients), n)] += 1
            return real(f, n, *args, **kwargs)
        return counted

    for name, calls in zip(names, counts):
        monkeypatch.setattr(stability, name, counting(calls, getattr(stability, name)))
    assert main(argv) == 0
    return counts


def _count_forward_calls(monkeypatch, argv):
    """(coefficients, n) -> forward_operator calls made by one ``main(argv)``."""
    return _count_calls(monkeypatch, argv, "forward_operator")[0]


class TestSweepComputesEachDatumOnce:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_one_forward_operator_call_per_domain(self, tmp_path, monkeypatch, jobs):
        on_nodes, evaluations = conformal._on_nodes, []
        monkeypatch.setattr(conformal, "_on_nodes",
                            lambda rows, n: evaluations.append(rows.ndim) or on_nodes(rows, n))
        calls, rows = _count_calls(monkeypatch, [
            "sweep", "--family", "z+eps*z^2", "--eps", "0.05:0.15:0.1",
            "--theorem", "all", "--alpha", "0.5", "--n", "128",
            "--jobs", jobs, "--out", str(tmp_path / "s")],
            "forward_operator", "node_table")
        # f per eps, and the unit disk; lugua's equal-perimeter rescaling of f
        # is mapped from f's sample, with no datum and no node table of its own
        assert len(calls) == 2 + 1
        assert set(calls.values()) == {1}
        assert sum(rows[key] for key in calls) == 2 + 1
        # the only other node tables are disco's comparison disks, one per eps
        assert sum(rows.values()) - sum(rows[key] for key in calls) == 2
        # node evaluations: the f' row inside each forward operator, and the
        # three-row table of each sample and each disco disk
        assert sorted(evaluations) == [1] * 3 + [2] * (3 + 2)

    @pytest.mark.parametrize("theorem", ["raggi", "disco"])
    def test_single_domain_theorem_builds_no_partner(self, tmp_path, monkeypatch, theorem):
        calls = _count_forward_calls(monkeypatch, [
            "sweep", "--family", "z+eps*z^2", "--eps", "0.05:0.15:0.1",
            "--theorem", theorem, "--n", "128", "--out", str(tmp_path / "s")])
        assert len(calls) == 2 and set(calls.values()) == {1}
        assert (tuple(disk().coefficients), 128) not in calls

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


def _unread(command):
    """(theorem, dest) for each option of the command that some theorem reads
    and that theorem does not."""
    actions = cli._build_parser()[1][command][1]
    read = {dest for theorem in stability.THEOREMS.values() for dest in theorem.options}
    return [(name, dest) for name, theorem in stability.THEOREMS.items()
            for dest in sorted(read - set(theorem.options)) if dest in actions]


# a valid value for each option a theorem reads but --map2, which takes a map file
_VALUES = {"alignment": "optimal", "c": "0.2", "M1": "3", "p": "3", "P": "8"}


class TestTheoremTable:
    def test_theorem_choices_are_the_table_keys(self):
        commands = cli._build_parser()[1]
        assert commands["check"][1]["theorem"].choices == tuple(stability.THEOREMS)
        assert commands["sweep"][1]["theorem"].choices == (*stability.THEOREMS, "all")

    @pytest.mark.parametrize("command, theorem, dest",
                             [("check", *pair) for pair in _unread("check")]
                             + [("sweep", *pair) for pair in _unread("sweep")])
    def test_option_no_selected_theorem_reads_is_refused(self, tmp_path, disk_map, capsys,
                                                          command, theorem, dest):
        out = tmp_path / "o"
        argv = {"check": ["check", "--map", str(disk_map)],
                "sweep": ["sweep", "--family", "z+eps*z^2", "--eps", "0.1:0.1:0.1"]}[command]
        assert main(argv + ["--theorem", theorem, f"--{dest}", _VALUES.get(dest, str(disk_map)),
                            "--n", "64", "--out", str(out)]) == 1
        assert f"--{dest} is not read by --theorem {theorem}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("theorem, dest", [(name, dest)
                                               for name, t in stability.THEOREMS.items()
                                               for dest in t.options])
    def test_option_the_theorem_reads_is_accepted(self, tmp_path, disk_map, theorem, dest):
        out = tmp_path / "o"
        assert main(["check", "--map", str(disk_map), "--theorem", theorem, f"--{dest}",
                     _VALUES.get(dest, str(disk_map)), "--n", "64", "--out", str(out)]) == 0
        assert (out / "report.csv").exists()

    def test_config_value_is_refused_and_a_default_flag_is_not(self, tmp_path, disk_map,
                                                                capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[check]\ntheorem = raggi\nmap = {disk_map}\nn = 64\n"
                       f"alignment = optimal\nout = {tmp_path / 'o'}\n")
        assert main(["check", "--config", str(cfg)]) == 1
        assert "--alignment is not read by --theorem raggi" in capsys.readouterr().err
        # the flag wins over the file and is at the parser default
        assert main(["check", "--config", str(cfg), "--alignment", "proof"]) == 0

    def test_sweep_plots_every_headline_ratio(self, tmp_path):
        out = tmp_path / "s"
        assert main(["sweep", "--family", "z+eps*z^2", "--eps", "0.05:0.15:0.05",
                     "--theorem", "all", "--n", "64", "--emit-plots", "--out", str(out)]) == 0
        names = {f"ratio_{t.headline[0]}.csv" for t in stability.THEOREMS.values()}
        assert len(names) == 5
        assert {path.name for path in out.glob("ratio_*.csv")} == names
        for name in names:
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "eps,ratio"
            assert [float(line.split(",")[0]) for line in lines[1:]] == [0.05, 0.1, 0.15]

    @pytest.mark.parametrize("theorem", [name for name, t in stability.THEOREMS.items()
                                         if "map2" in t.options])
    def test_default_partner_sits_at_the_base_point(self, tmp_path, theorem):
        rows = []
        for i, zeta_o in enumerate((0.3 + 0.2j, 0j)):
            path, out = tmp_path / f"f{i}.map", tmp_path / f"o{i}"
            save_map(path, ConformalMap([zeta_o, 1, 0.1]))
            assert main(["check", "--theorem", theorem, "--map", str(path), "--n", "128",
                         "--out", str(out)]) == 0
            rows.append([line.split(",") for line in
                         (out / "report.csv").read_text().splitlines()[1:]])
        moved, origin = rows
        assert [r[:2] for r in moved] == [r[:2] for r in origin]
        for a, b in zip(moved, origin):
            for i in (2, 3, 4):  # lhs, rhs, K
                assert float(a[i]) == pytest.approx(float(b[i]), rel=1e-14, abs=0)


# Runs every command that a workload reaches in a fresh interpreter, then
# prints the scipy modules loaded.
NO_SCIPY_SCRIPT = """
import sys
from greenrecon.cli import main
f, g, out = sys.argv[1:]
for argv in (
        ["forward", "--map", f, "--n", "128", "--out", out + "/fwd"],
        ["invert", "--data", out + "/fwd/datum.bdata", "--zeta-b", "1.1,0", "--n", "128",
         "--out", out + "/inv"],
        ["roundtrip", "--map", f, "--n", "128", "--out", out + "/rt"],
        ["check", "--theorem", "ultimo", "--map", f, "--map2", g, "--n", "128",
         "--out", out + "/chk"],
        ["sweep", "--family", "z+eps*z^2", "--eps", "0.1:0.2:0.1", "--theorem", "all",
         "--n", "64", "--out", out + "/sw"]):
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_commands_load_no_scipy_module(tmp_path, pert_map):
    other = tmp_path / "g.map"
    save_map(other, perturbed_disk(0.2))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(pert_map), str(other), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
