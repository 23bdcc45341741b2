"""Command-line front end.

Subcommands: ``forward``, ``invert``, ``roundtrip``, ``hausdorff``, ``check``
(with a theorem selector) and ``sweep``.  Options may come from flags or from
a key = value config file with one section per command; flags win.  All
numeric output is fixed-format with 17 significant digits so that reports are
byte-reproducible; files are written to a temporary name and renamed on
success.  Exit status: 0 when everything passed, 2 when a theorem check
failed, 1 on input errors.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import stability
from .boundary import _write_atomic, build_cumulative, load_boundary_data, save_boundary_data
from .conformal import boundary_grid, eval_fprime, forward_operator, load_map, save_map
from .errors import GreenreconError, InvalidInputError
from .families import disk, parse_family
from .geometry import (boundary_of, hausdorff_discretization_bound,
                       hausdorff_distance, inradius_circumradius, save_polyline)
from .reconstruct import reconstruct_fprime, roundtrip_error

THEOREMS = ("raggi", "disco", "stab-gen", "lugua", "ultimo")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenrecon",
        description="Forward boundary data of disk maps, inverse reconstruction, "
                    "and stability-inequality reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file, one section per command")
        p.add_argument("--n", type=int, default=None, help="grid size (power of two >= 64)")
        p.add_argument("--out", default=None, help="output directory (default: .)")

    def alpha(p):
        p.add_argument("--alpha", type=float, default=None, help="Holder exponent in (0, 1]")

    def emit_plots(p):
        p.add_argument("--emit-plots", action="store_true", default=None,
                       help="also write plain-data series for external plotting")

    p = sub.add_parser("forward", help="boundary datum of a map")
    common(p)
    alpha(p)
    emit_plots(p)
    p.add_argument("--map", default=None, help="map file")

    p = sub.add_parser("invert", help="reconstruct a map from a boundary datum")
    common(p)
    p.add_argument("--data", default=None, help="boundary data file")
    p.add_argument("--zeta-o", default=None, help="interior base point as re,im")
    p.add_argument("--zeta-b", default=None, help="boundary base point as re,im")

    p = sub.add_parser("roundtrip", help="forward then invert, report the gap")
    common(p)
    p.add_argument("--map", default=None)
    p.add_argument("--alignment", choices=("proof", "optimal"), default=None)

    p = sub.add_parser("hausdorff", help="Hausdorff distance of two map boundaries")
    common(p)
    p.add_argument("--map", default=None)
    p.add_argument("--map2", default=None)

    p = sub.add_parser("check", help="run one stability-inequality check")
    common(p)
    alpha(p)
    p.add_argument("--theorem", choices=THEOREMS, default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--map2", default=None)
    p.add_argument("--c", type=float, default=None,
                   help="constant datum for the disk comparison (default: 1/L)")
    p.add_argument("--alignment", choices=("proof", "optimal"), default=None)
    for name in ("m", "M0", "M1", "p", "P"):
        p.add_argument(f"--{name}", type=float, default=None,
                       help=f"hypothesis constant {name} (default: measured)")

    p = sub.add_parser("sweep", help="run checks across a perturbation family")
    common(p)
    alpha(p)
    emit_plots(p)
    p.add_argument("--family", default=None, help="'z+eps*z^k' or 'disk'")
    p.add_argument("--eps", default=None, help="range start:stop:step")
    p.add_argument("--theorem", choices=THEOREMS + ("all",), default=None)
    p.add_argument("--alignment", choices=("proof", "optimal"), default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker threads (default: GREENRECON_JOBS or 1)")
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the config file section named after the command."""
    if not args.config:
        return
    path = Path(args.config)
    if not path.exists():
        raise InvalidInputError(f"config file {path} does not exist")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive: M0, M1, P vs p
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        line = getattr(exc, "lineno", 0) or 0
        raise InvalidInputError(f"{path}:{line}: {exc.message.splitlines()[0]}") from None
    if not parser.has_section(args.command):
        return
    known = {k.replace("-", "_") for k in vars(args)} - {"config", "command"}
    for key, value in parser.items(args.command):
        attr = key.replace("-", "_").lstrip("_")
        if attr not in known:
            line_no = _find_config_line(path, args.command, key)
            raise InvalidInputError(
                f"{path}:{line_no}: unknown option {key!r} for command {args.command!r}")
        if getattr(args, attr) is not None and getattr(args, attr) is not False:
            continue  # flags override the file
        try:
            if attr in ("n", "jobs"):
                parsed = int(value)
            elif attr in ("alpha", "c", "m", "M0", "M1", "p", "P"):
                parsed = float(value)
            elif attr == "emit_plots":
                parsed = value.strip().lower() in ("1", "true", "yes", "on")
            else:
                parsed = value
        except ValueError:
            line_no = _find_config_line(path, args.command, key)
            raise InvalidInputError(
                f"{path}:{line_no}: bad value {value!r} for {key!r}") from None
        if attr == "jobs" and parsed < 1:
            line_no = _find_config_line(path, args.command, key)
            raise InvalidInputError(
                f"{path}:{line_no}: {key} must be at least 1, got {value!r}")
        setattr(args, attr, parsed)


def _find_config_line(path: Path, section: str, key: str) -> int:
    current = None
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if line.strip().startswith("["):
            current = line.strip()[1:-1].strip()
        elif current == section and line.replace(":", "=").split("=")[0].strip() == key:
            return i
    return 0


def _resolve(args, name, default):
    value = getattr(args, name, None)
    return default if value is None or value is False else value


def _check_n(n: int) -> int:
    if n < 64 or n & (n - 1):
        raise InvalidInputError(f"n must be a power of two >= 64, got {n}")
    return n


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def _parse_point(text: str, flag: str) -> complex:
    try:
        re_part, im_part = (float(p) for p in text.split(","))
    except Exception:
        raise InvalidInputError(f"{flag} expects 're,im', got {text!r}") from None
    return complex(re_part, im_part)


def _require_file(path_text: str | None, flag: str) -> Path:
    if not path_text:
        raise InvalidInputError(f"missing required option {flag}")
    path = Path(path_text)
    if not path.exists():
        raise InvalidInputError(f"{flag} path {path} does not exist")
    return path


def _plot_series(path: Path, header: str, columns) -> None:
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_forward(args) -> int:
    n = _check_n(_resolve(args, "n", 512))
    alpha = _check_alpha(_resolve(args, "alpha", 0.5))
    out = Path(_resolve(args, "out", "."))
    f = load_map(_require_file(args.map, "--map"))
    for warning in f.validate(n):
        print(f"warning: {warning}", file=sys.stderr)
    phi = forward_operator(f, n, alpha=alpha)
    save_boundary_data(out / "datum.bdata", phi)
    cm = build_cumulative(phi)
    theta = cm.theta_nodes()
    _plot_series(out / "cumulative.csv", "s,theta", (phi.grid, theta))
    save_polyline(out / "polyline.csv", boundary_of(f, n))
    if _resolve(args, "emit_plots", False):
        _plot_series(out / "fprime_abs.csv", "theta,fprime_abs",
                     (boundary_grid(n), np.abs(eval_fprime(f, n))))
        _plot_series(out / "datum_plot.csv", "s,phi", (phi.grid, phi.values))
    return 0


def _cmd_invert(args) -> int:
    n = _check_n(_resolve(args, "n", 512))
    out = Path(_resolve(args, "out", "."))
    phi = load_boundary_data(_require_file(args.data, "--data"))
    zeta_o = _parse_point(_resolve(args, "zeta_o", None) or "0,0", "--zeta-o")
    zeta_b_text = _resolve(args, "zeta_b", None)
    if zeta_b_text is None:
        raise InvalidInputError("missing required option --zeta-b")
    zeta_b = _parse_point(zeta_b_text, "--zeta-b")
    result = reconstruct_fprime(phi, zeta_o, zeta_b, n)
    save_map(out / "reconstructed.map", result.map)
    report = [
        "name,value",
        f"gamma,{_fmt(result.gamma)}",
        f"compatibility_residual,{_fmt(result.compatibility_residual)}",
        f"normalization_residual,{_fmt(result.normalization_residual)}",
        f"tail_energy,{_fmt(result.tail_energy)}",
        f"consistent,{'true' if result.consistent else 'false'}",
    ]
    _write_atomic(out / "invert_report.csv", "\n".join(report) + "\n")
    if not result.consistent:
        print("warning: datum is inconsistent with the prescribed base-point "
              f"distance (residual {result.normalization_residual:.3g})", file=sys.stderr)
    return 0


def _cmd_roundtrip(args) -> int:
    n = _check_n(_resolve(args, "n", 512))
    out = Path(_resolve(args, "out", "."))
    alignment = _resolve(args, "alignment", "proof")
    f = load_map(_require_file(args.map, "--map"))
    sizes = [max(64, n // 4), max(64, n // 2), n]
    sizes = sorted(set(sizes))
    rows = ["n,error"]
    for size in sizes:
        rows.append(f"{size},{_fmt(roundtrip_error(f, size, alignment=alignment))}")
    _write_atomic(out / "roundtrip.csv", "\n".join(rows) + "\n")
    return 0


def _cmd_hausdorff(args) -> int:
    n = _check_n(_resolve(args, "n", 512))
    out = Path(_resolve(args, "out", "."))
    f1 = load_map(_require_file(args.map, "--map"))
    f2 = load_map(_require_file(args.map2, "--map2"))
    b1 = boundary_of(f1, n)
    b2 = boundary_of(f2, n)
    d = hausdorff_distance(b1, b2)
    bound = hausdorff_discretization_bound(b1, b2)
    rho1, big_r1 = inradius_circumradius(b1)
    rho2, big_r2 = inradius_circumradius(b2)
    rows = ["name,value",
            f"hausdorff,{_fmt(d)}",
            f"discretization_bound,{_fmt(bound)}",
            f"rho1,{_fmt(rho1)}", f"R1,{_fmt(big_r1)}",
            f"rho2,{_fmt(rho2)}", f"R2,{_fmt(big_r2)}"]
    _write_atomic(out / "hausdorff.csv", "\n".join(rows) + "\n")
    return 0


def _run_checks(theorem: str, d, partner, alpha: float, alignment: str,
                overrides: dict, C: float | None):
    """One theorem's reports for the sample ``d``; the pair theorems compare
    it with ``partner``, lugua after scaling d's map to the partner's
    perimeter."""
    m, M0, M1 = (overrides.get(k) for k in ("m", "M0", "M1"))
    if theorem == "raggi":
        return stability.check_theorem_raggi(d, alpha, m=m, M0=M0)
    if theorem == "disco":
        constant = C if C is not None else 1.0 / d.datum.L
        return stability.check_theorem_disco(d, constant, alpha, alignment=alignment,
                                             m=m, M0=M0)
    if theorem == "stab-gen":
        return stability.check_theorem_stab_gen(d, partner, alpha, alignment=alignment,
                                                m=m, M0=M0)
    if theorem == "lugua":
        scaled = d.f.scaled(partner.datum.L / d.datum.L)
        return stability.check_theorem_lugua_hausdorff(
            stability.DomainSample(scaled, d.n), partner, alpha, alignment=alignment,
            m=m, M0=M0, M1=M1)
    if theorem == "ultimo":
        return stability.check_theorem_ultimo(
            d, partner, alpha, alignment=alignment, m=m, M0=M0, M1=M1,
            p=overrides.get("p"), P=overrides.get("P"))
    raise InvalidInputError(f"unknown theorem selector {theorem!r}")


def _cmd_check(args) -> int:
    n = _check_n(_resolve(args, "n", 512))
    alpha = _check_alpha(_resolve(args, "alpha", 0.5))
    alignment = _resolve(args, "alignment", "proof")
    out = Path(_resolve(args, "out", "."))
    theorem = _resolve(args, "theorem", None)
    if theorem is None:
        raise InvalidInputError("missing required option --theorem")
    d = stability.DomainSample(load_map(_require_file(args.map, "--map")), n)
    f2 = disk()
    if getattr(args, "map2", None):
        f2 = load_map(_require_file(args.map2, "--map2"))
    overrides = {k: getattr(args, k) for k in ("m", "M0", "M1", "p", "P")}
    reports = _run_checks(theorem, d, stability.DomainSample(f2, n), alpha, alignment,
                          overrides, getattr(args, "c", None))
    _write_atomic(out / "report.csv", stability.reports_to_csv(reports))
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.theorem}/{r.row}: lhs={r.lhs:.6g} K*rhs={r.product:.6g} "
              f"ratio={r.ratio:.6g} [{status}]")
        if r.notes:
            print(f"  note: {r.notes}")
    return 0 if all(r.passed for r in reports) else 2


def _parse_eps_range(text: str) -> list[float]:
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except Exception:
        raise InvalidInputError(f"--eps expects start:stop:step, got {text!r}") from None
    if step <= 0 or stop < start:
        raise InvalidInputError("--eps range must be increasing with positive step")
    count = int(round((stop - start) / step)) + 1
    values = [round(start + i * step, 12) for i in range(count)]
    return [v for v in values if v <= stop + 1e-12]


def _sweep_task(family, eps: float, theorems, alpha: float, alignment: str,
                overrides: dict, partner):
    d = stability.DomainSample(family(eps), partner.n)
    return [r for theorem in theorems
            for r in _run_checks(theorem, d, partner, alpha, alignment, overrides, None)]


def _cmd_sweep(args) -> int:
    n = _check_n(_resolve(args, "n", 512))
    alpha = _check_alpha(_resolve(args, "alpha", 0.5))
    alignment = _resolve(args, "alignment", "proof")
    out = Path(_resolve(args, "out", "."))
    family_text = _resolve(args, "family", None)
    eps_text = _resolve(args, "eps", None)
    theorem = _resolve(args, "theorem", None)
    if not (family_text and eps_text and theorem):
        raise InvalidInputError("sweep needs --family, --eps and --theorem")
    family = parse_family(family_text)
    eps_values = _parse_eps_range(eps_text)
    theorems = list(THEOREMS) if theorem == "all" else [theorem]
    jobs = _resolve(args, "jobs", None)
    if jobs is None:
        text = os.environ.get("GREENRECON_JOBS", "1")
        try:
            jobs = int(text)
        except ValueError:
            raise InvalidInputError(
                f"GREENRECON_JOBS must be an integer, got {text!r}") from None
        if jobs < 1:
            raise InvalidInputError(f"GREENRECON_JOBS must be at least 1, got {text!r}")
    elif jobs < 1:
        raise InvalidInputError("--jobs must be at least 1")
    overrides = {k: getattr(args, k, None) for k in ("m", "M0", "M1", "p", "P")}
    partner = stability.DomainSample(disk(), n)  # the pair theorems' partner at every eps

    results: dict[float, list] = {}
    if jobs == 1:
        for eps in eps_values:
            results[eps] = _sweep_task(family, eps, theorems, alpha, alignment,
                                       overrides, partner)
    else:
        if set(theorems) & {"stab-gen", "lugua", "ultimo"}:
            partner.fill(alpha)  # before the threads that share it start
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {eps: pool.submit(_sweep_task, family, eps, theorems,
                                        alpha, alignment, overrides, partner)
                       for eps in eps_values}
            for eps in eps_values:
                results[eps] = futures[eps].result()

    lines = [stability.CSV_HEADER]
    all_pass = True
    for eps in eps_values:  # deterministic order, independent of scheduling
        for r in results[eps]:
            lines.append(r.csv_row())
            all_pass = all_pass and r.passed
    _write_atomic(out / "sweep.csv", "\n".join(lines) + "\n")

    if _resolve(args, "emit_plots", False):
        main_rows = {"raggi": ("raggi", "radii_gap"),
                     "disco": ("disco", "map_gap_vs_disk"),
                     "stab-gen": ("stab_gen", "map_gap"),
                     "lugua": ("lugua", "map_gap"),
                     "ultimo": ("ultimo", "map_gap")}
        for theorem_name in theorems:
            want_theorem, want_row = main_rows[theorem_name]
            xs, ys = [], []
            for eps in eps_values:
                for r in results[eps]:
                    if r.theorem == want_theorem and r.row == want_row:
                        xs.append(eps)
                        ys.append(r.ratio)
            if xs:
                _plot_series(out / f"ratio_{want_theorem}.csv", "eps,ratio", (xs, ys))
    print(f"sweep: {len(lines) - 1} rows, "
          f"{'all pass' if all_pass else 'FAILURES present'}")
    return 0 if all_pass else 2


_HANDLERS = {
    "forward": _cmd_forward,
    "invert": _cmd_invert,
    "roundtrip": _cmd_roundtrip,
    "hausdorff": _cmd_hausdorff,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return _HANDLERS[args.command](args)
    except GreenreconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
