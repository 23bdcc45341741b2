"""Command-line front end.

Subcommands: ``forward``, ``invert``, ``roundtrip``, ``hausdorff``, ``check``
(with a theorem selector) and ``sweep``.  Options may come from flags or from
a key = value config file with one section per command; a config value is
converted and checked by its flag's own type, choices and range rule, and
flags win.  Every file is read and written by :mod:`greenrecon.files`.
Exit status: 0 when everything passed, 2 when a theorem check failed, 1 on
input errors.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import stability
from .boundary import build_cumulative
from .conformal import arclength, boundary_grid, eval_fprime, forward_operator
from .errors import GreenreconError, InvalidInputError
from .families import disk, parse_family
from .files import (at_line, load_boundary_data, load_map, read_config, save_boundary_data,
                    save_map, save_polyline, write_atomic, write_csv)
from .geometry import (boundary_of, hausdorff_discretization_bound,
                       hausdorff_distance, inradius_circumradius)
from .norms import _check_alpha
from .reconstruct import reconstruct_fprime, roundtrip_error

_ALIGNMENTS = ("proof", "optimal")
_MAX_EPS_STEPS = 10 ** 6  # a longer --eps range is refused before it is listed


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and per command its subparser and its options' actions by
    dest: every default, type and choice is stated here once."""
    parser = argparse.ArgumentParser(
        prog="greenrecon",
        description="Forward boundary data of disk maps, inverse reconstruction, "
                    "and stability-inequality reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, description, alpha=False, emit_plots=False):
        p = sub.add_parser(name, help=description)
        p.add_argument("--config", help="key = value config file, one section per command")
        actions = {}
        commands[name] = (p, actions)

        def add(*flags, **kwargs):
            action = p.add_argument(*flags, **kwargs)
            actions[action.dest] = action

        add("--n", type=int, default=512, help="grid size (power of two >= 64)")
        add("--out", default=".", help="output directory (default: .)")
        if alpha:
            add("--alpha", type=float, default=0.5, help="Holder exponent in (0, 1]")
        if emit_plots:
            add("--emit-plots", action="store_true",
                help="also write plain-data series for external plotting")
        return add

    add = command("forward", "boundary datum of a map", alpha=True, emit_plots=True)
    add("--map", help="map file")

    add = command("invert", "reconstruct a map from a boundary datum")
    add("--data", help="boundary data file")
    add("--zeta-o", default="0,0", help="interior base point as re,im")
    add("--zeta-b", help="boundary base point as re,im")

    add = command("roundtrip", "forward then invert, report the gap")
    add("--map")
    add("--alignment", choices=_ALIGNMENTS, default="proof")

    add = command("hausdorff", "Hausdorff distance of two map boundaries")
    add("--map")
    add("--map2")

    add = command("check", "run one stability-inequality check", alpha=True)
    add("--theorem", choices=tuple(stability.THEOREMS))
    add("--map")
    add("--map2")
    add("--c", type=float, help="constant datum for the disk comparison (default: 1/L)")
    add("--alignment", choices=_ALIGNMENTS, default="proof")
    for name in ("m", "M0", "M1", "p", "P"):
        add(f"--{name}", type=float, help=f"hypothesis constant {name} (default: measured)")

    add = command("sweep", "run checks across a perturbation family",
                  alpha=True, emit_plots=True)
    add("--family", help="'z+eps*z^k' or 'disk'")
    add("--eps", help="range start:stop:step")
    add("--theorem", choices=(*stability.THEOREMS, "all"))
    add("--alignment", choices=_ALIGNMENTS, default="proof")
    add("--jobs", type=int, default=1, help="worker threads (default: 1)")
    return parser, commands


def _check_n(n: int, name: str) -> None:
    if n < 64 or n & (n - 1):
        raise InvalidInputError(f"{name} must be a power of two >= 64, got {n}")


def _check_jobs(jobs: int, name: str) -> None:
    if jobs < 1:
        raise InvalidInputError(f"{name} must be at least 1, got {jobs}")


def _check_finite(x: float | None, name: str) -> None:
    if x is not None and not math.isfinite(x):
        raise InvalidInputError(f"{name} must be finite, got {x}")


def _parse_point(text: str | None, flag: str) -> complex | None:
    if text is None:
        return None
    try:
        re_part, im_part = (float(p) for p in text.split(","))
    except Exception:
        raise InvalidInputError(f"{flag} expects 're,im', got {text!r}") from None
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise InvalidInputError(f"{flag} must be finite, got {text!r}")
    return complex(re_part, im_part)


# the range rule of each option that has one, by dest; ``name`` spells the
# option in the error as it was given (a flag, or a config key)
_RANGES = {"n": _check_n, "alpha": _check_alpha, "jobs": _check_jobs,
           "zeta_o": _parse_point, "zeta_b": _parse_point,
           **dict.fromkeys(("c", "m", "M0", "M1", "p", "P"), _check_finite)}


def _read_config(path: Path, command: str, actions: dict) -> dict:
    """The values of the config file section named after the command, by dest,
    converted and range-checked as the same options given as flags are."""
    values = {}
    for line, key, text in read_config(path, command):
        action = actions.get(key.replace("-", "_").lstrip("_"))
        with at_line(path, line):
            if action is None:
                raise InvalidInputError(f"unknown option {key!r} for command {command!r}")
            try:
                values[action.dest] = _convert(action, text)
            except ValueError:
                raise InvalidInputError(f"bad value {text!r} for {key!r}") from None
            if action.dest in _RANGES:
                _RANGES[action.dest](values[action.dest], key)
    return values


def _convert(action: argparse.Action, text: str):
    """A config value as its flag's action reads it; ValueError where the
    flag would be refused."""
    words = configparser.ConfigParser.BOOLEAN_STATES
    if action.nargs == 0:  # a store_true flag takes a boolean word
        if text.lower() not in words:
            raise ValueError(text)
        return words[text.lower()]
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        raise ValueError(text)
    return value


def _require_file(path_text: str | None, flag: str) -> Path:
    if not path_text:
        raise InvalidInputError(f"missing required option {flag}")
    path = Path(path_text)
    if not path.exists():
        raise InvalidInputError(f"{flag} path {path} does not exist")
    return path


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_forward(args) -> int:
    n, out = args.n, Path(args.out)
    f = load_map(_require_file(args.map, "--map"))
    for warning in f.validate(n):
        print(f"warning: {warning}", file=sys.stderr)
    phi = forward_operator(f, n, alpha=args.alpha)
    save_boundary_data(out / "datum.bdata", phi)
    cm = build_cumulative(phi)
    theta = cm.theta_nodes()
    write_csv(out / "cumulative.csv", "s,theta", zip(phi.grid, theta))
    save_polyline(out / "polyline.csv", boundary_of(f, n), arclength(f, n)[0])
    if args.emit_plots:
        write_csv(out / "fprime_abs.csv", "theta,fprime_abs",
                  zip(boundary_grid(n), np.abs(eval_fprime(f, n))))
        write_csv(out / "datum_plot.csv", "s,phi", zip(phi.grid, phi.values))
    return 0


def _cmd_invert(args) -> int:
    phi = load_boundary_data(_require_file(args.data, "--data"))
    zeta_o = _parse_point(args.zeta_o, "--zeta-o")
    if args.zeta_b is None:
        raise InvalidInputError("missing required option --zeta-b")
    zeta_b = _parse_point(args.zeta_b, "--zeta-b")
    result = reconstruct_fprime(phi, zeta_o, zeta_b, args.n)
    out = Path(args.out)
    save_map(out / "reconstructed.map", result.map)
    write_csv(out / "invert_report.csv", "name,value", [
        ("gamma", result.gamma),
        ("compatibility_residual", result.compatibility_residual),
        ("normalization_residual", result.normalization_residual),
        ("tail_energy", result.tail_energy),
        ("consistent", "true" if result.consistent else "false"),
    ])
    if not result.consistent:
        print("warning: datum is inconsistent with the prescribed base-point "
              f"distance (residual {result.normalization_residual:.3g})", file=sys.stderr)
    return 0


def _cmd_roundtrip(args) -> int:
    n = args.n
    f = load_map(_require_file(args.map, "--map"))
    sizes = [max(64, n // 4), max(64, n // 2), n]
    sizes = sorted(set(sizes))
    write_csv(Path(args.out) / "roundtrip.csv", "n,error",
              [(size, roundtrip_error(f, size, alignment=args.alignment)) for size in sizes])
    return 0


def _cmd_hausdorff(args) -> int:
    f1 = load_map(_require_file(args.map, "--map"))
    f2 = load_map(_require_file(args.map2, "--map2"))
    b1 = boundary_of(f1, args.n)
    b2 = boundary_of(f2, args.n)
    d = hausdorff_distance(b1, b2)
    bound = hausdorff_discretization_bound(b1, b2)
    rho1, big_r1 = inradius_circumradius(b1)
    rho2, big_r2 = inradius_circumradius(b2)
    write_csv(Path(args.out) / "hausdorff.csv", "name,value", [
        ("hausdorff", d), ("discretization_bound", bound),
        ("rho1", rho1), ("R1", big_r1), ("rho2", rho2), ("R2", big_r2)])
    return 0


def _theorems(args, defaults: dict) -> list:
    """The table entries that --theorem selects.  An option off its parser
    default that some theorem reads is refused when none of these does."""
    theorems = (list(stability.THEOREMS.values()) if args.theorem == "all"
                else [stability.THEOREMS[args.theorem]])
    read = {dest for theorem in theorems for dest in theorem.options}
    for dest, default in defaults.items():
        if getattr(args, dest) != default and dest not in read and any(
                dest in theorem.options for theorem in stability.THEOREMS.values()):
            raise InvalidInputError(f"--{dest} is not read by --theorem {args.theorem}")
    return theorems


def _reports(theorems, d, partner, args) -> list:
    """The theorems' reports on d and its partner, each given the options it reads."""
    given = vars(args)
    return [r for t in theorems for r in t.run(
        d, partner, **{k: given[k] for k in given.keys() & {"m", "M0", *t.options} - {"map2"}})]


def _cmd_check(args) -> int:
    if args.theorem is None:
        raise InvalidInputError("missing required option --theorem")
    d = stability.DomainSample(load_map(_require_file(args.map, "--map")), args.n, args.alpha)
    partner = None  # without --map2, the unit disk at the map's base point
    if any("map2" in t.options for t in args.theorems):
        f2 = load_map(_require_file(args.map2, "--map2")) if args.map2 else disk(zeta_o=d.f.zeta_o)
        partner = stability.DomainSample(f2, args.n, args.alpha)
    reports = _reports(args.theorems, d, partner, args)
    write_atomic(Path(args.out) / "report.csv", stability.reports_to_csv(reports))
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
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise InvalidInputError(f"--eps start, stop and step must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise InvalidInputError("--eps range must be increasing with positive step")
    steps = (stop - start) / step
    if not steps < _MAX_EPS_STEPS:  # an overflowed span is inf
        raise InvalidInputError(f"--eps range {text!r} has more than {_MAX_EPS_STEPS} steps")
    values = []
    for i in range(int(round(steps)) + 1):
        x = start + i * step
        v = round(x, 12)
        # the rounding may shed float dust, a few ulps of the terms x is summed
        # from, but not a value (a range crossing 0 has dust of 1e-17 there)
        if abs(v - x) > 1e-9 * (abs(start) + i * step):
            raise InvalidInputError(
                f"--eps value {x!r} would run as {v!r}: eps is rounded to 12 decimals")
        values.append(v)
    return [v for v in values if v <= stop + 1e-12]


def _cmd_sweep(args) -> int:
    if not (args.family and args.eps and args.theorem):
        raise InvalidInputError("sweep needs --family, --eps and --theorem")
    family = parse_family(args.family)
    eps_values = _parse_eps_range(args.eps)
    partner = None  # the pair theorems' partner at every eps
    if any("map2" in t.options for t in args.theorems):
        partner = stability.DomainSample(disk(), args.n, args.alpha)

    def reports_at(eps):
        try:
            return _reports(args.theorems,
                            stability.DomainSample(family(eps), args.n, args.alpha),
                            partner, args)
        except GreenreconError as exc:
            raise GreenreconError(f"eps = {eps!r}: {exc}") from exc

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(reports_at, eps_values))  # in eps order, whatever the scheduling

    reports = [r for rows in results for r in rows]
    out = Path(args.out)
    write_atomic(out / "sweep.csv", stability.reports_to_csv(reports))
    if args.emit_plots:
        for t in args.theorems:
            write_csv(out / f"ratio_{t.headline[0]}.csv", "eps,ratio",
                      [(eps, r.ratio) for eps, rows in zip(eps_values, results)
                       for r in rows if (r.theorem, r.row) == t.headline])
    all_pass = all(r.passed for r in reports)
    print(f"sweep: {len(reports)} rows, "
          f"{'all pass' if all_pass else 'FAILURES present'}")
    return 0 if all_pass else 2


_HANDLERS = {"forward": _cmd_forward, "invert": _cmd_invert, "roundtrip": _cmd_roundtrip,
             "hausdorff": _cmd_hausdorff, "check": _cmd_check, "sweep": _cmd_sweep}


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict]:
    """:func:`_build_parser`'s parser, built once per process; nothing
    changes it after."""
    return _build_parser()


def main(argv=None) -> int:
    parser, commands = _shared_parser()
    args = parser.parse_args(argv)
    try:
        actions = commands[args.command][1]
        defaults = {dest: action.default for dest, action in actions.items()}
        if args.config:
            # a config file's values become the defaults of a parser of this
            # call's own, never of the shared one
            parser, commands = _build_parser()
            subparser, actions = commands[args.command]
            subparser.set_defaults(**_read_config(Path(args.config), args.command, actions))
            args = parser.parse_args(argv)  # flags override the file's defaults
        for dest, check in _RANGES.items():
            if dest in vars(args):
                check(getattr(args, dest), "--" + dest.replace("_", "-"))
        if getattr(args, "theorem", None) is not None:  # check and sweep
            args.theorems = _theorems(args, defaults)
        return _HANDLERS[args.command](args)
    except (GreenreconError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
