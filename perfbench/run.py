"""greenrecon benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The library is imported from ``src/`` of the
same checkout.  With ``--trace 0`` the workload runs as a closed loop for
``--seconds`` of measured item time and the end-to-end metrics are printed;
with ``--trace 1`` a fixed set of items runs once untraced and once under the
outside-in span tracer, followed by the size ladder, and the per-layer
metrics are printed.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--workload all`` runs every workload, each in its own process.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS/OpenMP thread per process, so threads never exceed nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "sweep_jobs2", "roundtrip", "shape_compare")
SETUP_REPEATS = 3         # set-ups per run; setup_s is their median
TRACED_ITEMS = {"sweep": 2, "sweep_jobs2": 2, "roundtrip": 2, "shape_compare": 3}
JOBS_CHECKED = 3          # sweep_jobs2 items re-run with --jobs 1 for identity
CHILD_TIMEOUT_S = 170


def load_program():
    """Import greenrecon from this checkout's src/, or exit without a result."""
    if not (SRC / "greenrecon" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'greenrecon'} not found; run from a checkout "
                 "of the repository root")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import greenrecon
    if Path(greenrecon.__file__).resolve().parent != SRC / "greenrecon":
        sys.exit(f"error: imported greenrecon from {greenrecon.__file__}, not {SRC}")
    import workloads
    return workloads


def machine_info() -> dict:
    import numpy
    import scipy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate the inputs and run one untimed warm-up item.

    Returns (module, timed items, whether the warm-up passed, set-up seconds
    since this module started)."""
    wl = load_program()
    items = wl.make_inputs(workload, seed)
    try:
        wl.run_item(workload, items[0], workdir)
        warm_ok = True
    except Exception:  # counted as a failed item by the caller
        print(f"warm-up item failed:\n{traceback.format_exc()}", file=sys.stderr)
        warm_ok = False
    return wl, items[1:], warm_ok, time.perf_counter() - _T0


def probe_setups(workload: str, seed: int, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh processes, one after another."""
    values = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return values


def run_items(wl, workload: str, items, workdir: Path, *, seconds: float | None = None,
              count: int | None = None) -> list[tuple[float, object]]:
    """Closed loop over ``items``: for ``seconds`` of item time or ``count`` items.

    Returns per-item (seconds, Outcome or None when the item failed)."""
    results = []
    busy = 0.0
    while (busy < seconds) if seconds is not None else (len(results) < count):
        item = items[len(results) % len(items)]
        start = time.perf_counter()
        try:
            outcome = wl.run_item(workload, item, workdir)
        except Exception:  # a failed item is counted, and the loop goes on
            outcome = None
            print(f"item {len(results)} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
        dt = time.perf_counter() - start
        busy += dt
        results.append((dt, outcome))
    return results


def jobs_identity_failures(wl, items, results, workdir: Path) -> int:
    """Of the first JOBS_CHECKED timed items, those whose --jobs 2 sweep.csv
    differs from the --jobs 1 one (a --jobs 1 re-run costs a whole item, so
    only a prefix is re-run)."""
    failures = 0
    for i, (_, outcome) in enumerate(results[:JOBS_CHECKED]):
        if outcome is None:
            continue
        try:
            reference = wl.run_sweep(items[i % len(items)], 1, workdir)
        except Exception:
            print(traceback.format_exc(), file=sys.stderr)
            failures += 1
            continue
        if reference.digest != outcome.digest:
            print(f"item {i}: sweep.csv differs between --jobs 2 and --jobs 1",
                  file=sys.stderr)
            failures += 1
    return failures


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    wl, items, warm_ok, setup_main = set_up(workload, seed, workdir)
    results = run_items(wl, workload, items, workdir, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(1 for _, o in results if o is None) + (not warm_ok)
    if workload == "sweep_jobs2":
        failed += jobs_identity_failures(wl, items, results, workdir)
    setups = [setup_main] + probe_setups(workload, seed, SETUP_REPEATS - 1)

    busy = sum(dt for dt, _ in results)
    units = sum(o.units for _, o in results if o is not None)
    attempted = len(results) + (not warm_ok)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (units / busy, "1/s"),
        "item_p50_ms": (1e3 * statistics.median(dt for dt, _ in results), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_frac": ((attempted - failed) / attempted, "fraction"),
    }
    print(f"{workload}: {attempted} items, {units} units in {busy:.3f} s of item time; "
          f"item_p50_ms over {len(results)} samples; fail_frac {failed / attempted:g}; "
          f"setup_s median of {len(setups)}: {', '.join(f'{s:.3f}' for s in setups)}")
    print("item_ms: " + " ".join(f"{1e3 * dt:.1f}" for dt, _ in results))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(workload: str, seed: int, workdir: Path) -> dict:
    wl, items, warm_ok, _ = set_up(workload, seed, workdir)
    from ladder import growth_exponents
    from spans import Tracer, layer_metrics

    count = TRACED_ITEMS[workload]
    plain = run_items(wl, workload, items, workdir, count=count)
    with Tracer() as tracer:
        spanned = run_items(wl, workload, items, workdir, count=count)
    failed = sum(1 for _, o in plain + spanned if o is None) + (not warm_ok)
    for (_, a), (_, b) in zip(plain, spanned):
        if a is not None and b is not None and a.digest != b.digest:
            print("traced and untraced outputs differ", file=sys.stderr)
            failed += 1

    metrics = layer_metrics(tracer, count)
    exponents, ladder_s = growth_exponents(seed)
    for layer, value in exponents.items():
        metrics[f"{layer}.growth_exp"] = (value, "exponent")
    rate_plain = count / sum(dt for dt, _ in plain)
    rate_spanned = count / sum(dt for dt, _ in spanned)
    metrics["trace.overhead_frac"] = (1.0 - rate_spanned / rate_plain, "fraction")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    span_file = out / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(span_file)
    print(f"{workload}: {count} items untraced at {rate_plain:.4f} items/s, traced at "
          f"{rate_spanned:.4f} items/s; {len(tracer.spans)} spans in {span_file.name}")
    if tracer.absent:
        print(f"absent from the library: {', '.join(tracer.absent)}")
    if tracer.measure_errors:
        print(f"{tracer.measure_errors} calls whose arguments no longer fit their count")
    for layer, ts in ladder_s.items():
        print(f"ladder {layer}: " + " ".join(f"{t * 1e3:.1f}" for t in ts) + " ms")
    return {"correct": failed == 0, "attempted": 2 * count + (not warm_ok), "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process; nonzero when any is incorrect."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"  {workload:14s} {name:48s} {m['value']:.6g} {m['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(repr(set_up(args.workload, args.seed, workdir)[3]))
            return 0
        if args.trace:
            result = traced(args.workload, args.seed, workdir)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print("machine: " + json.dumps(machine_info()))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value!r} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
