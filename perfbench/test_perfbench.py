"""Tests of the benchmark itself: seeded generators, tracer transparency and
exact counts.  Run with ``python3 -m pytest perfbench -q`` from the root."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import greenrecon  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SMALL_N = {"sweep": 128, "roundtrip": 512, "shape_compare": 512}


def _fingerprint(items) -> list:
    out = []
    for item in items:
        if isinstance(item, tuple) and isinstance(item[0], float):
            out.append(item)
        elif isinstance(item, greenrecon.ConformalMap):
            out.append(item.coefficients.tobytes())
        else:
            f1, f2, d = item
            out.append((f1.coefficients.tobytes(), f2.coefficients.tobytes(),
                        d.L, d.modes.tobytes(), d.c.tobytes()))
    return out


@pytest.mark.parametrize("workload", ["sweep", "sweep_jobs2", "roundtrip", "shape_compare"])
def test_generators_repeat_per_seed(workload):
    a = _fingerprint(wl.make_inputs(workload, 7, 8))
    assert a == _fingerprint(wl.make_inputs(workload, 7, 8))
    assert a != _fingerprint(wl.make_inputs(workload, 8, 8))


def test_sweeps_share_items():
    assert wl.make_inputs("sweep", 3, 8) == wl.make_inputs("sweep_jobs2", 3, 8)


def test_generated_inputs_stay_in_their_classes():
    for eps in wl.make_inputs("sweep", 0, 200):
        assert len(eps) == wl.SWEEP_STEPS
        assert all(0.0 < e <= 0.2 for e in eps)
    for f in wl.make_inputs("roundtrip", 0, 50):
        a = f.coefficients
        assert a[1] == 1.0 and 2 <= f.degree <= 8
        assert np.sum(np.arange(2, a.size) * np.abs(a[2:])) <= 0.6 + 1e-12
    for f1, f2, datum in wl.make_inputs("shape_compare", 0, 20):
        assert f1.zeta_o == f2.zeta_o
        phi = datum.samples(1024)
        assert abs(np.mean(phi) * datum.L - 1.0) < 1e-12
        assert np.min(phi) >= datum.bounds(0.5)[0]


def _run_small(workload, item, tmp_path):
    if workload == "sweep":
        return wl.run_sweep(item, 1, tmp_path, n=SMALL_N["sweep"])
    if workload == "roundtrip":
        return wl.run_roundtrip(item, n=SMALL_N["roundtrip"])
    return wl.run_shape_compare(*item, n=SMALL_N["shape_compare"])


@pytest.mark.parametrize("workload", ["sweep", "roundtrip", "shape_compare"])
def test_traced_outputs_are_byte_identical(workload, tmp_path):
    item = wl.make_inputs(workload, 11, 1)[0]
    plain = _run_small(workload, item, tmp_path)
    with spans.Tracer() as tracer:
        traced = _run_small(workload, item, tmp_path)
    assert tracer.spans and not tracer.absent
    assert traced.digest == plain.digest


def test_counts_repeat_exactly(tmp_path):
    items = wl.make_inputs("sweep", 5, 2)

    def counts():
        with spans.Tracer() as tracer:
            for eps in items:
                wl.run_sweep(eps, 2, tmp_path, n=SMALL_N["sweep"])
        metrics = spans.layer_metrics(tracer, len(items))
        return {k: v for k, (v, unit) in metrics.items()
                if unit.startswith("count") or k.endswith("distinct_per_call")}

    first = counts()
    assert first == counts()
    assert first["conformal.forward_operator.distinct_per_call"] < 1.0
    assert first["_spectral.invert_increasing.calls"] > 0


def test_uninstall_restores_every_binding():
    before = greenrecon.stability.forward_operator
    with spans.Tracer():
        assert greenrecon.stability.forward_operator is not before
        assert greenrecon.conformal.forward_operator is greenrecon.stability.forward_operator
    assert greenrecon.stability.forward_operator is before
    assert greenrecon.forward_operator is before


def test_absent_name_is_reported_not_raised(monkeypatch):
    extra = (("conformal", "no_such_function", None, None),
             ("_spectral", "NoSuchClass.__call__", "_spectral.synthesis", None))
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + extra)
    with spans.Tracer() as tracer:
        pass
    assert tracer.absent == ["conformal.no_such_function", "_spectral.NoSuchClass.__call__"]
