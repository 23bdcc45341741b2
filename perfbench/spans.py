"""Outside-in span tracer for greenrecon's public functions.

The tracer wraps each traced function or method from outside the library:
functions are rebound in every ``greenrecon`` module whose global points to
the same object (found by an identity scan, so re-exports and ``from x import
y`` aliases are covered too), and methods are replaced on their class.  No
library source is modified.  Spans stay in memory; the caller aggregates them
and may write them out when the run ends.

A traced name that the library no longer has is listed in ``absent`` instead
of raising, so the tracer survives refactors of the library.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


def _synthesis_work(interp, x, *_args, **_kwargs):
    return int(np.size(x)) * int(np.size(interp.omega))


def _square_pairs(f, *_args, **_kwargs):
    return int(f.n) * int(f.n)


def _cross_pairs(b1, b2, *_args, **_kwargs):
    return int(b1.n) * int(b2.n)


def _map_key(f, n, *_args, **_kwargs):
    return (f.coefficients.tobytes(), int(n))


# (module, qualified name inside the module, span name, work measure)
TARGETS = (
    ("_spectral", "TrigInterpolant.__call__", "_spectral.synthesis", _synthesis_work),
    ("_spectral", "TrigInterpolant.derivative_at", "_spectral.synthesis", _synthesis_work),
    ("_spectral", "CumulativeTrig.__call__", "_spectral.synthesis", _synthesis_work),
    ("_spectral", "invert_increasing", None, None),
    ("_spectral", "trig_sup_abs", None, None),
    ("conformal", "forward_operator", None, _map_key),
    ("boundary", "build_cumulative", None, None),
    ("boundary", "CumulativeMap.s_of", None, None),
    ("boundary", "validate_class", None, None),
    ("reconstruct", "reconstruct_fprime", None, None),
    ("reconstruct", "exp_series", None, None),
    ("norms", "holder_seminorm", None, _square_pairs),
    ("geometry", "boundary_of", None, None),
    ("geometry", "hausdorff_distance", None, _cross_pairs),
    ("geometry", "largest_inscribed_circle", None, None),
    ("geometry", "smallest_enclosing_circle", None, None),
    ("geometry", "align_rotation", None, None),
    ("stability", "check_theorem_raggi", None, None),
    ("stability", "check_theorem_disco", None, None),
    ("stability", "check_theorem_stab_gen", None, None),
    ("stability", "check_theorem_lugua_hausdorff", None, None),
    ("stability", "check_theorem_ultimo", None, None),
    ("cli", "main", None, None),
)

# spans of this name also record process CPU time (all threads)
_CPU_SPANS = frozenset({"cli.main"})


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    thread: int
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children (same thread)
    work: object = None
    cpu_s: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Collects spans of the traced greenrecon calls while installed."""

    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    measure_errors: int = 0
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _undo: list = field(default_factory=list)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, measure):
        tracer = self
        with_cpu = name in _CPU_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            work = None
            if measure is not None:
                try:
                    work = measure(*args, **kwargs)
                except (TypeError, AttributeError, ValueError):
                    with tracer._lock:
                        tracer.measure_errors += 1
            span = Span(name, stack[-1] if stack else None,
                        threading.get_ident(), 0.0, work=work)
            cpu0 = time.process_time() if with_cpu else 0.0
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if with_cpu:
                    span.cpu_s = time.process_time() - cpu0
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                tracer.spans.append(span)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "greenrecon" or key.startswith("greenrecon."))]
        for module_name, qualname, span_name, measure in TARGETS:
            name = span_name or f"{module_name}.{qualname}"
            module = sys.modules.get(f"greenrecon.{module_name}")
            owner, _, attr = qualname.rpartition(".")
            holder = module
            for part in filter(None, owner.split(".")):
                holder = getattr(holder, part, None)
            # a class's own dict, so an inherited or type-level __call__ is
            # never mistaken for the traced method
            if holder is None:
                original = None
            elif owner:
                original = vars(holder).get(attr)
            else:
                original = getattr(holder, attr, None)
            if original is None or getattr(original, "__wrapped_by_perfbench__", False):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(name, original, measure)
            if owner:
                # a method: replacing it on the class covers every instance
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def by_name(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        """Write every span as one JSON line (parents by index)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index.get(id(s.parent)) if s.parent is not None else None
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": parent, "thread": s.thread,
                                     "self_s": s.self_s}) + "\n")


def _has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(tracer: Tracer, items: int) -> dict:
    """Per-layer metrics, per item, from the spans of ``items`` traced items.

    Counts come from call arguments and repeat exactly for the same inputs;
    times are self times (span duration minus direct children).
    """
    def spans(name):
        return tracer.by_name(name)

    def per_item(x):
        return x / items

    out = {}

    def calls(name):
        out[f"{name}.calls"] = (per_item(len(spans(name))), "count/item")

    def self_s(name):
        out[f"{name}.self_s"] = (per_item(sum(s.self_s for s in spans(name))), "s/item")

    def work(name, measure):
        out[f"{name}.{measure}"] = (per_item(sum(s.work or 0 for s in spans(name))),
                                    "count/item")

    synth = "_spectral.synthesis"
    inv = "_spectral.invert_increasing"
    calls(synth), self_s(synth), work(synth, "point_modes")
    calls(inv), self_s(inv)
    nested = sum(1 for s in spans(synth) if _has_ancestor(s, inv))
    out[f"{inv}.synth_per_call"] = (nested / max(1, len(spans(inv))), "count/call")
    self_s("_spectral.trig_sup_abs")

    fwd = "conformal.forward_operator"
    calls(fwd), self_s(fwd)
    keys = [s.work for s in spans(fwd) if s.work is not None]
    out[f"{fwd}.distinct_per_call"] = (len(set(keys)) / max(1, len(spans(fwd))),
                                       "ratio")
    calls("boundary.build_cumulative")
    calls("boundary.CumulativeMap.s_of"), self_s("boundary.CumulativeMap.s_of")

    calls("reconstruct.reconstruct_fprime"), self_s("reconstruct.reconstruct_fprime")
    self_s("reconstruct.exp_series")

    calls("norms.holder_seminorm"), self_s("norms.holder_seminorm")
    work("norms.holder_seminorm", "pairs")
    self_s("boundary.validate_class")

    work("geometry.hausdorff_distance", "pairs")
    for name in ("hausdorff_distance", "largest_inscribed_circle",
                 "smallest_enclosing_circle", "align_rotation", "boundary_of"):
        self_s(f"geometry.{name}")

    for name in ("raggi", "disco", "stab_gen", "lugua_hausdorff", "ultimo"):
        calls(f"stability.check_theorem_{name}")
        self_s(f"stability.check_theorem_{name}")

    self_s("cli.main")
    main_spans = spans("cli.main")
    wall = sum(s.duration for s in main_spans)
    cpu = sum(s.cpu_s or 0.0 for s in main_spans)
    out["cli.sweep.cpu_per_wall"] = (cpu / wall if wall > 0 else 0.0, "ratio")
    return out
