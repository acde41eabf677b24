"""Per-layer timing from outside the package.

The tracer wraps, for the length of one operation, the module-level names and
class attributes that the pipeline looks up at call time, and records one span
per call: name, start, end, parent span and operation id. Spans stay in memory
and are reduced to per-layer metrics (self time, counts) after the run.

The parent stack is thread-local; work submitted to the `run_windows` thread
pool inherits the submitting thread's current span as its parent.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from importlib import import_module
from time import perf_counter

# Every benchmark config uses the cascade's default threshold.
ALPHA = 0.2


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed = []  # (owner, attribute, original)
        self.op = None

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name, fn, args, kwargs, after=None):
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        attrs = None
        if after is not None:
            attrs = after(args, result)
            # the counting above is tracer work: give it its own span so it is
            # not charged to the parent layer
            self.spans.append((next(self._ids), "trace.bookkeeping", end,
                               perf_counter(), parent, self.op, None))
        self.spans.append((sid, name, start, end, parent, self.op, attrs))
        return result

    def run_under(self, parent, fn, *args, **kwargs):
        """Run fn in a pool thread with `parent` as its enclosing span."""
        stack = self._stack()
        saved = list(stack)
        stack[:] = [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def begin(self, op) -> None:
        """Open the root span of one operation (or of the set-up phase)."""
        self.op = op
        self._root = (next(self._ids), perf_counter())
        self._stack()[:] = [self._root[0]]

    def end(self) -> None:
        sid, start = self._root
        self.spans.append((sid, "op", start, perf_counter(), 0, self.op, None))
        self._stack()[:] = []
        self.op = None

    # -- wrapping ------------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target that exists; return the names that do not."""
        missing = []
        for module_name, owner_name, attr, name, after in TARGETS:
            module = import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__.get(attr) if owner_name else getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}")
                continue
            setattr(owner, attr, self._wrap(name, original, after))
            self._installed.append((owner, attr, original))
        windowing = import_module("braincascade.windowing")
        self._installed.append((windowing, "ThreadPoolExecutor", windowing.ThreadPoolExecutor))
        windowing.ThreadPoolExecutor = self._pool_class()
        return missing

    def restore(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn, after):
        tracer = self

        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            return tracer.call(span, fn, args, kwargs, after)

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(), fn,
                                      *args, **kwargs)

        return TracedPool


# -- after-hooks: counts recorded at the layer boundary ----------------------

def _resample_name(args) -> str:
    # `_resample_to` returns a plain copy when the grid already matches; that
    # is part of conforming, not an interpolation.
    vol, out_dims, target_spacing = args[0], args[1], args[2]
    same = tuple(out_dims) == vol.dims and tuple(target_spacing) == vol.spacing
    return "volume.conform" if same else "volume.resample"


def _resample_after(args, result):
    if _resample_name(args) == "volume.conform":
        return None
    return {"vox": int(result.data.size)}


def _read_after(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _write_after(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _run_windows_after(args, result):
    return {"windows": len(args[1].origins)}


def _predict_after(args, result):
    attrs = {"useful": bool((result.data >= ALPHA).any())}
    predictor = args[0]
    if type(predictor).__name__ == "ExternalPredictor":
        attrs["bytes"] = 24 + 8 * predictor.window ** 3
    return attrs


def _components_after(args, result):
    return {"components": len(result.sizes)}


def _extract_after(args, result):
    final = result.roi_trace[-1][1] if result.roi_trace else None
    return {
        "stages": max(len(result.roi_trace) - 1, 0),
        "roi_frac": final.volume / result.mask.data.size if final else 0.0,
    }


# (module, class or None, attribute, span name or name function, after-hook)
TARGETS = [
    ("braincascade.volume", "Volume", "__post_init__", "volume.validate", None),
    ("braincascade.volume", None, "_resample_to", _resample_name, _resample_after),
    ("braincascade.volume", None, "conform_cube", "volume.conform", None),
    ("braincascade.volume", None, "unconform_cube", "volume.conform", None),
    ("braincascade.volume", None, "minmax_normalize", "volume.conform", None),
    ("braincascade.io_nifti", None, "read_nifti", "io_nifti.read", _read_after),
    ("braincascade.io_nifti", None, "write_nifti", "io_nifti.write", _write_after),
    ("braincascade.cascade", None, "plan_windows", "windowing.plan", None),
    ("braincascade.cascade", None, "snap_plan_into", "windowing.plan", None),
    ("braincascade.cascade", None, "run_windows", "windowing.run", _run_windows_after),
    ("braincascade.predictor", "Predictor", "predict", "predictor.predict", _predict_after),
    ("braincascade.predictor", "OraclePredictor", "__init__", "predictor.setup", None),
    ("braincascade.predictor", "NoisyOraclePredictor", "__init__", "predictor.setup", None),
    ("braincascade.predictor", "ExternalPredictor", "__init__", "predictor.setup", None),
    ("braincascade.cascade", None, "threshold", "morphology.threshold", None),
    ("braincascade.cascade", None, "connected_components", "morphology.label", _components_after),
    ("braincascade.cascade", None, "largest_component", "morphology.largest", None),
    ("braincascade.cascade", None, "bounding_box", "morphology.bbox", None),
    ("braincascade.cascade", None, "majority_vote", "morphology.vote", None),
    ("braincascade.cascade", None, "bfs_localize", "cascade.bfs", None),
    ("braincascade.cascade", None, "dfs_refine", "cascade.dfs", None),
    ("braincascade.cascade", None, "reconstruct_full", "cascade.reconstruct", None),
    ("braincascade.cascade", None, "conform_input", "cascade.conform_input", None),
    ("braincascade.cascade", None, "extract_brain", "cascade.extract", _extract_after),
    ("braincascade.cascade", None, "config_from_dict", "cascade.config", None),
    ("braincascade.cascade", None, "default_noisy_config", "cascade.config", None),
    ("braincascade.synth", None, "make_phantom_label_map", "synth.phantom", None),
    ("braincascade.synth", None, "center_brain", "synth.augment", None),
    ("braincascade.synth", None, "_apply_transform", "synth.augment", None),
    ("braincascade.synth", None, "add_random_shapes", "synth.shapes", None),
    ("braincascade.synth", None, "_synthesize_raw", "synth.render", None),
    ("braincascade.synth", None, "make_training_pair", "synth.pair", None),
    ("braincascade.cli", None, "main", "cli.main", None),
]


# -- reduction ---------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered, cursor = 0.0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[sid] = (end - start) - covered
    return out


# per-layer metric -> (span names whose self time it sums)
SELF_TIME_METRICS = {
    "volume.validate_s": ("volume.validate",),
    "volume.resample_s": ("volume.resample",),
    "volume.conform_s": ("volume.conform",),
    "io_nifti.read_s": ("io_nifti.read",),
    "io_nifti.write_s": ("io_nifti.write",),
    "windowing.plan_s": ("windowing.plan",),
    "windowing.run_self_s": ("windowing.run",),
    "predictor.predict_s": ("predictor.predict",),
    "morphology.threshold_s": ("morphology.threshold",),
    "morphology.label_s": ("morphology.label",),
    "morphology.largest_s": ("morphology.largest",),
    "morphology.bbox_s": ("morphology.bbox",),
    "morphology.vote_s": ("morphology.vote",),
    "cascade.bfs_s": ("cascade.bfs",),
    "cascade.dfs_s": ("cascade.dfs",),
    "cascade.reconstruct_s": ("cascade.reconstruct",),
    "synth.phantom_s": ("synth.phantom",),
    "synth.augment_s": ("synth.augment",),
    "synth.shapes_s": ("synth.shapes",),
    "synth.render_s": ("synth.render",),
    "cli.self_s": ("cli.main",),
}


def op_metrics(spans, selfs, op) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    by_name = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(float)
    wall = 0.0
    for sid, name, start, end, parent, span_op, extra in spans:
        if span_op != op:
            continue
        if name == "op":
            wall = end - start
        by_name[name] += selfs[sid]
        calls[name] += 1
        for key, value in (extra or {}).items():
            attrs[f"{name}.{key}"] += value
    m = {metric: sum(by_name[n] for n in names)
         for metric, names in SELF_TIME_METRICS.items()}
    predicted = calls["predictor.predict"]
    m.update({
        "volume.validate_calls": calls["volume.validate"],
        "volume.resample_vox": attrs["volume.resample.vox"],
        "io_nifti.read_bytes": attrs["io_nifti.read.bytes"],
        "io_nifti.write_bytes": attrs["io_nifti.write.bytes"],
        "windowing.windows": attrs["windowing.run.windows"],
        "windowing.useful_frac": attrs["predictor.predict.useful"] / predicted if predicted else 0.0,
        "predictor.calls": predicted,
        "predictor.setup_s": by_name["predictor.setup"],
        "predictor.external_bytes": attrs["predictor.predict.bytes"],
        "morphology.components": attrs["morphology.label.components"],
        "cascade.stages_run": attrs["cascade.extract.stages"],
        "cascade.roi_frac": attrs["cascade.extract.roi_frac"],
        "trace.accounted_frac": (
            sum(t for n, t in by_name.items() if n not in ("op", "trace.bookkeeping")) / wall
            if wall else 0.0),
    })
    return m
