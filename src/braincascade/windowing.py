"""Sliding-window planning and deterministic probability-map accumulation."""

from __future__ import annotations

import itertools
# unused: bench/tracing.py patches this name; it goes with ROADMAP item 1
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .predictor import Predictor, PredictorError
from .volume import BoundingBox, Kind, Volume, overlap_slices, read_box


@dataclass(frozen=True)
class WindowPlan:
    """Origins of w-cube windows covering a region.

    Origins are sorted lexicographically with no duplicates; every window
    intersects the region and their union covers it entirely.
    """

    region: BoundingBox
    window: int
    origins: list[tuple[int, int, int]]


def _axis_origins(lo: int, hi: int, w: int, s: int) -> list[int]:
    if hi - lo < w:
        return [lo]
    out = list(range(lo, hi - w + 1, s))
    snapped = max(lo, hi - w)
    if out[-1] != snapped:
        out.append(snapped)
    return out


def plan_windows(region: BoundingBox, w: int, s: int) -> WindowPlan:
    """Enumerate window origins per axis and take their Cartesian product.

    Per axis the origins step by s from the region minimum; when the extent
    is not a multiple of the step, a final window snapped to the far edge is
    added so the region is fully covered. Regions smaller than the window get
    a single origin at the region minimum (window clipped at extraction).
    """
    if w < 1 or s < 1:
        raise ValueError("window and step must be >= 1")
    per_axis = [
        _axis_origins(lo, hi, w, s) for lo, hi in zip(region.mins, region.maxs)
    ]
    return WindowPlan(region, int(w), list(itertools.product(*per_axis)))


def snap_plan_into(plan: WindowPlan, dims) -> WindowPlan:
    """Clamp window origins into a volume that holds the plan's region.

    Only an axis where the region is narrower than the window can stick out,
    and it has one origin; the rest lie in ``[lo, hi - w]``. So the origins
    stay distinct and sorted, and the windows still cover the region.
    """
    region = plan.region
    if any(b > d for b, d in zip(region.maxs, dims)):
        raise ValueError(f"region {region.mins}-{region.maxs} outside dims {tuple(dims)}")
    last = [max(0, d - plan.window) for d in dims]
    origins = [tuple(min(v, m) for v, m in zip(o, last)) for o in plan.origins]
    return WindowPlan(region, plan.window, origins)


def coverage_counts(plan: WindowPlan) -> np.ndarray:
    """Number of windows covering each voxel of the region (int32)."""
    counts = np.zeros(plan.region.shape, dtype=np.int32)
    for overlap in _region_overlaps(plan):
        if overlap is not None:
            counts[overlap[0]] += 1
    return counts


def _region_overlaps(plan: WindowPlan):
    """Per origin, overlap_slices of its window with the plan's region."""
    shape = (plan.window,) * 3
    for o in plan.origins:
        mins = tuple(a - lo for a, lo in zip(o, plan.region.mins))
        yield overlap_slices(mins, shape, plan.region.shape)


def run_windows(vol: Volume, plan: WindowPlan, predictor: Predictor,
                mode: str = "sum") -> Volume:
    """Predict every window and accumulate into a region-sized map.

    mode="sum" adds overlapping predictions; mode="mean" divides each voxel
    by its coverage count. Each patch is a float32 ``read_box`` of the
    volume: read-only, and a view of ``vol.data`` where it can be. The
    out-of-region output portion is discarded. Windows run one at a time in
    ``plan.origins`` (lexicographic) order, each prediction added into the
    map as it returns, so the result is bit-identical run to run.
    A failed prediction is a PredictorError naming the window origin.
    """
    if mode not in ("sum", "mean"):
        raise ValueError(f"unknown accumulation mode {mode!r}")
    if predictor.window != plan.window:
        raise ValueError(
            f"predictor window {predictor.window} != plan window {plan.window}"
        )
    shape = (plan.window,) * 3
    acc = np.zeros(plan.region.shape, dtype=np.float32)
    for origin, overlap in zip(plan.origins, _region_overlaps(plan)):
        patch = Volume(read_box(vol.data, origin, shape, np.float32), vol.spacing, vol.kind)
        try:
            pred = predictor.predict(patch, origin)
        except Exception as e:
            raise PredictorError(f"prediction failed at window origin {origin}: {e}") from e
        if overlap is not None:
            acc[overlap[0]] += pred.data[overlap[1]]
        del patch, pred  # before the next window's patch and prediction exist

    if mode == "mean":
        counts = coverage_counts(plan)
        # acc is 0 wherever no window reaches
        np.divide(acc, counts, out=acc, where=counts > 0)
    return Volume(acc, vol.spacing, Kind.PROBABILITY)
