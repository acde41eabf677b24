"""Two-stage search pipeline: full-volume localization, then progressive
region refinement with majority-vote fusion.

Localization scans the whole conformed volume with a coarse and a fine
model, unions their supra-threshold probabilities, and fits a bounding box
to the largest connected component. Refinement then runs progressively
smaller-window sliding passes inside the shrinking region; each pass is
thresholded and re-boxed. The final mask is the voxel-wise majority vote of
the stage masks, taken inside the first refinement region (every stage mask
is zero outside it) and zero-padded to full size once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import volume as vol_ops
from .morphology import (
    bounding_box, connected_components, largest_component, majority_vote, threshold,
)
from .predictor import (
    ConstantPredictor, ExternalPredictor, NoiseSpec, NoisyOraclePredictor,
    OraclePredictor, Predictor,
)
from .synth import MODEL_PARAMS, MODEL_STEPS
from .volume import BoundingBox, Kind, Volume
from .windowing import plan_windows, run_windows, snap_plan_into

STATUS_OK = "ok"
STATUS_NO_BRAIN = "no_brain_found"


@dataclass(frozen=True)
class StageSpec:
    """One sliding-window pass: a predictor plus its window and step."""

    name: str
    predictor: Predictor
    window: int
    step: int

    def __post_init__(self):
        if not 1 <= self.step <= self.window:
            raise ValueError(f"stage {self.name}: need 1 <= step <= window")
        if self.predictor.window != self.window:
            raise ValueError(
                f"stage {self.name}: predictor window {self.predictor.window} "
                f"!= stage window {self.window}"
            )


@dataclass(frozen=True)
class CascadeConfig:
    bfs_stages: list[StageSpec]
    dfs_stages: list[StageSpec]
    alpha: float = 0.2
    bfs_threshold: float = 0.0  # strict > comparison
    accumulate_mode: str = "sum"
    bfs_combine: str = "union"  # or "intersection"
    connectivity: int = 26
    threads: int = 1

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")
        if not self.dfs_stages:
            raise ValueError("at least one refinement stage is required")
        windows = [s.window for s in self.dfs_stages]
        if windows != sorted(windows, reverse=True) or len(set(windows)) != len(windows):
            raise ValueError("refinement stages must have strictly decreasing windows")
        if self.bfs_combine not in ("union", "intersection"):
            raise ValueError("bfs_combine must be 'union' or 'intersection'")
        if self.accumulate_mode not in ("sum", "mean"):
            raise ValueError("accumulate_mode must be 'sum' or 'mean'")

    def close(self):
        """Release every stage's predictor (external model processes)."""
        for stage in self.bfs_stages + self.dfs_stages:
            stage.predictor.close()


@dataclass(frozen=True)
class ExtractionResult:
    mask: Volume
    roi_trace: list[tuple[str, BoundingBox]] = field(default_factory=list)
    status: str = STATUS_OK
    stage_masks: dict = field(default_factory=dict)  # stage name -> full-size mask


def reconstruct_full(s: Volume, r: BoundingBox, dims) -> Volume:
    """Zero-pad a region mask into a full-size volume at the region offset."""
    dims = tuple(int(d) for d in dims)
    if s.dims != r.shape:
        raise ValueError(f"mask dims {s.dims} != region shape {r.shape}")
    if any(a < 0 for a in r.mins) or any(b > d for b, d in zip(r.maxs, dims)):
        raise ValueError(f"region {r.mins}-{r.maxs} outside dims {dims}")
    return Volume(vol_ops.read_box(s.data, tuple(-a for a in r.mins), dims), s.spacing, s.kind)


def _run_stage(vol: Volume, region: BoundingBox, stage: StageSpec,
               mode: str, threads: int) -> Volume:
    """Accumulate one stage's windows over a region, snapped into the volume."""
    plan = snap_plan_into(plan_windows(region, stage.window, stage.step), vol.dims)
    return run_windows(vol, plan, stage.predictor, mode=mode, threads=threads)


def bfs_localize(vol: Volume, config: CascadeConfig):
    """Scan the full volume with every localization stage and box the result.

    Returns (box, status); the box is None when no voxel survives the
    threshold in the combined probability map.
    """
    full = BoundingBox.full(vol.dims)
    combined = None
    for stage in config.bfs_stages:
        p = _run_stage(vol, full, stage, config.accumulate_mode, config.threads)
        above = p.data > config.bfs_threshold
        if combined is None:
            combined = above
        elif config.bfs_combine == "union":
            combined |= above
        else:
            combined &= above
    mask = Volume(combined.astype(np.uint8), vol.spacing, Kind.MASK)
    comps = connected_components(mask, config.connectivity)
    if not comps.sizes:
        return None, STATUS_NO_BRAIN
    return bounding_box(largest_component(comps)), STATUS_OK


def dfs_refine(vol: Volume, region: BoundingBox, config: CascadeConfig) -> ExtractionResult:
    """Refine a region through the staged sliding-window passes and vote.

    Each stage thresholds its accumulated probability map and shrinks the
    region to the largest component's bounding box. A stage producing an
    empty mask stops the cascade; the vote runs over the stages completed
    so far.
    """
    roi_trace: list[tuple[str, BoundingBox]] = []
    stage_masks: dict[str, Volume] = {}
    full_masks: list[Volume] = []
    r = region
    for stage in config.dfs_stages:
        p = _run_stage(vol, r, stage, config.accumulate_mode, config.threads)
        s = threshold(p, config.alpha)
        comps = connected_components(s, config.connectivity)
        if not comps.sizes:
            break
        local_box = bounding_box(largest_component(comps))
        s_full = reconstruct_full(s, r, vol.dims)
        stage_masks[stage.name] = s_full
        full_masks.append(s_full)
        r = BoundingBox(
            tuple(a + b for a, b in zip(r.mins, local_box.mins)),
            tuple(a + b for a, b in zip(r.mins, local_box.maxs)),
        )
        roi_trace.append((stage.name, r))
    if not full_masks:
        empty = Volume(np.zeros(vol.dims, dtype=np.uint8), vol.spacing, Kind.MASK)
        return ExtractionResult(empty, roi_trace, STATUS_NO_BRAIN, stage_masks)
    # every stage mask is zero outside the first region: vote inside it only
    inside = [Volume(m.data[region.slices()], m.spacing, Kind.MASK) for m in full_masks]
    final = reconstruct_full(majority_vote(inside), region, vol.dims)
    return ExtractionResult(final, roi_trace, STATUS_OK, stage_masks)


def extract_brain(vol: Volume, config: CascadeConfig,
                  conform_side: int = 192, target_spacing: float = 1.0) -> ExtractionResult:
    """Full pipeline on an intensity volume: conform, localize, refine.

    The result lives on the conformed grid; callers needing the native grid
    undo the conforming themselves (the CLI does).
    """
    if vol.kind is not Kind.INTENSITY:
        raise ValueError("extract_brain expects an intensity volume")
    conformed = conform_input(vol, conform_side, target_spacing)
    box, status = bfs_localize(conformed, config)
    if status != STATUS_OK:
        empty = Volume(np.zeros(conformed.dims, dtype=np.uint8),
                       conformed.spacing, Kind.MASK)
        return ExtractionResult(empty, [], STATUS_NO_BRAIN, {})
    result = dfs_refine(conformed, box, config)
    return ExtractionResult(result.mask, [("bfs", box)] + result.roi_trace,
                            result.status, result.stage_masks)


def conform_input(vol: Volume, side: int = 192, spacing: float = 1.0) -> Volume:
    """Preprocess to the pipeline grid: isotropic resample, cube, normalize."""
    interp = "nearest" if vol.kind in (Kind.LABEL, Kind.MASK) else "linear"
    out = vol_ops.resample(vol, (spacing,) * 3, interp)
    out = vol_ops.conform_cube(out, side)
    if out.kind is Kind.INTENSITY:
        out = vol_ops.minmax_normalize(out)
    return out


def single_pass_extract(vol: Volume, stage: StageSpec, alpha: float = 0.2,
                        mode: str = "sum", threads: int = 1) -> Volume:
    """One sliding pass over the full volume, thresholded; the non-cascaded
    comparison arm."""
    return threshold(_run_stage(vol, BoundingBox.full(vol.dims), stage, mode, threads), alpha)


# -- configuration -----------------------------------------------------------

CONFIG_SCHEMA_VERSION = 1
# noisy-oracle model seed of each model letter: stages of one model share
# a noise stream, different models draw independent ones
MODEL_SEEDS = {"A": 1, "B": 2, "C": 3, "D": 4}
_NOISE_KEYS = tuple(f.name for f in fields(NoiseSpec))
_CONFIG_KEYS = ("alpha", "bfs_threshold", "accumulate_mode", "bfs_combine", "connectivity")
# accepted keys per level; "gt" is read by the CLI, not here
_TOP_KEYS = ("schema_version", "gt", "predictor", "bfs_stages", "dfs_stages") + _CONFIG_KEYS
_STAGE_KEYS = ("model", "name", "window", "step", "predictor")
_BACKEND_KEYS = {
    "oracle": (),
    "noisy_oracle": _NOISE_KEYS + ("model_seed",),
    "constant": ("value",),
    "external": ("command", "timeout"),
}


def _check_object(obj, keys, where: str) -> dict:
    """``obj`` itself if it is a JSON object holding only the given keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))} "
                         f"(accepted: {', '.join(keys)})")
    return obj


def _check_predictor(spec, where: str) -> dict:
    """``spec`` itself if it is a predictor object holding only the keys of
    its backend."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(spec).__name__}")
    backend = spec.get("backend", "constant")
    if not isinstance(backend, str) or backend not in _BACKEND_KEYS:
        raise ValueError(f"{where}: unknown backend {backend!r}, "
                         f"expected one of {' '.join(_BACKEND_KEYS)}")
    return _check_object(spec, ("backend",) + _BACKEND_KEYS[backend],
                         f"{where} ({backend} backend)")


def _build_predictor(spec: dict, window: int, name: str, model: str,
                     gt: Volume | None, master_seed: int) -> Predictor:
    """One stage's predictor from a checked spec; ``model`` is its model
    letter or, lacking one, its name, and picks the noisy oracle's default
    model seed."""
    backend = spec.get("backend", "constant")
    if backend == "oracle":
        if gt is None:
            raise ValueError(f"stage {name}: oracle backend needs ground truth")
        return OraclePredictor(gt, window, id=name)
    if backend == "noisy_oracle":
        if gt is None:
            raise ValueError(f"stage {name}: noisy_oracle backend needs ground truth")
        noise = NoiseSpec(**{k: spec[k] for k in _NOISE_KEYS if k in spec})
        return NoisyOraclePredictor(gt, window, noise,
                                    model_seed=spec.get("model_seed", MODEL_SEEDS.get(model, 0)),
                                    master_seed=master_seed, id=name)
    if backend == "constant":
        return ConstantPredictor(spec.get("value", 0.0), window, id=name)
    if "command" not in spec:
        raise ValueError(f"stage {name}: external backend needs a command")
    return ExternalPredictor(list(spec["command"]), window,
                             timeout=spec.get("timeout", 30.0), id=name)


def config_from_dict(d: dict, gt: Volume | None = None,
                     master_seed: int = 0, threads: int = 1) -> CascadeConfig:
    """Build a runnable configuration from the JSON config schema.

    Stages default to the paper's roster: localization A+D, refinement B,C,D.
    A key the schema does not know, or a list or object given as another
    type, is a ValueError naming where it sits.
    """
    _check_object(d, _TOP_KEYS, "config top level")
    version = d.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema version {version}")
    default_spec = _check_predictor(d.get("predictor", {"backend": "constant"}), "predictor")
    built: list[Predictor] = []  # closed again if a later stage fails

    def stages(key, default_models):
        specs = d.get(key)
        if specs is None:
            specs = [{"model": m} for m in default_models]
        elif not isinstance(specs, list):
            raise ValueError(f"{key} must be a list, got {type(specs).__name__}")
        out = []
        for i, s in enumerate(specs):
            where = f"{key}[{i}]"
            _check_object(s, _STAGE_KEYS, where)
            spec = (_check_predictor(s["predictor"], f"{where}.predictor")
                    if "predictor" in s else default_spec)
            model = s.get("model")
            if model is not None and model not in MODEL_PARAMS:
                raise ValueError(f"{where}: unknown model {model!r}, "
                                 f"expected one of {' '.join(MODEL_PARAMS)}")
            window = s.get("window", MODEL_PARAMS[model].window if model else None)
            step = s.get("step", MODEL_STEPS[model] if model else None)
            if window is None or step is None:
                raise ValueError(f"{where} needs a model letter or window+step")
            name = s.get("name", model or f"w{window}")
            pred = _build_predictor(spec, window, name, model or name, gt, master_seed)
            built.append(pred)
            out.append(StageSpec(name, pred, window, step))
        return out

    try:
        return CascadeConfig(
            bfs_stages=stages("bfs_stages", ["A", "D"]),
            dfs_stages=stages("dfs_stages", ["B", "C", "D"]),
            threads=threads,
            **{k: d[k] for k in _CONFIG_KEYS if k in d},
        )
    except BaseException:
        for pred in built:
            pred.close()
        raise


def default_oracle_config(gt: Volume, threads: int = 1, **overrides) -> CascadeConfig:
    """Default roster with perfect oracles for the given ground truth;
    overrides are top-level config keys."""
    return config_from_dict({"predictor": {"backend": "oracle"}, **overrides},
                            gt=gt, threads=threads)


def default_noisy_config(gt: Volume, noise: NoiseSpec, master_seed: int = 0,
                         threads: int = 1, **overrides) -> CascadeConfig:
    """Default roster with noisy oracles seeded per model letter (MODEL_SEEDS);
    overrides are top-level config keys."""
    return config_from_dict({"predictor": {"backend": "noisy_oracle", **asdict(noise)},
                             **overrides},
                            gt=gt, master_seed=master_seed, threads=threads)
