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

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from numbers import Integral, Real

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
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class StageSpec:
    """One sliding-window pass: a predictor and a step; the window is the
    predictor's."""

    name: str
    predictor: Predictor
    step: int

    @property
    def window(self) -> int:
        return self.predictor.window

    def __post_init__(self):
        if not 1 <= self.step <= self.window:
            raise ValueError(f"stage {self.name}: need 1 <= step <= window")


@dataclass(frozen=True)
class CascadeConfig:
    bfs_stages: list[StageSpec]
    dfs_stages: list[StageSpec]
    alpha: float = 0.2
    bfs_threshold: float = 0.0  # strict > comparison
    accumulate_mode: str = "sum"
    bfs_combine: str = "union"  # or "intersection"
    connectivity: int = 26

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")
        # the float32 map is compared with the threshold cast to float32
        if not abs(self.bfs_threshold) <= _F32_MAX:  # NaN fails too
            raise ValueError(f"bfs_threshold must be finite and within float32's range "
                             f"(|x| <= {_F32_MAX!r}), got {self.bfs_threshold!r}")
        if self.connectivity not in (6, 26):
            raise ValueError(f"connectivity must be 6 or 26, got {self.connectivity!r}")
        if not self.bfs_stages:
            raise ValueError("at least one localization stage is required")
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
        """Release each predictor (external model processes) once, however
        many stages share it."""
        for predictor in dict.fromkeys(s.predictor for s in self.bfs_stages + self.dfs_stages):
            predictor.close()


@dataclass(frozen=True)
class ExtractionResult:
    mask: Volume
    roi_trace: list[tuple[str, BoundingBox]] = field(default_factory=list)
    status: str = STATUS_OK
    stage_masks: dict = field(default_factory=dict)  # name -> mask on the first dfs region


def reconstruct_full(s: Volume, r: BoundingBox, dims) -> Volume:
    """Zero-pad a region mask into a full-size volume at the region offset."""
    dims = tuple(int(d) for d in dims)
    if s.dims != r.shape:
        raise ValueError(f"mask dims {s.dims} != region shape {r.shape}")
    if any(a < 0 for a in r.mins) or any(b > d for b, d in zip(r.maxs, dims)):
        raise ValueError(f"region {r.mins}-{r.maxs} outside dims {dims}")
    return Volume(vol_ops.read_box(s.data, tuple(-a for a in r.mins), dims), s.spacing, s.kind)


def _run_stage(vol: Volume, region: BoundingBox, stage: StageSpec, config: CascadeConfig) -> Volume:
    """Accumulate one stage's windows over a region, snapped into the volume."""
    plan = snap_plan_into(plan_windows(region, stage.window, stage.step), vol.dims)
    return run_windows(vol, plan, stage.predictor, mode=config.accumulate_mode)


def _largest_box(mask: Volume, connectivity: int) -> BoundingBox | None:
    """Box of the mask's largest connected component; None if it has none."""
    comps = connected_components(mask, connectivity)
    return bounding_box(largest_component(comps)) if comps.sizes else None


def bfs_localize(vol: Volume, config: CascadeConfig) -> BoundingBox | None:
    """Scan the full volume with every localization stage and box the result.

    The box is None when no voxel survives the threshold in the combined
    probability map.
    """
    full = BoundingBox.full(vol.dims)
    combine = np.logical_or if config.bfs_combine == "union" else np.logical_and
    combined = None
    for stage in config.bfs_stages:
        # a stage's map is dropped once thresholded, its mask once combined
        above = _run_stage(vol, full, stage, config).data > config.bfs_threshold
        combined = above if combined is None else combine(combined, above, out=combined)
        del above
    return _largest_box(Volume(combined.view(np.uint8), vol.spacing, Kind.MASK),
                        config.connectivity)


def dfs_refine(vol: Volume, region: BoundingBox, config: CascadeConfig) -> ExtractionResult:
    """Refine a region through the staged sliding-window passes and vote.

    Each stage thresholds its accumulated probability map and shrinks the
    region to the largest component's bounding box. A stage producing an
    empty mask stops the cascade; the vote runs over the stages completed
    so far.
    """
    roi_trace: list[tuple[str, BoundingBox]] = []
    masks: list[Volume] = []  # in the first region's frame
    r = region
    for stage in config.dfs_stages:
        # the map is dropped once thresholded, and no stage's map or mask
        # outlives its stage except as its entry in ``masks``
        s = threshold(_run_stage(vol, r, stage, config), config.alpha)
        local_box = _largest_box(s, config.connectivity)
        if local_box is None:
            break
        # r lies inside the first region: place the mask in that region's frame
        in_region = tuple(a - b for a, b in zip(region.mins, r.mins))
        masks.append(Volume(vol_ops.read_box(s.data, in_region, region.shape),
                            s.spacing, Kind.MASK))
        del s
        r = BoundingBox(
            tuple(a + b for a, b in zip(r.mins, local_box.mins)),
            tuple(a + b for a, b in zip(r.mins, local_box.maxs)),
        )
        roi_trace.append((stage.name, r))
    stage_masks = dict(zip([st.name for st in config.dfs_stages], masks))
    if not masks:
        empty = Volume(np.zeros(vol.dims, dtype=np.uint8), vol.spacing, Kind.MASK)
        return ExtractionResult(empty, roi_trace, STATUS_NO_BRAIN, stage_masks)
    # the stage masks live in the first region's frame: vote there, pad once
    final = reconstruct_full(majority_vote(masks), region, vol.dims)
    return ExtractionResult(final, roi_trace, STATUS_OK, stage_masks)


def extract_brain(vol: Volume, config: CascadeConfig,
                  conform_side: int = 192, target_spacing: float = 1.0) -> ExtractionResult:
    """Full pipeline on an intensity volume: conform, localize, refine.

    The result lives on the conformed grid; restore_native maps it back
    onto the input's grid.
    """
    if vol.kind is not Kind.INTENSITY:
        raise ValueError("extract_brain expects an intensity volume")
    conformed = conform_input(vol, conform_side, target_spacing)
    box = bfs_localize(conformed, config)
    if box is None:
        empty = Volume(np.zeros(conformed.dims, np.uint8), conformed.spacing, Kind.MASK)
        return ExtractionResult(empty, status=STATUS_NO_BRAIN)
    result = dfs_refine(conformed, box, config)
    return replace(result, roi_trace=[("bfs", box)] + result.roi_trace)


def conform_input(vol: Volume, side: int = 192, spacing: float = 1.0) -> Volume:
    """Preprocess to the pipeline grid: isotropic resample, cube, normalize.

    Only the resampled voxels the cube keeps are computed, so memory stays
    within the input and the cube (volume.resample_cube).
    """
    out = vol_ops.resample_cube(vol, spacing, side)
    if out.kind is Kind.INTENSITY:
        out = vol_ops.minmax_normalize(out)
    return out


def restore_native(mask: Volume, native_dims, native_spacing) -> Volume:
    """Invert conform_input for a conformed mask: undo the cube crop and
    padding and resample (nearest) onto the native grid it came from, as one
    gather per axis that never builds the resampled grid."""
    return vol_ops.unresample_cube(mask, native_dims, native_spacing)


def single_pass_extract(vol: Volume, stage: StageSpec, config: CascadeConfig) -> Volume:
    """One sliding pass over the full volume, accumulated and thresholded as
    ``config`` does it; the non-cascaded comparison arm."""
    return threshold(_run_stage(vol, BoundingBox.full(vol.dims), stage, config), config.alpha)


# -- configuration -----------------------------------------------------------

CONFIG_SCHEMA_VERSION = 1
# noisy-oracle model seed of each model letter: the stages of one model share
# its predictor, so its noise stream; different models draw independent ones
MODEL_SEEDS = {"A": 1, "B": 2, "C": 3, "D": 4}


def _is_number(v, kind=Real) -> bool:
    # JSON true/false arrive as bool, which Python counts as an integer
    return isinstance(v, kind) and not isinstance(v, bool)


# type, as annotated -> (test of a value, its name in errors)
_TYPES = {
    "int": (lambda v: _is_number(v, Integral), "an integer"),
    "float": (_is_number, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, float]": (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                            and all(map(_is_number, v)), "a list of two numbers"),
}
# accepted keys per level, each with its type; only _TYPES are checked here,
# lists and objects where they are read; "gt" is read by the CLI, not here
_NOISE_KEYS = {f.name: f.type for f in fields(NoiseSpec)}
_CONFIG_KEYS = {f.name: f.type for f in fields(CascadeConfig) if not f.name.endswith("_stages")}
_TOP_KEYS = {"schema_version": "int", "gt": "str", "predictor": "object",
             "bfs_stages": "list", "dfs_stages": "list", **_CONFIG_KEYS}
_STAGE_KEYS = {"model": "str", "name": "str", "window": "int", "step": "int", "predictor": "object"}
_BACKEND_KEYS = {
    "oracle": {},
    "noisy_oracle": {**_NOISE_KEYS, "model_seed": "int"},
    "constant": {"value": "float"},
    "external": {"command": "list", "timeout": "float"},
}


def _check_object(obj, keys: dict, where: str, required=()) -> dict:
    """``obj`` itself if it is a JSON object holding the ``required`` keys and
    no key outside ``keys``, each value of the type ``keys`` gives it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))} "
                         f"(accepted: {', '.join(keys)})")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError(f"{where}: missing key {', '.join(map(repr, missing))}")
    for k, v in obj.items():
        if keys[k] in _TYPES:
            accepted, name = _TYPES[keys[k]]
            if not accepted(v):
                raise ValueError(f"{where}: {k!r} must be {name}, got {type(v).__name__} {v!r}")
    return obj


def from_json(cls, obj, where: str):
    """A ``cls`` dataclass from a JSON object keyed by its fields, each value
    checked against the field's annotated type."""
    keys = {f.name: f.type for f in fields(cls)}
    required = [f.name for f in fields(cls) if f.default is MISSING]
    return cls(**_check_object(obj, keys, where, required))


def _check_predictor(spec, where: str) -> dict:
    """``spec`` itself if it is a predictor object holding only the keys of
    its backend."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(spec).__name__}")
    backend = spec.get("backend", "constant")
    if not isinstance(backend, str) or backend not in _BACKEND_KEYS:
        raise ValueError(f"{where}: unknown backend {backend!r}, "
                         f"expected one of {' '.join(_BACKEND_KEYS)}")
    return _check_object(spec, {"backend": "str", **_BACKEND_KEYS[backend]},
                         f"{where} ({backend} backend)")


def _build_predictor(spec: dict, window: int, name: str, model: str,
                     gt: Volume | None, master_seed: int) -> Predictor:
    """One model's predictor from a checked spec; ``model`` is its model
    letter or, lacking one, its name, and picks the noisy oracle's default
    model seed."""
    backend = spec.get("backend", "constant")
    if backend in ("oracle", "noisy_oracle") and gt is None:
        raise ValueError(f"stage {name}: {backend} backend needs ground truth")
    if backend == "oracle":
        return OraclePredictor(gt, window, id=name)
    if backend == "noisy_oracle":
        noise = NoiseSpec(**{k: spec[k] for k in _NOISE_KEYS if k in spec})
        return NoisyOraclePredictor(gt, window, noise,
                                    model_seed=spec.get("model_seed", MODEL_SEEDS.get(model, 0)),
                                    master_seed=master_seed, id=name)
    if backend == "constant":
        return ConstantPredictor(spec.get("value", 0.0), window, id=name)
    command = spec.get("command")
    if not isinstance(command, list) or not all(isinstance(c, str) for c in command):
        raise ValueError(f"stage {name}: external backend needs a command, "
                         f"a list of strings; got {command!r}")
    return ExternalPredictor(command, window, timeout=spec.get("timeout", 30.0), id=name)


def check_config_keys(d) -> dict:
    """``d`` itself if its top-level keys and scalar types fit the schema."""
    return _check_object(d, _TOP_KEYS, "config top level")


def config_from_dict(d: dict, gt: Volume | None = None, master_seed: int = 0) -> CascadeConfig:
    """Build a runnable configuration from the JSON config schema.

    Stages default to the paper's roster: localization A+D, refinement B,C,D.
    Stages with the same predictor spec, window, name and model letter share
    one predictor, so the default roster's two D stages run one model.
    A key the schema does not know, or a value of another type than the key
    takes, is a ValueError naming the key and where it sits.
    """
    check_config_keys(d)
    version = d.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema version {version}")
    default_spec = _check_predictor(d.get("predictor", {"backend": "constant"}), "predictor")
    # (spec, window, name, model) -> its predictor; closed again if a later stage fails
    built: dict[tuple, Predictor] = {}

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
            key = (json.dumps(spec, sort_keys=True), window, name, model or name)
            if key not in built:
                built[key] = _build_predictor(spec, window, name, model or name, gt, master_seed)
            out.append(StageSpec(name, built[key], step))
        return out

    try:
        return CascadeConfig(
            bfs_stages=stages("bfs_stages", ["A", "D"]),
            dfs_stages=stages("dfs_stages", ["B", "C", "D"]),
            **{k: d[k] for k in _CONFIG_KEYS if k in d},
        )
    except BaseException:
        for pred in built.values():
            pred.close()
        raise


def default_noisy_config(gt: Volume, noise: NoiseSpec, master_seed: int = 0,
                         threads: int = 1, **overrides) -> CascadeConfig:
    """Default roster with noisy oracles seeded per model letter (MODEL_SEEDS);
    overrides are top-level config keys. ``threads`` has no effect; it stays
    because callers pass it (bench/workloads.py's dense workload passes 2)."""
    return config_from_dict({"predictor": {"backend": "noisy_oracle", **asdict(noise)},
                             **overrides},
                            gt=gt, master_seed=master_seed)
