"""Command-line interface: extract, synth, eval, simulate, plan."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__, cascade, io_nifti, metrics, synth
from . import volume as vol_ops
from .cascade import STATUS_NO_BRAIN, single_pass_extract
from .predictor import NoiseSpec, PredictorError
from .synth import MODEL_PARAMS
from .volume import BoundingBox, Kind, Volume
from .windowing import coverage_counts, plan_windows

DEFAULT_CONFIG_ENV = "BRAINCASCADE_CONFIG"


def _manifest(command, config, seed, inputs, outputs) -> dict:
    """Reproducibility record written alongside command outputs."""
    return {"command": command, "config": config, "seed": seed,
            "inputs": [str(p) for p in inputs], "outputs": [str(p) for p in outputs],
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())}


def _fail(msg: str) -> int:
    # escaped, a newline in a path keeps the error to one line
    print("error: " + msg.replace("\n", "\\n"), file=sys.stderr)
    return 1


def _parse_json(text, where):
    """JSON from ``text``; a syntax or encoding error names ``where``."""
    try:
        return json.loads(text)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _load_json(path):
    with open(path, "rb") as f:
        return _parse_json(f.read(), path)


def _substream(master_seed: int, label: str, *extra) -> np.random.Generator:
    """Derive a labeled child generator from the master seed."""
    digest = int.from_bytes(label.encode(), "big") % (1 << 63)
    return np.random.default_rng(np.random.SeedSequence([master_seed, digest, *extra]))


# -- extract -----------------------------------------------------------------

def cmd_extract(args) -> int:
    config_path = args.config or os.environ.get(DEFAULT_CONFIG_ENV)
    if config_path is None:
        return _fail(f"no config given (use --config or set ${DEFAULT_CONFIG_ENV})")
    cfg_dict = cascade.check_config_keys(_load_json(config_path))
    trace_path = args.trace or (os.path.splitext(args.out)[0] + "_trace.json")
    for path in (args.out, trace_path):  # checked before the cascade, not after it
        if not os.path.isdir(os.path.dirname(path) or "."):
            return _fail(f"cannot write {path}: directory not found")

    vol = io_nifti.read_nifti(args.input)
    side, spacing = args.side, args.spacing

    gt = None
    gt_path = args.gt or cfg_dict.get("gt")
    if gt_path:
        gt = cascade.conform_input(
            io_nifti.read_nifti(gt_path, kind=Kind.MASK), side, spacing
        )
    config = cascade.config_from_dict(cfg_dict, gt=gt, master_seed=args.seed)
    try:
        result = cascade.extract_brain(vol, config, conform_side=side,
                                       target_spacing=spacing)
    finally:
        config.close()

    mask = vol_ops.unresample_cube(result.mask, vol.dims, vol.spacing)
    io_nifti.write_nifti(mask, args.out)

    trace = {
        "status": result.status,
        "roi_trace": [
            {"stage": name, "min": list(box.mins), "max": list(box.maxs)}
            for name, box in result.roi_trace
        ],
        "manifest": _manifest("extract", config_path, args.seed,
                              [args.input], [args.out]),
    }
    with open(trace_path, "w") as f:
        json.dump(trace, f, indent=2)

    if result.status == STATUS_NO_BRAIN:
        print("no brain found", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


# -- synth -------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.count < 1:
        return _fail(f"--count must be >= 1, got {args.count}")
    if args.model:
        params = MODEL_PARAMS[args.model]
    else:
        params = cascade.from_json(synth.SynthesisParams, _load_json(args.params), args.params)

    if args.labelmap:
        lm_vol = io_nifti.read_nifti(args.labelmap, kind=Kind.LABEL)
        lm = lambda i: lm_vol
    else:
        lm = lambda i: synth.make_phantom_label_map(
            _substream(args.seed, "phantom", i), (max(64, params.window),) * 3
        )

    os.makedirs(args.outdir, exist_ok=True)
    for i in range(args.count):
        rng = _substream(args.seed, "pair", i)
        pair = synth.make_training_pair(lm(i), params, rng)
        img_path = os.path.join(args.outdir, f"image_{i:04d}.nii")
        mask_path = os.path.join(args.outdir, f"mask_{i:04d}.nii")
        side_path = os.path.join(args.outdir, f"pair_{i:04d}.json")
        io_nifti.write_nifti(pair.image, img_path)
        io_nifti.write_nifti(pair.gt, mask_path)
        sidecar = dict(pair.metadata)
        sidecar["manifest"] = _manifest("synth", args.params, args.seed,
                                        [args.labelmap or "<phantom>"],
                                        [img_path, mask_path])
        with open(side_path, "w") as f:
            json.dump(sidecar, f, indent=2)
    print(f"wrote {args.count} pairs to {args.outdir}")
    return 0


# -- eval --------------------------------------------------------------------

def cmd_eval(args) -> int:
    pred = io_nifti.read_nifti(args.pred, kind=Kind.MASK)
    gt = io_nifti.read_nifti(args.gt, kind=Kind.MASK)
    # scored on the ground truth's grid; a prediction on another grid is read onto it
    report = metrics.overlap_report(vol_ops._resample_to(pred, gt.dims, gt.spacing), gt)
    case_id = os.path.basename(args.pred)
    if args.csv:
        with open(args.csv, "a") as f:
            if f.tell() == 0:  # a new or empty file
                f.write(metrics.OverlapReport.CSV_HEADER + "\n")
            f.write(report.csv_row(case_id) + "\n")
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return 0


# -- simulate ----------------------------------------------------------------

def cmd_simulate(args) -> int:
    if args.seeds < 1:
        return _fail(f"--seeds must be >= 1, got {args.seeds}")
    spec = args.noise_spec or "{}"
    if spec.lstrip().startswith(("{", "[")):  # inline JSON; anything else is a path
        spec_dict = _parse_json(spec, "--noise-spec")
    else:
        spec_dict = _load_json(spec)
    noise = cascade.from_json(NoiseSpec, spec_dict, "--noise-spec")

    rows = []
    for k in range(args.seeds):
        lm = synth.make_phantom_label_map(_substream(args.seed, "sim", k), (192,) * 3)
        gt = synth.brain_mask(lm)
        intensity = Volume(lm.data.astype(np.float32), lm.spacing, Kind.INTENSITY)
        master = args.seed * 10_000 + k
        config = cascade.default_noisy_config(gt, noise, master_seed=master)
        result = cascade.extract_brain(intensity, config)
        if not result.roi_trace:  # the breadth pass found nothing
            rows.append((k, 0.0, 0.0, float("nan")))
            continue
        cascade_dice = metrics.dice(result.mask, gt)

        single_stage = next(s for s in config.bfs_stages if s.name == "A")
        single = single_pass_extract(intensity, single_stage, config)
        single_dice = metrics.dice(single, gt)

        final_roi = result.roi_trace[-1][1]
        roi_pred = result.mask.data[final_roi.slices()]
        roi_gt = gt.data[final_roi.slices()]
        neg = roi_gt == 0
        fp_rate = float(roi_pred[neg].mean()) if neg.any() else float("nan")
        rows.append((k, cascade_dice, single_dice, fp_rate))

    header = "seed,cascade_dice,single_dice,cascade_fp_rate"
    lines = [header] + [
        f"{k},{cd:.6f},{sd:.6f},{fr:.6f}" for k, cd, sd, fr in rows
    ]
    mean_c = float(np.mean([r[1] for r in rows]))
    mean_s = float(np.mean([r[2] for r in rows]))
    mean_fp = float(np.nanmean([r[3] for r in rows]))
    wins = sum(1 for r in rows if r[1] > r[2])
    summary = (
        f"seeds={len(rows)} cascade_mean_dice={mean_c:.4f} "
        f"single_mean_dice={mean_s:.4f} cascade_wins={wins}/{len(rows)} "
        f"cascade_mean_fp_rate={mean_fp:.4f}"
    )
    if args.report:
        with open(args.report + ".csv", "w") as f:
            f.write("\n".join(lines) + "\n")
        with open(args.report + ".txt", "w") as f:
            f.write(summary + "\n")
    print("\n".join(lines))
    print(summary)
    return 0


# -- plan --------------------------------------------------------------------

def cmd_plan(args) -> int:
    dims = tuple(int(v) for v in args.dims.split(","))
    if len(dims) != 3 or any(d <= 0 for d in dims):
        return _fail(f"--dims must be three positive integers, got {args.dims}")
    plan = plan_windows(BoundingBox.full(dims), args.window, args.step)
    counts = coverage_counts(plan)
    print(f"windows: {len(plan.origins)}")
    for o in plan.origins:
        print(f"  {o[0]:5d} {o[1]:5d} {o[2]:5d}")
    print(f"coverage: min={counts.min()} max={counts.max()} "
          f"mean={counts.mean():.3f}")
    return 0


# -- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a usage error for `main` to print as one `error:` line, where
    argparse would print usage and exit 2, which means "no brain found"."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="braincascade",
        description="Multi-scale sliding-window fetal brain extraction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("extract", help="extract a brain mask from a NIfTI volume")
    p.add_argument("input", help="input .nii/.nii.gz")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output mask .nii")
    p.add_argument("--trace", help="ROI trace JSON path")
    p.add_argument("--gt", help="ground-truth mask for oracle backends")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--side", type=int, default=192)
    p.add_argument("--spacing", type=float, default=1.0)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synth", help="generate synthetic training pairs")
    p.add_argument("--labelmap", help="input label-map NIfTI (default: phantom)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", choices=list(MODEL_PARAMS),
                        help="use a predefined model row")
    source.add_argument("--params", help="synthesis params JSON")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score a predicted mask against ground truth")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--csv", help="append one CSV row to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate",
                       help="paired single-pass vs cascade noisy-oracle runs")
    p.add_argument("--noise-spec", help="NoiseSpec JSON inline (starting { or [) or a file path")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--report", help="output file prefix (.csv/.txt)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plan", help="show sliding-window origins and coverage")
    p.add_argument("--dims", required=True, help="e.g. 192,192,192")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--step", type=int, required=True)
    p.set_defaults(func=cmd_plan)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, MemoryError, io_nifti.NiftiError, PredictorError) as e:
        if isinstance(e, FileNotFoundError) and e.filename is not None:
            return _fail(f"file not found: {e.filename}")
        return _fail(str(e) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
