"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Inputs are generated by `make_inputs` in the parent process, before anything
is timed, and handed to the worker as files. The worker calls `setup` once
(timed as set-up), then for each operation `load` (untimed), `op` (timed) and
`check` (untimed). Operations only go through the package's public entry
points: `cascade.extract_brain`, `cascade.default_noisy_config` /
`config_from_dict`, and `cli.main`.

Why each workload exists:
- shrink: the only one where the region of interest really shrinks; the
  plain single-threaded baseline.
- dense: per-voxel noise keeps the ROI at the full cube; many small
  components; the only user of the run_windows thread pool.
- native: the only one that resamples and reads/writes NIfTI (CLI extract).
- external: the only one that prices the external-model pipe protocol; one
  cube-sized component.
- synth: the only one that reaches `synth`; the write-heavy use of io_nifti.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from braincascade import cascade, cli, io_nifti, metrics, synth
from braincascade import volume as vol_ops
from braincascade.predictor import NoiseSpec
from braincascade.volume import Kind, Volume

import model_server

BENCH_DIR = Path(__file__).resolve().parent
# full: the paper's 192^3 grid and synthesis model A; tiny: for smoke tests.
# small_side is the grid of the two full-cube workloads (dense, external):
# at 192^3 one of their operations takes 3-5 s, too few for a steady run.
# native_mm: one (in-plane, slice) spacing per input slot, jittered by
# jitter_frac, so every run has the same mix of thick-slice stacks.
SCALES = {
    "full": {"side": 192, "small_side": 128, "fov_mm": (165.0, 175.0),
             "native_mm": ((0.82, 3.0), (0.9, 2.5), (1.0, 2.0)), "jitter_frac": 0.03,
             "synth_model": "A"},
    "tiny": {"side": 48, "small_side": 48, "fov_mm": (64.0, 70.0),
             "native_mm": ((1.0, 2.0),) * 3, "jitter_frac": 0.0, "synth_model": "D"},
}

SHRINK_NOISE = NoiseSpec(fp_blob_rate=3.0, fn_hole_rate=2.0, fp_blob_radius=(2.0, 6.0))
DENSE_P = 0.1
DENSE_FP_EXPECTED = 3 * DENSE_P ** 2 * (1 - DENSE_P) + DENSE_P ** 3  # 0.028
DENSE_FP_TOLERANCE = 0.005
DICE_MIN = 0.99


@dataclass
class Check:
    ok: bool
    dice: float | None
    digest: str
    detail: str = ""


def _rng(seed: int, workload: str, j: int) -> np.random.Generator:
    tag = int.from_bytes(workload.encode(), "big") % (1 << 63)
    return np.random.default_rng(np.random.SeedSequence([seed, tag, j]))


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def _mask_digest(mask: Volume) -> str:
    return _digest(repr(mask.dims).encode(), np.ascontiguousarray(mask.data).tobytes())


def _phantom(rng, side):
    lm = synth.make_phantom_label_map(rng, (side,) * 3)
    img = vol_ops.minmax_normalize(Volume(lm.data.astype(np.float32), lm.spacing, Kind.INTENSITY))
    return lm, img.data, synth.brain_mask(lm).data


def _write_gz(vol: Volume, path: Path, datatype: str) -> None:
    raw = path.with_suffix("")  # strip .gz
    io_nifti.write_nifti(vol, raw, datatype=datatype)
    with open(raw, "rb") as src, gzip.open(path, "wb", compresslevel=1) as dst:
        shutil.copyfileobj(src, dst)
    raw.unlink()


class Workload:
    """make_inputs (parent), then setup once and load/op/check per operation."""

    name: str
    # distinct inputs per run, cycled; every one runs at least once
    inputs_per_run = 3
    # the SCALES key of the conformed grid's side
    grid = "side"
    # run the worker, and every process it starts, on one CPU
    one_cpu = False

    def setup(self, workdir, scale):
        return {"side": scale[self.grid]}

    def close(self, state):
        pass


# -- in-process extraction on phantoms ----------------------------------------

class Phantoms(Workload):
    """`extract_brain` on seeded phantoms with noisy-oracle stages."""

    # Work (shrink) and Dice (dense) depend on the phantom's brain size, so
    # six phantoms a run keep the per-run figures steady across seeds
    inputs_per_run = 6

    def make_inputs(self, seed, workdir: Path, scale) -> list[dict]:
        items = []
        for j in range(self.inputs_per_run):
            _, img, gt = _phantom(_rng(seed, self.name, j), scale[self.grid])
            np.save(workdir / f"img{j}.npy", img)
            np.save(workdir / f"gt{j}.npy", gt)
            items.append({"id": j, "img": f"img{j}.npy", "gt": f"gt{j}.npy",
                          "master_seed": int(seed) * 100 + j})
        return items

    def load(self, state, workdir, item):
        img = Volume(np.load(workdir / item["img"]), (1.0,) * 3, Kind.INTENSITY)
        gt = Volume(np.load(workdir / item["gt"]), (1.0,) * 3, Kind.MASK)
        return {"img": img, "gt": gt, "master_seed": item["master_seed"]}

    def op(self, state, x):
        config = cascade.default_noisy_config(x["gt"], self.noise, master_seed=x["master_seed"],
                                              threads=self.threads)
        return cascade.extract_brain(x["img"], config, conform_side=state["side"])


class Shrink(Phantoms):
    name = "shrink"
    noise = SHRINK_NOISE
    threads = 1

    def check(self, state, x, result):
        dice = metrics.dice(result.mask, x["gt"])
        ok = result.status == cascade.STATUS_OK and dice >= DICE_MIN
        return Check(ok, dice, _mask_digest(result.mask),
                     f"status {result.status}, dice {dice:.4f} (>= {DICE_MIN})")


class Dense(Phantoms):
    name = "dense"
    grid = "small_side"
    noise = NoiseSpec(per_voxel_fp=DENSE_P)
    threads = 2

    def check(self, state, x, result):
        dice = metrics.dice(result.mask, x["gt"])
        if result.status != cascade.STATUS_OK:
            return Check(False, dice, _mask_digest(result.mask), f"status {result.status}")
        roi = result.roi_trace[-1][1].slices()
        negative = x["gt"].data[roi] == 0
        fp = float(result.mask.data[roi][negative].mean())
        ok = abs(fp - DENSE_FP_EXPECTED) <= DENSE_FP_TOLERANCE
        return Check(ok, dice, _mask_digest(result.mask),
                     f"vote fp rate {fp:.4f} (expected {DENSE_FP_EXPECTED:.4f} "
                     f"+- {DENSE_FP_TOLERANCE})")


# -- external model servers ----------------------------------------------------

class External(Workload):
    """`extract_brain` with the default roster served by external processes."""

    name = "external"
    grid = "small_side"
    # The protocol is synchronous: the client waits for each answer, so it and
    # the servers never compute at once, and one CPU loses no parallelism. On
    # a 2-vCPU virtual machine every pipe hand-off across CPUs wakes an idle
    # vCPU, whose wake-up time swings with the load on the host; measured
    # there, it doubled the run-to-run spread of this workload's times.
    one_cpu = True

    def make_inputs(self, seed, workdir: Path, scale) -> list[dict]:
        side = scale[self.grid]
        items = []
        for j in range(self.inputs_per_run):
            rng = _rng(seed, self.name, j)
            lm, _, brain = _phantom(rng, side)
            coarse = rng.standard_normal((8, 8, 8)).astype(np.float32)
            field = ndimage.zoom(coarse, side / 8, order=1)[:side, :side, :side]
            # maternal tissue around the brain, with dark fluid pockets
            img = np.clip(0.45 + 0.08 * field, 0.3, 0.6).astype(np.float32)
            img[field < -1.0] = 0.1
            img[brain.astype(bool)] = 0.5 + 0.05 * lm.data[brain.astype(bool)]
            # pin the range to [0, 1] so conforming leaves intensities unchanged
            img[0, 0, 0], img[-1, -1, -1] = 0.0, 1.0
            np.save(workdir / f"img{j}.npy", img)
            items.append({"id": j, "img": f"img{j}.npy"})
        return items

    def setup(self, workdir, scale):
        command = [sys.executable, str(BENCH_DIR / "model_server.py")]
        config = cascade.config_from_dict(
            {"predictor": {"backend": "external", "command": command, "timeout": 60.0}})
        return {"side": scale[self.grid], "config": config}

    def load(self, state, workdir, item):
        return {"img": Volume(np.load(workdir / item["img"]), (1.0,) * 3, Kind.INTENSITY)}

    def op(self, state, x):
        return cascade.extract_brain(x["img"], state["config"], conform_side=state["side"])

    def check(self, state, x, result):
        digest = _mask_digest(result.mask)
        if result.status != cascade.STATUS_OK:
            return Check(False, None, digest, f"status {result.status}")
        # Every server answers (intensity >= TISSUE_LEVEL) voxel-wise, so each
        # refinement stage's mask is that map inside the stage's input ROI.
        # The ROIs are nested, so a majority of the three stages agrees
        # exactly inside the second stage's input ROI.
        implied = x["img"].data >= model_server.TISSUE_LEVEL
        expected = np.zeros(result.mask.dims, dtype=np.uint8)
        roi = result.roi_trace[1][1].slices()
        expected[roi] = implied[roi]
        expected = Volume(expected, result.mask.spacing, Kind.MASK)
        dice = metrics.dice(result.mask, expected)
        ok = bool(np.array_equal(result.mask.data, expected.data))
        return Check(ok, dice, digest, f"mask equals the servers' implied mask: {ok}")

    def close(self, state):
        config = state["config"]
        for stage in config.bfs_stages + config.dfs_stages:
            stage.predictor.close()


# -- CLI extract on native NIfTI scans -----------------------------------------

class Native(Workload):
    """`braincascade extract` on .nii.gz scans with anisotropic spacing."""

    name = "native"

    def make_inputs(self, seed, workdir: Path, scale) -> list[dict]:
        config = workdir / "oracle.json"
        config.write_text(json.dumps({"predictor": {"backend": "oracle"}}))
        items = []
        for j in range(self.inputs_per_run):
            rng = _rng(seed, self.name, j)
            jitter = 1.0 + rng.uniform(-1.0, 1.0, size=2) * scale["jitter_frac"]
            in_plane, thick = np.array(scale["native_mm"][j]) * jitter
            spacing = [float(in_plane)] * 3
            # slices along a different axis in each slot
            spacing[j % 3] = float(thick)
            fov = rng.uniform(*scale["fov_mm"], size=3)
            dims = tuple(int(round(f / s)) for f, s in zip(fov, spacing))
            lm = synth.make_phantom_label_map(rng, dims)
            image = Volume(lm.data.astype(np.float32) / 7.0, spacing, Kind.INTENSITY)
            _write_gz(image, workdir / f"scan{j}.nii.gz", "float32")
            gt = Volume(synth.brain_mask(lm).data, spacing, Kind.MASK)
            _write_gz(gt, workdir / f"gt{j}.nii.gz", "uint8")
            items.append({"id": j, "scan": f"scan{j}.nii.gz", "gt": f"gt{j}.nii.gz",
                          "config": config.name})
        return items

    def load(self, state, workdir, item):
        out = workdir / f"mask{item['id']}.nii"
        return {"argv": ["extract", str(workdir / item["scan"]),
                         "--config", str(workdir / item["config"]),
                         "--gt", str(workdir / item["gt"]),
                         "--out", str(out), "--side", str(state["side"])],
                "out": out, "gt": workdir / item["gt"]}

    def op(self, state, x):
        return cli.main(x["argv"])

    def check(self, state, x, code):
        if code != 0:
            return Check(False, None, "", f"exit code {code}")
        mask = io_nifti.read_nifti(x["out"], kind=Kind.MASK)
        gt = io_nifti.read_nifti(x["gt"], kind=Kind.MASK)
        dice = metrics.dice(mask, gt)
        digest = _digest(x["out"].read_bytes())
        return Check(dice >= DICE_MIN, dice, digest, f"dice {dice:.4f} (>= {DICE_MIN})")


# -- CLI synth -------------------------------------------------------------------

def _substream(master_seed: int, label: str, *extra) -> np.random.Generator:
    """The stream `braincascade synth` derives for a label and pair index."""
    digest = int.from_bytes(label.encode(), "big") % (1 << 63)
    return np.random.default_rng(np.random.SeedSequence([master_seed, digest, *extra]))


class Synth(Workload):
    """`braincascade synth --model A` pairs from the built-in phantom."""

    name = "synth"
    # a pair's cost depends on its seed (blur width, downsampling, shapes),
    # so eight pairs a run keep the per-run figures steady across seeds
    inputs_per_run = 8

    def make_inputs(self, seed, workdir: Path, scale) -> list[dict]:
        return [{"id": j, "seed": int(_rng(seed, self.name, j).integers(1 << 31))}
                for j in range(self.inputs_per_run)]

    def setup(self, workdir, scale):
        return {"model": scale["synth_model"], "workdir": workdir, "expected": {}}

    def load(self, state, workdir, item):
        outdir = workdir / f"pair{item['id']}"
        shutil.rmtree(outdir, ignore_errors=True)
        return {"argv": ["synth", "--model", state["model"], "--count", "1",
                         "--seed", str(item["seed"]), "--outdir", str(outdir)],
                "outdir": outdir, "seed": item["seed"], "id": item["id"]}

    def op(self, state, x):
        return cli.main(x["argv"])

    def _expected_mask(self, model, seed) -> np.ndarray:
        # make_training_pair's ground truth: the brain labels of the
        # augmented, centred phantom
        p = synth.MODEL_PARAMS[model]
        lm = synth.make_phantom_label_map(_substream(seed, "phantom", 0),
                                          (max(64, p.window),) * 3)
        centred = synth.center_brain(lm, p.window)
        augmented = synth.augment_spatial(centred, p, _substream(seed, "pair", 0))
        return synth.brain_mask(augmented).data

    def check(self, state, x, code):
        if code != 0:
            return Check(False, None, "", f"exit code {code}")
        image_path, mask_path = x["outdir"] / "image_0000.nii", x["outdir"] / "mask_0000.nii"
        digest = _digest(image_path.read_bytes(), mask_path.read_bytes())
        image = io_nifti.read_nifti(image_path).data
        mask = io_nifti.read_nifti(mask_path, kind=Kind.MASK)
        if x["id"] not in state["expected"]:
            state["expected"][x["id"]] = self._expected_mask(state["model"], x["seed"])
        expected = Volume(state["expected"][x["id"]], mask.spacing, Kind.MASK)
        dice = metrics.dice(mask, expected)
        image_ok = bool(np.isfinite(image).all() and image.min() >= 0 and image.max() <= 1)
        mask_ok = bool(mask.data.any() and np.array_equal(mask.data, expected.data))
        shutil.rmtree(x["outdir"])
        return Check(image_ok and mask_ok, dice, digest,
                     f"image finite in [0, 1]: {image_ok}; mask = brain labels: {mask_ok}")


WORKLOADS = {w.name: w for w in (Shrink(), Dense(), Native(), External(), Synth())}
