"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import struct
import time

import numpy as np
from scipy import ndimage

from braincascade import cascade, io_nifti, metrics, synth
from braincascade import volume as vol_ops
from braincascade.cli import main
from braincascade.morphology import connected_components, majority_vote
from braincascade.predictor import NoiseSpec
from braincascade.synth import MODEL_PARAMS, MODEL_STEPS
from braincascade.volume import BoundingBox, Kind, Volume
from braincascade.windowing import coverage_counts, plan_windows

from conftest import mask, random_mask
from test_morphology import brute_force_components, brute_force_majority
from test_windowing import enumerate_axis_origins


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def phantom_case(seed, dims=(192, 192, 192)):
    lm = synth.make_phantom_label_map(np.random.default_rng(seed), dims)
    gt = synth.brain_mask(lm)
    img = vol_ops.minmax_normalize(
        Volume(lm.data.astype(np.float32), lm.spacing, Kind.INTENSITY)
    )
    return img, gt


def test_criterion_1_oracle_end_to_end():
    dices, times = [], []
    for seed in range(20):
        img, gt = phantom_case(1000 + seed)
        config = cascade.config_from_dict({"predictor": {"backend": "oracle"}}, gt=gt)
        t0 = time.monotonic()
        result = cascade.extract_brain(img, config)
        times.append(time.monotonic() - t0)
        dices.append(metrics.dice(result.mask, gt))
    ok = min(dices) >= 0.99 and max(times) <= 30.0
    report(1, ok,
           f"oracle end-to-end: min dice {min(dices):.4f} (>= 0.99), "
           f"max runtime {max(times):.1f}s (<= 30s) over 20 phantoms")


def test_criterion_2_false_positive_suppression():
    p = 0.1
    expected = 3 * p ** 2 * (1 - p) + p ** 3  # 0.028
    noise = NoiseSpec(per_voxel_fp=p)
    fp_rates, wins = [], 0
    for seed in range(20):
        img, gt = phantom_case(2000 + seed)
        config = cascade.default_noisy_config(gt, noise, master_seed=seed)
        box = cascade.bfs_localize(img, config)
        assert box is not None
        result = cascade.dfs_refine(img, box, config)
        roi = result.roi_trace[-1][1]
        pred = result.mask.data[roi.slices()]
        neg = gt.data[roi.slices()] == 0
        fp_rates.append(float(pred[neg].mean()))
        single = cascade.single_pass_extract(img, config.bfs_stages[0], config)
        if metrics.dice(result.mask, gt) > metrics.dice(single, gt):
            wins += 1
    mean_fp = float(np.mean(fp_rates))
    ok = abs(mean_fp - expected) <= 0.005 and wins >= 18
    report(2, ok,
           f"fp suppression: vote fp rate {mean_fp:.4f} "
           f"(target {expected:.4f} +/- 0.005), cascade wins {wins}/20 (>= 18)")


def test_criterion_3_window_plan_coverage():
    rng = np.random.default_rng(77)
    checked_3d = 0
    for case in range(1000):
        extent = int(rng.integers(32, 257))
        w = int(rng.integers(8, extent + 1))
        s = int(rng.integers(1, w + 1))
        plan = plan_windows(BoundingBox((0, 0, 0), (extent,) * 3), w, s)
        axis = sorted({o[0] for o in plan.origins})
        assert axis == enumerate_axis_origins(0, extent, w, s)
        cov = np.zeros(extent, dtype=int)
        for o in axis:
            cov[o : o + w] += 1
        assert cov.min() >= 1, (extent, w, s)
        assert axis[-1] + w >= extent, (extent, w, s)
        if extent <= 64 and checked_3d < 50:
            assert coverage_counts(plan).min() >= 1
            checked_3d += 1
    report(3, True,
           f"1000 randomized plans fully cover their region; "
           f"{checked_3d} verified with full 3D coverage maps")


def test_criterion_4_determinism(tmp_path):
    checks = []

    def extract_bytes(config_builder, dims, threads):
        img, gt = phantom_case(4000, dims)
        result = cascade.extract_brain(img, config_builder(gt, threads),
                                       conform_side=dims[0])
        return result.mask.data.tobytes()

    extract_configs = [
        ("oracle-default", (192,) * 3,
         lambda gt, t: cascade.config_from_dict({"predictor": {"backend": "oracle"}}, gt=gt)),
        ("noisy-flips", (96,) * 3,
         lambda gt, t: cascade.default_noisy_config(
             gt, NoiseSpec(per_voxel_fp=0.05), master_seed=1, threads=t)),
        ("noisy-blobs-mean", (96,) * 3,
         lambda gt, t: cascade.default_noisy_config(
             gt, NoiseSpec(fp_blob_rate=1.0, fn_hole_rate=0.5),
             master_seed=2, threads=t, accumulate_mode="mean", alpha=0.1)),
    ]
    for name, dims, builder in extract_configs:
        one_a = extract_bytes(builder, dims, 1)
        one_b = extract_bytes(builder, dims, 1)
        eight = extract_bytes(builder, dims, 8)
        checks.append((name, one_a == one_b == eight))

    for model in ("C", "D"):
        outs = []
        for run in range(2):
            outdir = tmp_path / f"synth_{model}_{run}"
            assert main(["synth", "--model", model, "--count", "2",
                         "--seed", "42", "--outdir", str(outdir)]) == 0
            outs.append(b"".join(
                (outdir / f"{stem}_{i:04d}.nii").read_bytes()
                for stem in ("image", "mask") for i in range(2)
            ))
        checks.append((f"synth-{model}", outs[0] == outs[1]))

    ok = all(c[1] for c in checks)
    report(4, ok, "bit-identical across runs and 1 vs 8 threads: "
           + ", ".join(f"{n}={'ok' if v else 'MISMATCH'}" for n, v in checks))


def test_criterion_5_model_table_fidelity():
    published = {
        "A": (128, 24, 48, 180, 0.6, 0.6, 0.40),
        "B": (96, 24, 32, 180, 0.4, 0.4, 0.20),
        "C": (64, 24, 12, 180, 0.4, 0.2, 0.15),
        "D": (32, 8, 6, 180, 0.3, 0.1, 0.15),
    }
    steps = {"A": 64, "B": 32, "C": 32, "D": 32}
    mismatches = []
    for model, row in published.items():
        p = MODEL_PARAMS[model]
        actual = (p.window, p.n_shapes, p.shift_max, p.rot_max,
                  p.scale_max, p.blur_sd_max, p.noise_sd_max)
        for col, (a, b) in enumerate(zip(actual, row)):
            if a != b:
                mismatches.append(f"{model}[{col}]={a}!={b}")
        if MODEL_STEPS[model] != steps[model]:
            mismatches.append(f"step[{model}]")
    report(5, not mismatches,
           f"28 model-table values + 4 step sizes match"
           + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_6_morphology_oracle_equivalence():
    rng = np.random.default_rng(6)
    for case in range(200):
        dims = tuple(rng.integers(2, 17, size=3))
        data = (rng.random(dims) < rng.uniform(0.2, 0.6)).astype(np.uint8)
        for conn in (6, 26):
            got = connected_components(mask(data), conn)
            ref_labels, ref_sizes = brute_force_components(data, conn)
            assert np.array_equal(got.labels.data, ref_labels), (case, conn)
            assert got.sizes == ref_sizes, (case, conn)
        n = int(rng.integers(1, 6))
        arrays = [(rng.random(dims) < 0.5).astype(np.uint8) for _ in range(n)]
        got_vote = majority_vote([mask(a) for a in arrays])
        assert np.array_equal(got_vote.data, brute_force_majority(arrays)), case
    report(6, True, "connected components and majority vote match brute force "
           "on 200 random masks, both connectivities")


def test_criterion_7_metric_identities():
    rng = np.random.default_rng(7)
    for case in range(1000):
        dims = tuple(rng.integers(1, 7, size=3))
        a = random_mask(rng, dims, rng.uniform(0.2, 0.8))
        b = random_mask(rng, dims, rng.uniform(0.2, 0.8))
        assert metrics.dice(a, b) == metrics.dice(b, a)
        equal = np.array_equal(a.data, b.data)
        assert (metrics.dice(a, b) == 1.0) == equal
    report(7, True, "dice symmetry and dice=1 iff equality hold on 1000 random cases")


def test_criterion_8_nifti_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    cases = [
        ("uint8", Kind.LABEL, lambda d: rng.integers(0, 256, d).astype(np.uint8)),
        ("int16", Kind.LABEL, lambda d: rng.integers(0, 3000, d).astype(np.int16)),
        ("float32", Kind.INTENSITY, lambda d: rng.random(d).astype(np.float32)),
    ]
    for i, (datatype, kind, maker) in enumerate(cases):
        dims = tuple(rng.integers(3, 20, size=3))
        vol = Volume(maker(dims), (0.5, 1.0, 2.5), kind)
        path = tmp_path / f"rt_{i}.nii"
        io_nifti.write_nifti(vol, path, datatype)
        back = io_nifti.read_nifti(path, kind=kind)
        assert np.array_equal(back.data, vol.data)
        assert back.spacing == vol.spacing

    # hand-built fixture parsed exactly
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, 3, 2, 2, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, 16)
    struct.pack_into("<8f", hdr, 76, 1, 2.0, 1.5, 3.0, 1, 1, 1, 1)
    struct.pack_into("<f", hdr, 108, 352.0)
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)
    hdr[344:348] = b"n+1\x00"
    values = np.arange(12, dtype="<f4")
    fx = tmp_path / "fixture.nii"
    fx.write_bytes(bytes(hdr) + b"\x00" * 4 + values.tobytes())
    vol = io_nifti.read_nifti(fx)
    assert vol.dims == (3, 2, 2) and vol.spacing == (2.0, 1.5, 3.0)
    assert vol.data[2, 1, 1] == 11  # file order: first dim fastest
    report(8, True, "write-read identity for uint8/int16/float32 and exact "
           "fixture-header parsing")


def test_criterion_9_preprocessing_conformance():
    dims, spacing = (256, 256, 60), (1.0, 1.0, 3.0)
    center = np.array([130.0, 120.0, 30.0])
    radii = np.array([20.0, 20.0, 8.0])
    grids = np.ogrid[: dims[0], : dims[1], : dims[2]]
    data = (sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))
            <= 1.0).astype(np.uint8)
    vol = Volume(data, spacing, Kind.MASK)

    out = vol_ops.conform_cube(vol_ops.resample(vol, (1, 1, 1)), 192)
    assert out.dims == (192, 192, 192)
    assert out.spacing == (1.0, 1.0, 1.0)

    # analytic: voxel centers map as (i + 0.5) * s - 0.5, then the symmetric
    # crop (-32 on axes 0/1) and pad (+6 on axis 2) shift the centroid
    expected = (center + 0.5) * np.array(spacing) - 0.5
    expected += np.array([-32.0, -32.0, 6.0])
    observed = np.array(ndimage.center_of_mass(out.data))
    err = np.abs(observed - expected)
    report(9, bool((err < 2.0).all()),
           f"anisotropic fixture conforms to 192^3 at 1mm with centroid error "
           f"{err.round(3).tolist()} voxels (< 2)")
