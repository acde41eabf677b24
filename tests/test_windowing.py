import os
import sys

import numpy as np
import pytest

from braincascade.predictor import (
    ConstantPredictor, ExternalPredictor, NoiseSpec, NoisyOraclePredictor, OraclePredictor,
    Predictor, PredictorError,
)
from braincascade.volume import BoundingBox, Kind, Volume, overlap_slices, read_box
from braincascade.windowing import (
    coverage_counts, plan_windows, run_windows, snap_plan_into,
)
from conftest import intensity, random_mask

SERVER = os.path.join(os.path.dirname(__file__), "fixtures", "echo_server.py")


def enumerate_axis_origins(lo, hi, w, s):
    """Reference enumeration: all multiples of s whose window fits, plus the
    snapped far-edge origin."""
    if hi - lo < w:
        return [lo]
    fitting = [o for o in range(lo, hi, s) if o + w <= hi]
    snapped = max(lo, hi - w)
    if snapped not in fitting:
        fitting.append(snapped)
    return sorted(fitting)


class TestPlanWindows:
    def test_192_128_64(self):
        plan = plan_windows(BoundingBox((0, 0, 0), (192, 192, 192)), 128, 64)
        expected = enumerate_axis_origins(0, 192, 128, 64)
        assert expected == [0, 64]
        assert len(plan.origins) == 8
        assert sorted({o[0] for o in plan.origins}) == expected

    def test_192_96_32(self):
        plan = plan_windows(BoundingBox((0, 0, 0), (192, 192, 192)), 96, 32)
        expected = enumerate_axis_origins(0, 192, 96, 32)
        assert expected == [0, 32, 64, 96]
        assert len(plan.origins) == 64

    def test_exact_fit(self):
        plan = plan_windows(BoundingBox((5, 5, 5), (37, 37, 37)), 32, 8)
        assert plan.origins == [(5, 5, 5)]

    def test_region_smaller_than_window(self):
        plan = plan_windows(BoundingBox((10, 10, 10), (20, 20, 20)), 32, 8)
        assert plan.origins == [(10, 10, 10)]

    def test_matches_enumeration_randomized(self, rng):
        for _ in range(100):
            lo = int(rng.integers(0, 20))
            extent = int(rng.integers(1, 80))
            w = int(rng.integers(1, extent + 10))
            s = int(rng.integers(1, w + 1))
            plan = plan_windows(BoundingBox((lo, 0, 0), (lo + extent, 1, 1)), w, s)
            axis0 = sorted({o[0] for o in plan.origins})
            assert axis0 == enumerate_axis_origins(lo, lo + extent, w, s)

    def test_origins_sorted_unique(self):
        plan = plan_windows(BoundingBox((0, 0, 0), (100, 80, 60)), 32, 24)
        assert plan.origins == sorted(set(plan.origins))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            plan_windows(BoundingBox((0, 0, 0), (8, 8, 8)), 0, 1)

    # a step past the window skips the voxels between windows
    @pytest.mark.parametrize("w,s", [(4, 5), (4, 10), (8, 0)])
    def test_step_outside_one_to_window(self, w, s):
        with pytest.raises(ValueError, match=rf"need 1 <= step <= window, got window {w} and step {s}"):
            plan_windows(BoundingBox((0, 0, 0), (20, 4, 4)), w, s)


class TestCoverage:
    def test_exact_tiling(self):
        plan = plan_windows(BoundingBox((0, 0, 0), (64, 64, 64)), 32, 32)
        assert (coverage_counts(plan) == 1).all()

    def test_overlap_counts(self):
        plan = plan_windows(BoundingBox((0, 0, 0), (192, 192, 192)), 128, 64)
        counts = coverage_counts(plan)
        axis = counts[:, 0, 0]
        assert (axis[:64] == 1).all()
        assert (axis[64:128] == 2).all()
        assert (axis[128:] == 1).all()

    def test_single_window(self):
        plan = plan_windows(BoundingBox((0, 0, 0), (20, 20, 20)), 32, 8)
        assert (coverage_counts(plan) == 1).all()

    def test_full_coverage_randomized(self, rng):
        for _ in range(50):
            extent = int(rng.integers(8, 64))
            w = int(rng.integers(4, extent + 8))
            s = int(rng.integers(1, w + 1))
            plan = plan_windows(BoundingBox((0, 0, 0), (extent,) * 3), w, s)
            assert coverage_counts(plan).min() >= 1
            last = max(o[0] for o in plan.origins)
            assert last + w >= extent


class TestRunWindows:
    def test_partition_sum_is_one(self):
        vol = intensity(np.zeros((64, 64, 64)))
        plan = plan_windows(BoundingBox.full(vol.dims), 32, 32)
        out = run_windows(vol, plan, ConstantPredictor(1.0, 32), mode="sum")
        assert (out.data == 1.0).all()

    def test_overlap_sum_center_value(self):
        vol = intensity(np.zeros((192, 192, 192)))
        plan = plan_windows(BoundingBox.full(vol.dims), 128, 64)
        out = run_windows(vol, plan, ConstantPredictor(1.0, 128), mode="sum")
        assert out.data[96, 96, 96] == 8.0  # 2 covering windows per axis
        assert out.data[0, 0, 0] == 1.0

    def test_mean_normalizes(self):
        vol = intensity(np.zeros((192, 192, 192)))
        plan = plan_windows(BoundingBox.full(vol.dims), 128, 64)
        out = run_windows(vol, plan, ConstantPredictor(1.0, 128), mode="mean")
        assert (out.data == 1.0).all()

    def test_mean_stays_in_unit_interval(self, rng):
        gt = random_mask(rng, (48, 48, 48))
        vol = intensity(np.zeros((48, 48, 48)))
        plan = plan_windows(BoundingBox.full(vol.dims), 32, 8)
        noise = NoiseSpec(per_voxel_fp=0.2)
        pred = NoisyOraclePredictor(gt, 32, noise, model_seed=1)
        out = run_windows(vol, plan, pred, mode="mean")
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_region_output_dims(self):
        vol = intensity(np.zeros((64, 64, 64)))
        region = BoundingBox((8, 8, 8), (40, 48, 56))
        plan = plan_windows(region, 32, 16)
        out = run_windows(vol, plan, ConstantPredictor(0.5, 32))
        assert out.dims == region.shape

    def test_repeat_runs_bit_identical(self, rng):
        gt = random_mask(rng, (64, 64, 64))
        vol = intensity(rng.random((64, 64, 64)))
        plan = plan_windows(BoundingBox.full(vol.dims), 32, 16)
        noise = NoiseSpec(per_voxel_fp=0.1, fp_blob_rate=1.0)
        pred = NoisyOraclePredictor(gt, 32, noise, model_seed=3)
        first = run_windows(vol, plan, pred, mode="sum")
        for _ in range(2):
            assert np.array_equal(first.data, run_windows(vol, plan, pred, mode="sum").data)

    def test_predicts_each_origin_once_in_plan_order(self, rng):
        class Recording(Predictor):
            def _predict(self, patch, origin):
                seen.append(origin)
                return np.full(patch.dims, 0.5, dtype=np.float32)

        seen = []
        vol = intensity(rng.random((40, 40, 40)))
        region = BoundingBox((4, 0, 10), (40, 30, 40))
        plan = snap_plan_into(plan_windows(region, 16, 8), vol.dims)
        run_windows(vol, plan, Recording("rec", 16))
        assert len(plan.origins) == 36
        assert seen == plan.origins

    def test_predictor_failure_names_origin(self):
        class Exploding(Predictor):
            def _predict(self, patch, origin):
                if origin == (32, 0, 0):
                    raise RuntimeError("boom")
                return np.zeros(patch.dims, dtype=np.float32)

        vol = intensity(np.zeros((64, 64, 64)))
        plan = plan_windows(BoundingBox.full(vol.dims), 32, 32)
        with pytest.raises(PredictorError, match=r"\(32, 0, 0\)"):
            run_windows(vol, plan, Exploding("x", 32))

    def test_window_mismatch_rejected(self):
        vol = intensity(np.zeros((64, 64, 64)))
        plan = plan_windows(BoundingBox.full(vol.dims), 32, 32)
        with pytest.raises(ValueError):
            run_windows(vol, plan, ConstantPredictor(1.0, 16))


class TestSnapPlanInto:
    def test_clamps_inside(self):
        plan = plan_windows(BoundingBox((180, 180, 180), (192, 192, 192)), 32, 32)
        snapped = snap_plan_into(plan, (192, 192, 192))
        assert snapped.origins == [(160, 160, 160)]

    def test_noop_when_inside(self):
        plan = plan_windows(BoundingBox((0, 0, 0), (192, 192, 192)), 96, 32)
        snapped = snap_plan_into(plan, (192, 192, 192))
        assert snapped.origins == plan.origins

    @staticmethod
    def clamp_dedup_sort(plan, dims):
        """The earlier snap: clamp each origin, drop repeats, sort."""
        w = plan.window
        seen = {tuple(min(max(v, 0), max(0, d - w)) for v, d in zip(o, dims))
                for o in plan.origins}
        return sorted(seen)

    def test_clamp_alone_matches_clamp_dedup_sort(self):
        rng = np.random.default_rng(2024)
        cases = [((40, 40, 40), BoundingBox((30, 0, 35), (40, 40, 40)), 16, 8),  # narrow at the far edge
                 ((20, 12, 9), BoundingBox((0, 0, 0), (20, 12, 9)), 32, 8),  # window > volume
                 ((20, 50, 9), BoundingBox((3, 10, 1), (20, 50, 9)), 32, 5)]
        for _ in range(300):
            dims = tuple(int(d) for d in rng.integers(1, 70, 3))
            mins = [int(rng.integers(0, d)) for d in dims]
            maxs = [int(rng.integers(lo + 1, d + 1)) for lo, d in zip(mins, dims)]
            w = int(rng.integers(1, 80))
            cases.append((dims, BoundingBox(mins, maxs), w, int(rng.integers(1, w + 1))))
        for dims, region, w, s in cases:
            plan = plan_windows(region, w, s)
            assert snap_plan_into(plan, dims).origins == self.clamp_dedup_sort(plan, dims)

    def test_region_outside_volume_rejected(self):
        plan = plan_windows(BoundingBox((0, 0, 10), (16, 16, 41)), 16, 8)
        with pytest.raises(ValueError, match=r"outside dims \(40, 40, 40\)"):
            snap_plan_into(plan, (40, 40, 40))


def reference_run(vol, plan, predict):
    """run_windows(mode="sum") as a plain loop: every patch a float32
    read_box, every prediction ``predict(patch, origin)``."""
    shape = (plan.window,) * 3
    acc = np.zeros(plan.region.shape, dtype=np.float32)
    for origin in plan.origins:
        patch = Volume(read_box(vol.data, origin, shape, np.float32), vol.spacing, vol.kind)
        out = predict(patch, origin)
        mins = tuple(o - lo for o, lo in zip(origin, plan.region.mins))
        overlap = overlap_slices(mins, shape, plan.region.shape)
        if overlap is not None:
            acc[overlap[0]] += out[overlap[1]]
    return acc


class Scaled(Predictor):
    """Reads every patch voxel, and the origin; patches must be float32."""

    def _predict(self, patch, origin):
        if patch.data.dtype != np.float32:
            raise TypeError(f"patch dtype {patch.data.dtype}")
        return patch.data * np.float32(0.5) + np.float32(sum(origin) % 7 / 10)


def noisy_reference(pred, origin):
    """NoisyOraclePredictor's output from zero-filled read_box copies of the
    ground truth and the flip field."""
    shape = (pred.window,) * 3
    noise = pred.noise
    out = np.array(read_box(pred.gt.data, origin, shape, np.float32))
    pred._spheres(out, origin, noise.fp_blob_rate, 0xB10B, 1.0)
    out = np.maximum(out, read_box(pred._flips, origin, shape, np.float32))
    pred._spheres(out, origin, noise.fn_hole_rate, 0x401E, 0.0)
    return out


class TestPatchFallbacks:
    """Patches that are not views of the volume match a read_box loop bit for bit."""

    def test_volume_smaller_than_window(self, rng):
        vol = intensity(rng.random((20, 24, 18)))
        gt = random_mask(rng, vol.dims)
        noise = NoiseSpec(per_voxel_fp=0.1, fp_blob_rate=2.0, fn_hole_rate=2.0)
        noisy = NoisyOraclePredictor(gt, 32, noise, model_seed=1)
        plan = plan_windows(BoundingBox.full(vol.dims), 32, 8)
        assert plan.origins == [(0, 0, 0)]
        for pred in (Scaled("s", 32), noisy):
            expected = reference_run(vol, plan, lambda p, o: pred.predict(p, o).data)
            assert run_windows(vol, plan, pred).data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_non_float32_volume(self, rng, dtype):
        data = rng.random((40, 40, 40)) * (1 if dtype is np.float64 else 255)
        vol = Volume(data.astype(dtype), (1.0, 1.0, 1.0), Kind.INTENSITY)
        pred = Scaled("s", 16)
        for region in (BoundingBox((4, 0, 10), (40, 30, 40)), BoundingBox((30, 8, 30), (40, 40, 40))):
            plan = plan_windows(region, 16, 12)
            expected = reference_run(vol, plan, lambda p, o: pred.predict(p, o).data)
            assert run_windows(vol, plan, pred).data.tobytes() == expected.tobytes()

    def test_noisy_oracle_past_ground_truth_edge(self, rng):
        gt = random_mask(rng, (48, 48, 48))
        vol = intensity(rng.random(gt.dims))
        noise = NoiseSpec(per_voxel_fp=0.1, fp_blob_rate=3.0, fn_hole_rate=2.0,
                          fp_blob_radius=(2.0, 6.0))
        pred = NoisyOraclePredictor(gt, 32, noise, model_seed=3, master_seed=5)
        # thinner than the window on axes 0 and 2: every window crosses the edge
        edge = BoundingBox((30, 0, 40), (48, 48, 48))
        assert not any(np.shares_memory(read_box(gt.data, o, (32,) * 3), gt.data)
                       for o in plan_windows(edge, 32, 12).origins)
        for region in (edge, BoundingBox.full(gt.dims)):
            plan = plan_windows(region, 32, 12)
            expected = reference_run(vol, plan, lambda p, o: noisy_reference(pred, o))
            assert run_windows(vol, plan, pred).data.tobytes() == expected.tobytes()


class TestPatchContract:
    def test_writing_into_patch_names_origin(self):
        class Writing(Predictor):
            def _predict(self, patch, origin):
                patch.data[0, 0, 0] = 1.0
                return np.zeros(patch.dims, dtype=np.float32)

        for dtype in (np.float32, np.float64):
            vol = Volume(np.zeros((40, 40, 40), dtype=dtype), (1.0, 1.0, 1.0), Kind.INTENSITY)
            for region, origin in [(BoundingBox((8, 8, 8), (24, 24, 24)), r"\(8, 8, 8\)"),
                                   (BoundingBox((30, 30, 30), (40, 40, 40)), r"\(30, 30, 30\)")]:
                plan = plan_windows(region, 16, 16)
                with pytest.raises(PredictorError, match=origin):
                    run_windows(vol, plan, Writing("w", 16))
            assert not vol.data.any() and vol.data.flags.writeable

    def test_nan_prediction_names_origin(self):
        vol = intensity(np.zeros((40, 40, 40)))
        plan = plan_windows(BoundingBox((8, 8, 8), (24, 24, 24)), 16, 16)
        with pytest.raises(PredictorError, match=r"\(8, 8, 8\).*NaN"):
            run_windows(vol, plan, ConstantPredictor(float("nan"), 16))

    def backends(self, gt):
        yield ConstantPredictor(0.5, 16)
        yield OraclePredictor(gt, 16)
        noise = NoiseSpec(per_voxel_fp=0.1, fp_blob_rate=2.0, fn_hole_rate=2.0)
        yield NoisyOraclePredictor(gt, 16, noise, model_seed=1)
        if os.path.exists(SERVER):
            yield ExternalPredictor([sys.executable, SERVER, "echo"], 16, timeout=10)

    def test_volume_unchanged_by_every_backend(self, rng):
        vol = intensity(rng.random((40, 40, 40)))
        before = vol.data.tobytes()
        gt = random_mask(rng, vol.dims)
        for pred in self.backends(gt):
            try:
                for region in (BoundingBox.full(vol.dims), BoundingBox((30, 4, 30), (40, 40, 40))):
                    run_windows(vol, plan_windows(region, 16, 12), pred)
            finally:
                pred.close()
            assert vol.data.tobytes() == before and vol.data.flags.writeable
