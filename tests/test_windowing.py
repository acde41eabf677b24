import numpy as np
import pytest

from braincascade.predictor import (
    ConstantPredictor, NoiseSpec, NoisyOraclePredictor, Predictor, PredictorError,
)
from braincascade.volume import BoundingBox, Kind, Volume
from braincascade.windowing import (
    coverage_counts, plan_windows, run_windows, snap_plan_into,
)
from conftest import intensity, random_mask


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


class TestCoverage:
    def test_exact_tiling(self):
        plan = plan_windows(BoundingBox((0, 0, 0), (64, 64, 64)), 32, 32)
        assert (coverage_counts(plan).data == 1).all()

    def test_overlap_counts(self):
        plan = plan_windows(BoundingBox((0, 0, 0), (192, 192, 192)), 128, 64)
        counts = coverage_counts(plan).data
        axis = counts[:, 0, 0]
        assert (axis[:64] == 1).all()
        assert (axis[64:128] == 2).all()
        assert (axis[128:] == 1).all()

    def test_single_window(self):
        plan = plan_windows(BoundingBox((0, 0, 0), (20, 20, 20)), 32, 8)
        assert (coverage_counts(plan).data == 1).all()

    def test_full_coverage_randomized(self, rng):
        for _ in range(50):
            extent = int(rng.integers(8, 64))
            w = int(rng.integers(4, extent + 8))
            s = int(rng.integers(1, w + 1))
            plan = plan_windows(BoundingBox((0, 0, 0), (extent,) * 3), w, s)
            assert coverage_counts(plan).data.min() >= 1
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
