import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from braincascade import cascade, metrics, synth
from braincascade import volume as vol_ops
from braincascade.cascade import (
    STATUS_NO_BRAIN, STATUS_OK, CascadeConfig, StageSpec, bfs_localize,
    config_from_dict, default_noisy_config, dfs_refine,
    extract_brain, reconstruct_full, single_pass_extract,
)
from braincascade.morphology import bounding_box
from braincascade.predictor import (
    ConstantPredictor, ExternalPredictor, NoiseSpec, NoisyOraclePredictor,
    OraclePredictor, PredictorError,
)
from braincascade.volume import BoundingBox, Kind, Volume
from conftest import intensity, mask

SERVER = os.path.join(os.path.dirname(__file__), "fixtures", "echo_server.py")


def phantom_case(seed, dims=(192, 192, 192)):
    lm = synth.make_phantom_label_map(np.random.default_rng(seed), dims)
    gt = synth.brain_mask(lm)
    img = vol_ops.minmax_normalize(
        Volume(lm.data.astype(np.float32), lm.spacing, Kind.INTENSITY)
    )
    return img, gt


def oracle_stage(name, gt, window, step):
    return StageSpec(name, OraclePredictor(gt, window, id=name), step)


def small_oracle_config(gt, **overrides):
    kwargs = dict(
        bfs_stages=[oracle_stage("a", gt, 48, 24), oracle_stage("d", gt, 16, 16)],
        dfs_stages=[oracle_stage("b", gt, 32, 16), oracle_stage("c", gt, 24, 8),
                    oracle_stage("dd", gt, 16, 8)],
    )
    kwargs.update(overrides)
    return CascadeConfig(**kwargs)


class TestReconstructFull:
    def test_full_extent_identity(self, rng):
        m = mask(rng.random((8, 8, 8)) < 0.5)
        out = reconstruct_full(m, BoundingBox.full((8, 8, 8)), (8, 8, 8))
        np.testing.assert_array_equal(out.data, m.data)

    def test_placement(self):
        m = mask(np.zeros((4, 4, 4)))
        m.data[0, 0, 0] = 1
        out = reconstruct_full(m, BoundingBox((10, 10, 10), (14, 14, 14)), (32, 32, 32))
        assert out.data.sum() == 1 and out.data[10, 10, 10] == 1

    def test_sum_preserved(self, rng):
        m = mask(rng.random((6, 6, 6)) < 0.5)
        out = reconstruct_full(m, BoundingBox((2, 3, 4), (8, 9, 10)), (16, 16, 16))
        assert out.data.sum() == m.data.sum()

    def test_region_outside_rejected(self):
        m = mask(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            reconstruct_full(m, BoundingBox((30, 30, 30), (34, 34, 34)), (32, 32, 32))


class TestBfsLocalize:
    def test_oracle_box_contains_brain(self, rng):
        img, gt = phantom_case(1, (96, 96, 96))
        config = small_oracle_config(gt)
        box = bfs_localize(img, config)
        gt_box = bounding_box(gt)
        assert all(a <= b for a, b in zip(box.mins, gt_box.mins))
        assert all(a >= b for a, b in zip(box.maxs, gt_box.maxs))

    def test_zero_predictors_no_brain(self):
        img = intensity(np.zeros((64, 64, 64)))
        config = CascadeConfig(
            bfs_stages=[StageSpec("z", ConstantPredictor(0.0, 32), 32)],
            dfs_stages=[StageSpec("z2", ConstantPredictor(0.0, 16), 16)],
        )
        assert bfs_localize(img, config) is None

    def test_largest_blob_wins(self):
        # two disjoint blobs: the box must fit only the larger one
        gt_data = np.zeros((64, 64, 64), dtype=np.uint8)
        gt_data[8:13, 8:12, 8:13] = 1           # 100 voxels
        gt_data[50:51, 50:55, 50:52] = 1        # 10 voxels
        gt = mask(gt_data)
        img = intensity(np.zeros((64, 64, 64)))
        config = small_oracle_config(gt)
        box = bfs_localize(img, config)
        assert box.mins == (8, 8, 8) and box.maxs == (13, 12, 13)

    def test_intersection_combine(self, rng):
        img, gt = phantom_case(2, (96, 96, 96))
        config = small_oracle_config(gt, bfs_combine="intersection")
        assert bfs_localize(img, config) is not None


class TestDfsRefine:
    def test_oracle_dice(self):
        img, gt = phantom_case(3, (96, 96, 96))
        config = small_oracle_config(gt)
        box = bfs_localize(img, config)
        result = dfs_refine(img, box, config)
        assert result.status == STATUS_OK
        assert metrics.dice(result.mask, gt) >= 0.99

    def test_empty_first_stage_no_brain(self):
        img = intensity(np.zeros((64, 64, 64)))
        gt = mask(np.ones((64, 64, 64)))
        config = CascadeConfig(
            bfs_stages=[oracle_stage("a", gt, 32, 32)],
            dfs_stages=[StageSpec("z", ConstantPredictor(0.0, 32), 16),
                        StageSpec("z2", ConstantPredictor(0.0, 16), 8)],
        )
        box = bfs_localize(img, config)
        result = dfs_refine(img, box, config)
        assert result.status == STATUS_NO_BRAIN
        assert result.mask.data.sum() == 0

    def test_vote_needs_two_of_three(self):
        img, gt = phantom_case(4, (96, 96, 96))
        config = small_oracle_config(gt)
        box = bfs_localize(img, config)
        result = dfs_refine(img, box, config)
        votes = sum(reconstruct_full(m, box, img.dims).data.astype(int)
                    for m in result.stage_masks.values())
        assert ((result.mask.data == 1) == (votes >= 2)).all()

    def test_roi_volumes_non_increasing_with_oracles(self):
        img, gt = phantom_case(5, (96, 96, 96))
        config = small_oracle_config(gt)
        box = bfs_localize(img, config)
        result = dfs_refine(img, box, config)
        volumes = [box.volume] + [b.volume for _, b in result.roi_trace]
        assert all(a >= b for a, b in zip(volumes, volumes[1:]))


class TestExtractBrain:
    def test_end_to_end_oracle(self):
        img, gt = phantom_case(6)
        config = config_from_dict({"predictor": {"backend": "oracle"}}, gt=gt)
        result = extract_brain(img, config)
        assert result.status == STATUS_OK
        assert metrics.dice(result.mask, gt) >= 0.99

    def test_all_zero_predictors(self):
        img = intensity(np.zeros((64, 64, 64)))
        config = CascadeConfig(
            bfs_stages=[StageSpec("z", ConstantPredictor(0.0, 32), 32)],
            dfs_stages=[StageSpec("z2", ConstantPredictor(0.0, 16), 16)],
        )
        result = extract_brain(img, config, conform_side=64)
        assert result.status == STATUS_NO_BRAIN
        assert result.mask.data.sum() == 0

    def test_input_left_unchanged(self):
        # already on the conformed grid, so conforming copies only to normalize
        img, gt = phantom_case(8, (64, 64, 64))
        before = img.data.tobytes()
        result = extract_brain(img, small_oracle_config(gt), conform_side=64)
        assert result.status == STATUS_OK
        assert img.data.tobytes() == before

    def test_leaves_scipy_sparse_unimported(self):
        """Importing scipy.sparse alone adds about 11 MB to peak RSS."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from braincascade import cascade, synth\n"
            "from braincascade.volume import Kind, Volume\n"
            "lm = synth.make_phantom_label_map(np.random.default_rng(0), (64, 64, 64))\n"
            "img = Volume(lm.data.astype(np.float32), kind=Kind.INTENSITY)\n"
            "config = cascade.config_from_dict({'predictor': {'backend': 'oracle'}},\n"
            "                                  gt=synth.brain_mask(lm))\n"
            "result = cascade.extract_brain(img, config, conform_side=64)\n"
            "print(result.status, 'scipy.sparse' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(cascade.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120, check=True)
        assert out.stdout.split() == [STATUS_OK, "False"]

    def test_rejects_non_intensity(self, rng):
        m = mask(np.ones((8, 8, 8)))
        config = small_oracle_config(m)
        with pytest.raises(ValueError):
            extract_brain(m, config)

    def test_thread_determinism(self):
        img, gt = phantom_case(7, (96, 96, 96))
        noise = NoiseSpec(per_voxel_fp=0.05, fp_blob_rate=0.5)
        results = []
        for threads in (1, 8):
            config = default_noisy_config(gt, noise, master_seed=7, threads=threads)
            results.append(extract_brain(img, config, conform_side=96))
        np.testing.assert_array_equal(results[0].mask.data, results[1].mask.data)
        assert results[0].roi_trace == results[1].roi_trace

    def test_noisy_cascade_beats_single_pass(self):
        img, gt = phantom_case(8)
        noise = NoiseSpec(per_voxel_fp=0.1)
        config = default_noisy_config(gt, noise, master_seed=0)
        box = bfs_localize(img, config)
        result = dfs_refine(img, box, config)
        single = single_pass_extract(img, config.bfs_stages[0], config)
        assert metrics.dice(result.mask, gt) > metrics.dice(single, gt)

    def test_single_pass_follows_accumulate_mode(self):
        # overlapping windows of 0.15 sum past alpha 0.2 but average below it
        img = intensity(np.zeros((32, 32, 32)))
        stage = StageSpec("c", ConstantPredictor(0.15, 16), 8)
        summed, averaged = (
            single_pass_extract(img, stage, CascadeConfig([stage], [stage], accumulate_mode=m))
            for m in ("sum", "mean"))
        assert summed.data.any() and not averaged.data.any()

    def test_restore_native_reads_conformed_spacing(self):
        dims, spacing = (30, 12, 25), (0.9, 2.5, 1.1)
        data = np.zeros(dims, np.uint8)
        data[5:25, 3:9, 4:20] = 1
        native = Volume(data, spacing, Kind.MASK)
        conformed = cascade.conform_input(native, 24, 2.0)
        out = cascade.restore_native(conformed, dims, spacing)
        assert out.dims == dims and out.spacing == spacing
        assert metrics.dice(out, native) >= 0.8


def test_extract_working_set():
    """extract_brain holds one conformed volume, one probability map, one
    window and one combined mask at a time, not the previous stage's map and
    mask or the previous window's prediction as well.

    The input is on the 96-voxel grid, so conforming only normalizes; the
    roster's windows overlap (step below window). A window costs its float32
    patch and prediction. The slack is one more mask, for the mask a stage's
    threshold makes while its map still exists, and 64 KiB for plans.
    """
    side = 96
    img, gt = phantom_case(8, (side,) * 3)
    config = small_oracle_config(gt)
    n = side ** 3
    window = 2 * 4 * max(st.window for st in config.bfs_stages + config.dfs_stages) ** 3
    tracemalloc.start()
    try:
        result = extract_brain(img, config, conform_side=side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == STATUS_OK
    conformed = accumulator = 4 * n  # float32
    mask_bytes = n
    budget = conformed + accumulator + window + mask_bytes + (mask_bytes + (64 << 10))
    assert peak <= budget, f"peak {peak / n:.2f} bytes per voxel, budget {budget / n:.2f}"


class TestMaskDigests:
    """Pins the exact bytes of extract_brain's mask on two small phantoms.

    The hot path may be made faster but never different: any change to
    thresholding, labelling, boxing, reconstruction or the vote that moves a
    single voxel changes these digests.
    """

    @staticmethod
    def digest(result):
        assert result.mask.data.dtype == np.uint8
        return hashlib.sha256(np.ascontiguousarray(result.mask.data).tobytes()).hexdigest()

    def test_oracle(self):
        img, gt = phantom_case(21, (96, 96, 96))
        result = extract_brain(img, small_oracle_config(gt), conform_side=96)
        assert self.digest(result) == (
            "c223ed6fde35e11c1ba0074b8e58bf9f5b843aa7cc61ca3ae6b5dddfa4de8ba5")

    def test_blob_noise(self):
        img, gt = phantom_case(22, (96, 96, 96))
        noise = NoiseSpec(fp_blob_rate=1.0, fn_hole_rate=1.0, fp_blob_radius=(2.0, 5.0))
        seeds = {"a": 1, "d": 4, "b": 2, "c": 3, "dd": 5}

        def stage(name, window, step):
            pred = NoisyOraclePredictor(gt, window, noise, model_seed=seeds[name],
                                        master_seed=7, id=name)
            return StageSpec(name, pred, step)

        config = small_oracle_config(
            gt,
            bfs_stages=[stage("a", 48, 24), stage("d", 16, 16)],
            dfs_stages=[stage("b", 32, 16), stage("c", 24, 8), stage("dd", 16, 8)],
        )
        result = extract_brain(img, config, conform_side=96)
        # the region really shrinks, so the cropped vote is exercised
        assert result.roi_trace[-1][1].volume < result.roi_trace[0][1].volume
        assert self.digest(result) == (
            "c89edc537e16f708248b99e2af6ed40d364e24009ef2819309320c2be5abbe7d")

    def test_default_noisy_roster(self):
        """The default A+D / B,C,D roster as default_noisy_config builds it."""
        img, gt = phantom_case(23, (96, 96, 96))
        noise = NoiseSpec(per_voxel_fp=0.05, fp_blob_rate=1.0, fn_hole_rate=0.5,
                          fp_blob_radius=(2.0, 5.0))
        result = extract_brain(img, default_noisy_config(gt, noise, master_seed=5),
                               conform_side=96)
        assert result.status == STATUS_OK
        # the region really shrinks, so every stage's box enters the vote
        assert result.roi_trace[-1][1].volume < result.roi_trace[0][1].volume
        assert self.digest(result) == (
            "ba88908a3675c6c413c36250d5f30db6b3c8bdf165d0568d16e4f1c96eeb52e2")


class TestConfig:
    def test_decreasing_windows_enforced(self):
        gt = mask(np.ones((32, 32, 32)))
        with pytest.raises(ValueError):
            CascadeConfig(
                bfs_stages=[oracle_stage("a", gt, 16, 8)],
                dfs_stages=[oracle_stage("b", gt, 16, 8),
                            oracle_stage("c", gt, 24, 8)],
            )

    def test_step_bounds_enforced(self):
        gt = mask(np.ones((32, 32, 32)))
        with pytest.raises(ValueError):
            StageSpec("x", OraclePredictor(gt, 16), 32)

    def test_stage_window_is_predictor_window(self):
        stage = StageSpec("x", ConstantPredictor(0.5, 24), 8)
        assert stage.window == 24
        with pytest.raises(AttributeError):
            stage.window = 16

    def test_default_roster_one_predictor_per_model(self):
        config = config_from_dict({})
        stages = config.bfs_stages + config.dfs_stages
        assert len({id(s.predictor) for s in stages}) == 4
        assert config.bfs_stages[1].predictor is config.dfs_stages[2].predictor
        assert [s.predictor.id for s in stages] == ["A", "D", "B", "C", "D"]

    def test_close_closes_each_predictor_once(self, monkeypatch):
        closed = []
        monkeypatch.setattr(ConstantPredictor, "close", lambda self: closed.append(self.id))
        config_from_dict({}).close()
        assert sorted(closed) == ["A", "B", "C", "D"]

    def test_different_predictor_specs_not_shared(self):
        config = config_from_dict({
            "bfs_stages": [{"model": "A"}, {"model": "D"}],
            "dfs_stages": [{"model": "B"}, {"model": "C"},
                           {"model": "D", "predictor": {"backend": "constant", "value": 0.5}}],
        })
        bfs_d, dfs_d = config.bfs_stages[1].predictor, config.dfs_stages[2].predictor
        assert bfs_d is not dfs_d
        assert (bfs_d.value, dfs_d.value) == (0.0, 0.5)
        # an equal spec given twice is one predictor
        same = {"backend": "constant", "value": 0.5}
        config = config_from_dict({"bfs_stages": [{"model": "D", "predictor": same}],
                                   "dfs_stages": [{"model": "D", "predictor": dict(same)}]})
        assert config.bfs_stages[0].predictor is config.dfs_stages[0].predictor

    def test_same_model_other_step_shares(self):
        config = config_from_dict({"bfs_stages": [{"model": "D", "step": 16}],
                                   "dfs_stages": [{"model": "D"}]})
        assert config.bfs_stages[0].predictor is config.dfs_stages[0].predictor
        assert (config.bfs_stages[0].step, config.dfs_stages[0].step) == (16, 32)

    @pytest.mark.skipif(not os.path.exists(SERVER), reason="fixture server missing")
    def test_default_external_roster_starts_four_processes(self, monkeypatch):
        started = []
        real_popen = subprocess.Popen

        def popen(*args, **kwargs):
            started.append(args[0])
            return real_popen(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", popen)
        config = config_from_dict({"predictor": {
            "backend": "external", "timeout": 10.0,
            "command": [sys.executable, SERVER, "constant"]}})
        try:
            assert len(started) == 4
            procs = {s.predictor._proc for s in config.bfs_stages + config.dfs_stages}
            assert len(procs) == 4
        finally:
            config.close()
        assert all(p.poll() is not None for p in procs)

    def test_from_dict_defaults(self):
        gt = mask(np.ones((192, 192, 192)))
        config = config_from_dict({"predictor": {"backend": "oracle"}}, gt=gt)
        assert [s.name for s in config.bfs_stages] == ["A", "D"]
        assert [s.name for s in config.dfs_stages] == ["B", "C", "D"]
        assert [s.window for s in config.dfs_stages] == [96, 64, 32]
        assert [s.step for s in config.bfs_stages] == [64, 32]
        assert config.alpha == 0.2
        assert config.bfs_threshold == 0.0

    def test_from_dict_noisy_oracle_seeds_per_model(self):
        gt = mask(np.zeros((32, 32, 32)))
        config = config_from_dict(
            {"predictor": {"backend": "noisy_oracle", "per_voxel_fp": 0.1}}, gt=gt)
        bfs = {s.name: s.predictor for s in config.bfs_stages}
        dfs = {s.name: s.predictor for s in config.dfs_stages}
        # each model letter draws its own flip field; both D stages share one
        assert not np.array_equal(dfs["B"]._flips, dfs["C"]._flips)
        np.testing.assert_array_equal(bfs["D"]._flips, dfs["D"]._flips)
        assert [bfs[m].model_seed for m in "AD"] == [1, 4]
        assert [dfs[m].model_seed for m in "BCD"] == [2, 3, 4]
        # a stage without a model letter is seeded by its name
        config = config_from_dict({
            "predictor": {"backend": "noisy_oracle"},
            "bfs_stages": [{"name": "A", "window": 32, "step": 32}],
            "dfs_stages": [{"name": "C", "window": 16, "step": 16},
                           {"name": "other", "window": 8, "step": 8}],
        }, gt=gt)
        assert [s.predictor.model_seed
                for s in config.bfs_stages + config.dfs_stages] == [1, 3, 0]

    def test_from_dict_explicit_model_seed_wins(self):
        gt = mask(np.zeros((32, 32, 32)))
        config = config_from_dict(
            {"predictor": {"backend": "noisy_oracle", "model_seed": 9}}, gt=gt)
        assert {s.predictor.model_seed for s in config.bfs_stages + config.dfs_stages} == {9}

    def test_from_dict_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="top level.*'alhpa'"):
            config_from_dict({"predictor": {"backend": "noisy_oracle"}, "alhpa": 0.5},
                             gt=mask(np.zeros((32, 32, 32))))
        with pytest.raises(ValueError, match="'noise'"):
            config_from_dict({"predictor": {"backend": "noisy_oracle",
                                            "noise": {"per_voxel_fp": 0.1}}},
                             gt=mask(np.zeros((32, 32, 32))))

    def test_empty_bfs_stages_rejected(self):
        with pytest.raises(ValueError, match="at least one localization stage"):
            config_from_dict({"bfs_stages": []})

    @pytest.mark.parametrize("value", [1e308, -1e39, float("inf"), float("nan")])
    def test_bfs_threshold_beyond_float32_rejected(self, value):
        # the float32 map is compared with the threshold cast to float32
        with pytest.raises(ValueError, match="bfs_threshold"):
            config_from_dict({"bfs_threshold": value})

    def test_bfs_threshold_at_float32_max_accepted(self):
        top = float(np.finfo(np.float32).max)
        assert config_from_dict({"bfs_threshold": -top}).bfs_threshold == -top

    def test_connectivity_checked(self):
        gt = mask(np.ones((32, 32, 32)))
        with pytest.raises(ValueError, match="connectivity"):
            CascadeConfig(bfs_stages=[oracle_stage("a", gt, 16, 8)],
                          dfs_stages=[oracle_stage("b", gt, 16, 8)], connectivity=8)
        with pytest.raises(ValueError, match="'connectivity'"):
            config_from_dict({"connectivity": "26"})

    def test_from_dict_every_documented_key_accepted(self):
        # the README's example, with a constant predictor in place of the oracle
        config = config_from_dict({
            "schema_version": 1, "alpha": 0.3, "bfs_threshold": 0.0,
            "accumulate_mode": "sum", "bfs_combine": "union", "connectivity": 6,
            "gt": "gt.nii", "predictor": {"backend": "constant", "value": 0.5},
            "bfs_stages": [{"name": "A", "window": 128, "step": 64},
                           {"model": "D", "predictor": {"backend": "constant"}}],
            "dfs_stages": [{"model": "B"}, {"model": "C"}, {"name": "D", "window": 32, "step": 32}],
        })
        assert config.alpha == 0.3 and config.connectivity == 6
        gt = mask(np.zeros((32, 32, 32)))
        for spec in ({"backend": "oracle"},
                     {"backend": "noisy_oracle", "per_voxel_fp": 0.1, "fp_blob_rate": 0.5,
                      "fp_blob_radius": [2, 3], "fn_hole_rate": 0.5, "seed_offset": 1,
                      "model_seed": 3}):
            config_from_dict({"predictor": spec}, gt=gt)

    def test_from_dict_unknown_backend(self):
        with pytest.raises(ValueError):
            config_from_dict({"predictor": {"backend": "nope"}})

    def test_from_dict_failure_closes_built_predictors(self, monkeypatch):
        closed = []
        real_close = ExternalPredictor.close

        def close(self):
            closed.append(self.id)
            real_close(self)
            assert self._proc.poll() is not None  # the model process is gone

        monkeypatch.setattr(ExternalPredictor, "close", close)

        def external(mode):
            return {"backend": "external", "timeout": 10.0,
                    "command": [sys.executable, SERVER, mode]}

        with pytest.raises(PredictorError, match="window 64"):
            config_from_dict({
                "bfs_stages": [{"name": "a", "window": 32, "step": 32,
                                "predictor": external("constant")}],
                "dfs_stages": [{"name": "b", "window": 16, "step": 16,
                                "predictor": external("window64")}],
            })
        assert sorted(closed) == ["a", "b"]

    def test_from_dict_schema_version(self):
        with pytest.raises(ValueError):
            config_from_dict({"schema_version": 99})

    def test_oracle_without_gt_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"predictor": {"backend": "oracle"}})
