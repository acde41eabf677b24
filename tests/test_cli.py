import dataclasses
import gzip
import hashlib
import json
import os
import struct
import sys

import numpy as np
import pytest

from braincascade import cascade, cli, io_nifti, synth
from braincascade import volume as vol_ops
from braincascade.cli import main
from braincascade.predictor import ExternalPredictor, Predictor
from braincascade.volume import Kind, Volume

SERVER = os.path.join(os.path.dirname(__file__), "fixtures", "echo_server.py")


@pytest.fixture
def phantom_files(tmp_path):
    lm = synth.make_phantom_label_map(np.random.default_rng(11), (96, 96, 96))
    gt = synth.brain_mask(lm)
    img = vol_ops.minmax_normalize(
        Volume(lm.data.astype(np.float32), lm.spacing, Kind.INTENSITY)
    )
    img_path = tmp_path / "img.nii"
    gt_path = tmp_path / "gt.nii"
    io_nifti.write_nifti(img, img_path, "float32")
    io_nifti.write_nifti(gt, gt_path, "uint8")
    return img_path, gt_path


def oracle_config(tmp_path, gt_path, backend="oracle"):
    cfg = {
        "gt": str(gt_path),
        "predictor": {"backend": backend},
        "bfs_stages": [
            {"name": "a", "window": 48, "step": 24},
            {"name": "d", "window": 16, "step": 16},
        ],
        "dfs_stages": [
            {"name": "b", "window": 32, "step": 16},
            {"name": "c", "window": 24, "step": 8},
            {"name": "dd", "window": 16, "step": 8},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestExtract:
    def test_oracle_end_to_end(self, tmp_path, phantom_files, capsys):
        img_path, gt_path = phantom_files
        cfg = oracle_config(tmp_path, gt_path)
        out = tmp_path / "mask.nii"
        code = main(["extract", str(img_path), "--config", str(cfg),
                     "--out", str(out), "--side", "96"])
        assert code == 0
        mask = io_nifti.read_nifti(out, kind=Kind.MASK)
        gt = io_nifti.read_nifti(gt_path, kind=Kind.MASK)
        assert mask.dims == gt.dims  # native grid restored
        inter = (mask.data & gt.data).sum()
        d = 2 * inter / (mask.data.sum() + gt.data.sum())
        assert d >= 0.99
        trace = json.loads((tmp_path / "mask_trace.json").read_text())
        assert trace["status"] == "ok"
        assert trace["roi_trace"][0]["stage"] == "bfs"

    def test_threads_flag_has_no_effect(self, tmp_path, phantom_files):
        img_path, gt_path = phantom_files
        cfg = oracle_config(tmp_path, gt_path)
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"mask{threads}.nii"
            assert main(["extract", str(img_path), "--config", str(cfg), "--out", str(out),
                         "--side", "96", "--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_input(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        code = main(["extract", str(tmp_path / "nope.nii"),
                     "--config", str(cfg), "--out", str(tmp_path / "o.nii")])
        assert code == 1
        assert "nope.nii" in capsys.readouterr().err

    def test_zero_predictor_exit_2(self, tmp_path, phantom_files, capsys):
        img_path, _ = phantom_files
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({
            "predictor": {"backend": "constant", "value": 0.0},
            "bfs_stages": [{"name": "z", "window": 32, "step": 32}],
            "dfs_stages": [{"name": "z2", "window": 16, "step": 16}],
        }))
        out = tmp_path / "mask.nii"
        code = main(["extract", str(img_path), "--config", str(cfg),
                     "--out", str(out), "--side", "96"])
        assert code == 2
        mask = io_nifti.read_nifti(out, kind=Kind.MASK)
        assert mask.data.sum() == 0

    def external_die_config(self, tmp_path):
        cfg = tmp_path / "die.json"
        cfg.write_text(json.dumps({
            "predictor": {"backend": "external", "timeout": 10.0,
                          "command": [sys.executable, SERVER, "die"]},
            "bfs_stages": [{"name": "a", "window": 32, "step": 32}],
            "dfs_stages": [{"name": "b", "window": 16, "step": 16}],
        }))
        return cfg

    def test_predictor_failure_is_one_line_error(self, tmp_path, phantom_files, capsys):
        img_path, _ = phantom_files
        cfg = self.external_die_config(tmp_path)
        code = main(["extract", str(img_path), "--config", str(cfg),
                     "--out", str(tmp_path / "mask.nii"), "--side", "96"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "window origin (0, 0, 0)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "mask.nii").exists()

    def test_nan_prediction_is_one_line_error(self, tmp_path, phantom_files, capsys):
        img_path, _ = phantom_files
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps({
            "predictor": {"backend": "external", "timeout": 10.0,
                          "command": [sys.executable, SERVER, "constant", "nan"]},
            "bfs_stages": [{"name": "a", "window": 32, "step": 32}],
            "dfs_stages": [{"name": "b", "window": 16, "step": 16}],
        }))
        code = main(["extract", str(img_path), "--config", str(cfg),
                     "--out", str(tmp_path / "mask.nii"), "--side", "96"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "window origin (0, 0, 0)" in err and "NaN" in err
        assert not (tmp_path / "mask.nii").exists()

    def test_predictors_closed_after_success(self, tmp_path, phantom_files, monkeypatch):
        img_path, gt_path = phantom_files
        closed = []
        monkeypatch.setattr(Predictor, "close", lambda self: closed.append(self.id))
        code = main(["extract", str(img_path), "--config",
                     str(oracle_config(tmp_path, gt_path)),
                     "--out", str(tmp_path / "mask.nii"), "--side", "96"])
        assert code == 0
        assert sorted(closed) == ["a", "b", "c", "d", "dd"]

    def test_predictors_closed_after_failure(self, tmp_path, phantom_files, monkeypatch):
        img_path, _ = phantom_files
        closed = []
        real_close = ExternalPredictor.close

        def close(self):
            closed.append((self.id, self._proc.pid))
            real_close(self)
            assert self._proc.poll() is not None  # the model process is gone

        monkeypatch.setattr(ExternalPredictor, "close", close)
        code = main(["extract", str(img_path), "--config",
                     str(self.external_die_config(tmp_path)),
                     "--out", str(tmp_path / "mask.nii"), "--side", "96"])
        assert code == 1
        assert sorted(name for name, _ in closed) == ["a", "b"]

    def test_missing_config(self, tmp_path, phantom_files, capsys, monkeypatch):
        monkeypatch.delenv("BRAINCASCADE_CONFIG", raising=False)
        img_path, _ = phantom_files
        code = main(["extract", str(img_path), "--out", str(tmp_path / "o.nii")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: no config given (use --config or set $BRAINCASCADE_CONFIG)\n")

    def test_native_grid_mask_digest(self, tmp_path):
        """Pins the bytes of the mask `extract` writes for an anisotropic scan.

        The scan and the ground truth are resampled to the 1 mm grid and the
        mask back to the scan's grid. The oracle ignores intensities, so only
        nearest resampling (of the ground truth and the mask), conforming and
        the cascade reach this digest: a change to any of them that moves one
        voxel changes it. Linear resampling of the scan does not reach it;
        `TestLinearResamplePin` in test_volume.py pins its bytes.
        """
        spacing = (0.9, 2.5, 1.1)
        dims = (86, 32, 72)
        lm = synth.make_phantom_label_map(np.random.default_rng(31), dims)
        img = Volume(lm.data.astype(np.float32) / 7.0, spacing, Kind.INTENSITY)
        gt = Volume(synth.brain_mask(lm).data, spacing, Kind.MASK)
        img_path, gt_path = tmp_path / "scan.nii", tmp_path / "gt.nii"
        io_nifti.write_nifti(img, img_path, "float32")
        io_nifti.write_nifti(gt, gt_path, "uint8")
        out = tmp_path / "mask.nii"
        code = main(["extract", str(img_path), "--config",
                     str(oracle_config(tmp_path, gt_path)), "--gt", str(gt_path),
                     "--out", str(out), "--side", "96"])
        assert code == 0
        mask = io_nifti.read_nifti(out, kind=Kind.MASK)
        assert mask.dims == dims and mask.spacing == pytest.approx(spacing)
        inter = (mask.data & gt.data).sum()
        assert 2 * inter / (mask.data.sum() + gt.data.sum()) >= 0.98
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8ff70b1d29de6cf146e089e68fa479cd5315a73fb9bae7b0a03564258ceaf55c")


class TestConfigErrors:
    """Bad config input ends in one `error:` line naming the culprit, exit 1."""

    @staticmethod
    def one_line_error(capsys, *names):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        for name in names:
            assert name in err

    def extract(self, tmp_path, phantom_files, cfg):
        img_path, _ = phantom_files
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        return main(["extract", str(img_path), "--config", str(path),
                     "--out", str(tmp_path / "o.nii")])

    def test_unknown_model_letter(self, tmp_path, phantom_files, capsys):
        code = self.extract(tmp_path, phantom_files, {"bfs_stages": [{"model": "Z"}]})
        assert code == 1
        self.one_line_error(capsys, "bfs_stages", "'Z'")

    def test_external_without_command(self, tmp_path, phantom_files, capsys):
        code = self.extract(tmp_path, phantom_files, {"predictor": {"backend": "external"}})
        assert code == 1
        self.one_line_error(capsys, "stage A", "command")

    @pytest.mark.parametrize("cfg,names", [
        ({"alhpa": 0.5}, ("'alhpa'", "top level")),
        ({"bfs_stages": [{"model": "A", "stpe": 8}]}, ("'stpe'", "bfs_stages[0]")),
        ({"predictor": {"backend": "noisy_oracle", "noise": {"per_voxel_fp": 0.1}}},
         ("'noise'", "noisy_oracle", "predictor")),
        ({"dfs_stages": [{"model": "B", "predictor": {"backend": "constant", "valu": 1}}]},
         ("'valu'", "dfs_stages[0].predictor", "constant")),
    ])
    def test_unknown_key(self, tmp_path, phantom_files, capsys, cfg, names):
        code = self.extract(tmp_path, phantom_files, cfg)
        assert code == 1
        self.one_line_error(capsys, *names)

    @pytest.mark.parametrize("cfg,names", [
        ({"bfs_stages": ["A"]}, ("bfs_stages[0]", "object")),
        ({"predictor": "oracle"}, ("predictor", "object")),
        ({"dfs_stages": "BCD"}, ("dfs_stages", "list")),
        ({"dfs_stages": [{"model": "B", "predictor": ["oracle"]}]},
         ("dfs_stages[0].predictor", "object")),
        (["A", "D"], ("config", "object")),
    ])
    def test_wrong_value_type(self, tmp_path, phantom_files, capsys, cfg, names):
        code = self.extract(tmp_path, phantom_files, cfg)
        assert code == 1
        self.one_line_error(capsys, *names)

    @pytest.mark.parametrize("cfg,names", [
        ({"alpha": "0.5"}, ("'alpha'", "top level", "number")),
        ({"bfs_stages": [{"window": "32", "step": 32}]}, ("'window'", "bfs_stages[0]", "integer")),
        ({"connectivity": "26"}, ("'connectivity'", "top level", "integer")),
        ({"dfs_stages": [{"model": "B", "predictor": {"backend": "constant", "value": "1"}}]},
         ("'value'", "dfs_stages[0].predictor")),
    ])
    def test_wrong_scalar_type(self, tmp_path, phantom_files, capsys, cfg, names):
        code = self.extract(tmp_path, phantom_files, cfg)
        assert code == 1
        self.one_line_error(capsys, *names)

    def test_empty_bfs_stages(self, tmp_path, phantom_files, capsys):
        code = self.extract(tmp_path, phantom_files, {"bfs_stages": []})
        assert code == 1
        self.one_line_error(capsys, "localization stage")

    def test_external_command_string(self, tmp_path, phantom_files, capsys):
        cfg = {"predictor": {"backend": "external", "command": "python3 server.py"}}
        code = self.extract(tmp_path, phantom_files, cfg)
        assert code == 1
        self.one_line_error(capsys, "stage A", "list of strings")

    @pytest.mark.parametrize("value", [1e308, float("inf")])
    def test_bfs_threshold_beyond_float32(self, tmp_path, phantom_files, capsys, value):
        code = self.extract(tmp_path, phantom_files, {"bfs_threshold": value})
        assert code == 1
        self.one_line_error(capsys, "bfs_threshold", "float32")

    def test_unknown_noise_key(self, capsys):
        code = main(["simulate", "--seeds", "1", "--noise-spec", '{"bogus": 1}'])
        assert code == 1
        self.one_line_error(capsys, "bogus")

    def test_unknown_synth_param(self, tmp_path, capsys):
        params = dict(dataclasses.asdict(synth.MODEL_PARAMS["D"]), bogus=1)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        code = main(["synth", "--params", str(path), "--outdir", str(tmp_path / "out")])
        assert code == 1
        self.one_line_error(capsys, "bogus")

    def synth_params(self, tmp_path, **change):
        params = dict(dataclasses.asdict(synth.MODEL_PARAMS["D"]), **change)
        path = tmp_path / "params.json"
        path.write_text(json.dumps({k: v for k, v in params.items() if v is not None}))
        return main(["synth", "--params", str(path), "--outdir", str(tmp_path / "out")])

    @pytest.mark.parametrize("change,names", [
        ({"n_shapes": 2.5}, ("'n_shapes'", "integer")),
        ({"window": 64.5}, ("'window'", "integer")),
        ({"blur_sd_max": "0.1"}, ("'blur_sd_max'", "number")),
        ({"downsample_factor_max": True}, ("'downsample_factor_max'", "integer")),
    ])
    def test_wrong_synth_param_type(self, tmp_path, capsys, change, names):
        assert self.synth_params(tmp_path, **change) == 1
        self.one_line_error(capsys, "params.json", *names)

    def test_missing_synth_param(self, tmp_path, capsys):
        assert self.synth_params(tmp_path, n_shapes=None) == 1
        self.one_line_error(capsys, "params.json", "missing", "'n_shapes'")

    @pytest.mark.parametrize("spec,names", [
        ('{"per_voxel_fp": "0.1"}', ("'per_voxel_fp'", "number")),
        ('{"fp_blob_radius": 3}', ("'fp_blob_radius'", "two numbers")),
        ('{"fp_blob_radius": [2, 3, 4]}', ("'fp_blob_radius'", "two numbers")),
        ('{"seed_offset": 1.5}', ("'seed_offset'", "integer")),
        ('[0.1]', ("--noise-spec", "object")),
    ])
    def test_wrong_noise_type(self, capsys, spec, names):
        assert main(["simulate", "--seeds", "1", "--noise-spec", spec]) == 1
        self.one_line_error(capsys, "--noise-spec", *names)

    @pytest.mark.parametrize("gt", [1, True, [1, 2], {}])
    def test_gt_not_a_string(self, tmp_path, phantom_files, capsys, gt):
        assert self.extract(tmp_path, phantom_files, {"gt": gt}) == 1
        self.one_line_error(capsys, "'gt'", "string")

    @pytest.mark.parametrize("rate,value", [("fp_blob_rate", "NaN"), ("fn_hole_rate", "Infinity"),
                                            ("per_voxel_fp", "-Infinity")])
    def test_non_finite_noise_rate(self, tmp_path, phantom_files, capsys, rate, value):
        assert main(["simulate", "--seeds", "1", "--noise-spec", f'{{"{rate}": {value}}}']) == 1
        self.one_line_error(capsys, f"'{rate}'", "finite")
        cfg = json.loads(f'{{"predictor": {{"backend": "noisy_oracle", "{rate}": {value}}}}}')
        cfg["gt"] = str(phantom_files[1])
        assert self.extract(tmp_path, phantom_files, cfg) == 1
        self.one_line_error(capsys, f"'{rate}'", "finite")

    @pytest.mark.parametrize("radius", [[6, 2], [-5, -1]])
    def test_noise_radius_out_of_order(self, tmp_path, phantom_files, capsys, radius):
        spec = {"fp_blob_rate": 2, "fp_blob_radius": radius}
        assert main(["simulate", "--seeds", "1", "--noise-spec", json.dumps(spec)]) == 1
        self.one_line_error(capsys, "'fp_blob_radius'", "0 <= lo <= hi")
        cfg = {"gt": str(phantom_files[1]), "predictor": {"backend": "noisy_oracle", **spec}}
        assert self.extract(tmp_path, phantom_files, cfg) == 1
        self.one_line_error(capsys, "'fp_blob_radius'", "0 <= lo <= hi")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["shift_max", "rot_max", "scale_max", "blur_sd_max",
                                      "noise_sd_max", "warp_max", "bias_amplitude"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_synth_range(self, tmp_path, capsys, name, value):
        assert self.synth_params(tmp_path, **{name: value}) == 1
        self.one_line_error(capsys, f"'{name}'", "finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("change,names", [
        ({"window": 32, "downsample_factor_max": 1000}, ("'downsample_factor_max'", "< 2 * window")),
        ({"window": 32, "downsample_factor_max": 64}, ("'downsample_factor_max'", "< 2 * window")),
        ({"window": 7, "n_shapes": 8}, ("'window'", "'n_shapes'")),
    ])
    def test_synth_window_too_small(self, tmp_path, capsys, change, names):
        assert self.synth_params(tmp_path, **change) == 1
        self.one_line_error(capsys, *names)
        assert not (tmp_path / "out").exists()

    def test_synth_scale_max_below_one(self, tmp_path, capsys):
        assert self.synth_params(tmp_path, scale_max=1.5) == 1
        self.one_line_error(capsys, "'scale_max'", "< 1")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("radius", [3, [2], ["2", "3"], {"lo": 2}])
    def test_noisy_oracle_radius_not_a_pair(self, tmp_path, phantom_files, capsys, radius):
        cfg = {"predictor": {"backend": "noisy_oracle", "fp_blob_radius": radius}}
        assert self.extract(tmp_path, phantom_files, cfg) == 1
        self.one_line_error(capsys, "predictor", "'fp_blob_radius'", "two numbers")


class TestMalformedInput:
    """A malformed scan, flag or timeout ends in one `error:` line, exit 1."""

    @pytest.mark.parametrize("what, value, names", [
        ("vox_offset", float("inf"), ["img.nii: vox_offset inf"]),
        ("vox_offset", float("nan"), ["img.nii: vox_offset nan"]),
        ("vox_offset", 1e12, ["img.nii: truncated data (0 of 3538944 bytes)"]),
        ("vox_offset gz", 1e12, ["img.nii.gz: truncated data (0 of 3538944 bytes)"]),
        ("dims", 30000, ["img.nii: truncated data (3538944 of 108000000000000 bytes)"]),
        ("dims gz", 30000, ["img.nii.gz: truncated data (3538944 of 108000000000000 bytes)"]),
        ("--spacing", "inf", ["target spacing", "inf"]),
        ("--spacing", "nan", ["target spacing", "nan"]),
        ("timeout", float("inf"), ["timeout must be finite", "inf"]),
        ("timeout", float("nan"), ["timeout must be finite", "nan"]),
        ("intensity", float("nan"), ["intensities must be finite"]),
    ], ids=["vox_offset-inf", "vox_offset-nan", "vox_offset-1e12", "vox_offset-1e12-gz",
            "dims-30000^3", "dims-30000^3-gz", "spacing-inf", "spacing-nan",
            "timeout-inf", "timeout-nan", "intensity-nan"])
    def test_one_line_error(self, tmp_path, phantom_files, capsys, what, value, names):
        img_path, gt_path = phantom_files
        cfg = oracle_config(tmp_path, gt_path)
        flags = []
        if what.startswith(("vox_offset", "dims")):
            raw = bytearray(img_path.read_bytes())
            if what.startswith("vox_offset"):
                struct.pack_into("<f", raw, 108, value)
            else:
                struct.pack_into("<3h", raw, 42, value, value, value)
            if what.endswith("gz"):
                img_path = img_path.with_suffix(".nii.gz")
                raw = gzip.compress(raw, 1)
            img_path.write_bytes(bytes(raw))
        elif what == "--spacing":
            flags = [what, value]
        elif what == "timeout":
            cfg.write_text(json.dumps({"predictor": {
                "backend": "external", "timeout": value,
                "command": [sys.executable, SERVER, "constant"]}}))
        else:
            img = io_nifti.read_nifti(img_path)
            img.data[40, 50, 60] = value
            io_nifti.write_nifti(img, img_path, "float32")
        code = main(["extract", str(img_path), "--config", str(cfg),
                     "--out", str(tmp_path / "mask.nii"), "--side", "96", *flags])
        assert code == 1
        TestConfigErrors.one_line_error(capsys, *names)
        assert not (tmp_path / "mask.nii").exists()

    @pytest.mark.parametrize("pixdim", [0.01, 1e-30])
    def test_axis_with_no_resampled_voxel(self, tmp_path, capsys, pixdim):
        """10 voxels of this pixdim resample to none at 1 mm. The cube is all
        padding there; a predictor that marks the whole cube still finds
        nothing to put back on that axis, so the mask restores as zeros."""
        img_path = tmp_path / "scan.nii"
        data = np.random.default_rng(3).random((10, 12, 9)).astype(np.float32)
        io_nifti.write_nifti(Volume(data, (pixdim, 1.0, 1.0)), img_path, "float32")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"predictor": {"backend": "constant", "value": 1.0},
                                   "bfs_stages": [{"window": 8, "step": 8}],
                                   "dfs_stages": [{"window": 8, "step": 4}]}))
        out = tmp_path / "mask.nii"
        code = main(["extract", str(img_path), "--config", str(cfg), "--out", str(out),
                     "--side", "16"])
        assert code == 0 and capsys.readouterr().err == ""
        mask = io_nifti.read_nifti(out, kind=Kind.MASK)
        assert mask.dims == (10, 12, 9) and not mask.data.any()

    @pytest.mark.parametrize("message", ["", "Unable to allocate 7.28 TiB for an array"])
    def test_memory_error_one_line(self, tmp_path, capsys, monkeypatch, message):
        # stand-ins raise MemoryError: a real huge allocation could get the
        # process killed on a host that overcommits memory
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        expected = f"error: {message or 'out of memory'}\n"
        monkeypatch.setattr(cli, "coverage_counts", out_of_memory)
        assert main(["plan", "--dims", "5000,5000,5000", "--window", "4096", "--step", "4096"]) == 1
        assert capsys.readouterr().err == expected
        monkeypatch.setattr(cascade, "conform_input", out_of_memory)
        img_path = tmp_path / "scan.nii"
        io_nifti.write_nifti(Volume(np.ones((20, 20, 20), np.float32)), img_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"predictor": {"backend": "constant", "value": 1.0}}))
        assert main(["extract", str(img_path), "--config", str(cfg),
                     "--out", str(tmp_path / "o.nii"), "--side", "100000"]) == 1
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "o.nii").exists()


class TestSynth:
    def test_model_d_output(self, tmp_path):
        outdir = tmp_path / "pairs"
        code = main(["synth", "--model", "D", "--count", "2", "--seed", "7",
                     "--outdir", str(outdir)])
        assert code == 0
        img = io_nifti.read_nifti(outdir / "image_0000.nii")
        assert img.dims == (32, 32, 32)
        assert (outdir / "mask_0001.nii").exists()
        sidecar = json.loads((outdir / "pair_0000.json").read_text())
        assert 0.0 <= sidecar["brain_fraction"] <= 1.0

    def test_deterministic_bytes(self, tmp_path):
        for name in ("run1", "run2"):
            code = main(["synth", "--model", "D", "--count", "2", "--seed", "7",
                         "--outdir", str(tmp_path / name)])
            assert code == 0
        for fname in ("image_0000.nii", "mask_0000.nii", "image_0001.nii"):
            a = (tmp_path / "run1" / fname).read_bytes()
            b = (tmp_path / "run2" / fname).read_bytes()
            assert a == b

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_rejected(self, tmp_path, capsys, count):
        code = main(["synth", "--model", "D", "--count", count,
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: --count must be >= 1, got {count}\n"
        assert not (tmp_path / "out").exists()

    # digests recorded before the phantom became uint8 and before --labelmap
    # stopped widening its map to int32
    @pytest.mark.parametrize("datatype,digest", [
        ("uint8", "d841f95d16274933b2639834e9d09ccb8550aafdb8341813e8825527efe770e3"),
        ("int16", "2c295d8b1fc7f3aafb3ba23eb6a0fcb51144f69a34a6fecd17c0a0cec5dc8b5a"),
    ])
    def test_labelmap_file_digest(self, tmp_path, datatype, digest):
        lm = synth.make_phantom_label_map(np.random.default_rng(41), (70, 66, 64))
        data = lm.data.astype(np.int16)
        if datatype == "int16":  # a label above 255 beside the brain, inside the window
            near = data[26:44, 26:40, 18:23]
            near[near == 0] = 300
        io_nifti.write_nifti(Volume(data, (1.0, 1.0, 1.0), Kind.LABEL), tmp_path / "lm.nii", datatype)
        assert main(["synth", "--labelmap", str(tmp_path / "lm.nii"), "--model", "D",
                     "--count", "2", "--seed", "5", "--outdir", str(tmp_path / "out")]) == 0
        h = hashlib.sha256()
        for i in range(2):
            for name in (f"image_{i:04d}.nii", f"mask_{i:04d}.nii"):
                h.update((tmp_path / "out" / name).read_bytes())
        assert h.hexdigest() == digest

    def test_invalid_model(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--model", "E", "--outdir", str(tmp_path)])

    def test_params_file(self, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({
            "window": 32, "n_shapes": 2, "shift_max": 0, "rot_max": 0,
            "scale_max": 0, "blur_sd_max": 0, "noise_sd_max": 0,
            "warp_max": 0, "bias_amplitude": 0, "downsample_factor_max": 1,
        }))
        code = main(["synth", "--params", str(params), "--count", "1",
                     "--seed", "0", "--outdir", str(tmp_path / "out")])
        assert code == 0


class TestEval:
    def test_identity_dice(self, tmp_path, phantom_files, capsys):
        _, gt_path = phantom_files
        code = main(["eval", str(gt_path), str(gt_path), "--side", "96"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dice"] == 1.0

    def test_half_overlap_fixture(self, tmp_path, capsys):
        a = np.zeros((96, 96, 96), dtype=np.uint8)
        b = np.zeros((96, 96, 96), dtype=np.uint8)
        a[40:50, 40:50, 40:50] = 1
        b[40:50, 40:50, 45:55] = 1
        pa, pb = tmp_path / "a.nii", tmp_path / "b.nii"
        io_nifti.write_nifti(Volume(a, kind=Kind.MASK), pa, "uint8")
        io_nifti.write_nifti(Volume(b, kind=Kind.MASK), pb, "uint8")
        code = main(["eval", str(pa), str(pb), "--side", "96"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dice"] == pytest.approx(0.5)

    def test_csv_appends_one_row(self, tmp_path, phantom_files, capsys):
        _, gt_path = phantom_files
        csv = tmp_path / "rows.csv"
        for _ in range(2):
            assert main(["eval", str(gt_path), str(gt_path), "--side", "96",
                         "--csv", str(csv)]) == 0
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows


class TestSimulate:
    def test_zero_noise_both_arms_high(self, tmp_path, capsys):
        code = main(["simulate", "--seeds", "2", "--seed", "1",
                     "--report", str(tmp_path / "rep")])
        assert code == 0
        lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,cascade_dice,single_dice,cascade_fp_rate"
        for line in lines[1:]:
            _, cd, sd, _ = line.split(",")
            assert float(cd) >= 0.99 and float(sd) >= 0.99

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seeds_below_one_rejected(self, tmp_path, capsys, seeds):
        code = main(["simulate", "--seeds", seeds, "--report", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "--seeds" in err
        assert not (tmp_path / "rep.csv").exists()

    def test_reproducible(self, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            main(["simulate", "--seeds", "1", "--seed", "3",
                  "--noise-spec", '{"per_voxel_fp": 0.05}',
                  "--report", str(tmp_path / name)])
            outs.append((tmp_path / f"{name}.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_pinned_csv(self, tmp_path, capsys):
        """Pins the per-seed figures of one noisy simulate run to the digit."""
        code = main(["simulate", "--seeds", "1", "--seed", "4",
                     "--noise-spec", '{"per_voxel_fp": 0.05, "fp_blob_rate": 0.5}',
                     "--report", str(tmp_path / "rep")])
        assert code == 0
        assert (tmp_path / "rep.csv").read_text() == (
            "seed,cascade_dice,single_dice,cascade_fp_rate\n"
            "0,0.994226,0.512074,0.007744\n")


class TestPlan:
    def test_8_windows(self, capsys):
        assert main(["plan", "--dims", "192,192,192",
                     "--window", "128", "--step", "64"]) == 0
        out = capsys.readouterr().out
        assert "windows: 8" in out

    def test_64_windows(self, capsys):
        assert main(["plan", "--dims", "192,192,192",
                     "--window", "96", "--step", "32"]) == 0
        assert "windows: 64" in capsys.readouterr().out

    def test_exact_fit(self, capsys):
        assert main(["plan", "--dims", "64,64,64",
                     "--window", "64", "--step", "8"]) == 0
        out = capsys.readouterr().out
        assert "windows: 1" in out
        assert "min=1" in out

    def test_bad_dims(self, capsys):
        assert main(["plan", "--dims", "10,20",
                     "--window", "8", "--step", "4"]) == 1
