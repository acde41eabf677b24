import dataclasses
import gzip
import hashlib
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from braincascade import cascade, cli, io_nifti, metrics, synth
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
        capsys.readouterr()
        # scored on the scan's own grid, as overlap_report scores the two files
        assert main(["eval", str(out), str(gt_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == dataclasses.asdict(metrics.overlap_report(mask, gt))

    def test_gz_out_is_a_gzip_of_the_nii_out(self, tmp_path, phantom_files):
        img_path, gt_path = phantom_files
        cfg = oracle_config(tmp_path, gt_path)
        for out in ("nii/mask.nii", "gz/mask.nii.gz"):
            (tmp_path / out).parent.mkdir()
            assert main(["extract", str(img_path), "--config", str(cfg),
                         "--out", str(tmp_path / out), "--side", "96"]) == 0
        nii, gz = tmp_path / "nii" / "mask.nii", tmp_path / "gz" / "mask.nii.gz"
        with gzip.open(gz) as f:
            assert f.read() == nii.read_bytes()
        np.testing.assert_array_equal(io_nifti.read_nifti(gz, kind=Kind.MASK).data,
                                      io_nifti.read_nifti(nii, kind=Kind.MASK).data)
        assert sorted(p.name for p in gz.parent.iterdir()) == ["mask.nii.gz", "mask_trace.json"]

    def test_threads_flag_exits_1_naming_it(self, tmp_path, phantom_files, capsys):
        img_path, gt_path = phantom_files
        out = tmp_path / "mask.nii"
        assert main(["extract", str(img_path), "--config", str(oracle_config(tmp_path, gt_path)),
                     "--out", str(out), "--side", "96", "--threads", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: braincascade: unrecognized arguments: --threads 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, path", [("--out", "nodir/x.nii"),
                                            ("--trace", "nodir/t.json")])
    def test_missing_output_directory_fails_first(self, tmp_path, phantom_files, capsys,
                                                  monkeypatch, flag, path):
        """An output that cannot be written fails before the scan is read,
        not after the whole cascade has run."""
        def ran(*args, **kwargs):
            raise AssertionError("the cascade ran")
        monkeypatch.setattr(cascade, "extract_brain", ran)
        monkeypatch.chdir(tmp_path)
        img_path, gt_path = phantom_files
        argv = ["extract", str(img_path), "--config", str(oracle_config(tmp_path, gt_path)),
                "--out", "mask.nii", "--side", "96", flag, path]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: cannot write {path}: directory not found\n"
        assert not (tmp_path / "mask.nii").exists()

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

    # 2**20: a 4 EiB request buffer cannot be allocated; 2**21: its size
    # overflows a C size
    @pytest.mark.parametrize("window", [2 ** 20, 2 ** 21])
    def test_external_window_too_large_to_allocate(self, tmp_path, phantom_files, capsys,
                                                   monkeypatch, window):
        img_path, _ = phantom_files
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({
            "predictor": {"backend": "external", "timeout": 10.0,
                          "command": [sys.executable, SERVER, "constant", "0.9"]},
            "bfs_stages": [{"name": "a", "window": window, "step": window}],
            "dfs_stages": [{"name": "b", "window": 16, "step": 16}],
        }))
        spawned = []
        real_popen = subprocess.Popen

        def popen(*args, **kwargs):
            spawned.append(real_popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", popen)
        try:
            code = main(["extract", str(img_path), "--config", str(cfg),
                         "--out", str(tmp_path / "mask.nii"), "--side", "96"])
            alive = [proc.pid for proc in spawned if proc.poll() is None]
        finally:
            for proc in spawned:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdin.close()
                proc.stdout.close()
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: a: window {window}: cannot allocate its "
                       f"{24 + 4 * window ** 3}-byte request buffer\n")
        assert alive == []

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

    def test_unknown_model_letter_in_a_later_stage(self, tmp_path, phantom_files, capsys):
        cfg = {"bfs_stages": [{"model": "A"}, {"model": "Z"}]}
        code = self.extract(tmp_path, phantom_files, cfg)
        assert code == 1
        self.one_line_error(capsys, "bfs_stages[1]", "'Z'")

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

    def test_external_empty_command(self, tmp_path, phantom_files, capsys):
        cfg = {"predictor": {"backend": "external", "command": []}}
        code = self.extract(tmp_path, phantom_files, cfg)
        assert code == 1
        self.one_line_error(capsys, "stage A", "non-empty list of strings")

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

    @pytest.mark.parametrize("rate", ["fp_blob_rate", "fn_hole_rate"])
    def test_noise_rate_above_cap(self, tmp_path, phantom_files, capsys, rate):
        # 2**32 spheres per window would take about 23 hours each
        assert main(["simulate", "--seeds", "1", "--noise-spec", f'{{"{rate}": 4294967296}}']) == 1
        self.one_line_error(capsys, f"'{rate}'", "at most 1000")
        cfg = {"gt": str(phantom_files[1]),
               "predictor": {"backend": "noisy_oracle", rate: 4294967296}}
        assert self.extract(tmp_path, phantom_files, cfg) == 1
        self.one_line_error(capsys, f"'{rate}'", "at most 1000")

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

    def test_synth_n_shapes_above_cap(self, tmp_path, capsys):
        # one more shape than uint16 labels hold: about 12 s of shapes at window 8
        assert self.synth_params(tmp_path, window=8, n_shapes=65529) == 1
        self.one_line_error(capsys, "'n_shapes'", "at most 65528")
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
    # stopped widening its map to int32; uint8's second pair draws factor 2,
    # and its digest was re-recorded when the downsample's far planes (32 -> 16)
    # began to clamp to the edge instead of reading 0
    @pytest.mark.parametrize("datatype,digest", [
        ("uint8", "f741406e203e3aee61bf518ea424cd122c4f462e07f57faeeb0af4339f1733ca"),
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
        assert main(["synth", "--model", "E", "--outdir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: braincascade synth: argument --model: invalid choice: 'E'")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_model_and_params_exclude_each_other(self, tmp_path, capsys):
        assert main(["synth", "--model", "A", "--params", str(tmp_path / "p.json"),
                     "--outdir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: braincascade synth: argument --params: "
                                           "not allowed with argument --model\n")
        assert not (tmp_path / "out").exists()

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
        code = main(["eval", str(gt_path), str(gt_path)])
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
        code = main(["eval", str(pa), str(pb)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dice"] == pytest.approx(0.5)

    def test_csv_appends_one_row(self, tmp_path, phantom_files, capsys):
        _, gt_path = phantom_files
        csv = tmp_path / "rows.csv"
        for _ in range(2):
            assert main(["eval", str(gt_path), str(gt_path), "--csv", str(csv)]) == 0
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows

    @staticmethod
    def write_box(path, dims, spacing, box):
        data = np.zeros(dims, np.uint8)
        data[tuple(slice(a, b) for a, b in box)] = 1
        io_nifti.write_nifti(Volume(data, spacing, Kind.MASK), path, "uint8")

    def test_scores_the_whole_ground_truth_grid(self, tmp_path, capsys):
        """Two disjoint boxes near opposite corners of a grid larger than the
        192 mm cube: cropped to the cube, both were empty and scored 1.0."""
        pred, gt = tmp_path / "pred.nii", tmp_path / "gt.nii"
        self.write_box(pred, (300, 300, 60), (1.0, 1.0, 3.0), [(5, 45), (5, 45), (2, 17)])
        self.write_box(gt, (300, 300, 60), (1.0, 1.0, 3.0), [(255, 295), (255, 295), (43, 58)])
        assert main(["eval", str(pred), str(gt)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dice"] == 0.0
        assert report["gt_voxels"] == report["pred_voxels"] == report["fp"] == 24000
        assert report["gt_mm3"] == report["pred_mm3"] == 72000.0
        assert report["fp_rate"] == 24000 / (300 * 300 * 60 - 24000)

    def test_prediction_on_another_grid(self, tmp_path, capsys):
        """A 2 mm prediction is read nearest-neighbour onto the 1 mm ground
        truth; a box whose faces lie on 2 mm voxel boundaries is the same box."""
        pred, gt = tmp_path / "pred.nii", tmp_path / "gt.nii"
        self.write_box(pred, (20, 16, 12), (2.0, 2.0, 2.0), [(5, 15), (3, 9), (2, 10)])
        self.write_box(gt, (40, 32, 24), (1.0, 1.0, 1.0), [(10, 30), (6, 18), (4, 20)])
        assert main(["eval", str(pred), str(gt)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dice"] == 1.0 and report["pred_voxels"] == 20 * 12 * 16

    @pytest.mark.parametrize("flag, value", [("--side", "96"), ("--spacing", "1")])
    def test_cube_flags_exit_1_naming_them(self, tmp_path, phantom_files, capsys, flag, value):
        _, gt_path = phantom_files
        assert main(["eval", str(gt_path), str(gt_path), flag, value]) == 1
        assert capsys.readouterr().err == (
            f"error: braincascade: unrecognized arguments: {flag} {value}\n")


    def test_csv_header_on_an_empty_file(self, tmp_path, phantom_files, capsys):
        _, gt_path = phantom_files
        csv = tmp_path / "rows.csv"
        csv.write_text("")
        assert main(["eval", str(gt_path), str(gt_path), "--csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == metrics.OverlapReport.CSV_HEADER and len(lines) == 2


class TestInputErrors:
    """A missing input file, or one that does not parse, ends in one `error:`
    line naming it, exit 1."""

    @pytest.fixture(autouse=True)
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = np.zeros((8, 8, 8), np.uint8)
        data[2:6, 2:6, 2:6] = 1
        io_nifti.write_nifti(Volume(data, kind=Kind.MASK), "gt.nii")
        io_nifti.write_nifti(Volume(data * 2, kind=Kind.LABEL), "two.nii")
        io_nifti.write_nifti(Volume(-data.astype(np.int16), kind=Kind.INTENSITY), "neg.nii",
                             "int16")
        (tmp_path / "empty.json").write_text("{}")
        (tmp_path / "bad.json").write_text('{"alpha": }')
        (tmp_path / "null").write_text("[1]")  # inline, null would be "got NoneType"

    EXTRACT = ["extract", "gt.nii", "--config", "empty.json", "--out", "o.nii", "--side", "16"]

    @pytest.mark.parametrize("argv, line", [
        (["extract", "missing.nii", "--config", "empty.json", "--out", "o.nii"],
         "file not found: missing.nii"),
        (["extract", "gt.nii", "--config", "missing.json", "--out", "o.nii"],
         "file not found: missing.json"),
        (EXTRACT + ["--gt", "missing.nii"], "file not found: missing.nii"),
        (["synth", "--model", "D", "--labelmap", "missing.nii", "--outdir", "out"],
         "file not found: missing.nii"),
        (["synth", "--params", "missing.json", "--outdir", "out"], "file not found: missing.json"),
        (["eval", "missing.nii", "gt.nii"], "file not found: missing.nii"),
        (["eval", "gt.nii", "missing.nii"], "file not found: missing.nii"),
        (["extract", "gt.nii", "--config", "bad.json", "--out", "o.nii"],
         "bad.json: Expecting value: line 1 column 11 (char 10)"),
        (["synth", "--params", "bad.json", "--outdir", "out"],
         "bad.json: Expecting value: line 1 column 11 (char 10)"),
        (["simulate", "--noise-spec", "bad.json"],
         "bad.json: Expecting value: line 1 column 11 (char 10)"),
        (["simulate", "--noise-spec", '{"per_voxel_fp": }'],
         "--noise-spec: Expecting value: line 1 column 18 (char 17)"),
        # not starting with { or [, a --noise-spec is a path, whether or not it exists
        (["simulate", "--noise-spec", "missing.json"], "file not found: missing.json"),
        (["simulate", "--noise-spec", "null"], "--noise-spec must be a JSON object, got list"),
        (["simulate", "--noise-spec", " \n [1]"], "--noise-spec must be a JSON object, got list"),
        (["eval", "two.nii", "gt.nii"], "two.nii: mask volume contains values outside {0, 1}"),
        (["eval", "gt.nii", "two.nii"], "two.nii: mask volume contains values outside {0, 1}"),
        (EXTRACT + ["--gt", "two.nii"], "two.nii: mask volume contains values outside {0, 1}"),
        (["synth", "--model", "D", "--labelmap", "neg.nii", "--outdir", "out"],
         "neg.nii: label volume must hold non-negative integers"),
    ], ids=["extract-input", "extract-config", "extract-gt", "synth-labelmap", "synth-params",
            "eval-pred", "eval-gt", "config-syntax", "params-syntax", "noise-spec-file-syntax",
            "noise-spec-syntax", "noise-spec-missing", "noise-spec-file-named-null",
            "noise-spec-inline-after-blanks", "eval-pred-kind", "eval-gt-kind", "extract-gt-kind",
            "synth-labelmap-kind"])
    def test_one_line_naming_the_file(self, tmp_path, capsys, argv, line):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "o.nii").exists() and not (tmp_path / "out").exists()

    def test_file_not_found_without_a_name(self, capsys, monkeypatch):
        def read_nifti(path, kind=Kind.INTENSITY):
            raise FileNotFoundError(2, "No such file or directory")
        monkeypatch.setattr(cli.io_nifti, "read_nifti", read_nifti)
        assert main(["eval", "gt.nii", "gt.nii"]) == 1
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory\n"


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

    def test_step_larger_than_window(self, capsys):
        # steps of 10 would leave voxels 4-9 and 14-15 in no window
        assert main(["plan", "--dims", "20,4,4", "--window", "4", "--step", "10"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: need 1 <= step <= window, got window 4 and step 10\n"


class TestUsageErrors:
    """A command line argparse rejects exits 1 with one `error:` line, never
    2, which means "no brain found"."""

    @pytest.mark.parametrize("argv,err", [
        (["extract", "s.nii", "--out", "o.nii", "--side", "nan"],
         "braincascade extract: argument --side: invalid int value: 'nan'"),
        (["extract", "s.nii", "--out", "o.nii", "--confg", "c"],
         "braincascade: unrecognized arguments: --confg c"),
        (["simulate", "--seeds", "1", "--threads", "2"],
         "braincascade: unrecognized arguments: --threads 2"),
        (["synth", "--outdir", "out"],
         "braincascade synth: one of the arguments --model --params is required"),
        (["eval", "p.nii"], "braincascade eval: the following arguments are required: gt"),
        ([], "braincascade: the following arguments are required: cmd"),
    ])
    def test_one_error_line(self, tmp_path, monkeypatch, capsys, argv, err):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["extract", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().err == ""
