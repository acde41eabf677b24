import os
import sys
import time

import numpy as np
import pytest

from braincascade import predictor
from braincascade.predictor import (
    ConstantPredictor, ExternalPredictor, NoiseSpec, NoisyOraclePredictor,
    OraclePredictor, PredictorError, _squared_distances,
)
from braincascade.volume import Kind, Volume, read_box
from conftest import intensity, mask, random_mask

SERVER = os.path.join(os.path.dirname(__file__), "fixtures", "echo_server.py")


def zero_patch(w):
    return intensity(np.zeros((w, w, w)))


class TestOracle:
    def test_returns_gt_at_origin(self, rng):
        gt = random_mask(rng, (64, 64, 64))
        h = OraclePredictor(gt, 32)
        out = h.predict(zero_patch(32), (16, 8, 0))
        np.testing.assert_array_equal(out.data, gt.data[16:48, 8:40, 0:32])

    def test_brain_patch_all_ones(self):
        gt = mask(np.ones((32, 32, 32)))
        out = OraclePredictor(gt, 16).predict(zero_patch(16), (8, 8, 8))
        assert (out.data == 1.0).all()

    def test_background_patch_all_zeros(self):
        gt = mask(np.zeros((32, 32, 32)))
        out = OraclePredictor(gt, 16).predict(zero_patch(16), (0, 0, 0))
        assert (out.data == 0.0).all()

    def test_out_of_bounds_reads_zero(self):
        gt = mask(np.ones((32, 32, 32)))
        out = OraclePredictor(gt, 16).predict(zero_patch(16), (24, 24, 24))
        assert out.data[:8, :8, :8].all()
        assert not out.data[8:, :, :].any()

    def test_wrong_patch_dims_rejected(self):
        h = OraclePredictor(mask(np.zeros((32, 32, 32))), 16)
        with pytest.raises(PredictorError):
            h.predict(zero_patch(8), (0, 0, 0))


class TestNoisyOracle:
    def test_zero_noise_equals_oracle(self, rng):
        gt = random_mask(rng, (64, 64, 64))
        clean = OraclePredictor(gt, 32)
        noisy = NoisyOraclePredictor(gt, 32, NoiseSpec(), model_seed=5)
        for origin in [(0, 0, 0), (16, 16, 16), (40, 0, 8)]:
            np.testing.assert_array_equal(
                noisy.predict(zero_patch(32), origin).data,
                clean.predict(zero_patch(32), origin).data,
            )

    def test_per_voxel_fp_binomial(self):
        gt = mask(np.zeros((32, 32, 32)))
        p = 0.1
        h = NoisyOraclePredictor(gt, 32, NoiseSpec(per_voxel_fp=p), model_seed=1)
        out = h.predict(zero_patch(32), (0, 0, 0))
        n = 32 ** 3
        count = int((out.data > 0).sum())
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(count - n * p) < 3 * sigma

    def test_deterministic_per_window(self, rng):
        gt = random_mask(rng, (64, 64, 64))
        spec = NoiseSpec(per_voxel_fp=0.05, fp_blob_rate=1.0, fn_hole_rate=0.5)
        h = NoisyOraclePredictor(gt, 32, spec, model_seed=2, master_seed=9)
        a = h.predict(zero_patch(32), (8, 8, 8))
        b = h.predict(zero_patch(32), (8, 8, 8))
        np.testing.assert_array_equal(a.data, b.data)

    def test_model_seeds_give_independent_fp(self):
        gt = mask(np.zeros((64, 64, 64)))
        p = 0.1
        h1 = NoisyOraclePredictor(gt, 64, NoiseSpec(per_voxel_fp=p), model_seed=1)
        h2 = NoisyOraclePredictor(gt, 64, NoiseSpec(per_voxel_fp=p), model_seed=2)
        a = h1.predict(zero_patch(64), (0, 0, 0)).data > 0
        b = h2.predict(zero_patch(64), (0, 0, 0)).data > 0
        assert (a != b).any()
        # joint rate close to p*p for independent streams
        joint = (a & b).mean()
        n = a.size
        sigma = np.sqrt(p * p * (1 - p * p) / n)
        assert abs(joint - p * p) < 5 * sigma

    def test_blob_mean_volume(self):
        gt = mask(np.zeros((96, 96, 96)))
        rate = 2.0
        spec = NoiseSpec(fp_blob_rate=rate, fp_blob_radius=(3.0, 3.0))
        h = NoisyOraclePredictor(gt, 96, spec, model_seed=7)
        # a ball of radius 3 at a uniform continuous center covers
        # (4/3)*pi*27 ~ 113 lattice points on average; edges shave a little
        totals = []
        for t in range(200):
            out = h.predict(zero_patch(96), (t, 0, 0))
            totals.append(float((out.data > 0).sum()))
        expected = rate * 4.0 / 3.0 * np.pi * 27
        assert abs(np.mean(totals) - expected) / expected < 0.15

    def test_holes_delete_foreground(self):
        gt = mask(np.ones((32, 32, 32)))
        spec = NoiseSpec(fn_hole_rate=5.0, fp_blob_radius=(3.0, 3.0))
        h = NoisyOraclePredictor(gt, 32, spec, model_seed=3)
        out = h.predict(zero_patch(32), (0, 0, 0))
        assert (out.data == 0).any() and (out.data == 1).any()

    def test_output_clamped(self, rng):
        gt = random_mask(rng, (32, 32, 32))
        spec = NoiseSpec(per_voxel_fp=0.3, fp_blob_rate=3.0)
        h = NoisyOraclePredictor(gt, 32, spec, model_seed=1)
        out = h.predict(zero_patch(32), (0, 0, 0))
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_calls_return_independent_arrays(self, rng):
        gt = random_mask(rng, (48, 48, 48))
        spec = NoiseSpec(per_voxel_fp=0.1, fp_blob_rate=1.0, fn_hole_rate=1.0)
        h = NoisyOraclePredictor(gt, 32, spec, model_seed=2)
        for origin in [(8, 8, 8), (0, 16, 16), (30, 0, 40)]:  # inside, inside, past the edge
            a = h.predict(zero_patch(32), origin).data
            b = h.predict(zero_patch(32), origin).data
            expected = b.copy()
            assert a.flags.writeable
            assert not np.shares_memory(a, b)
            assert not np.shares_memory(a, gt.data) and not np.shares_memory(a, h._flips)
            a[...] = 0.5
            np.testing.assert_array_equal(b, expected)
            np.testing.assert_array_equal(h.predict(zero_patch(32), origin).data, expected)

    def test_squared_distances_match_ogrid(self, rng):
        # the ogrid formula the sphere noise used before, as the reference
        w = 32
        for _ in range(300):
            center = rng.uniform(0, w, size=3)
            r = rng.uniform(0.5, 20.0)
            mins = np.maximum(np.floor(center - r).astype(int), 0)
            maxs = np.minimum(np.ceil(center + r).astype(int) + 1, w)
            grids = np.ogrid[mins[0]:maxs[0], mins[1]:maxs[1], mins[2]:maxs[2]]
            expected = sum((g - c) ** 2 for g, c in zip(grids, center))
            got = _squared_distances(list(zip(mins.tolist(), maxs.tolist())), center.tolist())
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            NoiseSpec(per_voxel_fp=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(fp_blob_rate=-1)
        for radius in [(3.0, float("inf")), (float("nan"), 3.0), (6.0, 2.0), (-5.0, -1.0)]:
            with pytest.raises(ValueError, match="fp_blob_radius"):
                NoiseSpec(fp_blob_radius=radius)
        for rate in ("fp_blob_rate", "fn_hole_rate", "per_voxel_fp"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=rate):
                    NoiseSpec(**{rate: value})

    def test_majority_fp_rate_converges(self):
        # three independent streams voted 2-of-3: rate 3p^2(1-p) + p^3
        gt = mask(np.zeros((64, 64, 64)))
        p = 0.1
        outs = [
            NoisyOraclePredictor(gt, 64, NoiseSpec(per_voxel_fp=p), model_seed=m)
            .predict(zero_patch(64), (0, 0, 0)).data > 0
            for m in (1, 2, 3)
        ]
        votes = sum(o.astype(int) for o in outs)
        rate = (votes >= 2).mean()
        expected = 3 * p ** 2 * (1 - p) + p ** 3
        assert abs(rate - expected) < 0.003


class TestConstant:
    def test_value(self):
        out = ConstantPredictor(0.5, 8).predict(zero_patch(8), (0, 0, 0))
        assert (out.data == 0.5).all()

    def test_clamped(self):
        out = ConstantPredictor(2.0, 4).predict(zero_patch(4), (0, 0, 0))
        assert (out.data == 1.0).all()


@pytest.mark.skipif(not os.path.exists(SERVER), reason="fixture server missing")
class TestExternal:
    def server(self, *args):
        return [sys.executable, SERVER, *args]

    def test_constant_server(self):
        h = ExternalPredictor(self.server("constant", "0.5"), 8, timeout=10)
        try:
            out = h.predict(zero_patch(8), (1, 2, 3))
            assert (out.data == 0.5).all()
            out2 = h.predict(zero_patch(8), (4, 5, 6))
            assert (out2.data == 0.5).all()
        finally:
            h.close()

    def test_echo_keeps_byte_order(self):
        # axis-dependent values: a transposed or byte-swapped patch differs
        w = 8
        i, j, k = np.indices((w, w, w))
        patch = ((i * w * w + j * w + k) / w ** 3).astype(np.float32)
        h = ExternalPredictor(self.server("echo"), w, timeout=10)
        try:
            out = h.predict(intensity(patch), (3, 16, 40))
            np.testing.assert_array_equal(out.data, patch)
        finally:
            h.close()

    def test_echo_of_read_only_view(self, rng):
        # a patch that is a strided, read-only view of a larger volume
        data = rng.random((20, 20, 20)).astype(np.float32)
        view = read_box(data, (3, 5, 7), (8, 8, 8))
        h = ExternalPredictor(self.server("echo"), 8, timeout=10)
        try:
            out = h.predict(intensity(view), (3, 5, 7))
            np.testing.assert_array_equal(out.data, data[3:11, 5:13, 7:15])
        finally:
            h.close()

    def test_calls_return_independent_arrays(self):
        h = ExternalPredictor(self.server("constant", "0.5"), 8, timeout=10)
        try:
            a = h.predict(zero_patch(8), (0, 0, 0)).data
            b = h.predict(zero_patch(8), (0, 0, 0)).data
            assert a.flags.writeable and not np.shares_memory(a, b)
            a[...] = 0.0
            assert (b == 0.5).all()
        finally:
            h.close()

    def test_window_mismatch_is_construction_error(self):
        with pytest.raises(PredictorError, match="window"):
            ExternalPredictor(self.server("window64"), 32, timeout=10)

    def test_server_death_names_window(self):
        h = ExternalPredictor(self.server("die"), 8, timeout=10)
        try:
            with pytest.raises(PredictorError, match=r"\(3, 4, 5\)"):
                h.predict(zero_patch(8), (3, 4, 5))
        finally:
            h.close()

    def test_hung_server_times_out(self):
        h = ExternalPredictor(self.server("hang"), 8, timeout=1.0)
        try:
            start = time.monotonic()
            with pytest.raises(PredictorError, match=r"timeout.*\(3, 4, 5\)"):
                h.predict(zero_patch(8), (3, 4, 5))
            assert time.monotonic() - start < 3
            # stopped at once, so no late reply can answer a later window
            assert h._proc.wait(timeout=1) is not None
        finally:
            h.close()
        assert h._proc.poll() is not None  # the hung process was reaped

    def test_stalled_reader_times_out_while_sending(self):
        # a 1 MiB request is more than a pipe holds (64 KiB by default): a
        # child that stops reading must not block the send past the timeout
        h = ExternalPredictor(self.server("stall"), 64, timeout=1.0)
        try:
            start = time.monotonic()
            with pytest.raises(PredictorError, match=r"timeout.*\(3, 4, 5\)"):
                h.predict(zero_patch(64), (3, 4, 5))
            assert time.monotonic() - start < 2
            assert h._proc.wait(timeout=1) is not None
        finally:
            h.close()
        assert h._proc.poll() is not None

    def test_stalled_reader_small_request_times_out_on_reply(self):
        # an 8^3 request fits in the pipe: the send completes and the
        # timeout fails the wait for the reply
        h = ExternalPredictor(self.server("stall"), 8, timeout=1.0)
        try:
            start = time.monotonic()
            with pytest.raises(PredictorError, match=r"timeout.*\(3, 4, 5\)"):
                h.predict(zero_patch(8), (3, 4, 5))
            assert time.monotonic() - start < 2
            assert h._proc.wait(timeout=1) is not None
        finally:
            h.close()
        assert h._proc.poll() is not None

    def test_echo_of_successive_requests(self, rng):
        # each request is sent from one reused buffer: a reply must carry
        # its own patch, and an earlier result must not change
        h = ExternalPredictor(self.server("echo"), 8, timeout=10)
        try:
            patches = [rng.random((8, 8, 8)).astype(np.float32) for _ in range(3)]
            outs = [h.predict(intensity(p), (i, 0, 0)).data for i, p in enumerate(patches)]
            for out, p in zip(outs, patches):
                np.testing.assert_array_equal(out, p)
        finally:
            h.close()

    @staticmethod
    def assert_closed(h):
        assert h._proc.poll() is not None
        assert h._proc.stdin.closed and h._proc.stdout.closed
        h.close()  # a second close is harmless
        assert h._proc.stdin.closed and h._proc.stdout.closed

    def test_close_after_normal_use(self):
        h = ExternalPredictor(self.server("constant"), 8, timeout=10)
        h.predict(zero_patch(8), (0, 0, 0))
        h.close()
        self.assert_closed(h)

    def test_close_after_child_died(self):
        h = ExternalPredictor(self.server("die"), 8, timeout=10)
        with pytest.raises(PredictorError):
            h.predict(zero_patch(8), (0, 0, 0))
        h._proc.wait(timeout=5)
        h.close()
        self.assert_closed(h)

    def test_close_after_timeout_kill(self):
        h = ExternalPredictor(self.server("hang"), 8, timeout=0.5)
        with pytest.raises(PredictorError, match="timeout"):
            h.predict(zero_patch(8), (0, 0, 0))
        h.close()
        self.assert_closed(h)

    def test_unspawnable_command(self):
        with pytest.raises(PredictorError):
            ExternalPredictor(["/nonexistent/binary"], 8)

    @pytest.mark.parametrize("timeout", [float("inf"), float("nan"), 0.0, -1.0])
    def test_timeout_checked_before_spawn(self, timeout):
        # a command that cannot spawn: the timeout is refused first
        with pytest.raises(ValueError, match="timeout must be finite and positive"):
            ExternalPredictor(["/nonexistent/binary"], 8, timeout=timeout)

    def test_long_timeout_works(self):
        h = ExternalPredictor(self.server("constant", "0.5"), 8, timeout=1e300)
        try:
            assert (h.predict(zero_patch(8), (0, 0, 0)).data == 0.5).all()
        finally:
            h.close()

    def test_timeout_spans_poll_slices(self, monkeypatch):
        monkeypatch.setattr(predictor, "POLL_SLICE_S", 0.1)
        h = ExternalPredictor(self.server("hang"), 8, timeout=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(PredictorError, match="timeout"):
                h.predict(zero_patch(8), (0, 0, 0))
            assert 0.5 <= time.monotonic() - start < 3
        finally:
            h.close()
