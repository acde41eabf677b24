import numpy as np
import pytest

from braincascade.metrics import OverlapReport, dice, overlap_report
from braincascade.volume import Kind, Volume
from conftest import mask, prob, random_mask


class TestDice:
    def test_identical(self, rng):
        m = random_mask(rng, (6, 6, 6))
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4), dtype=np.uint8); a[0, 0, 0] = 1
        b = np.zeros((4, 4, 4), dtype=np.uint8); b[3, 3, 3] = 1
        assert dice(mask(a), mask(b)) == 0.0

    def test_half_overlap(self, rng):
        a = np.zeros((10, 10, 10), dtype=np.uint8)
        b = np.zeros((10, 10, 10), dtype=np.uint8)
        a.ravel()[:100] = 1
        b.ravel()[50:150] = 1
        assert dice(mask(a), mask(b)) == 0.5

    def test_both_empty_is_one(self):
        e = mask(np.zeros((3, 3, 3)))
        assert dice(e, e) == 1.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            dice(mask(np.zeros((2, 2, 2))), mask(np.zeros((3, 3, 3))))

    def test_same_for_float_bool_and_uint8(self, rng):
        a = random_mask(rng, (6, 6, 6), 0.4).data
        b = random_mask(rng, (6, 6, 6), 0.4).data
        expected = dice(mask(a), mask(b))
        for dtype in (np.float32, np.bool_, np.uint8):
            got = dice(Volume(a.astype(dtype), kind=Kind.MASK),
                       Volume(b.astype(dtype), kind=Kind.MASK))
            assert got == expected, dtype

    def test_symmetry_property(self, rng):
        for _ in range(300):
            a = random_mask(rng, (5, 5, 5), 0.4)
            b = random_mask(rng, (5, 5, 5), 0.4)
            assert dice(a, b) == dice(b, a)

    def test_one_iff_equal_property(self, rng):
        for _ in range(300):
            a = random_mask(rng, (4, 4, 4), 0.4)
            b = random_mask(rng, (4, 4, 4), 0.4)
            if np.array_equal(a.data, b.data):
                assert dice(a, b) == 1.0
            else:
                assert dice(a, b) < 1.0


class TestOverlapReport:
    def test_perfect(self, rng):
        m = random_mask(rng, (6, 6, 6))
        r = overlap_report(m, m)
        assert r.fp == 0 and r.fn == 0 and r.dice == 1.0

    def test_empty_pred(self):
        gt = mask(np.ones((4, 4, 4)))
        pred = mask(np.zeros((4, 4, 4)))
        r = overlap_report(pred, gt)
        assert r.tp == 0 and r.dice == 0.0 and r.fn == 64

    def test_counts_match_brute_force(self, rng):
        for _ in range(30):
            pred = random_mask(rng, (16, 16, 16), 0.4)
            gt = mask(rng.random((16, 16, 16)) < 0.4, spacing=(1, 1, 2))
            r = overlap_report(pred, gt)
            tp = fp = fn = 0
            for idx in np.ndindex(pred.dims):
                p, g = pred.data[idx], gt.data[idx]
                tp += int(p and g)
                fp += int(p and not g)
                fn += int(not p and g)
            assert (r.tp, r.fp, r.fn) == (tp, fp, fn)
            neg = pred.data.size - int(gt.data.sum())
            assert r.fp_rate == pytest.approx(fp / neg if neg else 0.0)
            assert r.gt_mm3 == pytest.approx(gt.data.sum() * 2.0)

    @staticmethod
    def whole_volume_report(pred, gt):
        """overlap_report's fields by the earlier whole-volume formulas."""
        p, g = pred.data.astype(bool), gt.data.astype(bool)
        fp = int(np.count_nonzero(p & ~g))
        neg = g.size - int(np.count_nonzero(g))
        voxel_mm3 = float(np.prod(gt.spacing))
        return OverlapReport(
            dice=dice(pred, gt), tp=int(np.count_nonzero(p & g)), fp=fp,
            fn=int(np.count_nonzero(~p & g)), fp_rate=fp / neg if neg else 0.0,
            gt_voxels=int(np.count_nonzero(g)), pred_voxels=int(np.count_nonzero(p)),
            gt_mm3=float(np.count_nonzero(g)) * voxel_mm3,
            pred_mm3=float(np.count_nonzero(p)) * voxel_mm3,
        )

    def test_matches_whole_volume_formulas(self, rng):
        dims, spacing = (12, 9, 7), (0.7, 1.3, 2.9)
        empty, full = np.zeros(dims), np.ones(dims)
        pairs = [(empty, empty), (full, full), (empty, full), (full, empty)]
        pairs += [(empty, rng.random(dims) < 0.3), (rng.random(dims) < 0.3, full)]
        pairs += [(rng.random(dims) < p, rng.random(dims) < q)
                  for p, q in [(0.1, 0.1), (0.5, 0.2), (0.9, 0.6)]]
        for a, b in pairs:
            pred, gt = mask(a, spacing), mask(b, spacing)
            assert overlap_report(pred, gt) == self.whole_volume_report(pred, gt)
        soft = prob(rng.random(dims) * (rng.random(dims) < 0.5))
        hard = mask(rng.random(dims) < 0.5)
        assert overlap_report(soft, hard) == self.whole_volume_report(soft, hard)

    def test_csv_row_shape(self, rng):
        m = random_mask(rng, (4, 4, 4))
        row = overlap_report(m, m).csv_row("case1")
        assert len(row.split(",")) == len(OverlapReport.CSV_HEADER.split(","))
