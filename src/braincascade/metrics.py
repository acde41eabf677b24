"""Overlap metrics for extraction evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import Volume


@dataclass(frozen=True)
class OverlapReport:
    dice: float
    tp: int
    fp: int
    fn: int
    fp_rate: float  # over ground-truth-negative voxels
    gt_voxels: int
    pred_voxels: int
    gt_mm3: float
    pred_mm3: float

    CSV_HEADER = "id,dice,tp,fp,fn,fp_rate,gt_voxels,pred_voxels,gt_mm3,pred_mm3"

    def csv_row(self, case_id: str) -> str:
        return (
            f"{case_id},{self.dice:.6f},{self.tp},{self.fp},{self.fn},"
            f"{self.fp_rate:.6f},{self.gt_voxels},{self.pred_voxels},"
            f"{self.gt_mm3:.3f},{self.pred_mm3:.3f}"
        )


def _check_dims(a: Volume, b: Volume):
    if a.dims != b.dims:
        raise ValueError(f"volume dims mismatch: {a.dims} vs {b.dims}")


def dice(a: Volume, b: Volume) -> float:
    """Dice overlap 2|A.B|/(|A|+|B|); two empty masks score 1.0."""
    _check_dims(a, b)
    inter = int(np.count_nonzero(np.logical_and(a.data, b.data)))
    total = int(np.count_nonzero(a.data)) + int(np.count_nonzero(b.data))
    if total == 0:
        return 1.0
    return 2.0 * inter / total


def overlap_report(pred: Volume, gt: Volume) -> OverlapReport:
    """Overlap counts of pred against gt; the mm³ volumes take gt's spacing."""
    _check_dims(pred, gt)
    tp = int(np.count_nonzero(np.logical_and(pred.data, gt.data)))
    n_pred = int(np.count_nonzero(pred.data))
    n_gt = int(np.count_nonzero(gt.data))
    fp, neg = n_pred - tp, gt.data.size - n_gt
    voxel_mm3 = float(np.prod(gt.spacing))
    return OverlapReport(
        dice=dice(pred, gt),
        tp=tp, fp=fp, fn=n_gt - tp,
        fp_rate=fp / neg if neg else 0.0,
        gt_voxels=n_gt,
        pred_voxels=n_pred,
        gt_mm3=n_gt * voxel_mm3,
        pred_mm3=n_pred * voxel_mm3,
    )
