"""Binary-mask algebra: thresholding, connected components, majority vote."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage

from .volume import BoundingBox, Kind, Volume


class EmptyMaskError(ValueError):
    """Raised when an operation requires at least one foreground voxel."""


# Masks with at most this many foreground runs (along axis 2) per voxel are
# labelled from their runs; speckled masks go through scipy voxel by voxel.
# Timed on a ball of radius 0.35 n plus uniform speckle, 26-connected, best
# of 3, in two sweeps (2 vCPU, numpy 2.4.6, scipy 1.17.1): the run pass cost
# 0.37-0.50 us per run and _label_voxels 9-17 ns per voxel (more as speckle
# grows), so the two broke even at 0.030-0.033 runs per voxel at 192^3 and
# 0.034-0.038 at 128^3. The workloads' masks lie clear of that band: at most
# 0.016 on shrink, native and external, at least 0.087 on dense.
RUNS_PER_VOXEL_MAX = 0.03
# planes along axis 0 on which the runs per voxel are counted
_SAMPLE_PLANES = 16


@dataclass(frozen=True)
class _Runs:
    """Foreground runs along axis 2 in scan order, as flat C-order [start, stop)."""

    start: np.ndarray
    stop: np.ndarray
    label: np.ndarray  # component of each run, 1..K

    def paint(self, dims, select, value, dtype) -> np.ndarray:
        """Array of zeros with ``value`` over the runs ``select`` picks."""
        start, stop = self.start[select], self.stop[select]
        bounds = np.empty(2 * start.size + 2, dtype=np.int64)
        bounds[0], bounds[-1] = 0, int(np.prod(dims))
        bounds[1:-1:2], bounds[2:-1:2] = start, stop
        values = np.zeros(2 * start.size + 1, dtype=dtype)
        values[1::2] = value
        return np.repeat(values, np.diff(bounds)).reshape(dims)


@dataclass(frozen=True)
class LabeledComponents:
    """Connected components of a mask.

    ``labels`` numbers components 1..K in first-encounter order of the
    C-order voxel scan; 0 is background. ``sizes[k-1]`` is the voxel count
    of component k. A mask labelled from its runs keeps only the runs and
    builds ``labels`` when it is first read.
    """

    mask: Volume
    sizes: list[int]
    _labels: np.ndarray | None = None  # voxel path
    _runs: _Runs | None = None  # run path

    @cached_property
    def labels(self) -> Volume:
        data = self._labels
        if data is None:
            data = self._runs.paint(self.mask.dims, slice(None), self._runs.label, np.int32)
        return Volume(data, self.mask.spacing, Kind.LABEL)

    def component(self, k: int) -> Volume:
        """Mask of component k (1-based)."""
        if self._runs is None:
            data = (self._labels == k).view(np.uint8)
        else:
            data = self._runs.paint(self.mask.dims, self._runs.label == k, 1, np.uint8)
        return Volume(data, self.mask.spacing, Kind.MASK)


def threshold(p: Volume, alpha: float) -> Volume:
    """Binarize a probability map: voxel set iff value >= alpha (inclusive)."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return Volume((p.data >= alpha).view(np.uint8), p.spacing, Kind.MASK)


def _structure(connectivity: int) -> np.ndarray:
    return ndimage.generate_binary_structure(3, 1 if connectivity == 6 else 3)


def _runs_per_voxel(data: np.ndarray) -> float:
    """Foreground runs along axis 2 per voxel, counted on evenly spaced planes."""
    sample = data[::max(1, data.shape[0] // _SAMPLE_PLANES)]
    runs = np.count_nonzero(sample[..., :1]) + np.count_nonzero(sample[..., 1:] > sample[..., :-1])
    return runs / max(sample.size, 1)


def _label_voxels(data: np.ndarray, connectivity: int) -> tuple[np.ndarray, list[int]]:
    """scipy's voxel-by-voxel labels, in first-encounter scan order as they come."""
    labels, k = ndimage.label(data, structure=_structure(connectivity))  # int32
    # labels of the foreground voxels; 1-byte masks are read as bool in
    # place, other dtypes are compared once
    seq = labels[data.view(np.bool_) if data.dtype.itemsize == 1 else data != 0]
    return labels, np.bincount(seq, minlength=k + 1)[1:].tolist()


def _label_runs(data: np.ndarray, connectivity: int) -> tuple[_Runs, list[int]]:
    """Label a mask from its foreground runs along axis 2.

    Runs are keyed ``row * (n2 + 1) + column`` over the rows (i0, i1); the
    spare column keeps a row's last run from touching the next row's first.
    Each run is joined to the runs it touches in the already-scanned
    neighbour rows, and a union-find rooted at each set's first run numbers
    the components in first-encounter order.
    """
    n0, n1, n2 = data.shape
    width = n2 + 1
    padded = np.zeros((n0, n1, n2 + 2), dtype=np.uint8)
    padded[:, :, 1:-1] = data
    padded = padded.reshape(-1, n2 + 2)
    # a row's value changes alternate: a run starts, then it stops (a bool
    # diff, since flatnonzero scans bool several times faster than uint8)
    edges = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    start, stop = edges[0::2], edges[1::2]
    row = start // width
    i0, i1 = np.divmod(row, n1)
    if connectivity == 26:  # touching includes a shared corner: widen by one
        neighbours, widen = ((0, -1), (-1, -1), (-1, 0), (-1, 1)), 1
    else:
        neighbours, widen = ((0, -1), (-1, 0)), 0
    later, earlier = [], []
    for d0, d1 in neighbours:
        valid = (i0 > 0) if d0 else np.ones(row.size, dtype=bool)
        if d1:
            valid &= (i1 > 0) if d1 < 0 else (i1 < n1 - 1)
        a = np.flatnonzero(valid)
        shift = (d0 * n1 + d1) * width
        # the runs of the neighbour row that touch run a: [lo, lo + count)
        lo = np.searchsorted(stop, start[a] + (shift - widen), "right")
        count = np.searchsorted(start, stop[a] + (shift + widen), "left") - lo
        total = int(count.sum())
        later.append(np.repeat(a, count))
        earlier.append(np.repeat(lo - np.cumsum(count) + count, count) + np.arange(total))
    root = _merge(start.size, np.concatenate(later), np.concatenate(earlier))
    # a set's root is its first run in scan order
    label = np.cumsum(root == np.arange(start.size), dtype=np.int32)[root]
    sizes = np.bincount(label, stop - start)[1:].astype(np.int64).tolist()
    return _Runs(start - row, stop - row, label), sizes


def _merge(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union-find over n items joined in pairs (a, b); each item's root is
    the smallest item of its set."""
    root = np.arange(n)
    while a.size:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            break
        # a joined pair stays joined: keep only the pairs still apart
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        # hook each larger root to the smallest root it meets, then jump
        # pointers until every item points at its root
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    return root


def connected_components(mask: Volume, connectivity: int = 26) -> LabeledComponents:
    """Label connected components under 6- or 26-adjacency.

    Labels are in first-encounter scan order, whichever pass computed them:
    masks made of long runs are labelled from their runs, speckled ones
    (more than ``RUNS_PER_VOXEL_MAX`` runs per voxel) by scipy.
    """
    if mask.kind is not Kind.MASK:
        raise ValueError("connected_components expects a mask volume")
    if connectivity not in (6, 26):
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    if _runs_per_voxel(mask.data) <= RUNS_PER_VOXEL_MAX:
        runs, sizes = _label_runs(mask.data, connectivity)
        return LabeledComponents(mask, sizes, _runs=runs)
    labels, sizes = _label_voxels(mask.data, connectivity)
    return LabeledComponents(mask, sizes, _labels=labels)


def largest_component(c: LabeledComponents) -> Volume:
    """Mask of the largest component; ties go to the smallest label id.

    With one component that is the labelled mask itself.
    """
    if len(c.sizes) == 1:
        return c.mask
    if not c.sizes:
        return Volume(np.zeros(c.mask.dims, dtype=np.uint8), c.mask.spacing, Kind.MASK)
    return c.component(int(np.argmax(c.sizes)) + 1)  # argmax returns first maximum


def bounding_box(mask: Volume) -> BoundingBox:
    """Tightest axis-aligned box containing all foreground voxels."""
    data = mask.data
    # project onto each axis instead of listing every foreground voxel
    rows = np.flatnonzero(data.any(axis=(1, 2)))
    if rows.size == 0:
        raise EmptyMaskError("cannot fit a bounding box to an empty mask")
    plane = data[rows[0]:rows[-1] + 1].any(axis=0)
    cols = np.flatnonzero(plane.any(axis=1))
    deps = np.flatnonzero(plane.any(axis=0))
    return BoundingBox((rows[0], cols[0], deps[0]),
                       (rows[-1] + 1, cols[-1] + 1, deps[-1] + 1))


def majority_vote(masks: list[Volume]) -> Volume:
    """Voxel-wise majority: set iff set in more than half of the masks."""
    if not masks:
        raise ValueError("majority_vote requires at least one mask")
    dims = masks[0].dims
    for m in masks[1:]:
        if m.dims != dims:
            raise ValueError(f"mask dims mismatch: {m.dims} vs {dims}")
    votes = np.zeros(dims, dtype=np.int32)
    for m in masks:
        votes += m.data
    need = len(masks) // 2 + 1
    return Volume((votes >= need).view(np.uint8), masks[0].spacing, Kind.MASK)
