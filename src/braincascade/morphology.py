"""Binary-mask algebra: thresholding, connected components, majority vote."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .volume import BoundingBox, Kind, Volume


class EmptyMaskError(ValueError):
    """Raised when an operation requires at least one foreground voxel."""


@dataclass(frozen=True)
class LabeledComponents:
    """Connected components of a mask.

    ``labels`` numbers components 1..K in first-encounter order of the
    C-order voxel scan; 0 is background. ``sizes[k-1]`` is the voxel count
    of component k.
    """

    labels: Volume
    sizes: list[int]


def threshold(p: Volume, alpha: float) -> Volume:
    """Binarize a probability map: voxel set iff value >= alpha (inclusive)."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return Volume((p.data >= alpha).view(np.uint8), p.spacing, Kind.MASK)


def _structure(connectivity: int) -> np.ndarray:
    if connectivity == 6:
        return ndimage.generate_binary_structure(3, 1)
    if connectivity == 26:
        return ndimage.generate_binary_structure(3, 3)
    raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")


def connected_components(mask: Volume, connectivity: int = 26) -> LabeledComponents:
    """Label connected components under 6- or 26-adjacency.

    Labels are renumbered to first-encounter scan order so the output is
    deterministic regardless of the underlying labeling pass. One component
    is in that order already, so it skips the scan-order check.
    """
    if mask.kind is not Kind.MASK:
        raise ValueError("connected_components expects a mask volume")
    raw, k = ndimage.label(mask.data, structure=_structure(connectivity))  # int32
    if k <= 1:  # no component, or one: already numbered in scan order
        return LabeledComponents(Volume(raw, mask.spacing, Kind.LABEL),
                                 [int(np.count_nonzero(mask.data))] * k)
    # labels of the foreground voxels, in scan order
    seq = raw[mask.data.astype(bool, copy=False)]
    # The raw labels already number components in first-encounter order iff
    # each voxel's label is at most one above every label seen before it.
    if seq[0] == 1 and (seq[1:] <= np.maximum.accumulate(seq)[:-1] + 1).all():
        labels = raw
    else:
        # first occurrence index of each raw label, in scan order
        first = np.full(k + 1, raw.size, dtype=np.int64)
        np.minimum.at(first, seq, np.flatnonzero(raw))
        order = np.argsort(first[1:], kind="stable")  # raw label -> rank
        remap = np.zeros(k + 1, dtype=np.int32)
        remap[1:][order] = np.arange(1, k + 1, dtype=np.int32)
        labels = remap[raw]
        seq = remap[seq]
    sizes = np.bincount(seq, minlength=k + 1)[1:]
    return LabeledComponents(Volume(labels, mask.spacing, Kind.LABEL), sizes.tolist())


def largest_component(c: LabeledComponents) -> Volume:
    """Mask of the largest component; ties go to the smallest label id."""
    if not c.sizes:
        return Volume(
            np.zeros(c.labels.dims, dtype=np.uint8), c.labels.spacing, Kind.MASK
        )
    best = int(np.argmax(c.sizes)) + 1  # argmax returns first maximum
    return Volume(
        (c.labels.data == best).view(np.uint8), c.labels.spacing, Kind.MASK
    )


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
    return Volume((votes >= need).astype(np.uint8), masks[0].spacing, Kind.MASK)
