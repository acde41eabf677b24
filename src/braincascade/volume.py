"""Core 3D volume representation and voxel-space geometry.

Voxel data is stored as a C-ordered numpy array of shape ``dims``: axis 0 is
the slowest-varying axis, axis 2 the fastest. All modules in this package
address voxels in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import ndimage


class Kind(str, Enum):
    """Semantic tag for the scalar field a volume carries."""

    INTENSITY = "intensity"
    LABEL = "label"
    PROBABILITY = "probability"
    MASK = "mask"


def is_binary(data: np.ndarray) -> bool:
    """True iff every value of the array is 0 or 1.

    Bool and unsigned dtypes cannot hold a value below 0, so one ``max`` pass
    decides; any other dtype (signed, float) is tested value by value.
    """
    if data.dtype == np.bool_ or np.issubdtype(data.dtype, np.unsignedinteger):
        return bool(data.max(initial=0) <= 1)
    return bool(np.isin(data, (0, 1)).all())


@dataclass(frozen=True)
class Volume:
    """A 3D scalar grid with isotropic-or-not voxel spacing in mm.

    The data array is treated as immutable; operations return new volumes.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    kind: Kind = Kind.INTENSITY

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValueError(f"volume data must be 3D, got shape {data.shape}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "kind", Kind(self.kind))
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must be 3 positive reals, got {self.spacing}")
        if self.kind is Kind.MASK:
            if not is_binary(data):
                raise ValueError("mask volume contains values outside {0, 1}")
        elif self.kind is Kind.LABEL:
            if not np.issubdtype(data.dtype, np.integer) or (
                np.issubdtype(data.dtype, np.signedinteger) and data.min(initial=0) < 0
            ):
                raise ValueError("label volume must hold non-negative integers")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data: np.ndarray, kind: Kind | None = None) -> "Volume":
        return Volume(data, self.spacing, self.kind if kind is None else kind)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned voxel box, min inclusive, max exclusive."""

    mins: tuple[int, int, int]
    maxs: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "mins", tuple(int(v) for v in self.mins))
        object.__setattr__(self, "maxs", tuple(int(v) for v in self.maxs))
        if any(a < 0 for a in self.mins) or any(a >= b for a, b in zip(self.mins, self.maxs, strict=True)):
            raise ValueError(f"invalid box {self.mins}-{self.maxs}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(b - a for a, b in zip(self.mins, self.maxs))

    @property
    def volume(self) -> int:
        return int(np.prod(self.shape))

    def slices(self) -> tuple[slice, slice, slice]:
        return tuple(slice(a, b) for a, b in zip(self.mins, self.maxs))

    def intersects(self, dims: tuple[int, int, int]) -> bool:
        return all(a < d and b > 0 for a, b, d in zip(self.mins, self.maxs, dims))

    @staticmethod
    def full(dims: tuple[int, int, int]) -> "BoundingBox":
        return BoundingBox((0, 0, 0), tuple(dims))


def resample(vol: Volume, target_spacing, interp: str = "linear") -> Volume:
    """Resample a volume to a new voxel spacing.

    Output dims are round-half-up of ``dims * spacing / target_spacing``.
    Linear interpolation clamps to edge values outside the grid; it is
    rejected for label and mask volumes, which must use nearest-neighbor.
    """
    target_spacing = tuple(float(s) for s in np.broadcast_to(target_spacing, 3))
    if any(s <= 0 for s in target_spacing):
        raise ValueError("target spacing must be positive")
    if interp not in ("linear", "nearest"):
        raise ValueError(f"unknown interpolation {interp!r}")
    if interp == "linear" and vol.kind in (Kind.LABEL, Kind.MASK):
        raise ValueError("linear interpolation is not valid for label/mask volumes; use nearest")

    out_dims = tuple(
        int(np.floor(d * s / t + 0.5))
        for d, s, t in zip(vol.dims, vol.spacing, target_spacing)
    )
    return _resample_to(vol, out_dims, target_spacing, interp)


def _resample_to(vol: Volume, out_dims, target_spacing, interp: str) -> Volume:
    """Resample onto an explicit output grid (voxel centers aligned in mm)."""
    if out_dims == vol.dims and tuple(target_spacing) == vol.spacing:
        return Volume(vol.data.copy(), target_spacing, vol.kind)
    axes = [
        (np.arange(n) + 0.5) * t / s - 0.5
        for n, t, s in zip(out_dims, target_spacing, vol.spacing)
    ]
    coords = np.meshgrid(*axes, indexing="ij")
    order = 1 if interp == "linear" else 0
    out = ndimage.map_coordinates(
        vol.data.astype(np.float32 if order else vol.data.dtype),
        coords, order=order, mode="nearest",
    )
    return Volume(out, tuple(target_spacing), vol.kind)


def conform_cube(vol: Volume, side: int) -> Volume:
    """Symmetrically crop and zero-pad a volume to a cube of the given side.

    Margins split evenly per axis; for odd differences the extra voxel is
    removed from (or added to) the high-index side. No interpolation.
    """
    if side <= 0:
        raise ValueError("cube side must be positive")
    data = vol.data
    for axis in range(3):
        d = data.shape[axis]
        if d > side:
            lo = (d - side) // 2
            data = np.take(data, np.arange(lo, lo + side), axis=axis)
        elif d < side:
            lo = (side - d) // 2
            pad = [(0, 0)] * 3
            pad[axis] = (lo, side - d - lo)
            data = np.pad(data, pad)
    return Volume(data, vol.spacing, vol.kind)


def conform_offsets(dims, side: int) -> list[tuple[int, int]]:
    """Per-axis (crop_low, pad_low) applied by conform_cube; used to invert it."""
    out = []
    for d in dims:
        if d > side:
            out.append(((d - side) // 2, 0))
        elif d < side:
            out.append((0, (side - d) // 2))
        else:
            out.append((0, 0))
    return out


def unconform_cube(vol: Volume, original_dims) -> Volume:
    """Invert conform_cube: restore a conformed volume onto the original grid.

    Voxels that were cropped away come back as zeros.
    """
    side = vol.dims[0]
    out = np.zeros(tuple(original_dims), dtype=vol.data.dtype)
    src = []
    dst = []
    for d in original_dims:
        if d > side:
            lo = (d - side) // 2
            dst.append(slice(lo, lo + side))
            src.append(slice(0, side))
        else:
            lo = (side - d) // 2
            dst.append(slice(0, d))
            src.append(slice(lo, lo + d))
    out[tuple(dst)] = vol.data[tuple(src)]
    return Volume(out, vol.spacing, vol.kind)


def extract_patch(vol: Volume, box: BoundingBox, pad_to=None) -> Volume:
    """Extract the voxels inside a box, reading out-of-bounds regions as zero.

    With ``pad_to``, the result is additionally zero-padded symmetrically
    (extra voxel on the high side) to the requested dims.
    """
    if not box.intersects(vol.dims):
        raise ValueError(f"box {box.mins}-{box.maxs} does not intersect volume dims {vol.dims}")
    out = np.zeros(box.shape, dtype=vol.data.dtype)
    src = []
    dst = []
    for a, b, d in zip(box.mins, box.maxs, vol.dims):
        lo, hi = max(a, 0), min(b, d)
        src.append(slice(lo, hi))
        dst.append(slice(lo - a, hi - a))
    out[tuple(dst)] = vol.data[tuple(src)]
    if pad_to is not None:
        pad = []
        for cur, tgt in zip(out.shape, pad_to):
            if cur > tgt:
                raise ValueError(f"pad_to {tuple(pad_to)} smaller than box shape {out.shape}")
            lo = (tgt - cur) // 2
            pad.append((lo, tgt - cur - lo))
        out = np.pad(out, pad)
    return Volume(out, vol.spacing, vol.kind)


def minmax_normalize(vol: Volume) -> Volume:
    """Rescale an intensity volume to [0, 1]; constant input maps to zeros."""
    if vol.kind is not Kind.INTENSITY:
        raise ValueError("minmax_normalize expects an intensity volume")
    data = vol.data.astype(np.float32)
    lo, hi = float(data.min()), float(data.max())
    if hi == lo:
        return vol.with_data(np.zeros_like(data))
    return vol.with_data((data - lo) / (hi - lo))
