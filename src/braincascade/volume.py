"""Core 3D volume representation and voxel-space geometry.

Voxel data is stored as a C-ordered numpy array of shape ``dims``: axis 0 is
the slowest-varying axis, axis 2 the fastest. All modules in this package
address voxels in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


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

    @staticmethod
    def full(dims: tuple[int, int, int]) -> "BoundingBox":
        return BoundingBox((0, 0, 0), tuple(dims))


def resample(vol: Volume, target_spacing, interp: str = "linear") -> Volume:
    """Resample a volume to a new voxel spacing.

    Output dims are round-half-up of ``dims * spacing / target_spacing``.
    Linear interpolation clamps to edge values outside the grid; it is
    rejected for label and mask volumes, which must use nearest-neighbor.

    Interpolation runs per axis. Nearest-neighbor output equals
    ``scipy.ndimage.map_coordinates(order=0, mode="nearest")`` exactly;
    linear output (float32) is within 1 float32 ulp of ``order=1``.
    """
    target_spacing = tuple(float(s) for s in np.broadcast_to(target_spacing, 3))
    if any(s <= 0 for s in target_spacing):
        raise ValueError("target spacing must be positive")
    if interp not in ("linear", "nearest"):
        raise ValueError(f"unknown interpolation {interp!r}")
    if interp == "linear" and vol.kind in (Kind.LABEL, Kind.MASK):
        raise ValueError("linear interpolation is not valid for label/mask volumes; use nearest")

    return _resample_to(vol, resampled_dims(vol.dims, vol.spacing, target_spacing),
                        target_spacing, interp)


def resampled_dims(dims, spacing, target_spacing) -> tuple:
    """Round-half-up of ``dims * spacing / target_spacing``: resample's output dims."""
    return tuple(int(np.floor(d * s / t + 0.5)) for d, s, t in zip(dims, spacing, target_spacing))


def _resample_to(vol: Volume, out_dims, target_spacing, interp: str) -> Volume:
    """Resample onto an explicit output grid (voxel centers aligned in mm).

    Each output axis samples its input axis at ``(k + 0.5) * t / s - 0.5``,
    so the interpolation is separable and runs one axis at a time. Indices
    clamp to the edge, as ``map_coordinates`` does with ``mode="nearest"``.
    """
    if out_dims == vol.dims and tuple(target_spacing) == vol.spacing:
        return vol  # volumes are immutable: nothing to copy
    linear = interp == "linear"
    out = vol.data.astype(np.float32) if linear else vol.data
    # shrinking axes first keeps the intermediate arrays small
    for axis in sorted(range(3), key=lambda a: out_dims[a] / max(vol.dims[a], 1)):
        n, d = out_dims[axis], vol.dims[axis]
        c = (np.arange(n) + 0.5) * target_spacing[axis] / vol.spacing[axis] - 0.5
        if linear:
            out = interp_axis(out, c, axis)
        else:
            out = np.take(out, np.clip(np.floor(c + 0.5).astype(np.intp), 0, d - 1), axis=axis)
    if linear:
        out = out.astype(np.float32)
    return Volume(out, tuple(target_spacing), vol.kind)


def interp_axis(data: np.ndarray, c: np.ndarray, axis: int) -> np.ndarray:
    """Linear interpolation along one axis: output index k along ``axis``
    reads the input at position ``c[k]``.

    Indices clamp to the edge, as ``map_coordinates`` does with
    ``mode="nearest"``. The weights are float64, and so is the result.
    """
    d = data.shape[axis]
    lo = np.floor(c)
    w = (c - lo).reshape([-1 if a == axis else 1 for a in range(data.ndim)])
    lo = lo.astype(np.intp)
    out = np.take(data, np.clip(lo, 0, d - 1), axis=axis) * (1.0 - w)
    out += np.take(data, np.clip(lo + 1, 0, d - 1), axis=axis) * w
    return out


def overlap_slices(mins, shape, dims):
    """Where a box meets an array: (array slices, box slices), or None.

    The box has corner ``mins`` and extent ``shape`` in the array's index
    space; ``mins`` may be negative or past the edge.
    """
    src, dst = [], []
    for a, n, d in zip(mins, shape, dims):
        lo, hi = max(a, 0), min(a + n, d)
        if lo >= hi:
            return None
        src.append(slice(lo, hi))
        dst.append(slice(lo - a, hi - a))
    return tuple(src), tuple(dst)


def read_box(data: np.ndarray, mins, shape, dtype=None) -> np.ndarray:
    """Read a box out of an array as a read-only array, voxels outside it zero.

    A box lying wholly inside ``data`` and read at ``data``'s own dtype comes
    back as a view of ``data``; any other box comes back as a zero-filled
    copy. ``data`` itself stays as writable as it was.
    """
    dtype = data.dtype if dtype is None else np.dtype(dtype)
    overlap = overlap_slices(mins, shape, data.shape)
    if overlap is not None and dtype == data.dtype and all(
            s.stop - s.start == n for s, n in zip(overlap[0], shape)):
        out = data[overlap[0]]
    else:
        out = np.zeros(tuple(shape), dtype)
        if overlap is not None:
            out[overlap[1]] = data[overlap[0]]
    out.flags.writeable = False
    return out


def _cube_mins(dims, side: int) -> tuple:
    """Corner, on the native grid, of the cube conform_cube keeps."""
    return tuple((d - side) // 2 if d > side else -((side - d) // 2) for d in dims)


def conform_cube(vol: Volume, side: int) -> Volume:
    """Symmetrically crop and zero-pad a volume to a cube of the given side.

    Margins split evenly per axis; for odd differences the extra voxel is
    removed from (or added to) the high-index side. No interpolation.
    """
    if side <= 0:
        raise ValueError("cube side must be positive")
    if vol.dims == (side,) * 3:
        return vol
    return Volume(read_box(vol.data, _cube_mins(vol.dims, side), (side,) * 3),
                  vol.spacing, vol.kind)


def unconform_cube(vol: Volume, original_dims) -> Volume:
    """Invert conform_cube: restore a conformed volume onto the original grid.

    Voxels that were cropped away come back as zeros.
    """
    mins = tuple(-m for m in _cube_mins(original_dims, vol.dims[0]))
    return Volume(read_box(vol.data, mins, original_dims), vol.spacing, vol.kind)


def minmax_normalize(vol: Volume) -> Volume:
    """Rescale an intensity volume to [0, 1]; constant input maps to zeros."""
    if vol.kind is not Kind.INTENSITY:
        raise ValueError("minmax_normalize expects an intensity volume")
    data = vol.data.astype(np.float32)  # the one copy, rescaled in place
    lo, hi = float(data.min()), float(data.max())
    if hi == lo:
        return Volume(np.zeros_like(data), vol.spacing, vol.kind)
    data -= lo
    data /= hi - lo
    return Volume(data, vol.spacing, vol.kind)
