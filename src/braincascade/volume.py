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
    with np.errstate(invalid="ignore"):  # a signalling NaN is not 0 or 1, and not a warning
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
        if len(self.spacing) != 3 or not all(0 < s < np.inf for s in self.spacing):
            raise ValueError(f"spacing must be 3 finite positive reals, got {self.spacing}")
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


def resample(vol: Volume, target_spacing) -> Volume:
    """Resample a volume to a new voxel spacing.

    Output dims are round-half-up of ``dims * spacing / target_spacing``.
    Label and mask volumes are resampled nearest-neighbor, every other kind
    linearly; both clamp to edge values outside the grid.

    Interpolation runs per axis. Nearest-neighbor output equals
    ``scipy.ndimage.map_coordinates(order=0, mode="nearest")`` exactly;
    linear output (float32) is within 1 float32 ulp of ``order=1``.
    """
    target_spacing = _check_spacing(target_spacing)
    return _resample_to(vol, resampled_dims(vol.dims, vol.spacing, target_spacing), target_spacing)


def _check_spacing(target_spacing) -> tuple:
    target_spacing = tuple(float(s) for s in np.broadcast_to(target_spacing, 3))
    if not all(0 < s < np.inf for s in target_spacing):
        raise ValueError(f"target spacing must be finite and positive, got {target_spacing}")
    return target_spacing


def resample_cube(vol: Volume, target_spacing, side: int) -> Volume:
    """``conform_cube(resample(vol, target_spacing), side)``, byte for byte.

    Only the resampled voxels the cube keeps are computed, straight into the
    ``side``**3 array, so memory stays within the input and the cube however
    large the resampled grid would be.
    """
    if side <= 0:
        raise ValueError("cube side must be positive")
    target_spacing = _check_spacing(target_spacing)
    dims = resampled_dims(vol.dims, vol.spacing, target_spacing)
    return _resample_to(vol, dims, target_spacing, box=(_cube_mins(dims, side), (side,) * 3))


def unresample_cube(cube: Volume, dims, spacing) -> Volume:
    """Invert resample_cube for a mask or label cube: its nearest resample,
    zero outside the cube, onto the grid of ``dims`` at ``spacing``.

    It is one nearest gather per axis, native index -> resampled index
    (clamped to the resampled grid) -> cube index, where an index outside the
    cube reads 0. That gives the bytes of ``_resample_to`` of the
    ``unconform_cube``-d grid without building that grid, and zeros where the
    resampled grid has no voxel on some axis.
    """
    if cube.kind not in (Kind.LABEL, Kind.MASK):
        raise ValueError("unresample_cube expects a mask or label volume")
    dims, spacing = tuple(int(d) for d in dims), tuple(float(s) for s in spacing)
    grid = resampled_dims(dims, spacing, cube.spacing)
    mins = _cube_mins(grid, cube.dims[0])
    out = np.zeros(dims, cube.data.dtype)
    if 0 in grid:  # no resampled voxel to read
        return Volume(out, spacing, cube.kind)
    data, dst = cube.data, [None] * 3
    # shrinking axes first keeps the intermediate arrays small
    for axis in sorted(range(3), key=lambda a: dims[a] / cube.dims[a]):
        c = _axis_positions(0, dims[axis], spacing[axis], cube.spacing[axis])
        q = _nearest(c, grid[axis]) - mins[axis]
        inside = np.flatnonzero((q >= 0) & (q < cube.dims[axis]))
        if not inside.size:
            return Volume(out, spacing, cube.kind)
        # q rises with the native index, so the voxels that land in the cube are one run
        dst[axis] = slice(inside[0], inside[-1] + 1)
        data = np.take(data, q[inside].astype(np.intp), axis=axis)
    out[tuple(dst)] = data
    return Volume(out, spacing, cube.kind)


def resampled_dims(dims, spacing, target_spacing) -> tuple:
    """Round-half-up of ``dims * spacing / target_spacing``: resample's output dims."""
    return tuple(int(np.floor(d * s / t + 0.5)) for d, s, t in zip(dims, spacing, target_spacing))


def _resample_to(vol: Volume, out_dims, target_spacing, box=None) -> Volume:
    """Resample onto an explicit output grid (voxel centers aligned in mm).

    Each output axis samples its input axis at ``(k + 0.5) * t / s - 0.5``,
    so the interpolation is separable and runs one axis at a time. Indices
    clamp to the edge, as ``map_coordinates`` does with ``mode="nearest"``.

    ``box``, a (corner, shape) pair on the output grid, keeps only that box,
    as ``read_box`` of the whole output would: voxels outside the grid read 0,
    and only the kept ones are computed, each with the bytes it has in the
    whole output (same per-element arithmetic, same axis order).
    """
    mins, shape = box if box is not None else ((0, 0, 0), tuple(out_dims))
    if tuple(out_dims) == vol.dims and tuple(target_spacing) == vol.spacing:
        # volumes are immutable: nothing to copy
        return vol if box is None else Volume(read_box(vol.data, mins, shape), vol.spacing, vol.kind)
    linear = vol.kind not in (Kind.LABEL, Kind.MASK)
    result = np.zeros(tuple(shape), np.float32 if linear else vol.data.dtype)
    kept = [(max(a, 0), min(a + n, d)) for a, n, d in zip(mins, shape, out_dims)]
    if all(lo < hi for lo, hi in kept):
        out = vol.data.astype(np.float32, copy=False) if linear else vol.data
        dst = result[tuple(slice(lo - a, hi - a) for (lo, hi), a in zip(kept, mins))]
        # shrinking axes first keeps the intermediate arrays small
        order = sorted(range(3), key=lambda a: out_dims[a] / max(vol.dims[a], 1))
        for axis in order:
            c = _axis_positions(*kept[axis], target_spacing[axis], vol.spacing[axis])
            if not linear:
                out = np.take(out, _nearest(c, vol.dims[axis]).astype(np.intp), axis=axis)
            elif axis == order[-1]:  # the last axis rounds straight to float32, into the result
                out = interp_axis(out, c, axis, dst)
            else:
                out = interp_axis(out, c, axis)
        if not linear:
            dst[...] = out
    return Volume(result, tuple(target_spacing), vol.kind)


def _axis_positions(lo: int, hi: int, t: float, s: float) -> np.ndarray:
    """Input positions that output indices ``lo`` to ``hi - 1`` sample along an
    axis resampled from spacing ``s`` to ``t``: ``(k + 0.5) * t / s - 0.5``.

    ``k`` is float64, exact below 2**53, so a grid too large for int64 still
    gives positions.
    """
    return (np.arange(hi - lo) + float(lo) + 0.5) * t / s - 0.5


def _nearest(c: np.ndarray, d: int) -> np.ndarray:
    """Index, as float64, of the voxel nearest each position on an axis of
    ``d`` voxels, clamped to the edge."""
    return np.clip(np.floor(c + 0.5), 0, d - 1)


# bytes of float64 output per slab: the slab's two float64 products and its
# input rows then fit in a 1-2 MiB L2 cache
_SLAB_BYTES = 1 << 18


def slabs(n: int, step: int):
    """Slices of ``step`` consecutive indices covering ``range(n)``."""
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def interp_axis(data: np.ndarray, c: np.ndarray, axis: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Linear interpolation along one axis: output index k along ``axis``
    reads the input at position ``c[k]``.

    Indices clamp to the edge, as ``map_coordinates`` does with
    ``mode="nearest"``. The weights and the arithmetic are float64,
    ``take(lo) * (1 - w) + take(lo + 1) * w``, done in slabs along another
    axis so that the temporaries stay in cache. Each slab's sum is rounded
    once to the result's dtype: that of ``out``, if given (an array of the
    result's shape, which then receives the result), else float64.
    """
    d = data.shape[axis]
    lo = np.floor(c)
    w = (c - lo).reshape([-1 if a == axis else 1 for a in range(data.ndim)])
    lo = lo.astype(np.intp)
    lo, hi, w_lo = np.clip(lo, 0, d - 1), np.clip(lo + 1, 0, d - 1), 1.0 - w
    shape = data.shape[:axis] + (len(c),) + data.shape[axis + 1:]
    out = np.empty(shape) if out is None else out
    slab_axis = 1 if axis == 0 else 0
    rows = max(1, _SLAB_BYTES * shape[slab_axis] // max(8 * out.size, 1))
    for planes in slabs(shape[slab_axis], rows):
        slab = (slice(None),) * slab_axis + (planes,)
        a = np.take(data[slab], lo, axis=axis)
        b = np.take(data[slab], hi, axis=axis)
        if a.dtype == np.float64:
            a *= w_lo
            b *= w
        else:
            a, b = a * w_lo, b * w
        np.add(a, b, out=out[slab])
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
    return Volume(read_box(vol.data, _cube_mins(vol.dims, side), (side,) * 3),
                  vol.spacing, vol.kind)


def unconform_cube(vol: Volume, original_dims) -> Volume:
    """Invert conform_cube: restore a conformed volume onto the original grid.

    Voxels that were cropped away come back as zeros.
    """
    mins = tuple(-m for m in _cube_mins(original_dims, vol.dims[0]))
    return Volume(read_box(vol.data, mins, original_dims), vol.spacing, vol.kind)


def minmax_normalize(vol: Volume) -> Volume:
    """Rescale finite intensities to [0, 1]; constant input maps to zeros."""
    if vol.kind is not Kind.INTENSITY:
        raise ValueError("minmax_normalize expects an intensity volume")
    return Volume(minmax_rescale(vol.data.astype(np.float32)), vol.spacing, vol.kind)


def minmax_rescale(data: np.ndarray) -> np.ndarray:
    """Rescale a float array to [0, 1] in place and return it; a constant
    array becomes zeros, and a non-finite value is a ValueError."""
    lo, hi = finite_range(data)
    data -= lo  # constant input becomes all zeros
    if hi > lo:
        data /= hi - lo
    return data


def finite_range(data: np.ndarray) -> tuple[float, float]:
    """Min and max of intensities; a NaN or an infinity is a ValueError."""
    lo, hi = float(data.min()), float(data.max())
    if not -np.inf < lo <= hi < np.inf:  # a NaN anywhere makes min and max NaN
        raise ValueError(f"intensities must be finite, got min {lo} and max {hi}")
    return lo, hi
