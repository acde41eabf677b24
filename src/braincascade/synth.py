"""Synthetic training-pair generation from brain label maps.

A label map (background 0, brain structures 1-7) is spatially augmented,
its background is populated with random geometric shape labels, and a
gray-scale image is rendered by sampling one intensity per label followed
by randomized corruptions (noise, blur, bias field, downsampling).

All sampling happens in a fixed, documented order from a single generator,
so identical (params, seed) reproduce bit-identical pairs:
transform parameters, then shapes, then intensities, then corruptions.
Everything operates at 1 mm isotropic spacing.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import ndimage

from .volume import Kind, Volume
from . import volume as vol_ops

BRAIN_LABELS = (1, 2, 3, 4, 5, 6, 7)
FIRST_SHAPE_LABEL = 8
# Augmentation and rendering build their per-voxel float64 temporaries (the
# coordinates, the warp and bias fields, the noise) for this many axis-0
# planes at a time, so no whole-volume float64 array is ever held; a slab is
# also one task of its step's thread pool.
_SLAB_PLANES = 16
# shapes whose regions may be queued or computing while the next is drawn
_SHAPES_AHEAD = 4


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def _run_all(fn, items) -> None:
    """Call ``fn`` on every item on a thread pool of one worker per usable CPU,
    made for this call, and wait for all the calls. The first exception is
    raised as itself; calls not yet started are dropped."""
    with ThreadPoolExecutor(_workers()) as pool:
        for _ in pool.map(fn, items):
            pass


@dataclass(frozen=True)
class SynthesisParams:
    """Sampling ranges for one model's training distribution.

    Shift is in mm, rotation in degrees, scale a +/- fraction around 1,
    blur and warp in mm, noise in normalized intensity units.
    """

    window: int
    n_shapes: int
    shift_max: float
    rot_max: float
    scale_max: float
    blur_sd_max: float
    noise_sd_max: float
    warp_max: float = 3.0
    bias_amplitude: float = 0.3
    downsample_factor_max: int = 2

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError("window must be positive")
        # shape labels 8..7 + n_shapes fit uint16; at about 0.2 ms a shape, a
        # count near 2**31 would run for days
        most = np.iinfo(np.uint16).max - FIRST_SHAPE_LABEL + 1
        if not 0 <= self.n_shapes <= most:
            raise ValueError(f"'n_shapes' must be >= 0 and at most {most}, got {self.n_shapes}")
        if self.n_shapes > 0 and self.window < 8:  # shape radii are drawn from [2, window / 4]
            raise ValueError(f"'window' must be >= 8 when 'n_shapes' > 0, got {self.window}")
        for name in ("shift_max", "rot_max", "scale_max", "blur_sd_max",
                     "noise_sd_max", "warp_max", "bias_amplitude"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"'{name}' must be finite and >= 0, got {value}")
        if not self.scale_max < 1:  # scales in 1 +/- scale_max stay positive: no mirroring
            raise ValueError(f"'scale_max' must be < 1, got {self.scale_max}")
        if self.downsample_factor_max < 1:
            raise ValueError("downsample_factor_max must be >= 1")
        # downsampling keeps round(window / factor) voxels per axis, 0 from 2 * window on
        if not self.downsample_factor_max < 2 * self.window:
            raise ValueError(f"'downsample_factor_max' must be < 2 * window = {2 * self.window}, "
                             f"got {self.downsample_factor_max}")


# Per-model synthesis ranges (window, shapes, shift, rotation, scale, blur
# SD, noise SD) and sliding-window step sizes.
MODEL_PARAMS: dict[str, SynthesisParams] = {
    "A": SynthesisParams(128, 24, 48.0, 180.0, 0.6, 0.6, 0.40),
    "B": SynthesisParams(96, 24, 32.0, 180.0, 0.4, 0.4, 0.20),
    "C": SynthesisParams(64, 24, 12.0, 180.0, 0.4, 0.2, 0.15),
    "D": SynthesisParams(32, 8, 6.0, 180.0, 0.3, 0.1, 0.15),
}
MODEL_STEPS: dict[str, int] = {"A": 64, "B": 32, "C": 32, "D": 32}


@dataclass(frozen=True)
class TrainingPair:
    image: Volume
    gt: Volume
    metadata: dict = field(default_factory=dict)


def make_phantom_label_map(rng: np.random.Generator, dims) -> Volume:
    """Build a connected 7-structure ellipsoidal phantom brain on background 0.

    Label 1 is the envelope; labels 2-7 are smaller ellipsoids carved inside
    it, so the union of labels 1-7 is a single connected component.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 32 for d in dims):
        raise ValueError("phantom dims must be >= 32 per axis")
    center = np.array(dims) / 2.0
    radii = np.array([rng.uniform(0.15, 0.22) * d for d in dims])
    box, inside = _ellipsoid(dims, center, radii)
    lm = np.zeros(dims, dtype=np.uint8)
    lm[box][inside] = 1  # from here on lm != 0 is the envelope: labels 2-7 go only inside it
    directions = np.array([
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]
    ])
    for k, d in enumerate(directions, start=2):
        c = center + d * radii * rng.uniform(0.35, 0.5)
        r = radii * rng.uniform(0.25, 0.4)
        box, inner = _ellipsoid(dims, c, r)
        lm[box][inner & (lm[box] != 0)] = k
        ci = tuple(int(round(v)) for v in c)
        if lm[ci]:
            lm[ci] = k  # keep every structure present even if overwritten
    return Volume(lm, (1.0, 1.0, 1.0), Kind.LABEL)


def _ellipsoid(dims, center, radii):
    """The axis-aligned ellipsoid ``sum(((x - center) / radii) ** 2) <= 1`` on
    the grid ``dims``, as (box slices, bool mask over the box).

    The box is the ellipsoid's extent widened by one voxel and clipped to the
    grid: a voxel outside it lies at least ``r + 1`` from the center on some
    axis, so its sum exceeds 1. Inside, each voxel's sum is the whole-grid one.
    """
    box = tuple(slice(max(int(np.floor(c - r)) - 1, 0), min(int(np.floor(c + r)) + 2, d))
                for d, c, r in zip(dims, center, radii))
    grids = np.ogrid[box]
    return box, sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii)) <= 1.0


def brain_mask(lm: Volume) -> Volume:
    """Union of the brain-structure labels as a binary mask."""
    data = ((lm.data >= BRAIN_LABELS[0]) & (lm.data <= BRAIN_LABELS[-1]))
    return Volume(data.view(np.uint8), lm.spacing, Kind.MASK)


def _rotation_matrix(angles_deg: np.ndarray) -> np.ndarray:
    ax, ay, az = np.deg2rad(angles_deg)
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _sample_transform(p: SynthesisParams, rng: np.random.Generator) -> dict:
    return {
        "shift_mm": rng.uniform(-p.shift_max, p.shift_max, size=3),
        "rot_deg": rng.uniform(-p.rot_max, p.rot_max, size=3),
        "scale": rng.uniform(1.0 - p.scale_max, 1.0 + p.scale_max),
    }


def _corner_positions(n: int, m: int) -> np.ndarray:
    """Positions that the ``m`` output indices of an axis sample on an input
    axis of ``n`` voxels: ``k * (n - 1) / (m - 1)``, the corner-aligned mapping
    of scipy's linear ``zoom`` (``order=1``)."""
    return np.arange(m) * ((n - 1) / (m - 1) if m > 1 else 0.0)


def upsample_linear(grid: np.ndarray, dims, planes: slice = slice(None),
                    out: np.ndarray | None = None) -> np.ndarray:
    """Corner-aligned linear resampling of ``grid`` to ``dims``: the warp and
    bias fields upsample their control grids with it.

    Output index k of an axis samples ``_corner_positions``, one axis at a
    time, indices clamped to the edge. ``planes``, a slice of axis 0, computes
    only those output planes, each equal to its plane of the whole field.
    The result is float64, or rounded once into ``out`` if given.
    """
    last = grid.ndim - 1
    for axis, (d, n) in enumerate(zip(grid.shape, dims)):
        c = _corner_positions(d, n)
        grid = vol_ops.interp_axis(grid, c[planes] if axis == 0 else c, axis,
                                   out if axis == last else None)
    return grid


def _zoom_linear(src: np.ndarray, dst: np.ndarray) -> None:
    """What scipy's ``zoom(src, zoom, order=1, mode="nearest", output=dst)``
    writes for ``dst``'s shape, within 1 float32 ulp: ``upsample_linear``
    onto ``dst``'s shape, in slabs of axis-0 planes on the thread pool. An
    output plane whose position float64 rounding puts past the last input
    index reads that index, as at the warp and bias fields' edges."""
    _run_all(lambda planes: upsample_linear(src, dst.shape, planes, dst[planes]),
             vol_ops.slabs(dst.shape[0], _SLAB_PLANES))


def _linear_axes(mat: np.ndarray, rel, out=None):
    """Rows of ``mat @ x`` over the grid that the 1-D axes ``rel`` span,
    yielded one at a time (into ``out[i]`` if given), each summed from the
    broadcast axes."""
    rel = [r.reshape([-1 if b == a else 1 for b in range(3)]) for a, r in enumerate(rel)]
    for i in range(3):
        yield np.add(mat[i, 0] * rel[0] + mat[i, 1] * rel[1], mat[i, 2] * rel[2],
                     out=None if out is None else out[i])


def _affine_grid(dims, inv: np.ndarray, center: np.ndarray,
                 shift_vox: np.ndarray, planes: slice = slice(None)) -> np.ndarray:
    """Input coordinates ``inv @ (x - center - shift) + center`` of every
    output voxel x in ``planes`` of axis 0 (all by default), shape
    (3, planes, *dims[1:])."""
    rel = [np.arange(n, dtype=np.float64)[planes if a == 0 else slice(None)]
           - center[a] - shift_vox[a] for a, n in enumerate(dims)]
    coords = np.empty((3, *(len(r) for r in rel)))
    for row, c in zip(_linear_axes(inv, rel, coords), center):
        row += c
    return coords


def _apply_transform(lm: Volume, p: SynthesisParams, params: dict,
                     rng: np.random.Generator) -> Volume:
    dims = lm.dims
    spacing = np.array(lm.spacing)
    center = (np.array(dims) - 1) / 2.0
    rot = _rotation_matrix(params["rot_deg"])
    scale = params["scale"]
    shift_vox = params["shift_mm"] / spacing

    inv = np.linalg.inv(rot * scale)
    # smooth displacement from a low-resolution control grid, amplitude
    # bounded by warp_max (linear upsampling cannot overshoot)
    grid = (rng.uniform(-p.warp_max, p.warp_max, size=(3, 8, 8, 8))
            if p.warp_max > 0 else None)
    out = np.empty(dims, dtype=lm.data.dtype)

    def resample(planes):
        coords = _affine_grid(dims, inv, center, shift_vox, planes)
        if grid is not None:
            for i in range(3):
                coords[i] += upsample_linear(grid[i], dims, planes) / spacing[i]
        ndimage.map_coordinates(lm.data, coords, output=out[planes], order=0,
                                mode="constant", cval=0)

    _run_all(resample, vol_ops.slabs(dims[0], _SLAB_PLANES))
    return Volume(out, lm.spacing, Kind.LABEL)


def augment_spatial(lm: Volume, p: SynthesisParams, rng: np.random.Generator) -> Volume:
    """Random translation, rotation, isotropic scaling, and smooth warp.

    Resampled nearest-neighbor; voxels mapped from outside the grid become
    background. The warp field, like the bias field of the rendering, is a
    corner-aligned linear upsampling of a small random control grid
    (``upsample_linear``).
    """
    params = _sample_transform(p, rng)
    return _apply_transform(lm, p, params, rng)


def _shape_region(box, background, center, radii, angles, noise) -> np.ndarray:
    """The ``background`` voxels of ``box`` inside one shape: the rotated
    ellipsoid, or, for a blob, where the ellipsoid's quadratic form plus
    smoothed ``noise`` is at most 1."""
    rel = [np.arange(s.start, s.stop) - c for s, c in zip(box, center)]
    local = _linear_axes(_rotation_matrix(angles).T, rel)
    q = sum((x / r) ** 2 for x, r in zip(local, radii))
    if noise is not None:
        q += ndimage.gaussian_filter(noise, sigma=max(float(radii.max()) / 4.0, 1.0))
    return (q <= 1.0) & background


def add_random_shapes(lm: Volume, n: int, rng: np.random.Generator) -> Volume:
    """Carve n shape labels (values 8..7+n) out of the background.

    Shapes are a 50/50 mix of randomized ellipsoids and thresholded
    smoothed-noise blobs with radii U(2, w/4) voxels; brain labels are
    never touched. The copy keeps the map's dtype unless the last shape
    label does not fit it. Each shape's parameters and noise are drawn in
    label order; the regions are computed on a thread pool made for this
    call and painted in label order, so a later shape overwrites an earlier
    one where they overlap.
    """
    dims = lm.dims
    w = min(dims)
    top = FIRST_SHAPE_LABEL + n - 1
    dtype = lm.data.dtype
    if top > np.iinfo(dtype).max:
        dtype = np.promote_types(dtype, np.min_scalar_type(top))
    out = lm.data.astype(dtype)
    background = lm.data == 0
    pending = deque()  # (label, box, region future), oldest first

    def paint():
        label, box, region = pending.popleft()
        out[box][region.result()] = label

    with ThreadPoolExecutor(_workers()) as pool:
        for k in range(n):
            center = rng.uniform(0, np.array(dims))
            radii = rng.uniform(2.0, w / 4.0, size=3)
            angles = rng.uniform(-180, 180, size=3)
            blobby = rng.random() < 0.5
            rmax = float(radii.max())
            mins = np.maximum(np.floor(center - rmax).astype(int), 0)
            maxs = np.minimum(np.ceil(center + rmax).astype(int) + 1, dims)
            if (mins >= maxs).any():
                continue
            box = tuple(slice(a, b) for a, b in zip(mins, maxs))
            noise = rng.standard_normal(tuple(maxs - mins)) if blobby else None
            pending.append((FIRST_SHAPE_LABEL + k, box,
                            pool.submit(_shape_region, box, background[box], center, radii,
                                        angles, noise)))
            if len(pending) > _SHAPES_AHEAD:
                paint()
        while pending:
            paint()
    return Volume(out, lm.spacing, Kind.LABEL)


def _blur(img: np.ndarray, sigmas) -> None:
    """``ndimage.gaussian_filter(img, sigmas, output=img)``, pass by pass.

    Each axis's pass filters along that axis and is split into slabs along
    another, which hold disjoint lines, so the slabs run on a thread pool
    and every voxel equals the single call's.
    """
    for axis, sigma in enumerate(sigmas):
        if sigma > 1e-15:  # the axes gaussian_filter filters
            across = 1 if axis == 0 else 0
            parts = (img[(slice(None),) * across + (planes,)]
                     for planes in vol_ops.slabs(img.shape[across], _SLAB_PLANES))
            _run_all(lambda part: ndimage.gaussian_filter1d(part, sigma, axis, output=part), parts)


def _synthesize_raw(lm: Volume, p: SynthesisParams, rng: np.random.Generator):
    """Render a gray-scale image from a label map; returns (data, params)."""
    n_labels = int(lm.data.max()) + 1
    lut = rng.random(n_labels).astype(np.float32)
    img = lut[lm.data]

    noise_sd = float(rng.uniform(0, p.noise_sd_max))
    if noise_sd > 0:
        # standard_normal fills in C order: slab by slab is the same stream
        for planes in vol_ops.slabs(lm.dims[0], _SLAB_PLANES):
            noise = rng.standard_normal(img[planes].shape).astype(np.float32)
            noise *= noise_sd
            img[planes] += noise

    blur_sd = float(rng.uniform(0, p.blur_sd_max))
    bias_amp = float(rng.uniform(0, p.bias_amplitude)) if p.bias_amplitude > 0 else 0.0
    if blur_sd > 0:  # one pass per axis, each line buffered: in place is exact
        _blur(img, blur_sd / np.array(lm.spacing))

    if bias_amp > 0:
        grid = rng.uniform(-bias_amp, bias_amp, size=(4, 4, 4))

        def bias_slab(planes):
            img[planes] *= np.exp(upsample_linear(grid, lm.dims, planes)).astype(np.float32)

        _run_all(bias_slab, vol_ops.slabs(lm.dims[0], _SLAB_PLANES))

    factor = int(rng.integers(1, p.downsample_factor_max + 1))
    if factor > 1:  # onto zoom(img, 1 / factor)'s grid and back
        small = np.empty([round(n * (1 / factor)) for n in img.shape], np.float32)
        _zoom_linear(img, small)
        _zoom_linear(small, img)

    params = {
        "noise_sd": noise_sd,
        "blur_sd": blur_sd,
        "bias_amp": bias_amp,
        "downsample_factor": factor,
        "prenorm_range": (float(img.min()), float(img.max())),
    }
    return img, params


def center_brain(lm: Volume, window: int) -> Volume:
    """Crop/pad a label map to a window cube with the brain centroid centered."""
    brain = brain_mask(lm).data.view(bool)
    total = np.count_nonzero(brain)
    if total == 0:
        return vol_ops.conform_cube(lm, window)
    # integer moments, so the one division rounds exactly as center_of_mass
    counts = [np.count_nonzero(brain, axis=tuple(b for b in range(3) if b != a))
              for a in range(3)]
    centroid = np.array([np.dot(n, np.arange(len(n))) for n in counts]) / total
    mins = np.round(centroid - window / 2.0).astype(int)
    return Volume(vol_ops.read_box(lm.data, mins, (window,) * 3), lm.spacing, Kind.LABEL)


def make_training_pair(lm: Volume, p: SynthesisParams,
                       rng: np.random.Generator) -> TrainingPair:
    """Full synthesis chain: center brain, augment, add shapes, render.

    The ground truth is the union of brain labels after augmentation; shape
    labels never enter it. The augmentation slabs, the shape regions, each
    blur pass, the bias slabs and each downsampling pass's slabs run on thread
    pools of one worker per usable CPU, each made for its step and closed when
    the step ends. Every random draw stays in the calling thread, in the order
    above, the pools' tasks write disjoint voxels and shapes are painted in
    label order, so the pair's bytes do not depend on the worker count.
    """
    centered = center_brain(lm, p.window)
    transform = _sample_transform(p, rng)
    augmented = _apply_transform(centered, p, transform, rng)
    del centered
    gt = brain_mask(augmented)
    with_shapes = add_random_shapes(augmented, p.n_shapes, rng)
    del augmented
    img, corruption = _synthesize_raw(with_shapes, p, rng)
    del with_shapes
    image = Volume(vol_ops.minmax_rescale(img), lm.spacing, Kind.INTENSITY)
    metadata = {
        "transform": {k: np.asarray(v).tolist() for k, v in transform.items()},
        "corruption": corruption,
        "brain_fraction": float(gt.data.mean()),
        "params": asdict(p),
    }
    return TrainingPair(image, gt, metadata)
