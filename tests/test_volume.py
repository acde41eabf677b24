import hashlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from braincascade import volume
from braincascade.volume import (
    Kind, Volume, conform_cube, minmax_normalize, read_box, resample, resample_cube,
    resampled_dims, unconform_cube, unresample_cube,
)
from conftest import intensity, mask


class TestVolume:
    def test_mask_values_checked(self):
        with pytest.raises(ValueError):
            Volume(np.full((2, 2, 2), 2), kind=Kind.MASK)

    def test_label_negative_rejected(self):
        with pytest.raises(ValueError):
            Volume(np.full((2, 2, 2), -1), kind=Kind.LABEL)

    @pytest.mark.parametrize("data", [
        np.full((2, 2, 2), 2, dtype=np.uint8),
        np.full((2, 2, 2), -1, dtype=np.int8),
        np.full((2, 2, 2), 0.5, dtype=np.float32),
        np.full((2, 2, 2), 2**16, dtype=np.uint32),
    ], ids=["uint8-2", "int8-neg1", "float-half", "uint32-big"])
    def test_mask_non_binary_rejected(self, data):
        with pytest.raises(ValueError):
            Volume(data, kind=Kind.MASK)

    @pytest.mark.parametrize("data", [
        np.array([[[True, False]]]),
        np.array([[[0, 1]]], dtype=np.uint8),
        np.array([[[0.0, 1.0]]], dtype=np.float32),
        np.array([[[0, 1]]], dtype=np.int64),
        np.zeros((0, 3, 3), dtype=np.uint8),
        np.zeros((0, 3, 3), dtype=np.float32),
    ], ids=["bool", "uint8", "float", "int64", "empty-uint8", "empty-float"])
    def test_mask_binary_accepted(self, data):
        assert Volume(data, kind=Kind.MASK).data is data

    def test_label_dtypes(self):
        Volume(np.full((2, 2, 2), 7, dtype=np.uint16), kind=Kind.LABEL)
        Volume(np.zeros((0, 2, 2), dtype=np.int32), kind=Kind.LABEL)
        with pytest.raises(ValueError):
            Volume(np.full((2, 2, 2), -3, dtype=np.int16), kind=Kind.LABEL)
        with pytest.raises(ValueError):
            Volume(np.ones((2, 2, 2), dtype=np.float32), kind=Kind.LABEL)
        with pytest.raises(ValueError):
            Volume(np.ones((2, 2, 2), dtype=bool), kind=Kind.LABEL)

    def test_spacing_positive(self):
        for spacing in [(1, 0, 1), (1, np.inf, 1), (np.nan, 1, 1)]:
            with pytest.raises(ValueError, match="finite positive"):
                Volume(np.zeros((2, 2, 2)), spacing=spacing)

    def test_non_3d_rejected(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2)))


class TestResample:
    def test_identity(self, rng):
        # at a volume's own spacing, unit or not, every dtype comes back equal
        vols = [intensity(rng.random((5, 6, 7))),
                Volume(rng.integers(0, 100, (4, 5, 6)).astype(np.int16), (0.8, 1.0, 2.5))]
        for vol in vols:
            out = resample(vol, vol.spacing)
            assert (out.dims, out.spacing) == (vol.dims, vol.spacing)
            assert out.data.dtype == vol.data.dtype
            np.testing.assert_array_equal(out.data, vol.data)

    def test_dims_formula(self, rng):
        vol = Volume(rng.random((10, 10, 10)).astype(np.float32), (2, 2, 2))
        out = resample(vol, (1, 1, 1))
        assert out.dims == (20, 20, 20)
        assert out.spacing == (1.0, 1.0, 1.0)

    def test_nearest_preserves_value_set(self, rng):
        m = mask(rng.random((8, 9, 10)) < 0.5, spacing=(2, 1, 3))
        out = resample(m, (1, 1, 1))
        assert set(np.unique(out.data)) <= {0, 1}

    @pytest.mark.parametrize("target", [0.0, -1.0, np.inf, np.nan])
    def test_target_spacing_finite_and_positive(self, target):
        vol = intensity(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError, match="target spacing must be finite and positive"):
            resample(vol, (1.0, target, 1.0))

    def test_label_roundtrip_subset(self, rng):
        for _ in range(5):
            labels = rng.integers(0, 5, size=(9, 7, 11)).astype(np.int32)
            vol = Volume(labels, (1, 1, 1), Kind.LABEL)
            down = resample(vol, (2.3, 1.7, 1.1))
            back = resample(down, (1, 1, 1))
            assert set(np.unique(back.data)) <= set(np.unique(labels))


def map_coordinates_reference(vol, out_dims, target_spacing, interp):
    """The whole-grid resampler the separable one replaced."""
    axes = [
        (np.arange(n) + 0.5) * t / s - 0.5
        for n, t, s in zip(out_dims, target_spacing, vol.spacing)
    ]
    coords = np.meshgrid(*axes, indexing="ij")
    order = 1 if interp == "linear" else 0
    return ndimage.map_coordinates(
        vol.data.astype(np.float32 if order else vol.data.dtype),
        coords, order=order, mode="nearest",
    )


def random_grid(rng):
    """Random dims (1-voxel axes included), spacing and target spacing."""
    dims = tuple(int(d) for d in rng.choice([1, 2, 5, 12, 23], size=3))
    spacing = tuple(float(s) for s in rng.uniform(0.4, 3.0, size=3))
    target = tuple(float(t) for t in rng.choice([1.0, 0.6, 1.7, 2.5], size=3))
    return dims, spacing, target


class TestResampleReference:
    """The separable resampler against `map_coordinates` on the same grids."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32])
    def test_nearest_exact(self, rng, dtype):
        for _ in range(20):
            dims, spacing, target = random_grid(rng)
            data = (rng.random(dims) * 200).astype(dtype)
            vol = Volume(data, spacing, Kind.LABEL)
            out = resample(vol, target)
            ref = map_coordinates_reference(vol, out.dims, target, "nearest")
            assert out.data.dtype == ref.dtype == dtype
            np.testing.assert_array_equal(out.data, ref)

    def test_nearest_up_and_down(self, rng):
        labels = rng.integers(0, 9, size=(17, 9, 30)).astype(np.int32)
        vol = Volume(labels, (0.8, 2.6, 1.0), Kind.LABEL)
        for target in [(1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (2.0, 3.0, 1.5)]:
            out = resample(vol, target)
            ref = map_coordinates_reference(vol, out.dims, target, "nearest")
            np.testing.assert_array_equal(out.data, ref)

    def test_linear_within_one_ulp(self, rng):
        for _ in range(30):
            dims, spacing, target = random_grid(rng)
            vol = intensity(rng.standard_normal(dims) * 1000, spacing)
            out = resample(vol, target)
            ref = map_coordinates_reference(vol, out.dims, target, "linear")
            assert out.data.dtype == ref.dtype == np.float32
            np.testing.assert_array_max_ulp(out.data, ref, maxulp=1)

    def test_linear_integer_input(self, rng):
        vol = Volume(rng.integers(0, 300, size=(7, 12, 5)).astype(np.int32), (1.3, 0.7, 2.2))
        out = resample(vol, (1.0, 1.0, 1.0))
        ref = map_coordinates_reference(vol, out.dims, (1.0, 1.0, 1.0), "linear")
        np.testing.assert_array_max_ulp(out.data, ref, maxulp=1)

    def test_linear_constant_exact(self):
        vol = intensity(np.full((6, 1, 9), 0.3), (2.5, 1.0, 0.7))
        out = resample(vol, (1.0, 0.4, 1.0))
        assert out.dims == (15, 3, 6)
        assert (out.data == np.float32(0.3)).all()


def whole_array_linear(vol, target):
    """The linear resampler as one float64 formula over whole arrays: each
    axis reads ``take(lo) * (1 - w) + take(lo + 1) * w``, shrinking axes
    first, and the result is rounded to float32 once at the end."""
    out_dims = resampled_dims(vol.dims, vol.spacing, target)
    out = vol.data.astype(np.float32)
    for axis in sorted(range(3), key=lambda a: out_dims[a] / max(vol.dims[a], 1)):
        d = vol.dims[axis]
        c = (np.arange(out_dims[axis]) + 0.5) * target[axis] / vol.spacing[axis] - 0.5
        lo = np.floor(c)
        w = (c - lo).reshape([-1 if a == axis else 1 for a in range(3)])
        lo = lo.astype(np.intp)
        out = (np.take(out, np.clip(lo, 0, d - 1), axis=axis) * (1.0 - w)
               + np.take(out, np.clip(lo + 1, 0, d - 1), axis=axis) * w)
    return out.astype(np.float32)


def thick_axis(axis):
    """Dims and spacing of a small stack whose slices are 3.1 mm along ``axis``."""
    dims, spacing = [31, 30, 29], [0.8, 0.82, 0.85]
    dims[axis], spacing[axis] = 9, 3.1
    return tuple(dims), tuple(spacing)


# name: (seed, dims, spacing, input dtype, SHA-256 of the float32 output bytes);
# at 1 mm the last two resample a 1-voxel axis to 2 voxels, and 3 voxels of
# 0.3 mm to 1 voxel
LINEAR_PINS = {
    "f4-thick0": (40, *thick_axis(0), np.float32,
                   "0381996dfa3025c46a209b43c8cba4aa8d35036bc6207a7e9a81260d0a21c3f3"),
    "f4-thick1": (41, *thick_axis(1), np.float32,
                   "b2c04a546c546c990deaa9deaf22a5fa7be4048c21e6dfed5dad7582d370ac94"),
    "f4-thick2": (42, *thick_axis(2), np.float32,
                   "2f684c8bd2d593cfdc2d5f3db297f38b02fa738af2876fd35421adf73f58a226"),
    "f8-thick0": (43, *thick_axis(0), np.float64,
                   "162f8f3c74e95923015527de912774244787601222bcd8a62d0d5ba763d0d6d9"),
    "f8-thick1": (44, *thick_axis(1), np.float64,
                   "4e608966caad7359f9f3dcb4cc83f62657bff8ebf21e64beaffe0cef95cbbe64"),
    "f8-thick2": (45, *thick_axis(2), np.float64,
                   "feb51d1ec1e601e04a7a62efa4e4265baa5478d8e9cc00f8b9156d335deb3de9"),
    "i2-thick0": (46, *thick_axis(0), np.int16,
                   "af132362b887bf02a0d2fae3eab3c365f5626ee13d35a2126bf966778d9fe248"),
    "i2-thick1": (47, *thick_axis(1), np.int16,
                   "8a0d1360be4dc996af3f1cdd553f4426380dec21e26f336fe2e7935be5ff1260"),
    "i2-thick2": (48, *thick_axis(2), np.int16,
                   "31f66da1e9f43de1e0d60c69a1244e0be52be6dac0541845190261121e19783e"),
    "axis-of-length-1": (60, (1, 20, 30), (2.0, 0.8, 1.1), np.float32,
                         "4d116a7b1ea8cd9e09d3f643970d7e5c4689f5adae39c45b418cb148befdc18f"),
    "output-of-length-1": (61, (3, 17, 9), (0.3, 1.3, 2.2), np.float32,
                           "abeeafcc4bee2fd69404b8bff4bbc5735b697361b668e49d0dadeef6bc0d857d"),
}


class TestLinearResamplePin:
    """Pins the bytes of linear resampling, which no mask digest sees (the
    digest runs use an oracle and resample their masks nearest).

    Each input is resampled with the default slab size, with one-row slabs
    (a slab size of 1 byte) and with 20,000-byte slabs, which split these
    outputs into several slabs with a ragged last one. All three must give
    the bytes of the whole-array formula, and those bytes are pinned.
    """

    @pytest.mark.parametrize("slab_bytes", [None, 1, 20_000], ids=["default", "one-row", "ragged"])
    @pytest.mark.parametrize("name", list(LINEAR_PINS))
    def test_bytes(self, monkeypatch, name, slab_bytes):
        seed, dims, spacing, dtype, digest = LINEAR_PINS[name]
        rng = np.random.default_rng(seed)
        if dtype == np.int16:
            data = rng.integers(-3000, 3000, size=dims, dtype=np.int16)
        else:
            data = (rng.standard_normal(dims) * 1000).astype(dtype)
        vol = Volume(data, spacing)
        if slab_bytes is not None:
            monkeypatch.setattr(volume, "_SLAB_BYTES", slab_bytes)
        out = resample(vol, (1.0, 1.0, 1.0)).data
        assert out.dtype == np.float32
        assert out.tobytes() == whole_array_linear(vol, (1.0, 1.0, 1.0)).tobytes()
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def test_resample_peak_memory():
    """Resampling a thick-slice scan shaped like the benchmark's native inputs
    holds at most three outputs' worth of memory at its peak."""
    rng = np.random.default_rng(14)
    vol = intensity(rng.random((56, 216, 215), dtype=np.float32), (3.06, 0.8, 0.8))
    out_bytes = 4 * int(np.prod(resampled_dims(vol.dims, vol.spacing, (1.0,) * 3)))
    tracemalloc.start()
    try:
        out = resample(vol, (1.0, 1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.data.nbytes == out_bytes
    assert peak <= 3 * out_bytes, f"peak {peak / 1e6:.1f} MB for a {out_bytes / 1e6:.1f} MB output"


class TestConformCube:
    def test_identity(self, rng):
        vol = intensity(rng.random((192, 192, 192)))
        out = conform_cube(vol, 192)
        np.testing.assert_array_equal(out.data, vol.data)

    @pytest.mark.parametrize("kind", [Kind.LABEL, Kind.INTENSITY])
    def test_same_dims_keeps_bytes_spacing_and_kind(self, rng, kind):
        data = rng.integers(0, 8, (12, 12, 12)).astype(np.int16)
        vol = Volume(data, (1.0, 2.0, 0.5), kind)
        out = conform_cube(vol, 12)
        assert out.data.tobytes() == vol.data.tobytes()
        assert out.data.dtype == vol.data.dtype
        assert out.spacing == vol.spacing and out.kind == kind

    def test_pad_centered_sum(self):
        vol = mask(np.ones((100, 100, 100)))
        out = conform_cube(vol, 192)
        assert out.dims == (192, 192, 192)
        assert out.data.sum() == 10 ** 6
        # even difference: 46 pad voxels per side
        assert out.data[46:146, 46:146, 46:146].all()

    def test_crop_symmetric(self, rng):
        vol = intensity(rng.random((200, 200, 200)))
        out = conform_cube(vol, 192)
        np.testing.assert_array_equal(out.data, vol.data[4:196, 4:196, 4:196])

    def test_odd_margin_high_side(self):
        vol = intensity(np.arange(5 * 5 * 5).reshape(5, 5, 5))
        out = conform_cube(vol, 4)  # remove 1 voxel: from the high side
        np.testing.assert_array_equal(out.data, vol.data[:4, :4, :4])

    def test_idempotent(self, rng):
        vol = intensity(rng.random((100, 210, 190)))
        once = conform_cube(vol, 192)
        twice = conform_cube(once, 192)
        np.testing.assert_array_equal(once.data, twice.data)

    def test_retained_multiset_exact(self, rng):
        vol = intensity(rng.random((10, 30, 20)))
        out = conform_cube(vol, 16)
        # cropped axes keep a contiguous run, padded axes add zeros only
        retained = vol.data[:, 7:23, 2:18]
        padded = out.data[3:13, :, :]
        np.testing.assert_array_equal(padded, retained)

    def test_bad_side(self, rng):
        with pytest.raises(ValueError):
            conform_cube(intensity(np.zeros((4, 4, 4))), 0)

    def test_unconform_inverts(self, rng):
        vol = intensity(rng.random((100, 210, 190)))
        out = conform_cube(vol, 192)
        back = unconform_cube(out, vol.dims)
        assert back.dims == vol.dims
        # values that survived the crop/pad cycle are restored in place
        np.testing.assert_array_equal(back.data[:, 9:201, :], vol.data[:, 9:201, :])


def test_conform_cube_matches_crop_and_pad(rng):
    """The single-copy conform gives the bytes of a per-axis crop, then pad."""
    side = 16
    for dims in [(10, 30, 20), (17, 16, 3), (33, 1, 40), (16, 16, 16)]:
        data = rng.integers(0, 256, size=dims).astype(np.uint8)
        expected = data
        for axis, d in enumerate(dims):
            if d > side:
                lo = (d - side) // 2
                expected = np.take(expected, np.arange(lo, lo + side), axis=axis)
            elif d < side:
                pad = [(0, 0)] * 3
                pad[axis] = ((side - d) // 2, side - d - (side - d) // 2)
                expected = np.pad(expected, pad)
        out = conform_cube(Volume(data, (1.0, 2.0, 0.5), Kind.LABEL), side)
        assert out.data.dtype == np.uint8 and out.spacing == (1.0, 2.0, 0.5)
        np.testing.assert_array_equal(out.data, expected)


def pin_volume(name, kind=Kind.INTENSITY):
    """The input of a LINEAR_PINS entry; a mask or label of its dims and spacing
    for the nearest-neighbour kinds."""
    seed, dims, spacing, dtype, _ = LINEAR_PINS[name]
    rng = np.random.default_rng(seed)
    if kind is Kind.MASK:
        return Volume(rng.integers(0, 2, size=dims, dtype=np.uint8), spacing, kind)
    if kind is Kind.LABEL:
        return Volume(rng.integers(0, 9, size=dims, dtype=np.int16), spacing, kind)
    if dtype == np.int16:
        return Volume(rng.integers(-3000, 3000, size=dims, dtype=np.int16), spacing)
    return Volume((rng.standard_normal(dims) * 1000).astype(dtype), spacing)


class TestResampleCube:
    """resample_cube computes only the voxels conform_cube keeps of resample's
    output, and gives them the same bytes; unresample_cube gathers the mask
    back without building the resampled grid, with the bytes of a nearest
    resample of the unconformed grid.

    The pinned inputs resample to about 25-28 voxels per axis at 1 mm (2 and
    1 voxels on the short axes of the last two), so a side of 12 crops every
    axis, 40 pads every axis, and 26 crops some and pads others.
    """

    @pytest.mark.parametrize("slab_bytes", [None, 1], ids=["default", "one-row"])
    @pytest.mark.parametrize("side", [12, 26, 40], ids=["crop", "mixed", "pad"])
    @pytest.mark.parametrize("name", list(LINEAR_PINS))
    def test_linear_bytes_equal_resample_then_crop(self, monkeypatch, name, side, slab_bytes):
        vol = pin_volume(name)
        if slab_bytes is not None:
            monkeypatch.setattr(volume, "_SLAB_BYTES", slab_bytes)
        expected = conform_cube(resample(vol, (1.0, 1.0, 1.0)), side).data
        out = resample_cube(vol, 1.0, side)
        assert out.dims == (side,) * 3 and out.spacing == (1.0, 1.0, 1.0)
        assert out.data.dtype == expected.dtype == np.float32
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", [Kind.MASK, Kind.LABEL])
    @pytest.mark.parametrize("side", [12, 26, 40], ids=["crop", "mixed", "pad"])
    @pytest.mark.parametrize("name", ["f4-thick0", "f4-thick1", "f4-thick2", "output-of-length-1"])
    def test_nearest_bytes_equal_resample_then_crop(self, name, side, kind):
        vol = pin_volume(name, kind)
        expected = conform_cube(resample(vol, (1.0, 1.0, 1.0)), side).data
        out = resample_cube(vol, 1.0, side).data
        assert out.dtype == expected.dtype == vol.data.dtype
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("side", [12, 31, 40], ids=["crop", "mixed", "pad"])
    def test_on_grid_input_is_read_as_a_box(self, rng, side):
        # 1 mm already: no interpolation, only the crop and the padding
        vol = intensity(rng.random((35, 20, 31)))
        out = resample_cube(vol, 1.0, side)
        assert out.data.tobytes() == conform_cube(vol, side).data.tobytes()

    def test_bad_side_and_spacing(self, rng):
        vol = intensity(rng.random((4, 4, 4)))
        with pytest.raises(ValueError, match="side"):
            resample_cube(vol, 1.0, 0)
        with pytest.raises(ValueError, match="target spacing"):
            resample_cube(vol, float("nan"), 4)

    @pytest.mark.parametrize("side", [12, 26, 40], ids=["crop", "mixed", "pad"])
    @pytest.mark.parametrize("name", ["f4-thick0", "f4-thick1", "f4-thick2",
                                      "axis-of-length-1", "output-of-length-1"])
    def test_unresample_equals_unconform_then_resample(self, rng, name, side):
        _, dims, spacing, _, _ = LINEAR_PINS[name]
        cube = Volume(rng.integers(0, 2, size=(side,) * 3, dtype=np.uint8), (1.0,) * 3, Kind.MASK)
        grid = unconform_cube(cube, resampled_dims(dims, spacing, cube.spacing))
        expected = volume._resample_to(grid, dims, spacing).data
        out = unresample_cube(cube, dims, spacing)
        assert out.dims == dims and out.spacing == spacing
        assert out.data.dtype == np.uint8 and out.data.tobytes() == expected.tobytes()

    def test_unresample_empty_resampled_axis_gives_zeros(self):
        # 10 voxels of 0.01 mm resample to no voxel at 1 mm
        cube = Volume(np.ones((8, 8, 8), np.uint8), (1.0,) * 3, Kind.MASK)
        out = unresample_cube(cube, (10, 6, 7), (0.01, 1.0, 1.0))
        assert out.dims == (10, 6, 7) and not out.data.any()

    def test_unresample_rejects_linear_kinds(self, rng):
        with pytest.raises(ValueError, match="mask or label"):
            unresample_cube(intensity(rng.random((4, 4, 4))), (4, 4, 4), (1.0,) * 3)


def test_conform_huge_resampled_grid_stays_within_native_and_cube(tmp_path):
    """12x10x9 voxels at 700 mm on two axes resample to 8400x7000x9 voxels at
    1 mm, 2 GiB as float32, of which the cube keeps 192**3 (28 MB).

    Conforming the file's scan must stay within the scan and two cubes (the
    cube and its normalized copy) at its tracemalloc peak. The run is in a
    child process whose address space is capped at 1 GiB, so that a
    regression ends in a MemoryError there rather than allocating GiBs.
    """
    from braincascade import io_nifti

    path = tmp_path / "scan.nii"
    data = np.random.default_rng(7).random((12, 10, 9)).astype(np.float32)
    io_nifti.write_nifti(Volume(data, (700.0, 700.0, 1.0)), path, "float32")
    code = textwrap.dedent("""
        import json, resource, sys, tracemalloc
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from braincascade import cascade, io_nifti
        vol = io_nifti.read_nifti(sys.argv[1])
        tracemalloc.start()
        out = cascade.conform_input(vol, 192)
        print(json.dumps([tracemalloc.get_traced_memory()[1], out.dims, float(out.data.max())]))
    """)
    src = os.path.dirname(os.path.dirname(volume.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    peak, dims, top = json.loads(run.stdout)
    assert dims == [192, 192, 192] and top == 1.0
    assert peak <= data.nbytes + 2 * 4 * 192 ** 3 + (1 << 20), f"peak {peak / 1e6:.1f} MB"


class TestExtractPatch:
    """read_box: a box read out of an array, zeros outside it."""

    def test_full_extent_copy(self, rng):
        data = rng.random((6, 7, 8))
        out = read_box(data, (0, 0, 0), data.shape)
        np.testing.assert_array_equal(out, data)

    def test_constant_field(self):
        out = read_box(np.full((192, 192, 192), 5.0), (0, 0, 0), (32, 32, 32))
        assert out.shape == (32, 32, 32)
        assert (out == 5.0).all()

    def test_out_of_bounds_zero(self):
        out = read_box(np.ones((10, 10, 10)), (5, 5, 5), (32, 32, 32))
        assert out.shape == (32, 32, 32)
        # only the in-bounds 5^3 corner is nonzero
        assert out.sum() == 5 ** 3
        assert out[:5, :5, :5].all()

    def test_sum_matches_intersection(self, rng):
        data = rng.random((12, 12, 12))
        out = read_box(data, (6, 6, 6), (16, 16, 16))
        np.testing.assert_allclose(out.sum(), data[6:, 6:, 6:].sum(), rtol=1e-6)

    def test_negative_mins(self, rng):
        data = rng.integers(1, 255, size=(6, 7, 8)).astype(np.uint8)
        out = read_box(data, (-2, 3, -1), (5, 6, 4), dtype=np.float32)
        assert out.dtype == np.float32
        expected = np.zeros((5, 6, 4), dtype=np.float32)
        expected[2:, :4, 1:] = data[:3, 3:, :3]
        np.testing.assert_array_equal(out, expected)

    def test_disjoint_reads_zeros(self):
        for mins in [(10, 10, 10), (-3, 0, 0), (0, 4, 0)]:
            out = read_box(np.ones((4, 4, 4), dtype=np.uint8), mins, (2, 3, 4))
            assert out.shape == (2, 3, 4) and out.dtype == np.uint8
            assert not out.any()


class TestReadBoxContract:
    """read_box is read-only: a view inside the array at its own dtype, else a
    zero-filled copy."""

    def test_inside_same_dtype_is_read_only_view(self, rng):
        data = rng.random((10, 12, 14)).astype(np.float32)
        for mins, shape in [((0, 0, 0), (10, 12, 14)), ((2, 3, 4), (8, 9, 10)), ((9, 0, 13), (1, 1, 1))]:
            for dtype in (None, np.float32):
                out = read_box(data, mins, shape, dtype)
                assert np.shares_memory(out, data) and not out.flags.writeable
                np.testing.assert_array_equal(out, data[tuple(slice(a, a + n) for a, n in zip(mins, shape))])
        assert data.flags.writeable

    def test_past_any_edge_is_read_only_copy(self):
        data = np.ones((10, 10, 10), dtype=np.uint8)
        for mins in [(-1, 0, 0), (0, 0, -2), (5, 0, 0), (0, 4, 0), (10, 0, 0)]:
            out = read_box(data, mins, (6, 7, 2))
            assert not np.shares_memory(out, data) and not out.flags.writeable
            assert out.dtype == np.uint8
            # ones where the box meets the array, zeros elsewhere
            idx = np.indices(out.shape) + np.reshape(mins, (3, 1, 1, 1))
            np.testing.assert_array_equal(out, ((idx >= 0) & (idx < 10)).all(axis=0))
        assert data.flags.writeable

    def test_other_dtype_is_read_only_copy(self, rng):
        data = rng.integers(0, 255, size=(10, 10, 10)).astype(np.uint8)
        out = read_box(data, (2, 3, 4), (5, 5, 5), np.float32)
        assert out.dtype == np.float32
        assert not np.shares_memory(out, data) and not out.flags.writeable
        np.testing.assert_array_equal(out, data[2:7, 3:8, 4:9])
        assert data.flags.writeable


class TestMinMaxNormalize:
    def test_values(self):
        vol = intensity(np.array([2.0, 4.0, 6.0]).reshape(1, 1, 3))
        np.testing.assert_allclose(
            minmax_normalize(vol).data.ravel(), [0.0, 0.5, 1.0]
        )

    def test_constant_to_zeros(self):
        vol = intensity(np.full((3, 3, 3), 7.0))
        assert (minmax_normalize(vol).data == 0).all()

    def test_idempotent_on_unit_range(self, rng):
        data = rng.random((4, 4, 4)).astype(np.float32)
        data.flat[0], data.flat[1] = 0.0, 1.0
        vol = intensity(data)
        np.testing.assert_allclose(minmax_normalize(vol).data, data, atol=1e-7)

    def test_rejects_non_intensity(self):
        with pytest.raises(ValueError):
            minmax_normalize(mask(np.ones((2, 2, 2))))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, rng, value):
        data = rng.random((4, 4, 4)).astype(np.float32)
        data[1, 2, 3] = value
        with pytest.raises(ValueError, match="intensities must be finite"):
            minmax_normalize(intensity(data))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16, np.uint8])
    def test_bit_identical_to_out_of_place(self, rng, dtype):
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, (6, 7, 8), endpoint=True).astype(dtype)
        else:
            data = (rng.normal(size=(6, 7, 8)) * 300 + 40).astype(dtype)
        before = data.copy()
        out = minmax_normalize(Volume(data)).data
        ref = data.astype(np.float32)
        lo, hi = float(ref.min()), float(ref.max())
        ref = (ref - lo) / (hi - lo)
        assert out.dtype == np.float32
        assert out.tobytes() == ref.tobytes()
        assert data.tobytes() == before.tobytes()  # the caller's array is untouched
