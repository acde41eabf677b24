import numpy as np
import pytest
from scipy import ndimage

from braincascade.volume import (
    Kind, Volume, conform_cube, minmax_normalize, read_box, resample,
    unconform_cube,
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
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2)), spacing=(1, 0, 1))

    def test_non_3d_rejected(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2)))


class TestResample:
    def test_identity(self, rng):
        # at a volume's own spacing, unit or not, every dtype comes back equal
        vols = [intensity(rng.random((5, 6, 7))),
                Volume(rng.integers(0, 100, (4, 5, 6)).astype(np.int16), (0.8, 1.0, 2.5))]
        for vol in vols:
            for interp in ("linear", "nearest"):
                out = resample(vol, vol.spacing, interp)
                assert (out.dims, out.spacing) == (vol.dims, vol.spacing)
                assert out.data.dtype == vol.data.dtype
                np.testing.assert_array_equal(out.data, vol.data)

    def test_dims_formula(self, rng):
        vol = Volume(rng.random((10, 10, 10)).astype(np.float32), (2, 2, 2))
        out = resample(vol, (1, 1, 1), "linear")
        assert out.dims == (20, 20, 20)
        assert out.spacing == (1.0, 1.0, 1.0)

    def test_nearest_preserves_value_set(self, rng):
        m = mask(rng.random((8, 9, 10)) < 0.5, spacing=(2, 1, 3))
        out = resample(m, (1, 1, 1), "nearest")
        assert set(np.unique(out.data)) <= {0, 1}

    def test_linear_rejected_for_mask(self, rng):
        m = mask(np.ones((4, 4, 4)))
        with pytest.raises(ValueError):
            resample(m, (2, 2, 2), "linear")

    def test_label_roundtrip_subset(self, rng):
        for _ in range(5):
            labels = rng.integers(0, 5, size=(9, 7, 11)).astype(np.int32)
            vol = Volume(labels, (1, 1, 1), Kind.LABEL)
            down = resample(vol, (2.3, 1.7, 1.1), "nearest")
            back = resample(down, (1, 1, 1), "nearest")
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

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float32])
    def test_nearest_exact(self, rng, dtype):
        for _ in range(20):
            dims, spacing, target = random_grid(rng)
            data = (rng.random(dims) * 200).astype(dtype)
            vol = Volume(data, spacing, Kind.INTENSITY)
            out = resample(vol, target, "nearest")
            ref = map_coordinates_reference(vol, out.dims, target, "nearest")
            assert out.data.dtype == ref.dtype == dtype
            np.testing.assert_array_equal(out.data, ref)

    def test_nearest_up_and_down(self, rng):
        labels = rng.integers(0, 9, size=(17, 9, 30)).astype(np.int32)
        vol = Volume(labels, (0.8, 2.6, 1.0), Kind.LABEL)
        for target in [(1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (2.0, 3.0, 1.5)]:
            out = resample(vol, target, "nearest")
            ref = map_coordinates_reference(vol, out.dims, target, "nearest")
            np.testing.assert_array_equal(out.data, ref)

    def test_linear_within_one_ulp(self, rng):
        for _ in range(30):
            dims, spacing, target = random_grid(rng)
            vol = intensity(rng.standard_normal(dims) * 1000, spacing)
            out = resample(vol, target, "linear")
            ref = map_coordinates_reference(vol, out.dims, target, "linear")
            assert out.data.dtype == ref.dtype == np.float32
            np.testing.assert_array_max_ulp(out.data, ref, maxulp=1)

    def test_linear_integer_input(self, rng):
        vol = Volume(rng.integers(0, 300, size=(7, 12, 5)).astype(np.int32), (1.3, 0.7, 2.2))
        out = resample(vol, (1.0, 1.0, 1.0), "linear")
        ref = map_coordinates_reference(vol, out.dims, (1.0, 1.0, 1.0), "linear")
        np.testing.assert_array_max_ulp(out.data, ref, maxulp=1)

    def test_linear_constant_exact(self):
        vol = intensity(np.full((6, 1, 9), 0.3), (2.5, 1.0, 0.7))
        out = resample(vol, (1.0, 0.4, 1.0), "linear")
        assert out.dims == (15, 3, 6)
        assert (out.data == np.float32(0.3)).all()


class TestConformCube:
    def test_identity(self, rng):
        vol = intensity(rng.random((192, 192, 192)))
        out = conform_cube(vol, 192)
        np.testing.assert_array_equal(out.data, vol.data)

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
