import numpy as np
import pytest

from braincascade.volume import (
    BoundingBox, Kind, Volume, conform_cube, extract_patch, minmax_normalize,
    resample, unconform_cube,
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
        vol = intensity(rng.random((5, 6, 7)))
        out = resample(vol, (1, 1, 1), "linear")
        assert out.dims == vol.dims
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


class TestExtractPatch:
    def test_full_extent_copy(self, rng):
        vol = intensity(rng.random((6, 7, 8)))
        out = extract_patch(vol, BoundingBox.full(vol.dims))
        np.testing.assert_array_equal(out.data, vol.data)

    def test_constant_field(self):
        vol = intensity(np.full((192, 192, 192), 5.0))
        out = extract_patch(vol, BoundingBox((0, 0, 0), (32, 32, 32)))
        assert out.dims == (32, 32, 32)
        assert (out.data == 5.0).all()

    def test_out_of_bounds_zero(self, rng):
        vol = intensity(np.ones((10, 10, 10)))
        box = BoundingBox((5, 5, 5), (15, 15, 15))
        out = extract_patch(vol, box, pad_to=(32, 32, 32))
        assert out.dims == (32, 32, 32)
        # only the in-bounds 5^3 corner is nonzero
        assert out.data.sum() == 5 ** 3

    def test_sum_matches_intersection(self, rng):
        vol = intensity(rng.random((12, 12, 12)))
        box = BoundingBox((6, 6, 6), (20, 20, 20))
        out = extract_patch(vol, box, pad_to=(16, 16, 16))
        np.testing.assert_allclose(out.data.sum(), vol.data[6:, 6:, 6:].sum(), rtol=1e-6)

    def test_disjoint_rejected(self):
        vol = intensity(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            extract_patch(vol, BoundingBox((10, 10, 10), (12, 12, 12)))


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
