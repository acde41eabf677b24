import dataclasses
import hashlib
import json
import sys
import threading

import numpy as np
import pytest
from scipy import ndimage

from braincascade import synth
from braincascade.morphology import connected_components
from braincascade.synth import (
    FIRST_SHAPE_LABEL, MODEL_PARAMS, MODEL_STEPS, SynthesisParams, _affine_grid,
    _apply_transform, _blur, _rotation_matrix, _sample_transform,
    _synthesize_raw, _zoom_linear,
    add_random_shapes, augment_spatial, brain_mask, center_brain,
    make_phantom_label_map, make_training_pair, upsample_linear,
)
from braincascade.volume import Kind, Volume, conform_cube, minmax_normalize, read_box


def no_aug(window, n_shapes=0, **kw):
    return SynthesisParams(window, n_shapes, 0, 0, 0, 0, 0, warp_max=0,
                           bias_amplitude=0, downsample_factor_max=1, **kw)


class TestPhantom:
    def test_label_set(self, rng):
        lm = make_phantom_label_map(rng, (64, 64, 64))
        present = set(np.unique(lm.data))
        assert present <= set(range(8))
        assert set(range(1, 8)) <= present
        assert lm.data.dtype == np.uint8

    def test_brain_is_one_component(self, rng):
        lm = make_phantom_label_map(rng, (64, 64, 64))
        comps = connected_components(brain_mask(lm), 26)
        assert len(comps.sizes) == 1

    def test_deterministic(self):
        a = make_phantom_label_map(np.random.default_rng(3), (48, 48, 48))
        b = make_phantom_label_map(np.random.default_rng(3), (48, 48, 48))
        np.testing.assert_array_equal(a.data, b.data)

    def test_min_dims(self, rng):
        with pytest.raises(ValueError):
            make_phantom_label_map(rng, (16, 64, 64))


class TestAugmentSpatial:
    def test_identity_when_all_zero(self, rng):
        lm = make_phantom_label_map(rng, (48, 48, 48))
        out = augment_spatial(lm, no_aug(48), np.random.default_rng(0))
        assert out.data.dtype == lm.data.dtype
        np.testing.assert_array_equal(out.data, lm.data)

    @pytest.mark.parametrize("dims", [(37, 50, 33), (64, 32, 41)])
    def test_identity_when_all_zero_non_cubic(self, rng, dims):
        # odd and even axes: each coordinate (k - c) + c is exact for the
        # half-integer centre of an even axis too
        lm = make_phantom_label_map(rng, dims)
        out = augment_spatial(lm, no_aug(48), np.random.default_rng(0))
        assert out.data.dtype == lm.data.dtype
        np.testing.assert_array_equal(out.data, lm.data)

    def test_pure_shift_moves_centroid(self, rng):
        lm = make_phantom_label_map(rng, (64, 64, 64))
        params = {"shift_mm": np.array([10.0, 0.0, 0.0]),
                  "rot_deg": np.zeros(3), "scale": 1.0}
        out = _apply_transform(lm, no_aug(64), params, np.random.default_rng(0))
        before = ndimage.center_of_mass(brain_mask(lm).data)
        after = ndimage.center_of_mass(brain_mask(out).data)
        assert abs(after[0] - before[0] - 10.0) <= 1.0
        assert abs(after[1] - before[1]) <= 1.0
        assert abs(after[2] - before[2]) <= 1.0

    def test_scale_changes_volume(self, rng):
        lm = make_phantom_label_map(rng, (64, 64, 64))
        params = {"shift_mm": np.zeros(3), "rot_deg": np.zeros(3), "scale": 1.3}
        out = _apply_transform(lm, no_aug(64), params, np.random.default_rng(0))
        ratio = brain_mask(out).data.sum() / brain_mask(lm).data.sum()
        assert ratio == pytest.approx(1.3 ** 3, rel=0.1)

    def test_outside_maps_to_background(self, rng):
        lm = make_phantom_label_map(rng, (48, 48, 48))
        params = {"shift_mm": np.array([60.0, 0.0, 0.0]),
                  "rot_deg": np.zeros(3), "scale": 1.0}
        out = _apply_transform(lm, no_aug(48), params, np.random.default_rng(0))
        assert set(np.unique(out.data)) <= set(np.unique(lm.data))

    def test_large_shift_can_push_brain_out(self, rng):
        # coarsest model's range includes partial and absent brains
        lm = make_phantom_label_map(rng, (128, 128, 128))
        p = MODEL_PARAMS["A"]
        full = brain_mask(lm).data.sum()
        fractions = [
            brain_mask(augment_spatial(lm, p, np.random.default_rng(seed))).data.sum() / full
            for seed in range(15)
        ]
        assert min(fractions) < 1.0


def whole_grid_phantom(rng, dims):
    """make_phantom_label_map with every ellipsoid evaluated on the whole grid."""
    center = np.array(dims) / 2.0
    radii = np.array([rng.uniform(0.15, 0.22) * d for d in dims])
    grids = np.ogrid[: dims[0], : dims[1], : dims[2]]
    envelope = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii)) <= 1.0
    lm = np.zeros(dims, dtype=np.int32)
    lm[envelope] = 1
    directions = np.array([
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]
    ])
    for k, d in enumerate(directions, start=2):
        c = center + d * radii * rng.uniform(0.35, 0.5)
        r = radii * rng.uniform(0.25, 0.4)
        inner = sum(((g - ci) / ri) ** 2 for g, ci, ri in zip(grids, c, r)) <= 1.0
        lm[inner & envelope] = k
        ci = tuple(int(round(v)) for v in c)
        if envelope[ci]:
            lm[ci] = k
    return lm


class TestSeparableReference:
    """Each bounded-memory path against the whole-grid code it replaced: the
    broadcast affine grid, the separable field upsampling, the boxed phantom
    ellipsoids, the slabbed augmentation, the integer centroid, and the
    render's blur written into the image it reads; and the render's
    downsampling passes against ``ndimage.zoom`` with the same edge clamp."""

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 0.6, 1.7, (0.4, 1.1, 2.5), (0.0, 0.7, 0.2)])
    def test_blur_in_place_equals_new_array(self, sigma):
        img = np.random.default_rng(57).random((37, 40, 29)).astype(np.float32)
        expected = ndimage.gaussian_filter(img, sigma=sigma)
        pooled = img.copy()
        out = ndimage.gaussian_filter(img, sigma=sigma, output=img)
        assert out is img
        assert img.tobytes() == expected.tobytes()
        _blur(pooled, np.broadcast_to(sigma, 3))
        assert pooled.tobytes() == expected.tobytes()

    # factor 2 at 32, 28 and 48 puts the small grid's last plane on each axis
    # past the edge, so the clamp there stays covered
    @pytest.mark.parametrize("size,factor", [
        (32, 2), (28, 2), (48, 2), (33, 3), (40, 2), (64, 3), (128, 2), (47, 5), (8, 15),
    ])
    def test_downsample_matches_zoom(self, size, factor):
        img = np.random.default_rng(size * factor).random((size,) * 3).astype(np.float32)
        small = ndimage.zoom(img, 1.0 / factor, order=1, mode="nearest")
        expected = ndimage.zoom(small, np.array(img.shape) / np.array(small.shape), order=1,
                                mode="nearest")
        down = np.empty_like(small)
        _zoom_linear(img, down)
        up = np.empty_like(img)
        _zoom_linear(down, up)
        np.testing.assert_array_max_ulp(down, small, maxulp=1)
        np.testing.assert_array_max_ulp(up, expected, maxulp=1)

    # 32 -> 16 puts the small grid's last plane on each axis at 15 * 31/15,
    # which float64 rounds past 31: it must read plane 31, not 0
    def test_downsample_keeps_a_constant(self):
        img = np.full((32,) * 3, 0.7, np.float32)
        small = np.empty((16,) * 3, np.float32)
        _zoom_linear(img, small)
        _zoom_linear(small, img)
        assert (small == np.float32(0.7)).all() and (img == np.float32(0.7)).all()

    @pytest.mark.parametrize("seed,dims", [
        (50, (32, 32, 32)), (51, (32, 77, 45)), (52, (101, 33, 64)), (53, (63, 128, 99)),
    ])
    def test_phantom_equals_whole_grid(self, seed, dims):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(make_phantom_label_map(a, dims).data,
                                      whole_grid_phantom(b, dims))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("warp_max", [0.0, 3.0])
    def test_slabbed_transform_equals_whole_grid(self, warp_max):
        dims, spacing = (37, 50, 23), (1.0, 1.5, 0.8)
        setup = np.random.default_rng(46)
        lm = Volume(setup.integers(0, 8, dims, dtype=np.int32), spacing, Kind.LABEL)
        p = SynthesisParams(40, 0, 12.0, 180.0, 0.3, 0, 0, warp_max=warp_max)
        params = _sample_transform(p, setup)
        a, b = np.random.default_rng(47), np.random.default_rng(47)
        out = _apply_transform(lm, p, params, a)

        center = (np.array(dims) - 1) / 2.0
        inv = np.linalg.inv(_rotation_matrix(params["rot_deg"]) * params["scale"])
        coords = _affine_grid(dims, inv, center, params["shift_mm"] / np.array(spacing))
        if warp_max > 0:
            grid = b.uniform(-warp_max, warp_max, size=(3, 8, 8, 8))
            for i in range(3):
                coords[i] += upsample_linear(grid[i], dims) / spacing[i]
        expected = ndimage.map_coordinates(lm.data, coords, order=0, mode="constant", cval=0)
        np.testing.assert_array_equal(out.data, expected)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("seed,dims,window", [
        (54, (64, 64, 64), 48), (55, (45, 70, 33), 32), (56, (96, 40, 57), 64),
    ])
    def test_center_brain_equals_center_of_mass(self, seed, dims, window):
        rng = np.random.default_rng(seed)
        lm = make_phantom_label_map(rng, dims)
        p = SynthesisParams(window, 0, 8.0, 180.0, 0.3, 0, 0)
        lm = augment_spatial(lm, p, rng)  # off-centre and asymmetric
        centroid = np.array(ndimage.center_of_mass(brain_mask(lm).data))
        mins = np.round(centroid - window / 2.0).astype(int)
        np.testing.assert_array_equal(center_brain(lm, window).data,
                                      read_box(lm.data, mins, (window,) * 3))

    def test_center_brain_without_brain_conforms(self):
        data = np.zeros((40, 50, 30), dtype=np.int32)
        data[:5, :5, :5] = FIRST_SHAPE_LABEL  # clutter only
        lm = Volume(data, kind=Kind.LABEL)
        np.testing.assert_array_equal(center_brain(lm, 32).data, conform_cube(lm, 32).data)

    @pytest.mark.parametrize("seed,dims", [(41, (37, 50, 23)), (42, (128, 128, 128))])
    def test_affine_grid_equals_indices_einsum(self, seed, dims):
        rng = np.random.default_rng(seed)
        inv = np.linalg.inv(_rotation_matrix(rng.uniform(-180, 180, 3)) * rng.uniform(0.4, 1.6))
        center = (np.array(dims) - 1) / 2.0
        shift_vox = rng.uniform(-48, 48, 3)
        out_idx = np.indices(dims, dtype=np.float64)
        rel = out_idx - center.reshape(3, 1, 1, 1) - shift_vox.reshape(3, 1, 1, 1)
        expected = np.einsum("ij,jxyz->ixyz", inv, rel) + center.reshape(3, 1, 1, 1)
        np.testing.assert_array_equal(_affine_grid(dims, inv, center, shift_vox), expected)

    @pytest.mark.parametrize("grid_shape,dims", [
        ((8, 8, 8), (128, 128, 128)),
        ((4, 4, 4), (97, 128, 64)),
        ((4, 4, 4), (1, 9, 5)),
    ])
    def test_upsample_matches_zoom(self, grid_shape, dims):
        g = np.random.default_rng(43).uniform(-3, 3, size=grid_shape)
        expected = ndimage.zoom(g, np.array(dims) / np.array(g.shape), order=1)
        out = upsample_linear(g, dims)
        assert out.shape == expected.shape == dims
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


class TestRandomShapes:
    def test_n_zero_identity(self, rng):
        lm = make_phantom_label_map(rng, (48, 48, 48))
        out = add_random_shapes(lm, 0, np.random.default_rng(1))
        np.testing.assert_array_equal(out.data, lm.data)

    def test_n_zero_copies_and_draws_nothing(self, rng):
        lm = make_phantom_label_map(rng, (48, 48, 48))
        shape_rng = np.random.default_rng(1)
        state = shape_rng.bit_generator.state
        out = add_random_shapes(lm, 0, shape_rng)
        assert shape_rng.bit_generator.state == state
        assert not np.shares_memory(out.data, lm.data)
        assert out.kind == Kind.LABEL and out.spacing == lm.spacing

    def test_brain_untouched(self, rng):
        lm = make_phantom_label_map(rng, (64, 64, 64))
        out = add_random_shapes(lm, 24, np.random.default_rng(1))
        brain = (lm.data >= 1) & (lm.data <= 7)
        np.testing.assert_array_equal(out.data[brain], lm.data[brain])

    def test_shapes_only_in_background(self, rng):
        lm = make_phantom_label_map(rng, (64, 64, 64))
        out = add_random_shapes(lm, 24, np.random.default_rng(2))
        new = out.data >= 8
        assert (lm.data[new] == 0).all()
        assert out.data.max() <= 7 + 24

    def test_copy_widens_only_when_labels_do_not_fit(self, rng):
        lm = make_phantom_label_map(rng, (48, 48, 48))
        for data, n, dtype in [(lm.data, 24, np.uint8), (lm.data, 260, np.uint16),
                               (lm.data.astype(np.int16), 260, np.int16)]:
            out = add_random_shapes(Volume(data, kind=Kind.LABEL), n, np.random.default_rng(4))
            wide = add_random_shapes(Volume(data.astype(np.int32), kind=Kind.LABEL), n,
                                     np.random.default_rng(4))
            assert out.data.dtype == dtype
            np.testing.assert_array_equal(out.data, wide.data)
        assert wide.data.max() > 255

    def test_some_shapes_appear(self, rng):
        lm = make_phantom_label_map(rng, (64, 64, 64))
        out = add_random_shapes(lm, 8, np.random.default_rng(3))
        assert (out.data >= 8).any()


def render(lm, p, rng):
    """The rendered image of ``lm``, normalized as make_training_pair does."""
    return minmax_normalize(Volume(_synthesize_raw(lm, p, rng)[0], lm.spacing, Kind.INTENSITY))


class TestSynthesizeImage:
    def test_piecewise_constant_without_corruption(self, rng):
        lm = make_phantom_label_map(rng, (48, 48, 48))
        img = render(lm, no_aug(48), np.random.default_rng(4))
        for label in np.unique(lm.data):
            region = img.data[lm.data == label]
            assert region.std() < 1e-6  # constant up to float32 normalization

    def test_deterministic(self, rng):
        lm = make_phantom_label_map(rng, (48, 48, 48))
        p = MODEL_PARAMS["D"]
        a = render(lm, p, np.random.default_rng(5))
        b = render(lm, p, np.random.default_rng(5))
        np.testing.assert_array_equal(a.data, b.data)

    def test_range_after_corruptions(self, rng):
        lm = make_phantom_label_map(rng, (48, 48, 48))
        p = MODEL_PARAMS["A"]
        for seed in range(5):
            img = render(lm, p, np.random.default_rng(seed))
            assert img.data.min() >= 0.0 and img.data.max() <= 1.0

    def test_noise_sd_matches_sample(self):
        # one big uniform region, noise only: per-voxel SD ~ sampled sigma
        lm = Volume(np.zeros((64, 64, 64), dtype=np.int32), kind=Kind.LABEL)
        p = SynthesisParams(64, 0, 0, 0, 0, 0, 0.4, warp_max=0,
                            bias_amplitude=0, downsample_factor_max=1)
        for seed in (0, 1, 2):
            raw, params = _synthesize_raw(lm, p, np.random.default_rng(seed))
            sigma = params["noise_sd"]
            if sigma < 0.01:
                continue
            assert raw.std() == pytest.approx(sigma, rel=0.1)


class TestTrainingPair:
    def test_model_d_dims(self, rng):
        lm = make_phantom_label_map(rng, (64, 64, 64))
        pair = make_training_pair(lm, MODEL_PARAMS["D"], np.random.default_rng(6))
        assert pair.image.dims == (32, 32, 32)
        assert pair.gt.dims == (32, 32, 32)
        assert set(np.unique(pair.gt.data)) <= {0, 1}

    def test_no_aug_gt_is_centered_brain(self, rng):
        lm = make_phantom_label_map(rng, (64, 64, 64))
        p = no_aug(48)
        pair = make_training_pair(lm, p, np.random.default_rng(7))
        expected = brain_mask(center_brain(lm, 48))
        np.testing.assert_array_equal(pair.gt.data, expected.data)

    def test_deterministic(self, rng):
        lm = make_phantom_label_map(rng, (64, 64, 64))
        p = MODEL_PARAMS["C"]
        a = make_training_pair(lm, p, np.random.default_rng(8))
        b = make_training_pair(lm, p, np.random.default_rng(8))
        np.testing.assert_array_equal(a.image.data, b.image.data)
        np.testing.assert_array_equal(a.gt.data, b.gt.data)
        assert a.metadata == b.metadata

    def test_brain_fraction_varies_for_coarse_model(self, rng):
        lm = make_phantom_label_map(rng, (128, 128, 128))
        fractions = [
            make_training_pair(lm, MODEL_PARAMS["A"],
                               np.random.default_rng(seed)).metadata["brain_fraction"]
            for seed in range(2)
        ]
        assert min(fractions) < max(fractions)
        assert all(0.0 <= f <= 1.0 for f in fractions)


class TestParamChecks:
    @pytest.mark.parametrize("window", [1, 8, 32, 128])
    def test_downsampling_keeps_a_voxel(self, window):
        # zoom keeps round(window / factor) voxels: 1 below 2 * window, 0 from it on
        largest = 2 * window - 1
        SynthesisParams(window, 0, 0, 0, 0, 0, 0, downsample_factor_max=largest)
        small = ndimage.zoom(np.zeros((window,) * 3, np.float32), 1.0 / largest, order=1)
        assert small.shape == (1, 1, 1)
        with pytest.raises(ValueError, match=r"'downsample_factor_max' must be < 2 \* window"):
            SynthesisParams(window, 0, 0, 0, 0, 0, 0, downsample_factor_max=largest + 1)

    def test_shapes_need_a_window_of_eight(self):
        SynthesisParams(8, 1, 0, 0, 0, 0, 0)
        SynthesisParams(7, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="'window' must be >= 8 when 'n_shapes' > 0"):
            SynthesisParams(7, 1, 0, 0, 0, 0, 0)

    def test_shape_labels_fit_uint16(self):
        # the last shape label 7 + n_shapes is at most 65535; 2**31 - 1 shapes
        # would take about 109 h at 0.18 ms each
        SynthesisParams(8, 65528, 0, 0, 0, 0, 0)
        for n in (-1, 65529, 2 ** 31 - 1):
            with pytest.raises(ValueError, match=f"'n_shapes' must be >= 0 and at most 65528, got {n}"):
                SynthesisParams(8, n, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("name", ["shift_max", "rot_max", "scale_max", "blur_sd_max",
                                      "noise_sd_max", "warp_max", "bias_amplitude"])
    @pytest.mark.parametrize("value", [-float("inf"), -0.5])  # NaN and inf: test_cli
    def test_ranges_finite_and_non_negative(self, name, value):
        kw = dict(dataclasses.asdict(MODEL_PARAMS["D"]), **{name: value})
        with pytest.raises(ValueError, match=f"'{name}' must be finite and >= 0"):
            SynthesisParams(**kw)


class TestModelTable:
    def test_all_rows(self):
        expected = {
            "A": (128, 24, 48, 180, 0.6, 0.6, 0.40),
            "B": (96, 24, 32, 180, 0.4, 0.4, 0.20),
            "C": (64, 24, 12, 180, 0.4, 0.2, 0.15),
            "D": (32, 8, 6, 180, 0.3, 0.1, 0.15),
        }
        for model, row in expected.items():
            p = MODEL_PARAMS[model]
            assert (p.window, p.n_shapes, p.shift_max, p.rot_max,
                    p.scale_max, p.blur_sd_max, p.noise_sd_max) == row

    def test_steps(self):
        assert MODEL_STEPS == {"A": 64, "B": 32, "C": 32, "D": 32}


class TestPairDigests:
    """Pins the exact bytes of make_training_pair for one seed of each model
    and of a 40-voxel window: image, mask and metadata.

    Synthesis may be made faster but never different: any change to the
    phantom, the affine grid, the warp or bias fields, the noise draws or the
    rendering that moves a single voxel or a metadata value changes these
    digests. The B, C and 40-voxel seeds all draw noise, a bias field and a
    downsample factor of 2; 40 is not a multiple of the augment and render
    slab, so its last slab is partial.
    """

    @staticmethod
    def digests(p, seed):
        lm = make_phantom_label_map(np.random.default_rng(seed), (max(64, p.window),) * 3)
        pair = make_training_pair(lm, p, np.random.default_rng(seed + 100))
        parts = (pair.image.data.tobytes(), pair.gt.data.tobytes(),
                 json.dumps(pair.metadata, sort_keys=True).encode())
        return tuple(hashlib.sha256(b).hexdigest() for b in parts)

    def test_model_a(self):
        assert self.digests(MODEL_PARAMS["A"], 31) == (
            "8730789d6898155494e038e3248788b1b0e0dc638aaacf7b4130f74a83ce1be8",
            "dcbeb2dbd6dbdd14a70a1ce2f6932b65846747534dd1f2d02a7f7f17e72403e1",
            "851d76278c41add6c8c67bacd8b4355d94014876899c82e9fcd1515c680d8a30",
        )

    def test_model_d(self):
        assert self.digests(MODEL_PARAMS["D"], 32) == (
            "1c6c056ee1748dd63d8c83a4183e500f9bbb20ba12581f941d74915126ce0249",
            "e3643d7af9f73570c215bd64cba1b88be00518be5745ef190a85bba36b86aa73",
            "d9da289310be32d47041b1569ac06674c5edb41f4b6ad9f8e91e211fbe59baa2",
        )

    def test_model_b(self):
        assert self.digests(MODEL_PARAMS["B"], 34) == (
            "0949b28aceabc67f500f837c690ef0317b3c1a679ec2ac1dd17ab32978e28250",
            "11c448d2c28e935fe85e838de325a14ad6fc9da04ce395c0c2f258561ba8d4a8",
            "4a73d1de8b89a60f80f570e1c8c29457b913c7b860786d3efdbc79b75402dee6",
        )

    def test_model_c(self):
        assert self.digests(MODEL_PARAMS["C"], 35) == (
            "b10b8319229ef21a64587c2fc38e39d6993336ea2125500c66b9b34866849d94",
            "da4db74e04926fdf644a95d6e478aa42606cfec385f84f2750a6cad868b79444",
            "cfbb87a2bc4cc30ff5c38ba7d951264287acdb6c71dbede949db089d93d6dfee",
        )

    def test_window_40(self):
        p = SynthesisParams(40, 6, 8.0, 180.0, 0.3, 0.3, 0.2)
        assert self.digests(p, 35) == (
            "defdd47ee8bb262de7c5d21907560929f31eaa40012cf0dd6cdd67cdfaade59f",
            "5124010db95e03d75814b1f45d37fa168a6616a5331b2fee151b8f2b9c78b0ef",
            "399308ef8e3a082af8b50557433004c8eb4746394ac3feb297e136d9f2dd9893",
        )


class TestWorkerPool:
    """make_training_pair's augmentation slabs, shape regions, blur and bias
    run on thread pools of ``_workers()`` threads, each made by its step; the
    pair's bytes must not depend on that count, and no pool may outlive its
    step."""

    @pytest.mark.parametrize("p,seed", [
        (MODEL_PARAMS["A"], 31), (MODEL_PARAMS["B"], 34), (MODEL_PARAMS["C"], 35),
        (MODEL_PARAMS["D"], 32),
        # 40 and 33 are not multiples of the slab: the last slab is ragged
        (SynthesisParams(40, 6, 8.0, 180.0, 0.3, 0.3, 0.2), 35),
        (SynthesisParams(33, 6, 8.0, 180.0, 0.3, 0.3, 0.2), 36),
    ], ids=["A", "B", "C", "D", "window40", "window33"])
    def test_bytes_do_not_depend_on_workers(self, monkeypatch, p, seed):
        default = TestPairDigests.digests(p, seed)
        monkeypatch.setattr(synth, "_workers", lambda: 1)
        assert TestPairDigests.digests(p, seed) == default
        # more workers than CPUs, switching threads often
        monkeypatch.setattr(synth, "_workers", lambda: 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert TestPairDigests.digests(p, seed) == default
        finally:
            sys.setswitchinterval(interval)

    def test_workers_is_the_usable_cpu_count(self):
        assert synth._workers() >= 1
        if hasattr(synth.os, "sched_getaffinity"):
            assert synth._workers() == len(synth.os.sched_getaffinity(0))

    def test_no_thread_outlives_the_call(self, rng):
        lm = make_phantom_label_map(rng, (64, 64, 64))
        before = threading.active_count()
        make_training_pair(lm, MODEL_PARAMS["D"], rng)
        assert threading.active_count() == before

    def test_task_exception_propagates_and_no_thread_is_left(self, monkeypatch, rng):
        class Boom(Exception):
            pass

        raised_in = []

        def boom(*args, **kwargs):
            raised_in.append(threading.current_thread())
            raise Boom("map_coordinates")

        lm = make_phantom_label_map(rng, (64, 64, 64))
        monkeypatch.setattr(ndimage, "map_coordinates", boom)
        before = threading.active_count()
        with pytest.raises(Boom, match="map_coordinates"):
            make_training_pair(lm, MODEL_PARAMS["C"], rng)
        assert threading.active_count() == before
        assert raised_in and threading.main_thread() not in raised_in

    STEPS = ("_apply_transform", "add_random_shapes", "_synthesize_raw")

    @staticmethod
    def run_step(name, rng):
        """Call the synthesis step ``name`` on its own, as make_training_pair
        calls it for model C."""
        lm = make_phantom_label_map(rng, (64, 64, 64))
        p = MODEL_PARAMS["C"]
        if name == "_apply_transform":
            return _apply_transform(lm, p, _sample_transform(p, rng), rng)
        if name == "add_random_shapes":
            return add_random_shapes(lm, p.n_shapes, rng)
        return _synthesize_raw(lm, p, rng)

    @pytest.mark.parametrize("name", STEPS)
    def test_step_leaves_no_thread(self, rng, name):
        before = threading.active_count()
        self.run_step(name, rng)
        assert threading.active_count() == before

    def test_no_pool_thread_lives_between_steps(self, monkeypatch, rng):
        seen = []
        for name in self.STEPS:
            def counted(*args, _step=getattr(synth, name), **kwargs):
                seen.append(threading.active_count())
                try:
                    return _step(*args, **kwargs)
                finally:
                    seen.append(threading.active_count())
            monkeypatch.setattr(synth, name, counted)
        lm = make_phantom_label_map(rng, (64, 64, 64))
        before = threading.active_count()
        make_training_pair(lm, MODEL_PARAMS["C"], rng)
        assert seen == [before] * 6

    @pytest.mark.parametrize("name,module,task", [
        ("_apply_transform", ndimage, "map_coordinates"),  # the slabs
        ("add_random_shapes", synth, "_shape_region"),
        ("_synthesize_raw", ndimage, "gaussian_filter1d"),  # the blur
        ("_synthesize_raw", synth, "upsample_linear"),  # the bias
    ])
    def test_step_task_exception_propagates(self, monkeypatch, rng, name, module, task):
        class Boom(Exception):
            pass

        raised_in = []

        def boom(*args, **kwargs):
            raised_in.append(threading.current_thread())
            raise Boom(task)

        monkeypatch.setattr(module, task, boom)
        before = threading.active_count()
        with pytest.raises(Boom, match=task):
            self.run_step(name, rng)
        assert threading.active_count() == before
        assert raised_in and threading.main_thread() not in raised_in
