import numpy as np
import pytest
from scipy import ndimage

from braincascade import morphology
from braincascade.morphology import (
    bounding_box, connected_components, largest_component,
    majority_vote, threshold,
)
from braincascade.volume import Kind, Volume
from conftest import mask, prob, random_mask


def brute_force_components(data, connectivity):
    """Flood-fill reference labeling in first-encounter scan order."""
    dims = data.shape
    if connectivity == 6:
        offsets = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    else:
        offsets = [
            (i, j, k)
            for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)
            if (i, j, k) != (0, 0, 0)
        ]
    labels = np.zeros(dims, dtype=np.int32)
    sizes = []
    next_label = 0
    for idx in np.ndindex(dims):
        if data[idx] and labels[idx] == 0:
            next_label += 1
            stack = [idx]
            labels[idx] = next_label
            count = 0
            while stack:
                cur = stack.pop()
                count += 1
                for off in offsets:
                    nb = tuple(c + o for c, o in zip(cur, off))
                    if all(0 <= c < d for c, d in zip(nb, dims)):
                        if data[nb] and labels[nb] == 0:
                            labels[nb] = next_label
                            stack.append(nb)
            sizes.append(count)
    return labels, sizes


def brute_force_majority(arrays):
    n = len(arrays)
    need = n // 2 + 1
    out = np.zeros_like(arrays[0])
    for idx in np.ndindex(out.shape):
        votes = sum(int(a[idx]) for a in arrays)
        out[idx] = 1 if votes >= need else 0
    return out


class TestThreshold:
    def test_below(self):
        p = prob(np.full((3, 3, 3), 0.19))
        assert threshold(p, 0.2).data.sum() == 0

    def test_inclusive_at_alpha(self):
        p = prob(np.full((2, 2, 2), 0.2))
        assert threshold(p, 0.2).data.all()

    def test_alpha_zero_everything(self, rng):
        p = prob(rng.random((4, 4, 4)))
        assert threshold(p, 0.0).data.all()

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            threshold(prob(np.zeros((2, 2, 2))), -0.1)


class TestConnectedComponents:
    def test_empty(self):
        c = connected_components(mask(np.zeros((4, 4, 4))))
        assert c.sizes == []
        assert (c.labels.data == 0).all()

    def test_two_separate_voxels(self):
        data = np.zeros((3, 3, 3), dtype=np.uint8)
        data[0, 0, 0] = data[0, 0, 2] = 1
        for conn in (6, 26):
            c = connected_components(mask(data), conn)
            assert len(c.sizes) == 2

    def test_diagonal_adjacency(self):
        data = np.zeros((3, 3, 3), dtype=np.uint8)
        data[0, 0, 0] = data[1, 1, 1] = 1
        assert len(connected_components(mask(data), 26).sizes) == 1
        assert len(connected_components(mask(data), 6).sizes) == 2

    def test_scan_order_labels(self):
        data = np.zeros((2, 3, 3), dtype=np.uint8)
        data[0, 0, 2] = 1  # encountered first in scan order
        data[1, 2, 0] = 1
        c = connected_components(mask(data), 6)
        assert c.labels.data[0, 0, 2] == 1
        assert c.labels.data[1, 2, 0] == 2

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_matches_brute_force(self, rng, connectivity):
        inputs = [(rng.random(tuple(rng.integers(2, 9, size=3))) < 0.4).astype(np.uint8)
                  for _ in range(50)]
        one = np.zeros((5, 6, 7), dtype=np.uint8)  # one non-convex component
        one[1:4, 1:5, 1:3] = one[1, 1:5, 1:6] = 1
        inputs.append(one)
        for data in inputs:
            c = connected_components(mask(data), connectivity)
            ref_labels, ref_sizes = brute_force_components(data, connectivity)
            np.testing.assert_array_equal(c.labels.data, ref_labels)
            assert c.sizes == ref_sizes
        # the last input, a single component, comes back as scipy labelled it
        raw, _ = ndimage.label(one, structure=morphology._structure(connectivity))
        np.testing.assert_array_equal(c.labels.data, raw)
        assert c.sizes == [int(np.count_nonzero(one))]

    def test_sizes_sum_to_foreground(self, rng):
        m = random_mask(rng, (10, 10, 10), 0.3)
        c = connected_components(m)
        assert sum(c.sizes) == int(m.data.sum())

    def test_bad_connectivity(self):
        with pytest.raises(ValueError):
            connected_components(mask(np.zeros((2, 2, 2))), 18)


def blob_mask(rng, dims, n_blobs):
    """Boxes long along axis 2: a mask made of long runs."""
    data = np.zeros(dims, dtype=np.uint8)
    for _ in range(n_blobs):
        lo = rng.integers(0, dims)
        hi = lo + rng.integers(1, (3, 3, 16), endpoint=True)
        data[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 1
    return data


def run_path_cases():
    """Masks of long runs whose edges and contacts the run pass must get right."""
    cases = {"empty": np.zeros((4, 5, 40), dtype=np.uint8),
             "full": np.ones((3, 4, 40), dtype=np.uint8)}
    d = np.zeros((3, 4, 40), dtype=np.uint8)
    d[0, 0, 30:] = d[0, 1, :10] = 1  # last column, then column 0 of the next row
    d[1, 3, 35:] = d[2, 0, :5] = 1  # the same across a plane boundary
    cases["row_wrap"] = d
    d = np.zeros((3, 4, 40), dtype=np.uint8)
    d[1, 0, 10:20] = d[1, 3, 10:20] = 1  # first and last row of a plane
    d[0, 3, 25:30] = d[1, 0, 25:30] = 1  # row (0, -1) of (1, 0) is not a neighbour
    d[0, 3, 32:36] = d[2, 0, 32:36] = 1  # nor is row (-1, -1) of (2, 0)
    cases["plane_edges"] = d
    d = np.zeros((3, 4, 40), dtype=np.uint8)
    d[0, 1, 5:15] = d[0, 2, 15:25] = 1  # diagonal within a plane
    d[1, 1, 30:35] = d[2, 2, 35:39] = 1  # corner across planes
    d[1, 3, 0:5] = d[2, 2, 5:9] = 1  # edge across planes, row (-1, +1)
    d[0, 0, 20:30] = d[0, 0, 31:39] = 1  # one gap in a row
    cases["diagonal"] = d
    d = np.zeros((2, 16, 40), dtype=np.uint8)
    d[:, ::2] = 1  # full rows joined at alternate ends: one long chain of runs
    d[0, 1::4, -1] = d[0, 3::4, 0] = d[1, 1::4, 0] = d[1, 3::4, -1] = 1
    cases["serpentine"] = d
    for dims in ((1, 1, 128), (1, 4, 128), (4, 1, 128), (40, 40, 1), (1, 400, 1)):
        d = np.zeros(dims, dtype=np.uint8)
        d.reshape(-1)[5:9] = d.reshape(-1)[10:12] = d.reshape(-1)[-3:] = 1
        cases[f"axes_{dims}"] = d
    return cases


class TestRunPath:
    """Masks of long runs are labelled from their runs, exactly as by flood fill."""

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_matches_brute_force(self, connectivity):
        rng = np.random.default_rng(7)
        inputs = list(run_path_cases().values())
        inputs += [blob_mask(rng, (6, 8, 48), rng.integers(1, 12)) for _ in range(30)]
        for data in inputs:
            assert morphology._runs_per_voxel(data) <= morphology.RUNS_PER_VOXEL_MAX
            c = connected_components(mask(data), connectivity)
            assert c._runs is not None
            ref_labels, ref_sizes = brute_force_components(data, connectivity)
            assert c.sizes == ref_sizes
            np.testing.assert_array_equal(c.labels.data, ref_labels)
            largest = largest_component(c).data
            if len(ref_sizes) > 1:
                best = int(np.argmax(ref_sizes)) + 1
                np.testing.assert_array_equal(largest, (ref_labels == best).view(np.uint8))

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_both_paths_agree(self, connectivity):
        rng = np.random.default_rng(8)
        inputs = [blob_mask(rng, (12, 16, 40), 25) for _ in range(4)]
        inputs += [(rng.random((10, 12, 14)) < p).astype(np.uint8)
                   for p in (0.02, 0.1, 0.3, 0.6, 0.9)]
        # speckle at the scale of a dense run, where scipy's own numbering
        # (kept as is by the voxel path) is pinned against the run path's
        inputs += [(rng.random((64, 64, 64)) < p).astype(np.uint8) for p in (0.1, 0.3)]
        for data in inputs:
            runs, sizes = morphology._label_runs(data, connectivity)
            labels, ref_sizes = morphology._label_voxels(data, connectivity)
            assert sizes == ref_sizes
            np.testing.assert_array_equal(
                runs.paint(data.shape, slice(None), runs.label, np.int32), labels)

    def test_speckle_goes_to_scipy(self, monkeypatch):
        calls = []
        real_label = ndimage.label

        def counting_label(*args, **kwargs):
            calls.append(1)
            return real_label(*args, **kwargs)

        monkeypatch.setattr(morphology.ndimage, "label", counting_label)
        rng = np.random.default_rng(9)
        connected_components(mask(blob_mask(rng, (16, 16, 48), 20)))
        assert len(calls) == 0
        connected_components(mask(rng.random((16, 16, 48)) < 0.1))
        assert len(calls) == 1

    @pytest.mark.parametrize("make", [
        lambda rng: blob_mask(rng, (8, 10, 48), 10),  # run path
        lambda rng: (rng.random((8, 10, 12)) < 0.3).astype(np.uint8),  # voxel path
    ])
    def test_every_mask_dtype(self, make):
        data = make(np.random.default_rng(10))
        ref = connected_components(mask(data))
        for dtype in (np.bool_, np.int8, np.int16, np.uint32, np.int64,
                      np.float32, np.float64):
            c = connected_components(Volume(data.astype(dtype), kind=Kind.MASK))
            assert c.sizes == ref.sizes
            np.testing.assert_array_equal(c.labels.data, ref.labels.data)
        assert len(ref.sizes) > 1


class TestLargestComponent:
    def test_picks_max(self):
        data = np.zeros((10, 3, 3), dtype=np.uint8)
        data[0:2, 0, 0] = 1   # size 2
        data[4:9, 0, 0] = 1   # size 5
        c = connected_components(mask(data), 6)
        out = largest_component(c)
        assert out.data.sum() == 5
        assert out.data[4:9, 0, 0].all()

    def test_tie_goes_to_first_label(self):
        data = np.zeros((10, 3, 3), dtype=np.uint8)
        data[0:4, 0, 0] = 1
        data[6:10, 0, 0] = 1
        out = largest_component(connected_components(mask(data), 6))
        assert out.data[0:4, 0, 0].all() and not out.data[6:10, 0, 0].any()

    def test_empty(self):
        out = largest_component(connected_components(mask(np.zeros((3, 3, 3)))))
        assert out.data.sum() == 0

    @pytest.mark.parametrize("dims", [(4, 4, 40), (4, 4, 4)])  # run, voxel path
    def test_one_component_is_the_mask(self, dims):
        data = np.zeros(dims, dtype=np.uint8)
        data[1:3, 1:3, 1:] = 1
        m = mask(data)
        assert largest_component(connected_components(m)).data is m.data

    def test_union_of_components_is_mask(self, rng):
        m = random_mask(rng, (8, 8, 8), 0.3)
        c = connected_components(m)
        np.testing.assert_array_equal((c.labels.data > 0).astype(np.uint8), m.data)


class TestBoundingBox:
    def test_single_voxel(self):
        data = np.zeros((8, 8, 8), dtype=np.uint8)
        data[3, 4, 5] = 1
        box = bounding_box(mask(data))
        assert box.mins == (3, 4, 5) and box.maxs == (4, 5, 6)

    def test_full_extent(self):
        box = bounding_box(mask(np.ones((8, 8, 8))))
        assert box.mins == (0, 0, 0) and box.maxs == (8, 8, 8)

    def test_two_voxels(self):
        data = np.zeros((8, 8, 8), dtype=np.uint8)
        data[1, 1, 1] = data[5, 2, 2] = 1
        box = bounding_box(mask(data))
        assert box.mins == (1, 1, 1) and box.maxs == (6, 3, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError,
                           match="cannot fit a bounding box to an empty mask"):
            bounding_box(mask(np.zeros((4, 4, 4))))

    def test_fully_set(self):
        box = bounding_box(mask(np.ones((5, 6, 7))))
        assert box.mins == (0, 0, 0) and box.maxs == (5, 6, 7)

    def test_fortran_order(self, rng):
        # read_nifti hands back Fortran-ordered views of the file data
        for _ in range(20):
            data = np.zeros((7, 9, 11), dtype=np.uint8)
            lo = rng.integers(0, (6, 8, 10))
            hi = lo + rng.integers(1, (7, 9, 11) - lo + 1)
            data[lo[0], lo[1]:hi[1], lo[2]] = 1
            data[hi[0] - 1, lo[1], hi[2] - 1] = 1
            f = np.asfortranarray(data)
            m = mask(f)
            assert not m.data.flags.c_contiguous
            box = bounding_box(m)
            assert box.mins == tuple(lo) and box.maxs == tuple(hi)

    def test_faces_touch_foreground(self, rng):
        for _ in range(20):
            m = random_mask(rng, (9, 9, 9), 0.1)
            if m.data.sum() == 0:
                continue
            box = bounding_box(m)
            region = m.data[box.slices()]
            for axis in range(3):
                assert region.take(0, axis=axis).any()
                assert region.take(-1, axis=axis).any()


class TestMajorityVote:
    def test_two_of_three(self):
        a = np.zeros((2, 2, 2), dtype=np.uint8)
        b = a.copy(); c = a.copy()
        a[0, 0, 0] = b[0, 0, 0] = 1  # 2 votes -> in
        c[1, 1, 1] = 1               # 1 vote -> out
        out = majority_vote([mask(a), mask(b), mask(c)])
        assert out.data[0, 0, 0] == 1 and out.data[1, 1, 1] == 0

    def test_unanimity(self, rng):
        m = random_mask(rng, (4, 4, 4))
        out = majority_vote([m, m, m])
        np.testing.assert_array_equal(out.data, m.data)

    def test_single_mask(self, rng):
        m = random_mask(rng, (4, 4, 4))
        np.testing.assert_array_equal(majority_vote([m]).data, m.data)

    def test_even_n_needs_strict_majority(self):
        one = mask(np.ones((2, 2, 2)))
        zero = mask(np.zeros((2, 2, 2)))
        assert majority_vote([one, one, zero, zero]).data.sum() == 0
        assert majority_vote([one, one, one, zero]).data.all()

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([mask(np.zeros((2, 2, 2))), mask(np.zeros((3, 3, 3)))])

    def test_matches_brute_force(self, rng):
        for n in (1, 2, 3, 4, 5):
            arrays = [(rng.random((4, 4, 4)) < 0.5).astype(np.uint8) for _ in range(n)]
            out = majority_vote([mask(a) for a in arrays])
            np.testing.assert_array_equal(out.data, brute_force_majority(arrays))

    def test_symmetric_and_monotone(self, rng):
        ms = [random_mask(rng, (5, 5, 5)) for _ in range(3)]
        perm = [ms[2], ms[0], ms[1]]
        np.testing.assert_array_equal(
            majority_vote(ms).data, majority_vote(perm).data
        )
        # a superset of an existing mask only ever adds votes
        superset = mask(np.maximum(ms[0].data, ms[1].data))
        votes_before = sum(m.data.astype(int) for m in ms)
        votes_after = votes_before + superset.data.astype(int)
        assert (votes_after >= votes_before).all()
