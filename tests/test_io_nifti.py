import gzip
import os
import struct
import tracemalloc

import numpy as np
import pytest

from braincascade import io_nifti
from braincascade.io_nifti import (
    HEADER_SIZE, MAGIC, VOX_OFFSET, NiftiError, read_nifti, write_nifti,
)
from braincascade.volume import Kind, Volume
from conftest import mask


def build_header(dims, datatype, pixdim=(1.0, 1.0, 1.0), scl=(1.0, 0.0),
                 magic=MAGIC):
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, *dims, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, datatype)
    struct.pack_into("<8f", hdr, 76, 1.0, *pixdim, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into("<2f", hdr, 112, *scl)
    hdr[344:348] = magic
    return bytes(hdr) + b"\x00" * 4


class TestRead:
    def test_hand_built_fixture(self, tmp_path):
        # 64 ascending float32 values in file order (first dim fastest)
        path = tmp_path / "fixture.nii"
        values = np.arange(64, dtype="<f4")
        path.write_bytes(build_header((4, 4, 4), 16) + values.tobytes())
        vol = read_nifti(path)
        assert vol.dims == (4, 4, 4)
        assert vol.spacing == (1.0, 1.0, 1.0)
        # file index i + 4j + 16k lands at in-memory voxel (i, j, k)
        for i, j, k in [(0, 0, 0), (3, 0, 0), (1, 2, 3)]:
            assert vol.data[i, j, k] == i + 4 * j + 16 * k

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nii"
        path.write_bytes(build_header((2, 2, 2), 16, magic=b"xyz\x00") + b"\x00" * 32)
        with pytest.raises(NiftiError, match="magic"):
            read_nifti(path)

    def test_unsupported_datatype(self, tmp_path):
        path = tmp_path / "f64.nii"
        path.write_bytes(build_header((2, 2, 2), 64) + b"\x00" * 64)
        with pytest.raises(NiftiError, match="datatype"):
            read_nifti(path)

    @pytest.mark.parametrize("datatype", [2, 4, 16])
    def test_scaled_read_matches_float32_formula(self, tmp_path, rng, datatype):
        # float32 data times the header's float32 slope is float32 already
        dtype = {2: "<u1", 4: "<i2", 16: "<f4"}[datatype]
        raw = (rng.random(5 * 6 * 7) * 200).astype(dtype)
        slope, inter = np.float32(0.37), np.float32(-12.5)
        path = tmp_path / "scaled.nii"
        path.write_bytes(build_header((5, 6, 7), datatype, scl=(slope, inter)) + raw.tobytes())
        vol = read_nifti(path)
        data = raw.reshape((5, 6, 7), order="F")
        expected = (data.astype(np.float32) * float(slope) + float(inter)).astype(np.float32)
        assert vol.data.dtype == np.float32
        assert vol.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("datatype", [2, 4, 16])
    def test_scaled_read_is_c_ordered(self, tmp_path, rng, datatype):
        """A scaled read is laid out like an unscaled one, last axis fastest,
        so that resampling walks it in memory order."""
        dtype = {2: "<u1", 4: "<i2", 16: "<f4"}[datatype]
        raw = (rng.random(5 * 6 * 7) * 200).astype(dtype)
        slope, inter = np.float32(0.37), np.float32(-12.5)
        path = tmp_path / "scaled.nii"
        path.write_bytes(build_header((5, 6, 7), datatype, scl=(slope, inter)) + raw.tobytes())
        vol = read_nifti(path)
        data = np.ascontiguousarray(raw.reshape((5, 6, 7), order="F"))
        expected = data.astype(np.float32) * float(slope) + float(inter)
        assert vol.data.flags.c_contiguous
        assert bytes(memoryview(vol.data)) == expected.tobytes()

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "short.nii"
        path.write_bytes(build_header((4, 4, 4), 16) + b"\x00" * 10)
        with pytest.raises(NiftiError) as e:
            read_nifti(path)
        assert str(e.value) == f"{path}: truncated data (10 of 256 bytes)"

    def test_scl_slope_applied(self, tmp_path):
        path = tmp_path / "scaled.nii"
        values = np.arange(8, dtype="<f4")
        path.write_bytes(build_header((2, 2, 2), 16, scl=(2.0, 1.0)) + values.tobytes())
        vol = read_nifti(path)
        np.testing.assert_allclose(sorted(vol.data.ravel()), values * 2 + 1)

    @pytest.mark.parametrize("slope", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_slope_reads_unscaled(self, tmp_path, slope):
        path = tmp_path / "scaled.nii"
        values = np.arange(8, dtype="<f4")
        path.write_bytes(build_header((2, 2, 2), 16, scl=(slope, 5.0)) + values.tobytes())
        vol = read_nifti(path)
        np.testing.assert_array_equal(sorted(vol.data.ravel()), values)

    @pytest.mark.parametrize("inter", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_inter_with_scaling_slope(self, tmp_path, inter):
        path = tmp_path / "scaled.nii"
        values = np.arange(8, dtype="<f4")
        path.write_bytes(build_header((2, 2, 2), 16, scl=(2.0, inter)) + values.tobytes())
        with pytest.raises(NiftiError, match="scl_inter"):
            read_nifti(path)

    @pytest.mark.parametrize("offset", [float("inf"), float("nan"), float("-inf")])
    def test_non_finite_vox_offset(self, tmp_path, offset):
        path = tmp_path / "offset.nii"
        raw = bytearray(build_header((2, 2, 2), 16) + np.zeros(8, "<f4").tobytes())
        struct.pack_into("<f", raw, 108, offset)
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError) as e:
            read_nifti(path)
        assert str(e.value).startswith(f"{path}: vox_offset")

    @pytest.mark.parametrize("gz", [False, True], ids=["nii", "nii.gz"])
    @pytest.mark.parametrize("field, value, nbytes", [
        ("vox_offset", 1e12, 32),
        ("vox_offset", 3e38, 32),
        ("dims", 30000, 4 * 30000 ** 3),
    ], ids=["vox_offset-1e12", "vox_offset-3e38", "dims-30000^3"])
    def test_header_claims_more_than_the_file_holds(self, tmp_path, gz, field, value, nbytes):
        # the reader allocates at most what the file holds (plus one bounded
        # gzip chunk) and names the file, whatever the header claims
        raw = bytearray(build_header((2, 2, 2), 16) + np.zeros(8, "<f4").tobytes())
        if field == "vox_offset":
            struct.pack_into("<f", raw, 108, value)
        else:
            struct.pack_into("<3h", raw, 42, value, value, value)
        path = tmp_path / ("big.nii.gz" if gz else "big.nii")
        path.write_bytes(gzip.compress(bytes(raw)) if gz else bytes(raw))
        held = 0 if field == "vox_offset" else 32
        tracemalloc.start()
        try:
            with pytest.raises(NiftiError) as e:
                read_nifti(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == f"{path}: truncated data ({held} of {nbytes} bytes)"
        assert peak < io_nifti._READ_CHUNK + (1 << 20)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -2.0])
    def test_unusable_pixdim_reads_as_one(self, tmp_path, bad):
        path = tmp_path / "pixdim.nii"
        path.write_bytes(build_header((2, 2, 2), 16, pixdim=(0.5, bad, 2.0))
                         + np.zeros(8, "<f4").tobytes())
        assert read_nifti(path).spacing == (0.5, 1.0, 2.0)

    def test_gzip_accepted(self, tmp_path, rng):
        plain = tmp_path / "vol.nii"
        vol = Volume(rng.random((5, 6, 7)).astype(np.float32))
        write_nifti(vol, plain, "float32")
        gz = tmp_path / "vol.nii.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        back = read_nifti(gz)
        np.testing.assert_array_equal(back.data, vol.data)

    def test_gzip_read_in_chunks(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(io_nifti, "_READ_CHUNK", 1000)
        vol = Volume(rng.random((9, 10, 11)).astype(np.float32))  # 3960 bytes: 4 chunks
        plain = tmp_path / "vol.nii"
        write_nifti(vol, plain, "float32")
        gz = tmp_path / "vol.nii.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        np.testing.assert_array_equal(read_nifti(gz).data, vol.data)
        gz.write_bytes(gzip.compress(plain.read_bytes()[:-1]))
        with pytest.raises(NiftiError, match=r"truncated data \(3959 of 3960 bytes\)"):
            read_nifti(gz)

    @pytest.mark.parametrize("gz", [False, True], ids=["nii", "nii.gz"])
    def test_valid_file_read_holds_one_copy(self, tmp_path, rng, monkeypatch, gz):
        # two copies' worth at most: the chunks and the raw bytes joined from
        # them, then the raw bytes and the array made from them
        monkeypatch.setattr(io_nifti, "_READ_CHUNK", 1 << 16)
        vol = Volume(rng.random((40, 50, 60)).astype(np.float32))
        path = tmp_path / "vol.nii"
        write_nifti(vol, path, "float32")
        if gz:
            path = path.with_suffix(".nii.gz")
            path.write_bytes(gzip.compress((tmp_path / "vol.nii").read_bytes(), 1))
        tracemalloc.start()
        try:
            back = read_nifti(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.data, vol.data)
        assert peak <= 2.25 * vol.data.nbytes

    @pytest.mark.parametrize("ndim,nt", [(4, 1), (4, 2), (5, 1)])
    def test_trailing_time_dim(self, tmp_path, rng, ndim, nt):
        vol = Volume(rng.random((3, 4, 5)).astype(np.float32), (1.5, 2.0, 1.0))
        path = tmp_path / "t.nii"
        write_nifti(vol, path, "float32")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, 40, ndim)  # dim[0]
        struct.pack_into("<h", raw, 48, nt)    # dim[4]
        path.write_bytes(bytes(raw))
        if (ndim, nt) == (4, 1):
            back = read_nifti(path)
            np.testing.assert_array_equal(back.data, vol.data)
            assert back.spacing == vol.spacing
        else:
            with pytest.raises(NiftiError, match=rf"only 3D volumes supported, dim\[0\]={ndim}"):
                read_nifti(path)

    @staticmethod
    def plain_bytes(tmp_path, rng):
        vol = Volume(rng.random((3, 4, 5)).astype(np.float32))
        write_nifti(vol, tmp_path / "v.nii", "float32")
        return vol, (tmp_path / "v.nii").read_bytes()

    @pytest.mark.parametrize("gz", [False, True], ids=["nii", "nii.gz"])
    def test_gap_before_data_and_bytes_after_it(self, tmp_path, rng, gz):
        # the gap up to vox_offset is read and dropped, and so is all that
        # follows the voxels
        vol, raw = self.plain_bytes(tmp_path, rng)
        raw = bytearray(raw[:VOX_OFFSET]) + b"\x07" * 48 + raw[VOX_OFFSET:] + b"\x09" * 1000
        struct.pack_into("<f", raw, 108, VOX_OFFSET + 48.0)
        path = tmp_path / ("gap.nii.gz" if gz else "gap.nii")
        path.write_bytes(gzip.compress(bytes(raw)) if gz else bytes(raw))
        np.testing.assert_array_equal(read_nifti(path).data, vol.data)

    def test_gzip_members_and_padding(self, tmp_path, rng):
        # a stream of two members, the second holding the end of the voxels,
        # then zero padding, reads as the file it holds
        vol, raw = self.plain_bytes(tmp_path, rng)
        path = tmp_path / "two.nii.gz"
        path.write_bytes(gzip.compress(raw[:400]) + gzip.compress(raw[400:]) + b"\x00" * 8)
        np.testing.assert_array_equal(read_nifti(path).data, vol.data)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda gz: gz[:-4] + struct.pack("<I", 1), "Incorrect length of data produced"),
        (lambda gz: gz + b"junk", "Not a gzipped file (b'ju')"),
    ], ids=["length", "bytes-after-the-last-member"])
    def test_corrupt_gzip_names_the_file(self, tmp_path, rng, corrupt, message):
        # the voxels read whole; the stream is checked on to its end
        _, raw = self.plain_bytes(tmp_path, rng)
        path = tmp_path / "bad.nii.gz"
        path.write_bytes(corrupt(gzip.compress(raw)))
        with pytest.raises(NiftiError) as e:
            read_nifti(path)
        assert str(e.value) == f"{path}: corrupt gzip stream: {message}"

    @pytest.mark.parametrize("kind, data, message", [
        (Kind.MASK, np.full((2, 2, 2), 2, np.uint8), "mask volume contains values outside {0, 1}"),
        (Kind.LABEL, np.full((2, 2, 2), -1, np.int16), "label volume must hold non-negative integers"),
        (Kind.LABEL, np.zeros((2, 2, 2), np.float32), "label volume must hold non-negative integers"),
    ], ids=["mask-2", "label-negative", "label-float"])
    def test_voxels_unfit_for_the_kind_name_the_file(self, tmp_path, kind, data, message):
        path = tmp_path / "v.nii"
        write_nifti(Volume(data), path, data.dtype.name)
        with pytest.raises(NiftiError) as e:
            read_nifti(path, kind)
        assert str(e.value) == f"{path}: {message}"

    def test_signalling_nan_reads_without_a_warning(self, tmp_path):
        # float32 0x7f800001: numpy warned `invalid value` when is_binary
        # tested it for a mask and when scl_slope scaled it
        raw = bytearray(build_header((2, 2, 2), 16) + np.zeros(8, "<f4").tobytes())
        struct.pack_into("<I", raw, VOX_OFFSET, 0x7F800001)
        path = tmp_path / "snan.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="mask volume contains values outside"):
            read_nifti(path, Kind.MASK)
        struct.pack_into("<f", raw, 112, 2.0)
        path.write_bytes(bytes(raw))
        data = read_nifti(path).data
        assert np.isnan(data[0, 0, 0]) and not data.ravel()[1:].any()


class TestWrite:
    @pytest.mark.parametrize("datatype,maker", [
        ("uint8", lambda rng, dims: rng.integers(0, 256, dims).astype(np.uint8)),
        ("int16", lambda rng, dims: rng.integers(-300, 300, dims).astype(np.int16)),
        ("float32", lambda rng, dims: rng.random(dims).astype(np.float32)),
    ])
    def test_roundtrip(self, tmp_path, rng, datatype, maker):
        dims = (7, 5, 9)
        kind = Kind.LABEL if datatype != "float32" else Kind.INTENSITY
        data = maker(rng, dims)
        if datatype == "int16":
            data = np.abs(data)  # label kind requires non-negative
        vol = Volume(data, (1.5, 2.0, 1.0), kind)
        path = tmp_path / "vol.nii"
        write_nifti(vol, path, datatype)
        back = read_nifti(path, kind=kind)
        np.testing.assert_array_equal(back.data, vol.data)
        assert back.spacing == vol.spacing

    @pytest.mark.parametrize("case", ["float32 strided", "float64 to float32", "int64 to uint8"])
    def test_data_bytes_match_fortran_copy(self, tmp_path, rng, case):
        # the data bytes equal those of an explicit Fortran-order copy
        if case == "float32 strided":
            data, datatype = rng.random((9, 14, 11)).astype(np.float32)[::2, ::-1, 1::3], "float32"
        elif case == "float64 to float32":
            data, datatype = rng.random((6, 7, 8)).transpose(2, 0, 1), "float32"
        else:
            data, datatype = rng.integers(0, 256, (6, 7, 8)).swapaxes(0, 2), "uint8"
        assert not data.flags.c_contiguous
        path = tmp_path / "vol.nii"
        write_nifti(Volume(data), path, datatype)
        dtype = np.dtype("<f4" if datatype == "float32" else "<u1")
        expected = np.asfortranarray(data.astype(dtype)).tobytes(order="F")
        assert path.read_bytes()[VOX_OFFSET:] == expected

    @pytest.mark.parametrize("dims, slab", [
        ((7, 5, 9), 20), ((7, 5, 9), 71), ((6, 4, 1), 5), ((33, 17, 11), 600),
    ], ids=["plane-above-budget", "two-planes-per-slab", "one-plane", "odd-dims"])
    @pytest.mark.parametrize("datatype", ["uint8", "int16", "float32"])
    def test_write_in_slabs_equals_whole_array(self, tmp_path, rng, monkeypatch, dims, slab,
                                              datatype):
        monkeypatch.setattr(io_nifti, "_SLAB_VOXELS", slab)
        data = rng.integers(0, 200, dims) if datatype != "float32" else rng.random(dims)
        kind = Kind.INTENSITY if datatype == "float32" else Kind.LABEL
        path = tmp_path / "vol.nii"
        write_nifti(Volume(data, (1.0, 1.0, 1.0), kind), path, datatype)
        dtype = {"uint8": "<u1", "int16": "<i2", "float32": "<f4"}[datatype]
        assert path.read_bytes()[VOX_OFFSET:] == data.astype(dtype).tobytes(order="F")

    def test_write_holds_one_slab(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(io_nifti, "_SLAB_VOXELS", 4000)  # two 40x50 planes
        vol = Volume(rng.random((40, 50, 60)).astype(np.float32))
        tracemalloc.start()
        try:
            write_nifti(vol, tmp_path / "vol.nii", "float32")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * vol.data.nbytes

    def test_mask_file_size(self, tmp_path):
        vol = mask(np.zeros((192, 192, 192)))
        path = tmp_path / "mask.nii"
        write_nifti(vol, path, "uint8")
        assert os.path.getsize(path) == 352 + 192 ** 3

    def test_probability_roundtrip_exact(self, tmp_path, rng):
        vol = Volume(rng.random((8, 8, 8)).astype(np.float32),
                     kind=Kind.PROBABILITY)
        path = tmp_path / "p.nii"
        write_nifti(vol, path, "float32")
        back = read_nifti(path, kind=Kind.PROBABILITY)
        assert np.abs(back.data - vol.data).max() == 0

    def test_label_range_check(self, tmp_path):
        ok = Volume(np.full((2, 2, 2), 255, dtype=np.int32), kind=Kind.LABEL)
        write_nifti(ok, tmp_path / "ok.nii", "uint8")
        bad = Volume(np.full((2, 2, 2), 256, dtype=np.int32), kind=Kind.LABEL)
        with pytest.raises(NiftiError):
            write_nifti(bad, tmp_path / "bad.nii", "uint8")

    def test_dims_above_int16_rejected(self, tmp_path):
        path = tmp_path / "long.nii"
        with pytest.raises(NiftiError, match="32768"):
            write_nifti(Volume(np.zeros((32768, 1, 1), dtype=np.uint8)), path, "uint8")
        assert not path.exists()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_empty_axis_rejected(self, tmp_path, axis):
        dims = [3, 4, 5]
        dims[axis] = 0
        path = tmp_path / "empty.nii"
        with pytest.raises(NiftiError, match="1 to 32767"):
            write_nifti(Volume(np.zeros(dims, dtype=np.float32)), path)
        assert not path.exists()

    def test_mask_non_binary_rejected(self, tmp_path):
        # masks must be {0,1}; write path re-checks before serializing
        bad = object.__new__(Volume)
        object.__setattr__(bad, "data", np.full((2, 2, 2), 3, dtype=np.uint8))
        object.__setattr__(bad, "spacing", (1.0, 1.0, 1.0))
        object.__setattr__(bad, "kind", Kind.MASK)
        with pytest.raises(NiftiError):
            write_nifti(bad, tmp_path / "bad.nii", "uint8")

    def test_reader_ignores_extra_header_fields(self, tmp_path, rng):
        # fields outside the supported subset are noise to the reader
        vol = Volume(rng.random((3, 3, 3)).astype(np.float32))
        path = tmp_path / "extra.nii"
        write_nifti(vol, path, "float32")
        raw = bytearray(path.read_bytes())
        raw[4:40] = os.urandom(36)    # data_type/db_name/extents/...
        raw[122:344] = os.urandom(222)  # everything after scl fields
        path.write_bytes(bytes(raw))
        back = read_nifti(path)
        np.testing.assert_array_equal(back.data, vol.data)
