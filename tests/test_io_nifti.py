import gzip
import os
import struct

import numpy as np
import pytest

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

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "short.nii"
        path.write_bytes(build_header((4, 4, 4), 16) + b"\x00" * 10)
        with pytest.raises(NiftiError, match="truncated"):
            read_nifti(path)

    def test_scl_slope_applied(self, tmp_path):
        path = tmp_path / "scaled.nii"
        values = np.arange(8, dtype="<f4")
        path.write_bytes(build_header((2, 2, 2), 16, scl=(2.0, 1.0)) + values.tobytes())
        vol = read_nifti(path)
        np.testing.assert_allclose(sorted(vol.data.ravel()), values * 2 + 1)

    def test_gzip_accepted(self, tmp_path, rng):
        plain = tmp_path / "vol.nii"
        vol = Volume(rng.random((5, 6, 7)).astype(np.float32))
        write_nifti(vol, plain, "float32")
        gz = tmp_path / "vol.nii.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        back = read_nifti(gz)
        np.testing.assert_array_equal(back.data, vol.data)

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
