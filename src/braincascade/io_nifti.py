"""Minimal NIfTI-1 reader and writer.

Supports single-file little-endian .nii (read also .nii.gz), 3D only (a 4D
file with one time point reads as 3D), no extensions, datatypes uint8 /
int16 / float32. Written headers are bit-exact per the NIfTI-1 layout:
348-byte header, 4 padding bytes, vox_offset 352.

On disk the first spatial dimension varies fastest (Fortran order, as per the
format); in memory volumes keep the package convention of axis 0 slowest.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import sys

import numpy as np

from .volume import Kind, Volume, is_binary

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"

# NIfTI-1 datatype codes
DT_UINT8 = 2
DT_INT16 = 4
DT_FLOAT32 = 16

_DTYPES = {
    DT_UINT8: np.dtype("<u1"),
    DT_INT16: np.dtype("<i2"),
    DT_FLOAT32: np.dtype("<f4"),
}
_CODES = {"uint8": DT_UINT8, "int16": DT_INT16, "float32": DT_FLOAT32}


# bytes read from a gzip stream at a time: its header's dims claim a size that
# only reading the stream can confirm
_GZIP_CHUNK = 1 << 24
# voxels written at a time, in whole planes of axis 2, the slowest axis on
# disk; planes of up to 32 Ki voxels then go 16 or more at a time, where the
# transposing copy is no slower than one whole-volume copy
_SLAB_VOXELS = 1 << 19


class NiftiError(Exception):
    """Malformed or unsupported NIfTI file."""


def _open_read(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_nifti(path, kind: Kind = Kind.INTENSITY) -> Volume:
    """Read a 3D volume from a .nii or .nii.gz file.

    Data is scaled by scl_slope/scl_inter when the slope is finite and nonzero,
    as in nibabel; such a slope with a non-finite intercept is a NiftiError.
    A pixdim that is not finite and positive reads as 1.0 mm.
    The kind tag comes from the caller; intensity by default.
    """
    with _open_read(path) as f:
        hdr = f.read(HEADER_SIZE)
        if len(hdr) < HEADER_SIZE:
            raise NiftiError(f"{path}: truncated header ({len(hdr)} bytes)")
        magic = hdr[344:348]
        if magic != MAGIC:
            raise NiftiError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        sizeof_hdr = struct.unpack_from("<i", hdr, 0)[0]
        if sizeof_hdr != HEADER_SIZE:
            raise NiftiError(f"{path}: sizeof_hdr={sizeof_hdr}, expected {HEADER_SIZE}")
        dim = struct.unpack_from("<8h", hdr, 40)
        ndim = dim[0]
        if ndim == 4 and dim[4] == 1:  # one time point, common in scanner exports
            ndim = 3
        if not 1 <= ndim <= 3:
            raise NiftiError(f"{path}: only 3D volumes supported, dim[0]={dim[0]}")
        dims = tuple(dim[1 : ndim + 1]) + (1,) * (3 - ndim)
        if any(d <= 0 for d in dims):
            raise NiftiError(f"{path}: non-positive dims {dims}")
        datatype = struct.unpack_from("<h", hdr, 70)[0]
        if datatype not in _DTYPES:
            raise NiftiError(f"{path}: unsupported datatype code {datatype}")
        pixdim = struct.unpack_from("<8f", hdr, 76)
        spacing = tuple(p if 0 < p < math.inf else 1.0 for p in pixdim[1:4])
        vox_offset = struct.unpack_from("<f", hdr, 108)[0]
        if not VOX_OFFSET <= vox_offset < math.inf:  # NaN fails both
            raise NiftiError(f"{path}: vox_offset {vox_offset}, expected finite >= {VOX_OFFSET}")
        scl_slope, scl_inter = struct.unpack_from("<2f", hdr, 112)
        scaled = (math.isfinite(scl_slope) and scl_slope != 0
                  and (scl_slope, scl_inter) != (1.0, 0.0))
        if scaled and not math.isfinite(scl_inter):
            raise NiftiError(f"{path}: scl_inter {scl_inter} with scl_slope {scl_slope}")

        dtype = _DTYPES[datatype]
        nbytes = math.prod(dims) * dtype.itemsize
        if isinstance(f, gzip.GzipFile):
            f.seek(min(int(vox_offset), sys.maxsize))  # reads forward, stops at the end
            raw = _read_gzip(f, nbytes)
        else:  # read no more than the file holds
            size = os.fstat(f.fileno()).st_size
            f.seek(min(int(vox_offset), size))
            raw = f.read(min(nbytes, size - f.tell()))
        if len(raw) < nbytes:
            raise NiftiError(f"{path}: truncated data ({len(raw)} of {nbytes} bytes)")

    # file order: dims[0] fastest; internal order: axis 0 slowest
    data = np.frombuffer(raw, dtype=dtype).reshape(dims, order="F")
    if scaled:  # C order first: astype would keep the file's Fortran layout
        data = np.ascontiguousarray(data, dtype=np.float32) * scl_slope + scl_inter
    else:
        data = np.ascontiguousarray(data)
    return Volume(data, spacing, kind)


def _read_gzip(f, nbytes: int):
    """Up to ``nbytes`` of a gzip stream, read in bounded chunks into one
    buffer, so that a header claiming more than the stream holds costs no
    more memory than the stream holds."""
    raw = f.read(min(nbytes, _GZIP_CHUNK))
    if len(raw) == _GZIP_CHUNK < nbytes:
        raw = bytearray(raw)  # grows in place: no list of chunks to join
        while len(raw) < nbytes and (chunk := f.read(min(nbytes - len(raw), _GZIP_CHUNK))):
            raw += chunk
    return raw


def _slabs(dims):
    """Slices of whole axis-2 planes, about ``_SLAB_VOXELS`` voxels each
    (one plane at least), covering ``range(dims[2])``."""
    step = max(_SLAB_VOXELS // (dims[0] * dims[1]), 1)
    return (slice(lo, min(lo + step, dims[2])) for lo in range(0, dims[2], step))


def write_nifti(vol: Volume, path, datatype: str | None = None) -> None:
    """Write a volume as an uncompressed single-file NIfTI-1 .nii.

    Default datatype: uint8 for masks and labels, float32 otherwise. Values
    not representable in the requested datatype are rejected, and so are
    dims above 32767, which the int16 header fields cannot hold.
    """
    if datatype is None:
        datatype = "uint8" if vol.kind in (Kind.MASK, Kind.LABEL) else "float32"
    if datatype not in _CODES:
        raise NiftiError(f"unsupported datatype {datatype!r}")
    if max(vol.dims) > 32767:
        raise NiftiError(f"dims {vol.dims} do not fit the header's int16 fields")
    code = _CODES[datatype]
    dtype = _DTYPES[code]

    data = vol.data
    if vol.kind is Kind.MASK and not is_binary(data):
        raise NiftiError("mask volume contains values outside {0, 1}")
    if code in (DT_UINT8, DT_INT16):
        info = np.iinfo(dtype)
        if data.min() < info.min or data.max() > info.max:
            raise NiftiError(
                f"values [{data.min()}, {data.max()}] not representable as {datatype}"
            )
        if not np.issubdtype(data.dtype, np.integer) and not np.equal(np.mod(data, 1), 0).all():
            raise NiftiError(f"non-integer values cannot be written as {datatype}")

    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, *vol.dims, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, code)
    struct.pack_into("<h", hdr, 72, dtype.itemsize * 8)  # bitpix
    struct.pack_into("<8f", hdr, 76, 1.0, *vol.spacing, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)  # scl_slope, scl_inter
    hdr[344:348] = MAGIC

    with open(path, "wb") as f:
        f.write(bytes(hdr))
        f.write(b"\x00\x00\x00\x00")  # extension flag: none
        for planes in _slabs(vol.dims):  # each one run of the file's data
            # reversed axes in C order are the slab's file order: one copy
            f.write(np.ascontiguousarray(data[:, :, planes].T, dtype=dtype))
