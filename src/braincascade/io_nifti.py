"""Minimal NIfTI-1 reader and writer.

Supports single-file little-endian .nii and .nii.gz, 3D only (a 4D
file with one time point reads as 3D), no extensions, datatypes uint8 /
int16 / float32. Written headers are bit-exact per the NIfTI-1 layout:
348-byte header, 4 padding bytes, vox_offset 352.

On disk the first spatial dimension varies fastest (Fortran order, as per the
format); in memory volumes keep the package convention of axis 0 slowest.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import struct
import zlib

import numpy as np

from .volume import Kind, Volume, is_binary, slabs

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"

# NIfTI-1 datatype code -> dtype
_DTYPES = {2: np.dtype("<u1"), 4: np.dtype("<i2"), 16: np.dtype("<f4")}
_CODES = {dtype.name: code for code, dtype in _DTYPES.items()}


# bytes read at a time: a header's vox_offset and dims claim sizes that only
# reading the stream can confirm
_READ_CHUNK = 1 << 24
# voxels written at a time, in whole planes of axis 2, the slowest axis on
# disk; planes of up to 32 Ki voxels then go 16 or more at a time, where the
# transposing copy is no slower than one whole-volume copy
_SLAB_VOXELS = 1 << 19


class NiftiError(Exception):
    """Malformed or unsupported NIfTI file."""


@contextlib.contextmanager
def _open_read(path):
    """The file at ``path``, gunzipped if it starts with the gzip magic; a
    stream that does not decode ends here as a NiftiError naming the file."""
    try:
        with open(path, "rb") as f, (
                gzip.GzipFile(fileobj=f) if f.peek(2)[:2] == b"\x1f\x8b" else f) as stream:
            yield stream
    except EOFError:  # gzip raises it wherever it reads past a cut-short stream
        raise NiftiError(f"{path}: truncated gzip stream") from None
    except (gzip.BadGzipFile, zlib.error) as e:  # CRC, length, trailing bytes; deflate data
        raise NiftiError(f"{path}: corrupt gzip stream: {e}") from None


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
        # to the data by reading, not seeking: a seek past the filesystem's limit fails
        for _ in _chunks(f, int(vox_offset) - HEADER_SIZE):
            pass
        raw = b"".join(_chunks(f, nbytes))  # one chunk is joined as itself, uncopied
        if len(raw) < nbytes:
            raise NiftiError(f"{path}: truncated data ({len(raw)} of {nbytes} bytes)")
        while f.read1():  # on to the end, where gzip checks its CRC-32 and length
            pass

    # file order: dims[0] fastest; internal order: axis 0 slowest
    data = np.frombuffer(raw, dtype=dtype).reshape(dims, order="F")
    if scaled:  # C order first: astype would keep the file's Fortran layout
        # a value beyond float32 reads as an infinity, a signalling NaN as a NaN
        with np.errstate(over="ignore", invalid="ignore"):
            data = np.ascontiguousarray(data, dtype=np.float32) * scl_slope + scl_inter
    else:
        data = np.ascontiguousarray(data)
    try:
        return Volume(data, spacing, kind)
    except ValueError as e:  # voxels that do not fit the kind asked for
        raise NiftiError(f"{path}: {e}") from None


def _chunks(f, nbytes):
    """Up to ``nbytes`` of a stream, one bounded chunk at a time, so that a
    header claiming more than the stream holds costs no more memory than the
    stream holds."""
    while nbytes > 0 and (chunk := f.read(min(nbytes, _READ_CHUNK))):
        nbytes -= len(chunk)
        yield chunk


def write_nifti(vol: Volume, path, datatype: str | None = None) -> None:
    """Write a volume as a single-file NIfTI-1 .nii, gzipped if ``path``
    ends in ``.gz``, with no name and a zero mtime in the gzip header, so the
    same volume gives the same bytes.

    Default datatype: uint8 for masks and labels, float32 otherwise. Values
    not representable in the requested datatype are rejected, and so are
    dims outside 1 to 32767: the reader rejects an empty axis, and the int16
    header fields cannot hold more.
    """
    if datatype is None:
        datatype = "uint8" if vol.kind in (Kind.MASK, Kind.LABEL) else "float32"
    if datatype not in _CODES:
        raise NiftiError(f"unsupported datatype {datatype!r}")
    if not all(1 <= d <= 32767 for d in vol.dims):
        raise NiftiError(f"dims {vol.dims} must each be 1 to 32767")
    code = _CODES[datatype]
    dtype = _DTYPES[code]

    data = vol.data
    if vol.kind is Kind.MASK and not is_binary(data):
        raise NiftiError("mask volume contains values outside {0, 1}")
    if dtype.kind in "iu":
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

    step = max(_SLAB_VOXELS // (vol.dims[0] * vol.dims[1]), 1)  # axis-2 planes per slab
    with open(path, "wb") as raw, (
            gzip.GzipFile("", "wb", fileobj=raw, mtime=0) if str(path).endswith(".gz")
            else raw) as f:
        f.write(bytes(hdr))
        f.write(b"\x00\x00\x00\x00")  # extension flag: none
        for planes in slabs(vol.dims[2], step):  # each one run of the file's data
            # reversed axes in C order are the slab's file order: one copy
            f.write(np.ascontiguousarray(data[:, :, planes].T, dtype=dtype))
