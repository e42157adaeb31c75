"""The one ``.npz`` codec: every archive the package writes or reads.

:func:`write_npz` returns the exact bytes ``np.savez`` writes for the
same named arrays on a POSIX host: one STORED zip member ``<name>.npy``
per array, in order, each with the zip64 local extra numpy always asks
for, a ``.npy`` version 1.0 header from numpy's own header writer, and
the array's bytes in its header's order.  Registry blob addresses
(``blobs/<sha256>.npz``) and every served payload therefore do not
depend on which of the two wrote them.

:func:`read_npz` is strict where ``np.load`` is lenient.  It walks the
end-of-central-directory record, the central directory and each local
header itself, checks every member's bounds and CRC-32, and raises
:class:`ValueError` for anything it does not accept: compressed,
encrypted or duplicate members, members that are not ``.npy`` files,
object dtypes, a header whose shape and dtype do not account for the
member's size exactly, zip64 archives (over 65535 members or 2 GiB) and
bytes that are not a zip archive at all.  ``.npy`` headers are parsed by
numpy's public ``read_magic``/``read_array_header_{1,2}_0``, so numpy's
acceptance rules and its header-size limit hold; a parsed header is
cached by its bytes, so the archives a process sees again and again
parse each header once.  The arrays returned are fresh, aligned and
writable.

Both sides depend on the standard library and numpy only.
"""

from __future__ import annotations

import functools
import io
import math
import struct
import tokenize
import zlib

import numpy as np
from numpy.lib import format as npy_format

__all__ = ["write_npz", "read_npz"]

# zip records, as :mod:`zipfile` spells them.
_LOCAL = struct.Struct("<4s2B4HL2L2H")
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_END = struct.Struct("<4s4H2LH")
_ZIP64_EXTRA = struct.Struct("<HHQQ")
_LOCAL_MAGIC = b"PK\x03\x04"
_CENTRAL_MAGIC = b"PK\x01\x02"
_END_MAGIC = b"PK\x05\x06"

# What ``zipfile`` writes for ``ZipFile.open(name, "w", force_zip64=True)``
# on a seekable file: version 4.5 (zip64), made on Unix, 1980-01-01
# 00:00:00, mode 0o600, no data descriptor.
_VERSION = 45
_MADE_ON_UNIX = 3
_DOS_TIME, _DOS_DATE = 0, (1 << 5) | 1
_EXTERNAL_ATTR = 0o600 << 16
_UTF8_NAME = 0x800
_ENCRYPTED = 0x1
_STORED = 0
_MAX_MEMBERS = 0xFFFF
_MAX_OFFSET = (1 << 31) - 1     # zipfile.ZIP64_LIMIT

# Dtype kinds stored as raw bytes; anything else numpy would pickle.
_RAW_KINDS = frozenset("biufcmMSUV")
_NPY_MAGIC = npy_format.MAGIC_PREFIX
_HEADER_CACHE_SIZE = 1024


# -- writer -------------------------------------------------------------------

def write_npz(arrays: dict) -> bytes:
    """The ``np.savez(file, **arrays)`` bytes, built in memory.

    Raises :class:`ValueError` for a name holding a NUL, an object or
    other pickled dtype, a header too long for ``.npy`` 1.0, or an
    archive that would need zip64 records.
    """
    parts: list = []
    central: list = []
    offset = 0
    for name, value in arrays.items():
        array = np.asarray(value)
        filename, flags = _encode_name(name + ".npy")
        fortran = array.flags.f_contiguous and not array.flags.c_contiguous
        header = _npy_header(array.dtype, fortran, array.shape)
        data = _raw_bytes(array, fortran)
        size = len(header) + array.nbytes
        crc = zlib.crc32(data, zlib.crc32(header))
        if offset > _MAX_OFFSET or size > _MAX_OFFSET:
            raise ValueError("npz archives over 2 GiB are not supported")
        parts += (_LOCAL.pack(_LOCAL_MAGIC, _VERSION, 0, flags, _STORED,
                              _DOS_TIME, _DOS_DATE, crc, 0xFFFFFFFF,
                              0xFFFFFFFF, len(filename), _ZIP64_EXTRA.size),
                  filename, _ZIP64_EXTRA.pack(1, 16, size, size),
                  header, data)
        central += (_CENTRAL.pack(_CENTRAL_MAGIC, _VERSION, _MADE_ON_UNIX,
                                  _VERSION, 0, flags, _STORED, _DOS_TIME,
                                  _DOS_DATE, crc, size, size, len(filename),
                                  0, 0, 0, 0, _EXTERNAL_ATTR, offset),
                    filename)
        offset += _LOCAL.size + len(filename) + _ZIP64_EXTRA.size + size
    count = len(central) // 2
    central_size = sum(map(len, central))
    if count >= _MAX_MEMBERS or offset > _MAX_OFFSET:
        raise ValueError("npz archives over 65535 members or 2 GiB are "
                         "not supported")
    parts += central
    parts.append(_END.pack(_END_MAGIC, 0, 0, count, count, central_size,
                           offset, 0))
    return b"".join(parts)


def _encode_name(name: str) -> tuple[bytes, int]:
    """zipfile's spelling of a member name: ASCII, else flagged UTF-8."""
    if "\0" in name:
        raise ValueError(f"npz member names cannot hold NUL: {name!r}")
    try:
        return name.encode("ascii"), 0
    except UnicodeEncodeError:
        return name.encode("utf-8"), _UTF8_NAME


@functools.lru_cache(maxsize=_HEADER_CACHE_SIZE)
def _npy_header(dtype: np.dtype, fortran_order: bool, shape: tuple) -> bytes:
    """numpy's ``.npy`` 1.0 header for one array layout."""
    if dtype.hasobject or dtype.kind not in _RAW_KINDS:
        raise ValueError(f"cannot store dtype {dtype} in an npz archive "
                         f"without pickling")
    if not dtype.itemsize:
        raise ValueError(f"cannot store zero-size dtype {dtype}")
    buffer = io.BytesIO()
    npy_format.write_array_header_1_0(buffer, {
        "descr": npy_format.dtype_to_descr(dtype),
        "fortran_order": fortran_order, "shape": shape})
    return buffer.getvalue()


def _raw_bytes(array: np.ndarray, fortran: bool):
    """The array's bytes in its header's order, without a copy when the
    array is contiguous that way."""
    if fortran:
        array = array.T
    elif not array.flags.c_contiguous:
        return array.tobytes()
    return array.reshape(-1).view(np.uint8)


# -- reader -------------------------------------------------------------------

def read_npz(blob) -> dict:
    """Decode ``.npz`` bytes into ``{name: array}``, in archive order.

    Raises :class:`ValueError` for bytes :func:`write_npz` or
    ``np.savez`` could not have written (see the module docstring).
    """
    view = memoryview(blob).cast("B")
    central_start, central_end, count = _end_record(view)
    arrays: dict = {}
    position = central_start
    data_floor = 0
    for _ in range(count):
        if position + _CENTRAL.size > central_end:
            raise ValueError("npz central directory is truncated")
        (magic, _, _, _, _, flags, method, _, _, crc, compressed, size,
         name_length, extra_length, comment_length, disk, _, _,
         offset) = _CENTRAL.unpack_from(view, position)
        if magic != _CENTRAL_MAGIC:
            raise ValueError("npz central directory entry has a bad "
                             "signature")
        position += _CENTRAL.size
        name_end = position + name_length
        filename = bytes(view[position:name_end])
        position = name_end + extra_length + comment_length
        if position > central_end:
            raise ValueError("npz central directory is truncated")
        name = _member_name(filename, flags)
        if flags & _ENCRYPTED:
            raise ValueError(f"npz member {name!r} is encrypted")
        if flags & ~_UTF8_NAME:
            raise ValueError(f"npz member {name!r} uses zip flags "
                             f"{flags:#x}, which npz archives do not")
        if method != _STORED or compressed != size:
            raise ValueError(f"npz member {name!r} is compressed "
                             f"(method {method}); only stored members "
                             f"are read")
        if disk != 0 or 0xFFFFFFFF in (size, offset):
            raise ValueError(f"npz member {name!r} needs zip64 or "
                             f"multi-disk records, which are not read")
        if not name.endswith(".npy"):
            raise ValueError(f"npz member {name!r} is not a .npy file")
        key = name[:-4]
        if key in arrays:
            raise ValueError(f"npz archive holds {key!r} twice")
        if offset < data_floor:
            raise ValueError(f"npz member {name!r} overlaps the member "
                             f"before it")
        start = _local_data_start(view, offset, filename, flags, name)
        end = start + size
        if end > central_start:
            raise ValueError(f"npz member {name!r} runs past the central "
                             f"directory")
        member = view[start:end]
        if zlib.crc32(member) != crc:
            raise ValueError(f"npz member {name!r} fails its CRC-32 check")
        arrays[key] = _decode_npy(member, key)
        data_floor = end
    if position != central_end:
        raise ValueError("npz central directory holds bytes after its "
                         "last entry")
    return arrays


def _end_record(view: memoryview) -> tuple[int, int, int]:
    """``(central directory start, its end, member count)`` from the
    end-of-central-directory record, which must end the archive."""
    at = len(view) - _END.size
    if at < 0 or view[at:at + 4] != _END_MAGIC:
        raise ValueError("not an npz archive: it does not end with a zip "
                         "end-of-central-directory record")
    (_, disk, central_disk, disk_count, count, central_size,
     central_start, comment_length) = _END.unpack_from(view, at)
    if comment_length:
        raise ValueError("npz archive comments are not read")
    if count == _MAX_MEMBERS or 0xFFFFFFFF in (central_size,
                                               central_start):
        raise ValueError("zip64 npz archives (over 65535 members or "
                         "2 GiB) are not read")
    if disk or central_disk or disk_count != count:
        raise ValueError("multi-disk zip archives are not read")
    if central_start + central_size != at:
        raise ValueError("npz central directory does not end at the "
                         "end-of-central-directory record")
    return central_start, at, count


def _member_name(filename: bytes, flags: int) -> str:
    """zipfile's reading of a member name: flagged UTF-8, else cp437."""
    try:
        return filename.decode("utf-8" if flags & _UTF8_NAME else "cp437")
    except UnicodeDecodeError:
        raise ValueError(f"npz member name {filename!r} is not the UTF-8 "
                         f"its flags claim") from None


def _local_data_start(view: memoryview, offset: int, filename: bytes,
                      flags: int, name: str) -> int:
    """Check the local header at ``offset``; where its data starts."""
    if offset + _LOCAL.size > len(view):
        raise ValueError(f"npz member {name!r} has no local header")
    (magic, _, _, local_flags, method, _, _, _, _, _, name_length,
     extra_length) = _LOCAL.unpack_from(view, offset)
    name_start = offset + _LOCAL.size
    if (magic != _LOCAL_MAGIC or local_flags != flags
            or method != _STORED
            or bytes(view[name_start:name_start + name_length])
            != filename):
        raise ValueError(f"npz member {name!r}: its local header does not "
                         f"match the central directory")
    return name_start + name_length + extra_length


def _decode_npy(member: memoryview, key: str) -> np.ndarray:
    """A fresh array from one ``.npy`` member's bytes."""
    if len(member) < 10 or member[:6] != _NPY_MAGIC:
        raise ValueError(f"npz member {key!r} is not a .npy array")
    version = (member[6], member[7])
    if version == (1, 0):
        header_end = 10 + member[8] + (member[9] << 8)
    elif version == (2, 0) and len(member) >= 12:
        header_end = 12 + int.from_bytes(member[8:12], "little")
    else:
        raise ValueError(f"npz member {key!r} has .npy format version "
                         f"{version}, which is not read")
    if header_end > len(member):
        raise ValueError(f"npz member {key!r} has a truncated .npy header")
    shape, fortran_order, dtype = _parse_header(bytes(member[:header_end]))
    count = math.prod(shape)
    if count * dtype.itemsize != len(member) - header_end:
        raise ValueError(
            f"npz member {key!r}: shape {shape} of {dtype} needs "
            f"{count * dtype.itemsize} bytes, the member holds "
            f"{len(member) - header_end}")
    order = "F" if fortran_order else "C"
    if not count:
        return np.empty(shape, dtype, order)
    flat = np.frombuffer(member, dtype, count, header_end).copy()
    return flat.reshape(shape, order=order)


@functools.lru_cache(maxsize=_HEADER_CACHE_SIZE)
def _parse_header(header: bytes) -> tuple[tuple, bool, np.dtype]:
    """numpy's reading of one ``.npy`` header: ``(shape, fortran_order,
    dtype)``, checked for what :func:`read_npz` refuses."""
    stream = io.BytesIO(header)
    try:
        version = npy_format.read_magic(stream)
        read = (npy_format.read_array_header_1_0 if version == (1, 0)
                else npy_format.read_array_header_2_0)
        shape, fortran_order, dtype = read(stream)
    except (SyntaxError, TypeError, RecursionError, MemoryError,
            tokenize.TokenError) as exc:
        # Hostile text numpy's literal parser gives up on; a parser stack
        # overflow is a MemoryError, not a large allocation.
        raise ValueError(f"cannot parse .npy header ({exc!r})") from None
    if dtype.hasobject:
        raise ValueError("npz archives holding object arrays are not read")
    if (not dtype.itemsize or dtype.subdtype is not None
            or any(n < 0 for n in shape)):
        raise ValueError(f"invalid .npy header: shape {shape} of {dtype}")
    return shape, fortran_order, dtype
