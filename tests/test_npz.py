"""The npz codec: ``np.savez`` bytes out, strict reads in.

:func:`write_npz` must write exactly what ``np.savez`` writes and
:func:`read_npz` must return what ``np.load`` returns for it.  Bytes
``np.savez`` could not have written -- truncated, bit-flipped, compressed,
pickled, duplicated, or with a header that lies -- must raise
:class:`ValueError` and nothing else, without a large allocation.
"""

from __future__ import annotations

import gc
import io
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.npz import read_npz, write_npz

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.normal(size=(5, 7))

#: One array per layout and dtype the codec must match numpy on.
CORPUS = {
    "c_order": _MATRIX,
    "f_order": np.asfortranarray(_MATRIX),
    "f_order_3d": np.asfortranarray(_RNG.normal(size=(2, 3, 4))),
    "non_contiguous": _MATRIX[::2, 1::3],
    "transposed_view": _MATRIX[:, :4].T,
    "zero_d": np.array(2.5),
    "zero_d_int": np.int64(-7),
    "empty": np.zeros((0, 3)),
    "empty_f": np.asfortranarray(np.zeros((3, 0))),
    "bool": _RNG.integers(0, 2, (4, 4)).astype(bool),
    "uint8": _RNG.integers(0, 256, 11).astype(np.uint8),
    "int64": _RNG.integers(-9, 9, (2, 3, 4)),
    "float64": _RNG.normal(size=17),
    "big_endian": _MATRIX.astype(">f8"),
    "float32": _MATRIX.astype(np.float32),
    "unicode": np.array(["ab", "ç"]),
    "record": np.zeros(3, dtype=[("x", "<f8"), ("y", "<i4")]),
    "datetime": np.array(["2020-01-01"], dtype="M8[D]"),
    "naïve-name": np.arange(3),
    "module::layers.0.weight": _MATRIX[:2],
}


def _savez(**arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _assert_same_as_np_load(decoded: dict, blob: bytes) -> None:
    with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
        assert list(decoded) == archive.files
        for name in archive.files:
            expected, got = archive[name], decoded[name]
            assert got.dtype == expected.dtype, name
            assert got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name
            assert got.flags.f_contiguous == expected.flags.f_contiguous
            assert got.flags.c_contiguous == expected.flags.c_contiguous
            assert got.flags.writeable and got.flags.aligned, name


# -- writer: np.savez bytes ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(CORPUS))
def test_each_array_writes_np_savez_bytes(name):
    assert write_npz({name: CORPUS[name]}) == _savez(**{name: CORPUS[name]})


def test_whole_corpus_writes_np_savez_bytes():
    assert write_npz(CORPUS) == _savez(**CORPUS)


def test_empty_archive_writes_np_savez_bytes():
    assert write_npz({}) == _savez()
    assert read_npz(write_npz({})) == {}


def test_writer_refuses_what_numpy_would_pickle_or_rename():
    with pytest.raises(ValueError, match="pickling"):
        write_npz({"objects": np.array([1, "a"], dtype=object)})
    with pytest.raises(ValueError, match="NUL"):
        write_npz({"a\0b": np.zeros(2)})


# -- reader: np.load's arrays -------------------------------------------------

def test_reader_matches_np_load_on_the_corpus():
    blob = _savez(**CORPUS)
    decoded = read_npz(blob)
    _assert_same_as_np_load(decoded, blob)


def test_returned_arrays_are_fresh_aligned_and_writable():
    blob = write_npz({"a": np.arange(6.0).reshape(2, 3)})
    first, second = read_npz(blob)["a"], read_npz(blob)["a"]
    assert first.flags.owndata or first.base.flags.owndata
    first[0, 0] = 99.0
    assert second[0, 0] == 0.0
    assert read_npz(bytearray(blob))["a"][1, 2] == 5.0
    assert read_npz(memoryview(blob))["a"][1, 2] == 5.0


# -- reader: hostile bytes ----------------------------------------------------

def _sample_archive() -> bytes:
    return write_npz({"meta": np.frombuffer(b'{"k": 1}', dtype=np.uint8),
                      "weights": _MATRIX[:3, :3],
                      "lengths": np.array([3, 1, 2])})


def _header_offsets(blob: bytes) -> list[int]:
    """Offsets of every byte outside array data: each local header, name
    and extra field, each ``.npy`` header, and the central directory
    through the end record."""
    offsets: list[int] = []
    central_start = struct.unpack_from("<L", blob, len(blob) - 6)[0]
    position = 0
    while position < central_start:
        name_length, extra_length = struct.unpack_from("<2H", blob,
                                                       position + 26)
        size = struct.unpack_from("<Q", blob,
                                  position + 30 + name_length + 12)[0]
        data = position + 30 + name_length + extra_length
        header_end = data + 10 + struct.unpack_from("<H", blob, data + 8)[0]
        offsets.extend(range(position, header_end))
        position = data + size
    offsets.extend(range(central_start, len(blob)))
    return offsets


def _decode_or_value_error(blob: bytes):
    """The decoded dict, or None when the reader raised ValueError; any
    other exception, or an allocation far beyond the input's size, fails
    the test."""
    tracemalloc.start()
    try:
        return read_npz(blob)
    except ValueError:
        return None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 64 * 1024 + 4 * len(blob), peak


def test_every_truncation_raises_value_error():
    blob = _sample_archive()
    for cut in range(len(blob)):
        assert _decode_or_value_error(blob[:cut]) is None, cut


def test_every_header_byte_flip_raises_or_decodes_the_same():
    blob = _sample_archive()
    original = read_npz(blob)
    offsets = _header_offsets(blob)
    assert len(offsets) > 400
    rejected = 0
    for offset in offsets:
        flipped = bytearray(blob)
        flipped[offset] ^= 0xFF
        decoded = _decode_or_value_error(bytes(flipped))
        if decoded is None:
            rejected += 1
            continue
        # Only bytes that carry nothing the reader uses (timestamps,
        # version and attribute fields, the zip64 extra) may change.
        assert list(decoded) == list(original), offset
        for name, array in original.items():
            assert decoded[name].dtype == array.dtype, offset
            assert np.array_equal(decoded[name], array), offset
    assert rejected > len(offsets) // 2


def test_every_data_byte_flip_fails_the_crc():
    blob = _sample_archive()
    headers = set(_header_offsets(blob))
    for offset in range(len(blob)):
        if offset in headers:
            continue
        flipped = bytearray(blob)
        flipped[offset] ^= 0x01
        with pytest.raises(ValueError, match="CRC"):
            read_npz(bytes(flipped))


def _zip_with(members: list[tuple[str, bytes]]) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, data in members:
            archive.writestr(name, data)
    return buffer.getvalue()


def _npy(header: str, data: bytes = b"", version: int = 1) -> bytes:
    text = header.encode("latin1")
    if version == 1:
        prefix = b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text))
    else:
        prefix = b"\x93NUMPY\x02\x00" + struct.pack("<I", len(text))
    return prefix + text + data


def test_object_dtype_member_is_refused():
    blob = _savez(objects=np.array([{"a": 1}, None], dtype=object))
    with pytest.raises(ValueError, match="object"):
        read_npz(blob)


def test_compressed_archive_is_refused():
    buffer = io.BytesIO()
    np.savez_compressed(buffer, a=np.zeros(64))
    with pytest.raises(ValueError, match="compressed"):
        read_npz(buffer.getvalue())


def test_duplicate_names_are_refused():
    blob = bytearray(write_npz({"a": np.zeros(2), "b": np.ones(2)}))
    # Rename member "b.npy" to "a.npy" in its local and central headers.
    for at in (i for i in range(len(blob)) if blob[i:i + 5] == b"b.npy"):
        blob[at] = ord("a")
    with pytest.raises(ValueError, match="twice"):
        read_npz(bytes(blob))


def test_header_that_lies_about_its_shape_is_refused():
    data = np.arange(3.0).tobytes()
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': (4,), }\n"
    blob = _zip_with([("a.npy", _npy(header, data))])
    with pytest.raises(ValueError, match="needs 32 bytes"):
        read_npz(blob)
    huge = ("{'descr': '<f8', 'fortran_order': False, "
            f"'shape': ({1 << 62},), }}")
    with pytest.raises(ValueError, match="needs"):
        read_npz(_zip_with([("a.npy", _npy(huge + "\n", data))]))


def test_header_over_numpy_size_limit_is_refused():
    header = ("{'descr': '<f8', 'fortran_order': False, 'shape': (0,), }"
              + " " * 20000 + "\n")
    for version in (1, 2):
        blob = _zip_with([("a.npy", _npy(header, version=version))])
        with pytest.raises(ValueError, match="large"):
            read_npz(blob)


@pytest.mark.parametrize("header", [
    "not a dict at all\n",
    "{'descr': '<f8', 'fortran_order': 'yes', 'shape': (1,), }\n",
    "{'descr': '<f8', 'fortran_order': False, 'shape': (-1,), }\n",
    "{'descr': 'zz', 'fortran_order': False, 'shape': (1,), }\n",
    "{'descr': '|V0', 'fortran_order': False, 'shape': (10,), }\n",
    "{'descr': '<f8', 'fortran_order': False, 'shape': " + "(" * 300 + "\n",
    "'''\n",
    "-" * 9000 + "1\n",
])
def test_malformed_npy_headers_raise_value_error(header):
    with pytest.raises(ValueError):
        read_npz(_zip_with([("a.npy", _npy(header, b"\0" * 8))]))


def test_non_npy_member_and_bad_npy_magic_are_refused():
    with pytest.raises(ValueError, match="not a .npy file"):
        read_npz(_zip_with([("notes.txt", b"hello")]))
    with pytest.raises(ValueError, match="not a .npy array"):
        read_npz(_zip_with([("a.npy", b"hello")]))


def test_encrypted_member_is_refused():
    blob = bytearray(write_npz({"a": np.zeros(2)}))
    central = struct.unpack_from("<L", blob, len(blob) - 6)[0]
    blob[6] |= 0x1           # local header flags
    blob[central + 8] |= 0x1  # central directory flags
    with pytest.raises(ValueError, match="encrypted"):
        read_npz(bytes(blob))


def test_archive_comment_and_trailing_bytes_are_refused():
    blob = write_npz({"a": np.zeros(2)})
    with pytest.raises(ValueError):
        read_npz(blob + b"\0")
    commented = bytearray(blob)
    commented[-2:] = struct.pack("<H", 3)
    with pytest.raises(ValueError):
        read_npz(bytes(commented) + b"abc")
    with pytest.raises(ValueError, match="comment"):
        read_npz(bytes(commented))


def test_central_directory_crc_is_checked():
    blob = bytearray(write_npz({"a": np.zeros(2)}))
    central = struct.unpack_from("<L", blob, len(blob) - 6)[0]
    crc = struct.unpack_from("<L", blob, central + 16)[0]
    struct.pack_into("<L", blob, central + 16, crc ^ 1)
    with pytest.raises(ValueError, match="CRC"):
        read_npz(bytes(blob))


# -- reference cycles ---------------------------------------------------------

def _leaves_no_cyclic_garbage(call) -> bool:
    """True when ``call()`` (after one warm-up call) leaves nothing for
    the cyclic collector."""
    call()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return not gc.garbage
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_decoding_a_model_archive_leaves_no_cyclic_garbage(trained_dg_gcut):
    from repro.nn.serialization import bytes_to_arrays

    blob = trained_dg_gcut.save_bytes()
    assert _leaves_no_cyclic_garbage(lambda: bytes_to_arrays(blob))


def test_decoding_a_payload_leaves_no_cyclic_garbage(trained_dg_gcut):
    from repro.serve.protocol import dataset_from_bytes, dataset_to_bytes

    payload = dataset_to_bytes(trained_dg_gcut.generate(
        16, rng=np.random.default_rng(1)))
    assert _leaves_no_cyclic_garbage(lambda: dataset_from_bytes(payload))
