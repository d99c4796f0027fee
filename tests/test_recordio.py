"""Container format tests: golden bytes, roundtrips, corruption detection."""

import io
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presto import recordio
from presto.core import Compression, DType, Tensor
from presto.recordio import (
    BadMagicError,
    ContainerFormatError,
    CrcMismatchError,
    TruncatedRecordError,
    ZeroOriginalError,
    compression_for_path,
    decode_tensor,
    encode_tensor,
    encoded_size,
    iter_frames,
    read_container,
    shard_paths,
    space_saving,
    write_container,
)

ALL_COMPRESSIONS = (Compression.NONE, Compression.GZIP, Compression.ZLIB)


def roundtrip(tensors, base, compression=Compression.NONE, shards=1):
    stats = write_container(tensors, base, compression=compression, shards=shards)
    return list(read_container(stats.paths)), stats


# ---------------------------------------------------------------- golden file

def expected_container_bytes(tensors):
    """Test-local reconstruction of the format, independent of the writer."""
    out = b"PRESTOC1" + bytes([1, 0]) + b"\x00" * 6
    for t in tensors:
        payload = bytes([t.dtype.code, len(t.shape)])
        for d in t.shape:
            payload += struct.pack("<Q", d)
        payload += t.data
        length = struct.pack("<Q", len(payload))
        out += length
        out += struct.pack("<I", zlib.crc32(length))
        out += payload
        out += struct.pack("<I", zlib.crc32(payload))
    return out


def test_golden_single_u8_tensor_is_54_bytes(tmp_path):
    t = Tensor(DType.U8, (2, 2), bytes([0, 1, 2, 3]))
    stats = write_container([t], tmp_path / "golden")
    raw = stats.paths[0].read_bytes()
    assert raw == expected_container_bytes([t])
    # 16 header + 8 length + 4 length crc + (1+1+16+4) payload + 4 payload crc
    assert len(raw) == 16 + 8 + 4 + (1 + 1 + 16 + 4) + 4 == 54
    assert stats.bytes_written == 54
    assert encoded_size(t) == 22


def test_golden_multi_record_layout(tmp_path):
    tensors = [
        Tensor(DType.U8, (3,), b"abc"),
        Tensor(DType.I16, (2,), struct.pack("<2h", -1, 7)),
        Tensor(DType.F64, (), struct.pack("<d", 2.5)),
    ]
    stats = write_container(tensors, tmp_path / "multi")
    assert stats.paths[0].read_bytes() == expected_container_bytes(tensors)


# ---------------------------------------------------------------- roundtrips

_dtype_st = st.sampled_from(list(DType))
_shape_st = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=4).map(tuple)


@st.composite
def tensor_st(draw):
    dtype = draw(_dtype_st)
    shape = draw(_shape_st)
    n = 1
    for d in shape:
        n *= d
    data = draw(st.binary(min_size=n * dtype.width, max_size=n * dtype.width))
    return Tensor(dtype, shape, data)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(tensor_st(), min_size=0, max_size=12),
    st.sampled_from(ALL_COMPRESSIONS),
    st.sampled_from([1, 3]),
)
def test_roundtrip_property(tmp_path_factory, tensors, compression, shards):
    base = tmp_path_factory.mktemp("rng") / "c"
    got, _ = roundtrip(tensors, base, compression, shards)
    assert got == tensors


@pytest.mark.parametrize("compression", ALL_COMPRESSIONS)
def test_roundtrip_preserves_order_across_shards(tmp_path, compression):
    tensors = [Tensor(DType.I32, (1,), struct.pack("<i", i)) for i in range(10)]
    got, stats = roundtrip(tensors, tmp_path / "o", compression, shards=3)
    assert got == tensors
    # round-robin deal: shard sample counts differ by at most one
    counts = [sum(1 for _ in read_container([p])) for p in stats.paths]
    assert counts == [4, 3, 3]


def test_empty_container_roundtrip(tmp_path):
    got, stats = roundtrip([], tmp_path / "empty")
    assert got == []
    assert stats.bytes_written == 16
    assert stats.samples == 0


def test_compression_shrinks_zero_heavy_data(tmp_path):
    tensors = [Tensor(DType.U8, (4096,), bytes(4096)) for _ in range(32)]
    plain = write_container(tensors, tmp_path / "p", Compression.NONE)
    for comp in (Compression.GZIP, Compression.ZLIB):
        packed = write_container(tensors, tmp_path / comp.value, comp)
        assert packed.bytes_written < plain.bytes_written
        saving = space_saving(plain.bytes_written, packed.bytes_written)
        assert saving > 0.9


# ---------------------------------------------------------------- space saving

def test_space_saving_worked_examples():
    assert space_saving(5_000_000_000, 1_000_000_000) == pytest.approx(0.80)
    assert space_saving(123, 123) == 0.0
    assert space_saving(100, 150) == pytest.approx(-0.5)
    with pytest.raises(ZeroOriginalError):
        space_saving(0, 10)


# ---------------------------------------------------------------- corruption

def test_every_single_byte_corruption_is_detected(tmp_path):
    tensors = [Tensor(DType.U8, (5,), bytes([i] * 5)) for i in range(20)]
    stats = write_container(tensors, tmp_path / "c")
    original = stats.paths[0].read_bytes()
    victim = tmp_path / "victim.prc"
    for pos in range(len(original)):
        corrupted = bytearray(original)
        corrupted[pos] ^= 0x40
        victim.write_bytes(bytes(corrupted))
        with pytest.raises(ContainerFormatError):
            for _ in read_container([victim]):
                pass


def test_bad_magic_reported_as_such(tmp_path):
    stats = write_container([Tensor(DType.U8, (1,), b"x")], tmp_path / "m")
    raw = bytearray(stats.paths[0].read_bytes())
    raw[0] ^= 0xFF
    victim = tmp_path / "bad.prc"
    victim.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        list(read_container([victim]))


def test_crc_error_reports_stream_offset(tmp_path):
    tensors = [Tensor(DType.U8, (4,), b"abcd"), Tensor(DType.U8, (4,), b"efgh")]
    stats = write_container(tensors, tmp_path / "c")
    raw = bytearray(stats.paths[0].read_bytes())
    record_len = 8 + 4 + (2 + 8 + 4) + 4
    raw[16 + record_len + 13] ^= 0x01  # payload byte of the second record
    victim = tmp_path / "v.prc"
    victim.write_bytes(bytes(raw))
    with pytest.raises(CrcMismatchError) as err:
        list(read_container([victim]))
    assert err.value.offset == record_len + 12


def test_truncation_detected_at_every_cut(tmp_path):
    tensors = [Tensor(DType.U8, (3,), b"xyz") for _ in range(3)]
    stats = write_container(tensors, tmp_path / "t")
    raw = stats.paths[0].read_bytes()
    victim = tmp_path / "cut.prc"
    for cut in range(16, len(raw)):
        if cut == 16:
            continue  # header-only container reads back as empty, legal
        victim.write_bytes(raw[:cut])
        record = 8 + 4 + (2 + 8 + 3) + 4
        if (cut - 16) % record == 0:
            assert len(list(read_container([victim]))) == (cut - 16) // record
        else:
            with pytest.raises(TruncatedRecordError):
                list(read_container([victim]))


def test_missing_file_raises_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        list(read_container([tmp_path / "nope.prc"]))


# ---------------------------------------------------------------- naming

def test_shard_path_extensions():
    assert str(shard_paths("/x/base", 2, Compression.NONE)[0]).endswith("base-00000-of-00002.prc")
    assert str(shard_paths("/x/base", 1, Compression.GZIP)[0]).endswith(".prc.gz")
    assert str(shard_paths("/x/base", 1, Compression.ZLIB)[0]).endswith(".prc.zz")
    assert compression_for_path("a-00000-of-00001.prc.gz") is Compression.GZIP
    assert compression_for_path("a-00000-of-00001.prc") is Compression.NONE
    with pytest.raises(ValueError):
        compression_for_path("a.bin")


def test_header_compression_mismatch_rejected(tmp_path):
    stats = write_container(
        [Tensor(DType.U8, (1,), b"a")], tmp_path / "z", Compression.ZLIB
    )
    with pytest.raises(ContainerFormatError):
        list(read_container(stats.paths, compression=Compression.GZIP))
    assert len(list(read_container(stats.paths, compression=Compression.ZLIB))) == 1


# ---------------------------------------------------------------- framing


class CountingReader:
    """File-like over bytes that records every read and its size."""

    def __init__(self, data):
        self._fh = io.BytesIO(data)
        self.reads = []
        self.chunks = []

    def read(self, n=-1):
        chunk = self._fh.read(n)
        self.reads.append(len(chunk))
        self.chunks.append(chunk)
        return chunk


def payloads_of(tensors):
    return [encode_tensor(t) for t in tensors]


def u8(n, fill):
    return Tensor(DType.U8, (n,), bytes([fill]) * n)


@pytest.mark.parametrize("compression", ALL_COMPRESSIONS)
def test_payloads_larger_than_the_read_buffer(tmp_path, compression):
    big = recordio._READ_SIZE
    tensors = [u8(3 * big + 5, 1), u8(10, 2), u8(big, 3), u8(big - 30, 4), u8(2 * big, 5)]
    stats = write_container(tensors, tmp_path / "big", compression)
    assert list(read_container(stats.paths)) == tensors
    raw = stats.paths[0].read_bytes()
    batches = list(iter_frames(CountingReader(raw), "big", compression))
    assert all(batches)
    assert [p for batch in batches for p, _ in batch] == payloads_of(tensors)


def test_plain_stream_reads_whole_buffers_or_straight_through(tmp_path):
    big = recordio._READ_SIZE
    tensors = [u8(n, i) for i, n in enumerate((100, 5 * big, 7, 2 * big + 1, 4000, big))]
    stats = write_container(tensors, tmp_path / "s")
    raw = stats.paths[0].read_bytes()
    fh = CountingReader(raw)
    frames = [f for batch in iter_frames(fh, "s") for f in batch]
    assert [p for p, _ in frames] == payloads_of(tensors)
    assert sum(fh.reads) == len(raw)
    assert fh.reads[-1] == 0
    # every read but the final short one and the end-of-file probe moves a
    # full buffer or more, and the header comes with the first of them;
    # the only exception is the 16-byte read of a CRC and the next frame
    # head that follows the exact read of a long payload
    small = [i for i, n in enumerate(fh.reads[:-2]) if n < big]
    assert small
    assert all(fh.reads[i] == 16 and fh.reads[i - 1] >= recordio._EXACT_READ - 4
               for i in small)
    assert len(fh.reads) <= -(-len(raw) // big) + 1 + len(small)


def test_long_payloads_are_read_exactly_and_not_copied(tmp_path):
    big = recordio._READ_SIZE
    tensors = [u8(3 * big, 1), u8(4 * big + 1, 2), u8(2 * big, 3), u8(10, 4)]
    stats = write_container(tensors, tmp_path / "long")
    raw = stats.paths[0].read_bytes()
    fh = CountingReader(raw)
    batches = list(iter_frames(fh, "long"))
    payloads = payloads_of(tensors)
    assert [p for b in batches for p, _ in b] == payloads
    assert [len(b) for b in batches] == [1, 1, 1, 1]
    first_rest = len(payloads[0]) - (big - recordio.HEADER_LEN - 12)
    lengths = [len(p) for p in payloads]
    assert fh.reads[:7] == [big, first_rest, 16, lengths[1], 16, lengths[2], 16]
    # a long payload whose start was not buffered is the very bytes read
    # returned; the first one is joined to the start the first read held
    for (payload, _), in batches[1:3]:
        assert any(payload is chunk for chunk in fh.chunks)
    # told that records are long, the first read stops at the first payload
    fh = CountingReader(raw)
    batches = list(iter_frames(fh, "long", record_bytes=len(raw) / 4))
    assert [p for b in batches for p, _ in b] == payloads
    assert fh.reads[:3] == [recordio.HEADER_LEN + 12, lengths[0], 16]
    for (payload, _), in batches[:3]:
        assert any(payload is chunk for chunk in fh.chunks)


@pytest.mark.parametrize("tail", [0, 1])
def test_record_ending_exactly_on_a_buffer_boundary(tmp_path, tail):
    big = recordio._READ_SIZE
    # header + one record of rank-1 U8 fills the first read exactly
    n = big - recordio.HEADER_LEN - recordio.RECORD_OVERHEAD - (2 + 8)
    tensors = [u8(n, 9)] + [u8(50, 8)] * tail
    stats = write_container(tensors, tmp_path / "edge")
    raw = stats.paths[0].read_bytes()
    assert len(raw) == big + tail * (recordio.RECORD_OVERHEAD + 2 + 8 + 50)
    fh = CountingReader(raw)
    batches = list(iter_frames(fh, "edge"))
    assert [len(b) for b in batches] == [1] * len(tensors)
    assert [p for b in batches for p, _ in b] == payloads_of(tensors)
    assert list(read_container(stats.paths)) == tensors


@pytest.mark.parametrize("size", [3000, 3 * (1 << 16)])
def test_cut_mid_payload_raises_truncated(tmp_path, size):
    tensors = [u8(size, 1), u8(size, 2)]
    stats = write_container(tensors, tmp_path / "cut")
    raw = stats.paths[0].read_bytes()
    victim = tmp_path / "cut.prc"
    record = recordio.RECORD_OVERHEAD + 2 + 8 + size
    for cut in (recordio.HEADER_LEN + 12 + size // 2, recordio.HEADER_LEN + record + 20 + size // 3):
        victim.write_bytes(raw[:cut])
        with pytest.raises(TruncatedRecordError):
            list(read_container([victim]))


def test_iter_frames_checks_header_once_against_expected(tmp_path):
    stats = write_container([u8(4, 1)], tmp_path / "h", Compression.GZIP)
    raw = stats.paths[0].read_bytes()
    with pytest.raises(ContainerFormatError):
        list(iter_frames(io.BytesIO(raw), "h", Compression.NONE))
    assert len(list(iter_frames(io.BytesIO(raw), "h", Compression.GZIP))) == 1
    with pytest.raises(BadMagicError):
        list(iter_frames(io.BytesIO(b"X" + raw[1:]), "h"))


def test_length_crc_error_reports_stream_offset_past_a_long_record(tmp_path):
    big = recordio._READ_SIZE
    # the shorter long record is joined from two reads; the longer one
    # misses enough after the first read to be read exactly
    for long_size in (2 * big + 3, 4 * big):
        tensors = [u8(long_size, 1), u8(40, 2), u8(40, 3)]
        stats = write_container(tensors, tmp_path / f"o{long_size}")
        raw = bytearray(stats.paths[0].read_bytes())
        first = recordio.RECORD_OVERHEAD + 2 + 8 + long_size
        second = recordio.RECORD_OVERHEAD + 2 + 8 + 40
        raw[recordio.HEADER_LEN + first + second] ^= 0x01  # length field of the third record
        with pytest.raises(CrcMismatchError) as err:
            list(iter_frames(io.BytesIO(bytes(raw)), "o"))
        assert err.value.offset == first + second


# ---------------------------------------------------------------- zero copy


def test_tensors_are_read_only_views_with_hashable_data(tmp_path):
    arr = np.arange(12, dtype=np.int16).reshape(3, 4)
    built = Tensor.from_numpy(arr)
    stats = write_container([built, built], tmp_path / "zc")
    with open(stats.paths[0], "rb") as fh:
        payload = next(iter_frames(fh, "zc"))[0][0]
    decoded = decode_tensor(payload)
    assert np.shares_memory(built.to_numpy(), arr)  # from_numpy kept the array
    assert decoded.buffer.obj is payload  # decode viewed its record, nothing larger
    for t in (built, decoded):
        view = t.to_numpy()
        assert t.buffer.readonly and not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 1
        assert t.data == arr.tobytes()
        assert {t.data} == {arr.tobytes()}
    assert decoded == built and hash(decoded) == hash(built)
