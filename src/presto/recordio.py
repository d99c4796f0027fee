"""Sharded record containers for tensor streams.

File layout (all integers little-endian):

    header, 16 bytes, never compressed:
        magic   8s   b"PRESTOC1"
        version u8   1
        comp    u8   0 none / 1 gzip / 2 zlib
        reserved 6x u8 zero
    record stream (whole stream compressed when comp != 0):
        length  u64  payload byte count
        lencrc  u32  CRC32 of the 8 length bytes
        payload length bytes
        crc     u32  CRC32 of the payload

A tensor payload is: dtype code u8, rank u8, rank extents as u64, then the
row-major element bytes.  Writing with k shards deals samples round-robin,
so shard sample counts differ by at most one and reading the shards back
round-robin restores the original order.
"""

from __future__ import annotations

import io
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import MAX_RANK, Compression, DType, Tensor
from .storage import StorageBackend

MAGIC = b"PRESTOC1"
VERSION = 1
HEADER_LEN = 16
RECORD_OVERHEAD = 16  # length + lencrc + crc

_COMP_CODES = {Compression.NONE: 0, Compression.GZIP: 1, Compression.ZLIB: 2}
_CODE_COMPS = {v: k for k, v in _COMP_CODES.items()}
_EXTENSIONS = {Compression.NONE: ".prc", Compression.GZIP: ".prc.gz", Compression.ZLIB: ".prc.zz"}
# wbits selecting the container written/expected by zlib
_WBITS = {Compression.GZIP: 31, Compression.ZLIB: 15}

_LEN_STRUCT = struct.Struct("<Q")
_CRC_STRUCT = struct.Struct("<I")


class ContainerFormatError(ValueError):
    """The container violates the on-disk format."""


class BadMagicError(ContainerFormatError):
    pass


class TruncatedRecordError(ContainerFormatError):
    pass


class CrcMismatchError(ContainerFormatError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (record stream offset {offset})")
        self.offset = offset


class ZeroOriginalError(ValueError):
    pass


def space_saving(original_bytes: int, compressed_bytes: int) -> float:
    """1 - compressed/original; negative when compression inflates."""
    if original_bytes == 0:
        raise ZeroOriginalError("original size is zero")
    return 1.0 - compressed_bytes / original_bytes


def extension_for(compression: Compression) -> str:
    return _EXTENSIONS[compression]


def compression_for_path(path: str | Path) -> Compression:
    name = str(path)
    for comp, ext in _EXTENSIONS.items():
        if name.endswith(ext):
            return comp
    raise ValueError(f"not a container path: {path}")


def shard_paths(base: str | Path, shards: int, compression: Compression) -> list[Path]:
    ext = extension_for(compression)
    return [Path(f"{base}-{i:05d}-of-{shards:05d}{ext}") for i in range(shards)]


_TENSOR_HEAD = struct.Struct("<BB")  # dtype code, rank
_DTYPE_BY_CODE = {d.code: d for d in DType}


def _extents(rank: int) -> struct.Struct:
    return struct.Struct(f"<{rank}Q")


_EXTENTS = [_extents(rank) for rank in range(MAX_RANK + 1)]


def encode_header(tensor: Tensor) -> bytes:
    """The tensor payload's header: dtype code, rank and extents."""
    rank = len(tensor.shape)
    return _TENSOR_HEAD.pack(tensor.dtype.code, rank) + _EXTENTS[rank].pack(*tensor.shape)


def encode_tensor(tensor: Tensor) -> bytes:
    return b"".join((encode_header(tensor), tensor.buffer))


def decode_tensor(payload: bytes) -> Tensor:
    """The tensor in a payload; its elements are a view of `payload`, so
    the tensor keeps the payload (and nothing larger) alive."""
    if len(payload) < 2:
        raise ContainerFormatError("tensor payload shorter than its header")
    code, rank = payload[0], payload[1]
    dtype = _DTYPE_BY_CODE.get(code) or DType.from_code(code)
    dims_end = 2 + 8 * rank
    if len(payload) < dims_end:
        raise ContainerFormatError("tensor payload truncated inside extents")
    extents = _EXTENTS[rank] if rank <= MAX_RANK else _extents(rank)
    return Tensor(dtype, extents.unpack_from(payload, 2), memoryview(payload)[dims_end:])


def encoded_size(tensor: Tensor) -> int:
    return 2 + 8 * tensor.rank + tensor.nbytes


class _Sink:
    """Writes the record stream, compressing on the fly when asked."""

    def __init__(self, fh, compression: Compression, level: int = 6) -> None:
        self._fh = fh
        self._comp = (
            zlib.compressobj(level, zlib.DEFLATED, _WBITS[compression])
            if compression is not Compression.NONE
            else None
        )
        fh.write(struct.pack("<8sBB6x", MAGIC, VERSION, _COMP_CODES[compression]))

    def write_record(self, payload: bytes) -> None:
        length = _LEN_STRUCT.pack(len(payload))
        frame = b"".join(
            (length, _CRC_STRUCT.pack(zlib.crc32(length)), payload, _CRC_STRUCT.pack(zlib.crc32(payload)))
        )
        if self._comp is None:
            self._fh.write(frame)
        else:
            squeezed = self._comp.compress(frame)
            if squeezed:
                self._fh.write(squeezed)

    def close(self) -> None:
        if self._comp is not None:
            tail = self._comp.flush()
            if tail:
                self._fh.write(tail)
        self._fh.close()


@dataclass(frozen=True)
class WriteStats:
    bytes_written: int  # total on-store size including headers
    seconds: float
    samples: int
    paths: tuple[Path, ...]


def write_container(
    samples: Iterable[Tensor],
    base: str | Path,
    compression: Compression = Compression.NONE,
    shards: int = 1,
    backend: StorageBackend | None = None,
    level: int = 6,
) -> WriteStats:
    """Deal samples round-robin into shard files under `base`.  If the
    samples or a write raise, the shard files opened so far are closed and
    removed before the exception propagates."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    backend = backend or StorageBackend()
    paths = shard_paths(base, shards, compression)
    start = time.perf_counter()
    handles = []
    count = 0
    try:
        for p in paths:
            handles.append(backend.open_write(p))
        sinks = [_Sink(fh, compression, level) for fh in handles]
        for i, tensor in enumerate(samples):
            sinks[i % shards].write_record(encode_tensor(tensor))
            count = i + 1
        for sink in sinks:
            sink.close()
    except BaseException:
        # best effort: the error that stopped the write is the one raised
        for fh, p in zip(handles, paths):
            try:
                fh.close()  # a second close does nothing
            except OSError:
                pass
            try:
                backend.remove(p)
            except OSError:
                pass
        raise
    seconds = time.perf_counter() - start
    total = sum(backend.size(p) for p in paths)
    return WriteStats(bytes_written=total, seconds=seconds, samples=count, paths=tuple(paths))


_READ_SIZE = 1 << 16  # bytes per backend read while framing
# a record still missing this many bytes is read exactly (see iter_frames);
# exact reads lost to a join of the cut payload below about 40 KB
_EXACT_READ = 1 << 17
_FRAME_HEAD = struct.Struct("<QI")  # length, CRC of the length bytes


def _parse_header(head: bytes, label) -> Compression:
    if len(head) < HEADER_LEN:
        raise TruncatedRecordError(f"{label}: shorter than the container header")
    magic, version, comp_code, reserved = struct.unpack_from("<8sBB6s", head)
    if magic != MAGIC:
        raise BadMagicError(f"{label}: bad magic {magic!r}")
    if version != VERSION:
        raise ContainerFormatError(f"{label}: unsupported version {version}")
    if comp_code not in _CODE_COMPS:
        raise ContainerFormatError(f"{label}: unknown compression code {comp_code}")
    if reserved != b"\x00" * 6:
        raise ContainerFormatError(f"{label}: reserved header bytes not zero")
    return _CODE_COMPS[comp_code]


def iter_frames(
    fh, label, expected: Compression | None = None, record_bytes: float = 0
) -> Iterator[list[tuple[bytes, int]]]:
    """Frame one container file read from `fh`.

    Checks the header once (and, when `expected` is given, that it names
    that compression), then yields, per read of the file, the non-empty
    list of (payload, stored_payload_crc) records that read completed.
    The length CRC is checked here because framing depends on it; the
    payload CRC is left to the caller so deserialization cost can be
    accounted separately.

    Reads ask for `_READ_SIZE` bytes, plus the rest of a record that the
    buffered bytes leave unfinished, so a payload is read through in one
    call.  In a plain stream, a record that still misses `_EXACT_READ`
    bytes or more is read differently: one read of exactly the rest of its
    payload, then one 16-byte read of its CRC and the next frame head.
    That payload is then the bytes the read returned, not a copy, unless
    the buffer already held its start.  Every other read of a plain stream
    but the last two moves at least `_READ_SIZE` bytes.

    `record_bytes` is the caller's estimate of a record's stored size.  When
    it is `_EXACT_READ` or more, the first read stops after the first frame
    head instead, so the first payload is read exactly too and a shard of
    one long record is read without a copy.
    """
    first = fh.read(HEADER_LEN + 12 if record_bytes >= _EXACT_READ else _READ_SIZE)
    stored = _parse_header(first[:HEADER_LEN], label)
    if expected is not None and stored is not expected:
        raise ContainerFormatError(
            f"{label}: header says {stored.value}, caller expected {expected.value}"
        )
    if stored is Compression.NONE:
        yield from _frames(first, HEADER_LEN, fh.read, label, exact=True)
    else:
        yield from _frames(b"", 0, _inflater(fh, stored, first[HEADER_LEN:]), label, exact=False)


def _inflater(fh, compression: Compression, pending: bytes):
    """read(n) over the decompressed record stream; b"" once it ends."""
    decomp = zlib.decompressobj(_WBITS[compression])
    done = False

    def read(n: int) -> bytes:
        nonlocal pending, done
        try:
            while not done:
                raw = pending or fh.read(n)
                pending = b""
                if not raw:
                    done = True
                    return decomp.flush()
                out = decomp.decompress(raw)
                if out:
                    return out
        except zlib.error as exc:
            raise ContainerFormatError(f"corrupt compressed stream: {exc}") from exc
        return b""

    return read


def _frames(buf: bytes, pos: int, read, label, exact: bool) -> Iterator[list[tuple[bytes, int]]]:
    """iter_frames' parser over read(n), starting at buf[pos:].  `exact`
    allows exact reads of long payloads: read(n) must be sized in stream
    bytes, which the inflater's reads (sized in compressed bytes) are not."""
    head = _FRAME_HEAD.unpack_from
    crc_at = _CRC_STRUCT.unpack_from
    crc32 = zlib.crc32
    base = -pos  # record stream offset of buf[0], for error reports
    frames = []
    while True:
        end = len(buf)
        while end - pos >= 12:
            length, lencrc = head(buf, pos)
            if crc32(buf[pos : pos + 8]) != lencrc:
                raise CrcMismatchError(f"{label}: length CRC mismatch", base + pos)
            stop = pos + RECORD_OVERHEAD + length
            if stop > end:
                break
            frames.append((buf[pos + 12 : stop - 4], crc_at(buf, stop - 4)[0]))
            pos = stop
        if frames:
            yield frames
            frames = []
        have = end - pos
        # bytes still missing from a record whose checked length is buffered
        missing = head(buf, pos)[0] + RECORD_OVERHEAD - have if have >= 12 else 0
        if exact and missing >= _EXACT_READ:
            # the rest of the payload, then its CRC and the next frame head
            rest = read(missing - 4)
            tail = read(4 + 12) if len(rest) == missing - 4 else b""
            if len(tail) >= 4:
                payload = rest if have == 12 else b"".join((memoryview(buf)[pos + 12 :], rest))
                frames.append((payload, crc_at(tail)[0]))
                base += end + len(rest)
                buf, pos = tail, 4
                continue
            chunk = rest + tail  # not the sizes asked for: frame it as read
        else:
            chunk = read(missing + _READ_SIZE)
        if not chunk:
            if have:
                raise TruncatedRecordError(f"{label}: stream ends inside a record")
            return
        if missing >= 4 and len(chunk) >= missing:
            # the record spans both buffers: join its payload, parse on in chunk
            payload = b"".join((memoryview(buf)[pos + 12 :], memoryview(chunk)[: missing - 4]))
            frames.append((payload, crc_at(chunk, missing - 4)[0]))
            base += end
            buf, pos = chunk, missing
        else:
            base += pos
            buf = buf[pos:] + chunk if have else chunk
            pos = 0


def verify_payload(payload: bytes, stored_crc: int, label="record", offset: int = 0) -> None:
    if zlib.crc32(payload) != stored_crc:
        raise CrcMismatchError(f"{label}: payload CRC mismatch", offset + 12)


def frames_from_bytes(
    data: bytes, compression: Compression | None = None, label="memory"
) -> Iterator[tuple[bytes, int]]:
    """(payload, stored_payload_crc) per record of an in-memory copy of a
    container file; framing and the length CRC are verified."""
    for frames in iter_frames(io.BytesIO(data), label, compression):
        yield from frames


def iter_shard(
    path: str | Path,
    compression: Compression | None = None,
    backend: StorageBackend | None = None,
) -> Iterator[Tensor]:
    """Yield tensors from one shard, verifying both CRCs per record."""
    backend = backend or StorageBackend()
    with backend.open_read(path) as fh:
        offset = 0
        for frames in iter_frames(fh, path, compression):
            for payload, crc in frames:
                verify_payload(payload, crc, path, offset)
                offset += RECORD_OVERHEAD + len(payload)
                yield decode_tensor(payload)


def read_container(
    paths: Sequence[str | Path],
    compression: Compression | None = None,
    backend: StorageBackend | None = None,
) -> Iterator[Tensor]:
    """Yield tensors from shard files, interleaving shards round-robin so a
    round-robin-written container comes back in its original order."""
    iters: list[Iterator[Tensor] | None] = [
        iter_shard(p, compression, backend) for p in paths
    ]
    live = len(iters)
    while live:
        for i, it in enumerate(iters):
            if it is None:
                continue
            try:
                yield next(it)
            except StopIteration:
                iters[i] = None
                live -= 1
