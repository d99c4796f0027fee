"""Online execution engine.

One run = one strategy executed for a number of epochs against a backend.
One reader thread per stream reads the stored form (raw sample files for
split 0 of a many-small-files source, container shards otherwise) through
the backend's read handles, each over a bare descriptor, and hands the
merger full batches of records only: it puts a batch once it holds
_batch_records() records (about what one 64 KiB read of a shard frames; a
record of 64 KiB or more is a batch by itself) and puts the remainder when
its stream ends.  It does not hand off early when its queue runs dry:
the workers drain that queue first, so for raw files that would cost a
thread round trip per file.  Worker threads take single records from the
merger, deserialize them and apply the online step suffix; each worker's
terminal sink counts and hashes what a training loop would have consumed.
A shuffle buffer reorders what the loop sees, so at the end of an epoch it
is run over the delivered hashes, in the order they were delivered, to give
the sequence digest.

Order contract: streams are built so that interleaving them round-robin by
stream index reproduces the original sample order, matching how containers
are written.  With one worker the delivered order is therefore exactly the
source order (plus any shuffle buffer); with several workers delivery order
is racy but the delivered multiset is unchanged, which the digests reflect.
"""

from __future__ import annotations

import collections
import enum
import hashlib
import io
import logging
import queue
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import (
    CacheMode,
    Compression,
    ExecMode,
    Pipeline,
    Strategy,
    Tensor,
    validate_strategy,
)
from .recordio import decode_tensor, encode_header, iter_frames, verify_payload
from .storage import IoSnapshot, StorageBackend
from .steps import calibration_units_per_second, execute_step
from . import workloads

log = logging.getLogger(__name__)

_QUEUE_DEPTH = 2  # per-stream prefetch ceiling, in batches
_PREFETCH_BYTES = 16_000_000  # in-flight byte budget across all streams
_BATCH_RECORDS = 16  # most records a reader gathers before a handoff
_BATCH_BYTES = 1 << 16  # ... and most bytes, unless one record is larger


def _batch_records(record_bytes: float) -> int:
    """Records a reader gathers per handoff: up to _BATCH_RECORDS, held to
    _BATCH_BYTES for larger records (one record is always allowed)."""
    if record_bytes <= 0:
        return _BATCH_RECORDS
    return max(1, min(_BATCH_RECORDS, int(_BATCH_BYTES // record_bytes)))


def _queue_depth(batch_bytes: float, n_streams: int) -> int:
    """Batches to prefetch per stream.  Small batches get the full window;
    multi-MB ones are held to roughly the byte budget so in-flight data does
    not balloon (one per stream is always allowed)."""
    if batch_bytes <= 0:
        return _QUEUE_DEPTH
    fit = int(_PREFETCH_BYTES / (batch_bytes * max(n_streams, 1)))
    return max(1, min(_QUEUE_DEPTH, fit))


class EngineError(RuntimeError):
    pass


class MaterializationMissingError(EngineError):
    """A strategy with an offline prefix was run without its materialization."""


class CacheOutcome(enum.Enum):
    DISABLED = "disabled"
    POPULATED = "populated"
    SERVED = "served"
    OVERFLOWED = "overflowed"


@dataclass(frozen=True)
class RunConfig:
    epochs: int = 1
    sample_limit: int | None = None
    memory_budget: int = 2_000_000_000  # bytes available to caches
    rng_seed: int = 0
    collect_digests: bool = False
    trace_path: Path | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.sample_limit is not None and self.sample_limit < 1:
            raise ValueError("sample_limit must be >= 1 when set")
        if self.memory_budget < 1:
            raise ValueError("memory_budget must be positive")


@dataclass(frozen=True)
class EpochStats:
    epoch: int  # 1-based
    samples: int
    wall_seconds: float
    throughput: float  # samples / wall_seconds
    io: IoSnapshot  # deltas for this epoch only
    cache: CacheOutcome
    multiset_digest: str | None = None
    # ordered digest: only when one worker delivers, since with several
    # the delivery order is a race
    sequence_digest: str | None = None


@dataclass(frozen=True)
class MaterializedDataset:
    """Where a strategy's offline output lives."""

    paths: tuple[Path, ...]
    bytes: int
    sample_count: int
    compression: Compression


def shuffle_stream(stream: Iterable, capacity: int, rng: random.Random) -> Iterator:
    """Reservoir-style streaming shuffle with a bounded buffer.

    Fill the buffer, then for each arrival emit a uniformly chosen slot and
    reuse it; drain in random order.  capacity 1 degenerates to the identity
    order, matching an unshuffled loader.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    buf = []
    for item in stream:
        if len(buf) < capacity:
            buf.append(item)
            continue
        j = rng.randrange(capacity)
        out = buf[j]
        buf[j] = item
        yield out
    while buf:
        yield buf.pop(rng.randrange(len(buf)))


class _Accumulator:
    """Terminal consumer of one worker: counts the delivered tensors and
    hashes each one (SHA-256 of its encoded payload).  The multiset digest
    XORs the hashes; when `ordered`, the hashes are also kept in delivery
    order for the sequence digest.  The accumulators of an epoch's workers
    merge into one."""

    def __init__(self, collect_digests: bool, ordered: bool) -> None:
        self.count = 0
        self._collect = collect_digests
        self._xor = 0
        self._hashes: list[bytes] | None = [] if collect_digests and ordered else None

    def __call__(self, tensor: Tensor) -> None:
        self.count += 1
        if not self._collect:
            return
        h = hashlib.sha256(encode_header(tensor))
        h.update(tensor.buffer)
        digest = h.digest()
        self._xor ^= int.from_bytes(digest, "big")
        if self._hashes is not None:
            self._hashes.append(digest)

    def merge(self, other: "_Accumulator") -> None:
        self.count += other.count
        self._xor ^= other._xor

    @property
    def multiset_digest(self) -> str | None:
        return self._xor.to_bytes(32, "big").hex() if self._collect else None

    def sequence_digest(self, shuffle_buffer: int, rng: random.Random) -> str | None:
        """Digest of the hashes in the order a training loop would see
        them: delivery order, passed through the shuffle buffer if any."""
        if self._hashes is None:
            return None
        order = self._hashes
        if shuffle_buffer > 0:
            order = shuffle_stream(order, shuffle_buffer, rng)
        return hashlib.sha256(b"".join(order)).hexdigest()


class _StopPipeline(Exception):
    pass


class _Merger:
    """Round-robin merge of per-stream queues of record batches, restoring
    global order.

    Readers put lists of (value, crc) records or an end sentinel; workers
    call next_item() for one (seq, value, crc) at a time.  Each stream's
    batches are unpacked into a local deque, so the merger waits on a
    stream's queue once per batch.  The seq of a stream's r-th record is
    r * n_streams + stream index.  A sample_limit makes next_item() report
    exhaustion early and flips the stop event so readers bail out.
    """

    _END = object()

    def __init__(self, queues: Sequence[queue.Queue], limit: int | None, stop: threading.Event):
        self._queues = queues
        self._n = len(queues)
        self._limit = limit
        self._stop = stop
        self._lock = threading.Lock()
        self._cursor = 0
        self._local = [collections.deque() for _ in queues]
        self._records = [0] * self._n  # records taken so far, per stream
        self._live = [True] * self._n
        self._live_count = self._n
        self._taken = 0

    def next_item(self) -> tuple[int, object, int | None] | None:
        with self._lock:
            while True:
                if self._live_count == 0 or (
                    self._limit is not None and self._taken >= self._limit
                ):
                    self._stop.set()
                    return None
                i = self._cursor
                self._cursor = i + 1 if i + 1 < self._n else 0
                local = self._local[i]
                if not local:
                    if not self._live[i]:
                        continue
                    got = self._queues[i].get()
                    if got is self._END:
                        self._live[i] = False
                        self._live_count -= 1
                        continue
                    local.extend(got)
                value, crc = local.popleft()
                r = self._records[i]
                self._records[i] = r + 1
                self._taken += 1
                return r * self._n + i, value, crc

    @classmethod
    def end_sentinel(cls):
        return cls._END


def _put_until(q: queue.Queue, item, stop: threading.Event) -> None:
    while not stop.is_set():
        try:
            q.put(item, timeout=0.05)
            return
        except queue.Full:
            continue
    raise _StopPipeline


class _SerializedCache:
    """Raw on-store bytes per stream.  Replays re-run header parsing,
    decompression, framing and deserialization; only the backend reads are
    skipped."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._lock = threading.Lock()
        self._used = 0
        self.overflowed = False
        self.streams: list[list[bytes]] | None = None

    def prepare(self, n_streams: int) -> None:
        self.streams = [[] for _ in range(n_streams)]

    def add(self, stream_idx: int, blob: bytes) -> None:
        with self._lock:
            if self.overflowed:
                return
            self._used += len(blob)
            if self._used > self.budget:
                self.overflowed = True
                self.streams = None
                return
            self.streams[stream_idx].append(blob)

    @property
    def ready(self) -> bool:
        return self.streams is not None and not self.overflowed


class _SampleCache:
    """Deserialized tensors keyed by sample position.  Replays skip reads and
    deserialization both; accounting charges tensor bytes plus a fixed
    per-entry overhead."""

    ENTRY_OVERHEAD = 64

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._lock = threading.Lock()
        self._used = 0
        self.overflowed = False
        self.by_seq: dict[int, Tensor] | None = {}

    def add(self, seq: int, tensor: Tensor) -> None:
        with self._lock:
            if self.overflowed:
                return
            self._used += tensor.nbytes + self.ENTRY_OVERHEAD
            if self._used > self.budget:
                self.overflowed = True
                self.by_seq = None
                return
            self.by_seq[seq] = tensor

    @property
    def ready(self) -> bool:
        return self.by_seq is not None and not self.overflowed

    def streams_for(self, n_streams: int) -> list[list[tuple[Tensor, None]]]:
        out = [[] for _ in range(n_streams)]
        for seq in sorted(self.by_seq):
            out[seq % n_streams].append((self.by_seq[seq], None))
        return out


class _Trace:
    def __init__(self, path: Path | None) -> None:
        self._fh = open(path, "a", encoding="utf-8") if path else None
        self._lock = threading.Lock()

    def emit(self, epoch: int, worker: int, stage: str, start_ns: int, end_ns: int) -> None:
        if self._fh is None:
            return
        with self._lock:
            self._fh.write(f"{epoch}\t{worker}\t{stage}\t{start_ns}\t{end_ns}\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def _read_file_bytes(backend: StorageBackend, path: Path) -> bytes:
    with backend.open_read(path) as fh:
        return fh.read()


def _file_batches(
    backend: StorageBackend,
    paths: Sequence[Path],
    cache: _SerializedCache | None,
    stream_idx: int,
) -> Iterator[list[tuple[bytes, None]]]:
    """One raw sample file per record."""
    for path in paths:
        blob = _read_file_bytes(backend, path)
        if cache is not None:
            cache.add(stream_idx, blob)
        yield [(blob, None)]


class _Tee:
    """File-like over a backend handle that keeps every chunk it reads."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self.parts: list[bytes] = []

    def read(self, n: int) -> bytes:
        chunk = self._fh.read(n)
        self.parts.append(chunk)
        return chunk


def _shard_batches(
    backend: StorageBackend,
    path: Path,
    compression: Compression | None,
    record_bytes: float,
    cache: _SerializedCache | None,
    stream_idx: int,
) -> Iterator[list[tuple[bytes, int]]]:
    """The records of one container shard, as framed per read."""
    with backend.open_read(path) as raw:
        fh = _Tee(raw) if cache is not None else raw
        yield from iter_frames(fh, path, compression, record_bytes)
    if cache is not None:
        cache.add(stream_idx, b"".join(fh.parts))


def _mix_seed(seed: int, epoch: int, seq: int, step_idx: int) -> int:
    # ints only, so the result is stable across interpreter runs
    return hash((seed, epoch, seq, step_idx))


def run_online(
    strategy: Strategy,
    pipeline: Pipeline,
    backend: StorageBackend,
    config: RunConfig,
    materialized: MaterializedDataset | None = None,
) -> list[EpochStats]:
    """Execute the online phase of a strategy for config.epochs epochs."""
    validate_strategy(strategy, pipeline)
    m = strategy.split_index
    source = pipeline.source
    if m >= 1 and materialized is None:
        raise MaterializationMissingError(
            f"strategy {strategy.id} needs its offline prefix materialized first"
        )
    # framed streams read container shards, one stream per shard: the
    # materialized ones, or the source's own when it is stored packed
    framed = m >= 1 or source.layout is workloads.Layout.CONTAINERS
    if m >= 1:
        shard_list = list(materialized.paths)
        compression = materialized.compression
        record_bytes = materialized.bytes / max(materialized.sample_count, 1)
    else:
        files = workloads.source_paths(source)
        shard_list = files
        compression = None  # whatever the source shards' headers say
        record_bytes = float(source.bytes_per_sample)
    if framed:
        n_streams = len(shard_list)
    else:
        if config.sample_limit is None:
            total = len(files)
        else:
            total = min(len(files), config.sample_limit)
        n_streams = min(strategy.parallelism, max(total, 1))
    batch_records = _batch_records(record_bytes)
    depth = _queue_depth(batch_records * record_bytes, n_streams)

    online_steps = [
        (i, step, step.exec_mode is ExecMode.EXCLUSIVE, step.deterministic)
        for i, step in enumerate(pipeline.steps)
        if i >= max(m, 1)
    ]
    if any(step.compute_cost > 0 for _, step, _, _ in online_steps):
        calibration_units_per_second()  # measured now, not inside the first epoch
    gate = threading.Lock()
    trace = _Trace(config.trace_path)
    tracing = config.trace_path is not None
    n_workers = strategy.parallelism

    ser_cache: _SerializedCache | None = None
    smp_cache: _SampleCache | None = None
    if strategy.cache_mode is not CacheMode.NO_CACHE:
        # projection uses the stored footprint; the sample cache holds the
        # deserialized twin of the same bytes plus bookkeeping
        projected = materialized.bytes if m >= 1 else source.total_bytes
        if config.sample_limit is not None:
            log.warning("cache disabled: sample_limit would populate a partial cache")
        elif projected > config.memory_budget:
            log.warning(
                "cache disabled before run: needs ~%d B, budget %d B",
                projected,
                config.memory_budget,
            )
        elif strategy.cache_mode is CacheMode.SERIALIZED:
            ser_cache = _SerializedCache(config.memory_budget)
        else:
            smp_cache = _SampleCache(config.memory_budget)

    def verify_and_decode(value: bytes, crc: int) -> Tensor:
        verify_payload(value, crc)
        return decode_tensor(value)

    source_dtype = source.dtype

    def wrap_raw(value: bytes, crc: None) -> Tensor:
        return Tensor(source_dtype, (len(value) // source_dtype.width,), value)

    def as_is(value: Tensor, crc: None) -> Tensor:
        return value

    stats: list[EpochStats] = []
    try:
        for epoch in range(1, config.epochs + 1):
            before = backend.counters.snapshot()
            start = time.perf_counter()

            serving_ser = ser_cache is not None and ser_cache.ready and epoch > 1
            serving_smp = smp_cache is not None and smp_cache.ready and epoch > 1
            populate_ser = ser_cache is not None and epoch == 1
            populate_smp = smp_cache is not None and epoch == 1
            if populate_ser:
                ser_cache.prepare(n_streams)

            stop = threading.Event()
            queues = [queue.Queue(maxsize=depth) for _ in range(n_streams)]
            merger = _Merger(queues, config.sample_limit, stop)
            errors: list[BaseException] = []

            if serving_smp:
                load = as_is
                sources = [[batch] for batch in smp_cache.streams_for(n_streams)]
            elif serving_ser and framed:
                load = verify_and_decode
                sources = [
                    iter_frames(io.BytesIO(blobs[0]), "cache", compression, record_bytes)
                    for blobs in ser_cache.streams
                ]
            elif serving_ser:
                load = wrap_raw
                sources = [[[(b, None) for b in blobs]] for blobs in ser_cache.streams]
            elif framed:
                load = verify_and_decode
                tee = ser_cache if populate_ser else None
                sources = [
                    _shard_batches(backend, path, compression, record_bytes, tee, idx)
                    for idx, path in enumerate(shard_list)
                ]
            else:
                load = wrap_raw
                tee = ser_cache if populate_ser else None
                sources = [
                    _file_batches(backend, files[idx:total:n_streams], tee, idx)
                    for idx in range(n_streams)
                ]

            def reader_main(idx: int, batches: Iterable[list]) -> None:
                q = queues[idx]
                try:
                    pending: list = []
                    for batch in batches:
                        if stop.is_set():
                            raise _StopPipeline
                        if pending:
                            pending += batch
                        else:
                            pending = batch
                        if len(pending) >= batch_records:
                            _put_until(q, pending, stop)
                            pending = []
                    if pending:
                        _put_until(q, pending, stop)
                except _StopPipeline:
                    pass
                except BaseException as exc:  # propagated after join
                    errors.append(exc)
                    stop.set()
                finally:
                    close = getattr(batches, "close", None)
                    if close is not None:
                        close()
                    # the end marker must always land, even into a full queue
                    # nobody is draining any more
                    while True:
                        try:
                            q.put_nowait(_Merger.end_sentinel())
                            return
                        except queue.Full:
                            if stop.is_set():
                                try:
                                    q.get_nowait()
                                except queue.Empty:
                                    pass
                            else:
                                time.sleep(0.005)

            readers = [
                threading.Thread(target=reader_main, args=(idx, src), daemon=True)
                for idx, src in enumerate(sources)
            ]
            for t in readers:
                t.start()

            # each worker feeds its own accumulator, merged after join; only
            # one worker's delivery order is reproducible
            ordered = n_workers == 1
            accs = [_Accumulator(config.collect_digests, ordered) for _ in range(n_workers)]

            def worker_main(widx: int) -> None:
                deliver = accs[widx]
                next_item = merger.next_item
                try:
                    while True:
                        item = next_item()
                        if item is None:
                            return
                        seq, value, crc = item
                        if tracing:
                            t0 = time.perf_counter_ns()
                        tensor = load(value, crc)
                        if tracing:
                            trace.emit(epoch, widx, "deserialize", t0, time.perf_counter_ns())
                        if populate_smp:
                            # cache the load product; transforms still run
                            # every epoch so random steps stay per-epoch fresh
                            smp_cache.add(seq, tensor)
                        for step_idx, step, exclusive, deterministic in online_steps:
                            rng = (
                                None
                                if deterministic
                                else random.Random(
                                    _mix_seed(config.rng_seed, epoch, seq, step_idx)
                                )
                            )
                            if tracing:
                                t1 = time.perf_counter_ns()
                            if exclusive:
                                with gate:
                                    tensor = execute_step(step, tensor, rng=rng)
                            else:
                                tensor = execute_step(step, tensor, rng=rng)
                            if tracing:
                                trace.emit(epoch, widx, step.name, t1, time.perf_counter_ns())
                        deliver(tensor)
                except BaseException as exc:
                    errors.append(exc)
                    stop.set()
                    # unblock peers waiting on queues
                    for q in queues:
                        try:
                            q.put_nowait(_Merger.end_sentinel())
                        except queue.Full:
                            pass

            workers = [
                threading.Thread(target=worker_main, args=(w,), daemon=True)
                for w in range(n_workers)
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
            for t in readers:
                t.join()
            if errors:
                raise errors[0]
            acc = accs[0]
            for other in accs[1:]:
                acc.merge(other)
            sequence_digest = acc.sequence_digest(
                strategy.shuffle_buffer,
                random.Random(_mix_seed(config.rng_seed, epoch, -1, -1)),
            )

            wall = time.perf_counter() - start
            outcome = CacheOutcome.DISABLED
            if strategy.cache_mode is not CacheMode.NO_CACHE:
                if serving_ser or serving_smp:
                    outcome = CacheOutcome.SERVED
                elif epoch == 1 and (populate_ser or populate_smp):
                    active = ser_cache if ser_cache is not None else smp_cache
                    if active is not None and active.overflowed:
                        outcome = CacheOutcome.OVERFLOWED
                        log.warning(
                            "cache overflowed budget %d B while populating", config.memory_budget
                        )
                    elif active is not None and active.ready:
                        outcome = CacheOutcome.POPULATED
            stats.append(
                EpochStats(
                    epoch=epoch,
                    samples=acc.count,
                    wall_seconds=wall,
                    throughput=acc.count / wall if wall > 0 else 0.0,
                    io=backend.counters.snapshot().delta(before),
                    cache=outcome,
                    multiset_digest=acc.multiset_digest,
                    sequence_digest=sequence_digest,
                )
            )
    finally:
        trace.close()
    return stats
