"""Online execution engine.

One run = one strategy executed for a number of epochs against a backend.
Every stored form goes through one stream source, _stream_batches: a
stream is a list of paths, container shards (framed into records) or raw
sample files (one record each), opened through the epoch's opener.  That
is the backend's open_read; in the epoch that populates a serialized
cache, a tee over it that hands the cache each file's bytes once the file
was read without error; in the epochs that replay it, the cache, which
opens a path as an in-memory file over its bytes.  A sample cache replays
deserialized tensors instead, and is the only other source.

One reader thread per stream hands the merger full batches of records
only: it puts a batch once it holds _batch_records() records (about what
one 64 KiB read of a shard frames; a record of 64 KiB or more is a batch
by itself) and puts the remainder when its stream ends.  It does not hand
off early when its queue runs dry: the workers drain that queue first, so
for raw files that would cost a thread round trip per file.  Worker
threads take single records from the merger, deserialize them and apply
the online step suffix; each worker's terminal sink counts and hashes what
a training loop would have consumed.  A shuffle buffer reorders what the
loop sees, so at the end of an epoch it is run over the delivered hashes,
in the order they were delivered, to give the sequence digest.

Order contract: streams are built so that interleaving them round-robin by
stream index reproduces the original sample order, matching how containers
are written.  With one worker the delivered order is therefore exactly the
source order (plus any shuffle buffer); with several workers delivery order
is racy but the delivered multiset is unchanged, which the digests reflect.
"""

from __future__ import annotations

import collections
import contextlib
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
from typing import Callable, Iterable, Iterator, Sequence

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
_END = object()  # a reader's last item: its stream is done


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

    Readers put lists of (value, crc) records, then _END; workers
    call next_item() for one (seq, value, crc) at a time.  Each stream's
    batches are unpacked into a local deque, so the merger waits on a
    stream's queue once per batch.  The seq of a stream's r-th record is
    r * n_streams + stream index.  A sample_limit makes next_item() report
    exhaustion early and flips the stop event so readers bail out.
    """

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
                    if got is _END:
                        self._live[i] = False
                        self._live_count -= 1
                        continue
                    local.extend(got)
                value, crc = local.popleft()
                r = self._records[i]
                self._records[i] = r + 1
                self._taken += 1
                return r * self._n + i, value, crc


def _put_until(q: queue.Queue, item, stop: threading.Event) -> None:
    while not stop.is_set():
        try:
            q.put(item, timeout=0.05)
            return
        except queue.Full:
            continue
    raise _StopPipeline


class _SerializedCache(dict):
    """Raw on-store bytes by path, and an opener over them: open_read gives
    an in-memory file per path, so a replay re-runs header parsing,
    decompression, framing and deserialization; only the backend reads
    are skipped."""

    def __init__(self, budget: int) -> None:
        super().__init__()
        self.budget = budget
        self._lock = threading.Lock()
        self._used = 0
        self.overflowed = False

    def add(self, path: Path, blob: bytes) -> None:
        with self._lock:
            if self.overflowed:
                return
            self._used += len(blob)
            if self._used > self.budget:
                self.overflowed = True
                self.clear()
                return
            self[path] = blob

    def open_read(self, path: Path) -> io.BytesIO:
        return io.BytesIO(self[path])

    def tee(self, open_read: Callable[[Path], object]) -> Callable[[Path], "_Tee"]:
        """An opener over `open_read` whose handles populate this cache."""
        return lambda path: _Tee(open_read(path), path, self)


class _Tee(contextlib.AbstractContextManager):
    """Read handle over `fh` that keeps every chunk it reads, and hands the
    file's bytes to the cache if it is closed after a read without error."""

    def __init__(self, fh, path: Path, cache: _SerializedCache) -> None:
        self._fh = fh
        self._path = path
        self._cache = cache
        self._parts: list[bytes] = []

    def read(self, n: int = -1) -> bytes:
        chunk = self._fh.read(n)
        self._parts.append(chunk)
        return chunk

    def __exit__(self, exc_type, *exc_info) -> None:
        self._fh.close()
        if exc_type is None:
            self._cache.add(self._path, b"".join(self._parts))


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


def _read_file_bytes(backend: StorageBackend, path: Path) -> bytes:
    with backend.open_read(path) as fh:
        return fh.read()


def _stream_batches(
    open_read: Callable[[Path], object],
    paths: Sequence[Path],
    framed: bool,
    compression: Compression | None,
    record_bytes: float,
) -> Iterator[list[tuple[bytes, int | None]]]:
    """One stream's records, path by path: a container shard's as framed
    per read, or a raw sample file's bytes as one record, read and closed
    before it is handed on."""
    for path in paths:
        if framed:
            with open_read(path) as fh:
                yield from iter_frames(fh, path, compression, record_bytes)
        else:
            with open_read(path) as fh:
                blob = fh.read()
            yield [(blob, None)]


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
        paths = list(materialized.paths)
        compression = materialized.compression
        record_bytes = materialized.bytes / max(materialized.sample_count, 1)
    else:
        paths = workloads.source_paths(source)
        compression = None  # whatever the source shards' headers say
        record_bytes = float(source.bytes_per_sample)
    total = len(paths)
    if not framed and config.sample_limit is not None:
        total = min(total, config.sample_limit)
    n_streams = total if framed else min(strategy.parallelism, max(total, 1))
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

    if framed:
        def load_stored(value: bytes, crc: int) -> Tensor:
            verify_payload(value, crc)
            return decode_tensor(value)
    else:
        source_dtype = source.dtype

        def load_stored(value: bytes, crc: None) -> Tensor:
            return Tensor(source_dtype, (len(value) // source_dtype.width,), value)

    def as_is(value: Tensor, crc: None) -> Tensor:
        return value

    stats: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        before = backend.counters.snapshot()
        start = time.perf_counter()

        serving_ser = ser_cache is not None and not ser_cache.overflowed and epoch > 1
        serving_smp = smp_cache is not None and smp_cache.ready and epoch > 1
        populate_ser = ser_cache is not None and epoch == 1
        populate_smp = smp_cache is not None and epoch == 1

        stop = threading.Event()
        queues = [queue.Queue(maxsize=depth) for _ in range(n_streams)]
        merger = _Merger(queues, config.sample_limit, stop)
        errors: list[BaseException] = []

        if serving_smp:
            load = as_is
            sources = [[batch] for batch in smp_cache.streams_for(n_streams)]
        else:
            load = load_stored
            if serving_ser:
                open_read = ser_cache.open_read
            elif populate_ser:
                open_read = ser_cache.tee(backend.open_read)
            else:
                open_read = backend.open_read
            sources = [
                _stream_batches(
                    open_read, paths[idx:total:n_streams], framed, compression, record_bytes
                )
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
                        q.put_nowait(_END)
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
                    tensor = load(value, crc)
                    if populate_smp:
                        # cache the load product; transforms still run
                        # every epoch so random steps stay per-epoch fresh
                        smp_cache.add(seq, tensor)
                    for step_idx, step, exclusive, deterministic in online_steps:
                        rng = (
                            None
                            if deterministic
                            else random.Random(_mix_seed(config.rng_seed, epoch, seq, step_idx))
                        )
                        if exclusive:
                            with gate:
                                tensor = execute_step(step, tensor, rng=rng)
                        else:
                            tensor = execute_step(step, tensor, rng=rng)
                    deliver(tensor)
            except BaseException as exc:
                errors.append(exc)
                stop.set()
                # unblock peers waiting on queues
                for q in queues:
                    try:
                        q.put_nowait(_END)
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
            elif populate_ser or populate_smp:
                active = ser_cache if populate_ser else smp_cache
                if active.overflowed:
                    outcome = CacheOutcome.OVERFLOWED
                    log.warning(
                        "cache overflowed budget %d B while populating", config.memory_budget
                    )
                else:
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
    return stats
