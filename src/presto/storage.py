"""Storage backends with I/O accounting, and the pacer that charges modeled time.

Two backends share one interface: LocalFs passes straight through to the
filesystem, Simulated adds wall-clock charges on top of real local files so
a laptop can stand in for a saturated network filesystem.  The simulated
charges are:

  * open_latency seconds per file open,
  * a bandwidth lane shared by all workers limiting aggregate bytes/second,
  * an iops lane limiting chunk-granule operations/second.

Both lanes live in one Pacer, a token bucket StorageBackend.BURST seconds
deep.  Each read or write makes one reservation covering both, booked from
the moment it was requested so the real I/O counts against it: on each lane
it starts where that lane's last reservation finished, or up to BURST
earlier if the lane sat idle, and the caller sleeps once, until the later of
the two finishes.  The bank absorbs late wake-ups and a reader's own work
between reads, so the long-run rate is the configured one however coarsely
the host sleeps.  A handle's reservations never start before its own first
request and never overlap the lane's earlier ones, so reading N bytes
through one handle always takes at least N/bandwidth seconds, and a single
stream is capped at min(bandwidth, chunk * iops_cap).

The same Pacer, one per worker thread, charges the modeled CPU time of
steps (see steps.py).
"""

from __future__ import annotations

import enum
import errno
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable


class StorageFullError(OSError):
    """Backing store ran out of space."""


class IoFailureError(OSError):
    """Unclassified I/O failure from the backing store."""


def _wrap_oserror(exc: OSError) -> OSError:
    if isinstance(exc, FileNotFoundError):
        return exc
    if exc.errno == errno.ENOSPC:
        return StorageFullError(*exc.args)
    return IoFailureError(*(exc.args or (str(exc),)))


class BackendKind(enum.Enum):
    LOCAL = "local"
    SIMULATED = "simulated"


@dataclass(frozen=True)
class BackendConfig:
    kind: BackendKind = BackendKind.LOCAL
    bandwidth: float = 91_000_000.0  # bytes/s, shared by every worker
    open_latency: float = 0.04  # seconds per file open
    iops_cap: float = 22_200.0  # chunk-granule ops/s
    chunk: int = 65536  # accounting granule in bytes

    def __post_init__(self) -> None:
        # checked whatever the kind: a local store ignores these values, but
        # a bad one is still a mistake in what was asked for
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be > 0")
        if not self.open_latency >= 0:
            raise ValueError("open_latency must be >= 0")
        if not self.iops_cap > 0:
            raise ValueError("iops_cap must be > 0")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")

    @classmethod
    def local(cls) -> "BackendConfig":
        return cls(kind=BackendKind.LOCAL)

    @classmethod
    def simulated_default(cls) -> "BackendConfig":
        """Desk-scale profile: one tenth of a saturated 8-reader network
        store, with per-open costs that keep the sequential:small-file gap."""
        return cls(
            kind=BackendKind.SIMULATED,
            bandwidth=91_000_000.0,
            open_latency=0.04,
            iops_cap=22_200.0,
            chunk=65536,
        )


@dataclass(frozen=True)
class IoSnapshot:
    bytes_read: int = 0
    bytes_written: int = 0
    opens: int = 0
    read_seconds: float = 0.0

    def delta(self, earlier: "IoSnapshot") -> "IoSnapshot":
        return IoSnapshot(
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            opens=self.opens - earlier.opens,
            read_seconds=self.read_seconds - earlier.read_seconds,
        )


class IoCounters:
    """Thread-safe monotone counters for one backend instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._bytes_read = 0
        self._bytes_written = 0
        self._opens = 0
        self._read_seconds = 0.0

    def add_read(self, nbytes: int, seconds: float) -> None:
        with self._lock:
            self._bytes_read += nbytes
            self._read_seconds += seconds

    def add_write(self, nbytes: int) -> None:
        with self._lock:
            self._bytes_written += nbytes

    def add_open(self) -> None:
        with self._lock:
            self._opens += 1

    def snapshot(self) -> IoSnapshot:
        with self._lock:
            return IoSnapshot(
                bytes_read=self._bytes_read,
                bytes_written=self._bytes_written,
                opens=self._opens,
                read_seconds=self._read_seconds,
            )


class Pacer:
    """Charges modeled time on one or more lanes, each draining at its own
    rate (units per second).

    reserve() books an amount on every lane at once: on each lane the
    booking starts where that lane's previous one finished, or at the
    request if the lane sat idle, and never before `floor`; it returns the
    latest finish.  wait() then sleeps until that finish, once.  When the
    sleep wakes late, the lateness (capped at MAX_CREDIT) becomes the
    calling thread's credit: its next booking may start that much before it
    was requested, and lateness that booking does not use up stays owed to
    the one after.  Only late wake-ups earn credit, so work a caller does
    between bookings is not hidden, and the long-run rate of every lane is
    the configured one.

    A Pacer built with burst > 0 is a token bucket of that depth: a lane
    banks up to `burst` seconds of its idle time, so a booking may start
    that long before it was requested (and still never before `floor`).
    """

    MAX_CREDIT = 0.002  # most lateness, in seconds, credited to the next booking

    def __init__(self, *rates: float, burst: float = 0.0) -> None:
        if not rates or min(rates) <= 0:
            raise ValueError("rates must be > 0")
        if burst < 0:
            raise ValueError("burst must be >= 0")
        self._rates = rates
        self._burst = burst
        self._lock = threading.Lock()
        self._free_at = [-math.inf] * len(rates)
        self._owed = threading.local()  # .credit: this thread's unpaid lateness

    def reserve(
        self, *amounts: float, floor: float = -math.inf, at: float | None = None
    ) -> float:
        """Book amounts[i] units on lane i for a request made at `at` (by
        default now); returns when the last lane is done."""
        requested = time.perf_counter() if at is None else at
        credit = getattr(self._owed, "credit", 0.0)
        with self._lock:
            earliest = max(requested - max(credit, self._burst), floor)
            finish = earliest
            for lane, (amount, rate) in enumerate(zip(amounts, self._rates)):
                if amount > 0:
                    done = max(self._free_at[lane], earliest) + amount / rate
                    self._free_at[lane] = done
                    finish = max(finish, done)
        self._owed.credit = min(credit, max(0.0, requested - finish))
        return finish

    def wait(self, finish: float) -> None:
        """Sleep until `finish`; lateness on waking becomes credit."""
        remaining = finish - time.perf_counter()
        if remaining <= 0:
            return  # nothing slept, so nothing to credit
        while remaining > 0:
            time.sleep(remaining)
            remaining = finish - time.perf_counter()
        self._owed.credit = min(-remaining, self.MAX_CREDIT)

    def consume(self, *amounts: float) -> None:
        """Book amounts starting no earlier than now, and wait them out."""
        self.wait(self.reserve(*amounts, floor=time.perf_counter()))


class _BackendFile:
    """File-like handle that reports I/O to the owning backend and, on a
    simulated store, paces it."""

    def __init__(self, backend: "StorageBackend") -> None:
        self._backend = backend
        self._consumed = 0  # cumulative payload bytes for iops accounting
        self._ops_charged = 0
        self._first_request: float | None = None

    def _charge(self, nbytes: int, requested: float) -> None:
        """One reservation on the bandwidth and iops lanes, slept once."""
        pacer = self._backend.pacer
        if pacer is None or nbytes <= 0:
            return
        if self._first_request is None:
            self._first_request = requested
        self._consumed += nbytes
        ops_needed = -(-self._consumed // self._backend.config.chunk)  # ceil division
        ops = ops_needed - self._ops_charged
        self._ops_charged = ops_needed
        pacer.wait(pacer.reserve(nbytes, ops, floor=self._first_request, at=requested))

    def __enter__(self) -> "_BackendFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _ReadHandle(_BackendFile):
    """Reads through a bare descriptor: one os.read per read(n), and a
    whole-file read() sized by fstat, so no buffered file object is built
    or copied through per open."""

    _READ_ON = 1 << 16  # bytes per further read when a file outgrew its fstat size

    def __init__(self, backend: "StorageBackend", fd: int) -> None:
        super().__init__(backend)
        self._fd = fd

    def read(self, n: int = -1) -> bytes:
        t0 = time.perf_counter()
        try:
            data = os.read(self._fd, n) if n >= 0 else self._read_all()
        except OSError as exc:
            raise _wrap_oserror(exc) from exc
        self._charge(len(data), t0)
        self._backend.counters.add_read(len(data), time.perf_counter() - t0)
        return data

    def _read_all(self) -> bytes:
        # one byte past the size, so a read that comes back short is at the end
        want = os.fstat(self._fd).st_size + 1
        data = os.read(self._fd, want)
        if len(data) < want:
            return data
        parts = [data]
        while chunk := os.read(self._fd, self._READ_ON):
            parts.append(chunk)
        return b"".join(parts)

    def close(self) -> None:
        fd, self._fd = self._fd, -1
        if fd >= 0:
            try:
                os.close(fd)
            except OSError as exc:
                raise _wrap_oserror(exc) from exc

    def __del__(self) -> None:
        # a handle dropped without close() must not leak its descriptor
        if self._fd >= 0:
            os.close(self._fd)


class _WriteHandle(_BackendFile):
    """Writes through a buffered file object."""

    def __init__(self, backend: "StorageBackend", fh) -> None:
        super().__init__(backend)
        self._fh = fh

    def write(self, data: bytes) -> int:
        t0 = time.perf_counter()
        try:
            self._fh.write(data)
        except OSError as exc:
            raise _wrap_oserror(exc) from exc
        self._charge(len(data), t0)
        self._backend.counters.add_write(len(data))
        return len(data)

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError as exc:
            raise _wrap_oserror(exc) from exc


class StorageBackend:
    """Reads and writes real local files, optionally charging simulated
    delays.  Metadata operations (size, exists) are free."""

    BURST = 0.010  # seconds of idle time a simulated lane banks, as a token bucket

    def __init__(self, config: BackendConfig | None = None) -> None:
        self.config = config or BackendConfig.local()
        self.counters = IoCounters()
        # lanes: bytes at `bandwidth`, chunk-granule operations at `iops_cap`
        self.pacer: Pacer | None = None
        if self.config.kind is BackendKind.SIMULATED:
            self.pacer = Pacer(self.config.bandwidth, self.config.iops_cap, burst=self.BURST)

    def open_read(self, path: str | Path) -> _ReadHandle:
        self._charge_open()
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError as exc:
            raise _wrap_oserror(exc) from exc
        return _ReadHandle(self, fd)

    def open_write(self, path: str | Path) -> _WriteHandle:
        self._charge_open()
        path = Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(path, "wb")
        except OSError as exc:
            raise _wrap_oserror(exc) from exc
        return _WriteHandle(self, fh)

    def _charge_open(self) -> None:
        self.counters.add_open()
        if self.config.kind is BackendKind.SIMULATED and self.config.open_latency > 0:
            time.sleep(self.config.open_latency)

    def size(self, path: str | Path) -> int:
        try:
            return os.stat(path).st_size
        except OSError as exc:
            raise _wrap_oserror(exc) from exc

    def exists(self, path: str | Path) -> bool:
        return os.path.exists(path)

    def remove(self, path: str | Path) -> None:
        try:
            os.remove(path)
        except OSError as exc:
            raise _wrap_oserror(exc) from exc


def make_backend(config: BackendConfig) -> StorageBackend:
    return StorageBackend(config)


@dataclass(frozen=True)
class ProbeReport:
    """Measured behavior of a backend under a fio-shaped access pattern."""

    workers: int
    files_per_worker: int
    total_bytes: int
    seconds: float
    bandwidth: float  # bytes/s aggregate during the read phase
    iops: float  # bandwidth expressed as 4 KiB operations/s
    opens_per_second: float

    ROW_FIELDS = ("workers", "files_per_worker", "bandwidth", "iops")

    def to_row(self) -> dict[str, float]:
        return {
            "workers": self.workers,
            "files_per_worker": self.files_per_worker,
            "bandwidth": self.bandwidth,
            "iops": self.iops,
        }


def check_probe_point(workers: int, files_per_worker: int, total_bytes_per_worker: int) -> None:
    """Raise ValueError unless probe_storage can run this grid point."""
    if workers < 1 or files_per_worker < 1:
        raise ValueError("workers and files_per_worker must be >= 1")
    if total_bytes_per_worker < files_per_worker:
        raise ValueError("need at least one byte per file")


def probe_storage(
    backend: StorageBackend,
    workers: int,
    files_per_worker: int,
    total_bytes_per_worker: int,
    root: str | Path,
    cleanup: bool = True,
) -> ProbeReport:
    """Write a file grid through the backend, read it back with one thread
    per worker, and report aggregate read bandwidth and opens/second."""
    check_probe_point(workers, files_per_worker, total_bytes_per_worker)
    root = Path(root)
    file_bytes = total_bytes_per_worker // files_per_worker
    payload = os.urandom(min(file_bytes, 1 << 20))
    paths: list[list[Path]] = []
    for w in range(workers):
        row = []
        for i in range(files_per_worker):
            p = root / f"w{w:03d}" / f"f{i:05d}.bin"
            with backend.open_write(p) as fh:
                remaining = file_bytes
                while remaining > 0:
                    piece = payload[: min(len(payload), remaining)]
                    fh.write(piece)
                    remaining -= len(piece)
            row.append(p)
        paths.append(row)

    before = backend.counters.snapshot()
    # the read phase is timed inside the workers, from a common start to the
    # last read, so thread start-up and join latency are not charged to it
    ready = threading.Barrier(workers)
    starts: list[float] = []
    ends: list[float] = []

    def read_worker(w: int) -> None:
        ready.wait()
        starts.append(time.perf_counter())
        try:
            for p in paths[w]:
                with backend.open_read(p) as fh:
                    while fh.read(backend.config.chunk):
                        pass
        finally:
            ends.append(time.perf_counter())

    threads = [threading.Thread(target=read_worker, args=(w,)) for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seconds = max(ends) - min(starts)
    delta = backend.counters.snapshot().delta(before)

    if cleanup:
        for row in paths:
            for p in row:
                backend.remove(p)

    bandwidth = delta.bytes_read / seconds if seconds > 0 else 0.0
    return ProbeReport(
        workers=workers,
        files_per_worker=files_per_worker,
        total_bytes=delta.bytes_read,
        seconds=seconds,
        bandwidth=bandwidth,
        iops=bandwidth / 4096.0,
        opens_per_second=delta.opens / seconds if seconds > 0 else 0.0,
    )
