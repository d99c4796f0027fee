"""Backend tests: throttling laws, counters conservation, probe behavior."""

import gc
import os
import time

import pytest

from presto.core import Compression, DType, Tensor
from presto.recordio import read_container, write_container
from presto.storage import (
    BackendConfig,
    BackendKind,
    IoFailureError,
    Pacer,
    StorageBackend,
    probe_storage,
)


def simulated(**kw):
    base = dict(
        kind=BackendKind.SIMULATED,
        bandwidth=50_000_000.0,
        open_latency=0.0,
        iops_cap=1e9,
        chunk=65536,
    )
    base.update(kw)
    return StorageBackend(BackendConfig(**base))


# ---------------------------------------------------------------- pacer

def test_token_bucket_lower_bound_is_exact():
    bucket = Pacer(1_000_000)
    t0 = time.monotonic()
    bucket.consume(200_000)
    elapsed = time.monotonic() - t0
    assert elapsed >= 0.2  # never faster than rate allows


def test_token_bucket_aggregates_across_threads():
    import threading

    bucket = Pacer(2_000_000)
    t0 = time.monotonic()
    threads = [
        threading.Thread(target=bucket.consume, args=(100_000,)) for _ in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - t0
    assert elapsed >= 0.2  # 400k tokens at 2M/s


# ---------------------------------------------------------------- throttling

def test_simulated_read_never_beats_bandwidth(tmp_path):
    backend = simulated(bandwidth=20_000_000.0)
    payload = bytes(4_000_000)
    p = tmp_path / "f.bin"
    with backend.open_write(p) as fh:
        fh.write(payload)
    t0 = time.monotonic()
    with backend.open_read(p) as fh:
        total = 0
        while chunk := fh.read(65536):
            total += len(chunk)
    elapsed = time.monotonic() - t0
    assert total == len(payload)
    # write charged 0.2s too, but we time only the read: N / bandwidth
    assert elapsed >= len(payload) / 20_000_000.0


def test_simulated_whole_file_read_pays_bandwidth_and_open_latency(tmp_path):
    backend = simulated(bandwidth=20_000_000.0, open_latency=0.05)
    p = tmp_path / "f.bin"
    p.write_bytes(bytes(2_000_000))
    t0 = time.monotonic()
    with backend.open_read(p) as fh:
        data = fh.read()
    elapsed = time.monotonic() - t0
    assert len(data) == 2_000_000
    assert elapsed >= 0.05 + len(data) / 20_000_000.0


def test_single_stream_ceiling_is_chunk_times_iops():
    # derived closed form: rate = min(bandwidth, chunk * iops_cap)
    backend = simulated(bandwidth=100_000_000.0, iops_cap=1000.0, chunk=4096)
    ceiling = min(100_000_000.0, 4096 * 1000.0)
    assert ceiling == 4_096_000.0


def test_probe_matches_closed_form_ceiling(tmp_path):
    backend = simulated(bandwidth=100_000_000.0, iops_cap=1000.0, chunk=4096)
    report = probe_storage(
        backend, workers=1, files_per_worker=1, total_bytes_per_worker=1_000_000, root=tmp_path
    )
    ceiling = 4096 * 1000.0
    assert report.bandwidth == pytest.approx(ceiling, rel=0.25)
    assert report.bandwidth <= ceiling * 1.05
    assert report.iops == pytest.approx(report.bandwidth / 4096.0)


def test_probe_small_files_much_slower_than_sequential(tmp_path):
    backend = simulated(bandwidth=50_000_000.0, open_latency=0.01, iops_cap=1e9)
    seq = probe_storage(
        backend, workers=2, files_per_worker=1, total_bytes_per_worker=1_000_000,
        root=tmp_path / "seq",
    )
    small = probe_storage(
        backend, workers=2, files_per_worker=40, total_bytes_per_worker=200_000,
        root=tmp_path / "small",
    )
    assert small.bandwidth < seq.bandwidth / 3
    assert small.opens_per_second < 2 / 0.01  # opens serialized per worker


def test_open_latency_is_charged_per_open(tmp_path):
    backend = simulated(open_latency=0.05)
    p = tmp_path / "t.bin"
    with backend.open_write(p) as fh:
        fh.write(b"x")
    t0 = time.monotonic()
    with backend.open_read(p) as fh:
        fh.read()
    assert time.monotonic() - t0 >= 0.05


# ---------------------------------------------------------------- counters

def test_counters_conservation_through_recordio(tmp_path):
    backend = simulated(bandwidth=1e9)
    tensors = [Tensor(DType.U8, (100,), bytes(range(100)) * 1) for _ in range(20)]
    stats = write_container(tensors, tmp_path / "c", Compression.NONE, shards=2, backend=backend)
    snap = backend.counters.snapshot()
    assert snap.bytes_written == stats.bytes_written
    assert snap.opens == 2

    before = backend.counters.snapshot()
    got = list(read_container(stats.paths, backend=backend))
    delta = backend.counters.snapshot().delta(before)
    assert got == tensors
    assert delta.bytes_read == stats.bytes_written  # read back exactly the on-store size
    assert delta.opens == 2
    assert delta.read_seconds > 0


def test_local_backend_counts_but_does_not_throttle(tmp_path):
    backend = StorageBackend(BackendConfig.local())
    p = tmp_path / "f.bin"
    with backend.open_write(p) as fh:
        fh.write(b"abc" * 1000)
    with backend.open_read(p) as fh:
        data = fh.read()
    snap = backend.counters.snapshot()
    assert len(data) == 3000
    assert snap.bytes_read == 3000
    assert snap.bytes_written == 3000
    assert snap.opens == 2


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("size", [0, 1, 4096, 200_001])
def test_read_handle_gives_the_file_bytes_and_counts_them(tmp_path, size):
    data = os.urandom(size)
    p = tmp_path / "f.bin"
    p.write_bytes(data)
    backend = StorageBackend()
    with backend.open_read(p) as fh:
        whole = fh.read()
        assert fh.read() == b"" and fh.read(10) == b""
    with backend.open_read(p) as fh:
        parts = []
        while chunk := fh.read(65536):
            parts.append(chunk)
    with backend.open_read(p) as fh:
        head, rest = fh.read(7), fh.read(-1)
    assert whole == b"".join(parts) == head + rest == data
    snap = backend.counters.snapshot()
    assert snap.opens == 3
    assert snap.bytes_read == 3 * size
    assert snap.read_seconds > 0


def test_whole_file_read_goes_on_past_a_stale_size(tmp_path, monkeypatch):
    data = os.urandom(300_000)
    p = tmp_path / "grown.bin"
    p.write_bytes(data)
    backend = StorageBackend()
    with backend.open_read(p) as fh:
        real_fstat = os.fstat
        # as if the file grew between the size check and the read
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            real_fstat(fd)[:6] + (1000,) + real_fstat(fd)[7:]))
        assert fh.read() == data
    assert backend.counters.snapshot().bytes_read == len(data)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_read_handles_release_their_descriptors(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"x" * 100)
    backend = StorageBackend()
    before = open_fds()
    fh = backend.open_read(p)
    assert open_fds() == before + 1
    fh.close()
    fh.close()  # a second close is a no-op
    assert open_fds() == before
    dropped = backend.open_read(p)
    dropped.read(1)
    del dropped
    gc.collect()
    assert open_fds() == before
    with pytest.raises(IoFailureError):
        with backend.open_read(tmp_path) as fh:  # a directory opens, then fails to read
            fh.read()
    assert open_fds() == before


def test_size_and_remove(tmp_path):
    backend = StorageBackend()
    p = tmp_path / "s.bin"
    with backend.open_write(p) as fh:
        fh.write(bytes(10))
    assert backend.size(p) == 10
    backend.remove(p)
    assert not backend.exists(p)
    with pytest.raises(FileNotFoundError):
        backend.size(p)


def test_write_into_invalid_root_raises_io_failure(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    backend = StorageBackend()
    with pytest.raises((IoFailureError, FileNotFoundError)):
        backend.open_write(blocker / "child" / "x.bin")


def test_probe_report_row_has_table_columns(tmp_path):
    backend = StorageBackend()
    report = probe_storage(
        backend, workers=1, files_per_worker=2, total_bytes_per_worker=8192, root=tmp_path
    )
    row = report.to_row()
    assert list(row) == ["workers", "files_per_worker", "bandwidth", "iops"]
    assert row["bandwidth"] > 0


def test_simulated_default_profile_shape():
    cfg = BackendConfig.simulated_default()
    assert cfg.bandwidth == pytest.approx(91_000_000.0)
    assert cfg.open_latency > 0
    assert cfg.kind is BackendKind.SIMULATED


@pytest.mark.parametrize("kind", list(BackendKind))
@pytest.mark.parametrize("bad", [{"bandwidth": -1.0}, {"bandwidth": float("nan")},
                                 {"open_latency": -0.1}, {"iops_cap": 0.0}, {"chunk": 0}])
def test_backend_config_bounds_hold_for_every_kind(kind, bad):
    with pytest.raises(ValueError):
        BackendConfig(kind=kind, **bad)


@pytest.mark.parametrize(
    "workers, bandwidth, iops_cap, chunk",
    [
        (1, 1_000_000.0, 1e6, 65536),  # bandwidth-bound: 64 KiB reads, 66 ms each
        (1, 1e9, 250.0, 4096),  # iops-bound: one 4 ms operation per 4 KiB read
        (2, 2_000_000.0, 1e6, 65536),  # two streams sharing the bandwidth lane
        (2, 1e9, 500.0, 4096),  # two streams sharing the iops lane
    ],
)
def test_probe_lands_on_closed_form_over_grid(tmp_path, workers, bandwidth, iops_cap, chunk):
    backend = simulated(bandwidth=bandwidth, iops_cap=iops_cap, chunk=chunk)
    ceiling = min(bandwidth, chunk * iops_cap)
    report = probe_storage(
        backend, workers=workers, files_per_worker=1,
        total_bytes_per_worker=int(ceiling * 0.25 / workers), root=tmp_path,
    )
    assert report.bandwidth == pytest.approx(ceiling, rel=0.05)


def test_pacer_credits_late_wakeups_only():
    pacer = Pacer(1_000.0)  # one unit per millisecond
    start = time.perf_counter()
    for _ in range(50):
        pacer.wait(pacer.reserve(1))  # every 1 ms sleep wakes a little late
    # the lateness is credited to the next booking, so 50 chained 1 ms
    # bookings take 50 ms, not 50 x (1 ms + overshoot)
    assert 0.05 <= time.perf_counter() - start < 0.05 * 1.25

    finish = pacer.reserve(10)
    time.sleep(0.02)  # work past the booking is owed nothing and earns nothing
    pacer.wait(finish)
    before = time.perf_counter()
    assert pacer.reserve(5) >= before + 0.005


def test_pacer_burst_banks_idle_time_but_never_passes_the_floor():
    pacer = Pacer(1_000.0, burst=0.010)  # one unit per millisecond, 10 ms deep
    requested = time.perf_counter()
    # an idle lane has banked 10 ms, so a 5 ms booking is already done
    assert pacer.reserve(5, at=requested) == pytest.approx(requested - 0.005, abs=1e-9)
    # the next booking runs on from where the lane stands, not from the bank
    assert pacer.reserve(10, at=requested) == pytest.approx(requested + 0.005, abs=1e-9)
    floor = time.perf_counter() + 1.0
    assert pacer.reserve(1, floor=floor) == pytest.approx(floor + 0.001, abs=1e-9)
    with pytest.raises(ValueError):
        Pacer(1_000.0, burst=-1.0)
