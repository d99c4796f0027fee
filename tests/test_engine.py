import hashlib
import logging
import os
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from presto.core import (
    CacheMode,
    Compression,
    DType,
    ExecMode,
    Pipeline,
    StepKind,
    StepSpec,
    Strategy,
)
from presto import engine, steps
from presto.engine import (
    CacheOutcome,
    EpochStats,
    MaterializationMissingError,
    MaterializedDataset,
    RunConfig,
    run_online,
    shuffle_stream,
)
from presto.recordio import CrcMismatchError, encode_tensor, write_container
from presto.steps import calibration_units_per_second, execute_step
from presto.storage import StorageBackend
from presto.workloads import (
    DatasetDescriptor,
    Layout,
    generate_synthetic,
    iter_source_tensors,
)

KNOB = 0.3  # compressibility for generated fixtures


# ---------------------------------------------------------------------- utils


def make_dataset(tmp_path, count=24, bps=2048, seed=9):
    return generate_synthetic(
        tmp_path / "src", total_bytes=count * bps, bytes_per_sample=bps,
        seed=seed, compressibility=KNOB,
    )


def chain(steps):
    return (StepSpec("ingest", StepKind.INGEST),) + tuple(steps)


def det_pipeline(desc):
    # doubling decode then float widening, all deterministic and free
    return Pipeline(
        source=desc,
        steps=chain([
            StepSpec("double", StepKind.DECODE, size_ratio=2.0),
            StepSpec("widened", StepKind.WIDEN, size_ratio=4.0),
        ]),
    )


def crop_pipeline(desc):
    return Pipeline(
        source=desc,
        steps=chain([
            StepSpec("double", StepKind.DECODE, size_ratio=2.0),
            StepSpec("crop", StepKind.RANDOM_CROP, size_ratio=0.5,
                     params={"fraction": 0.5}),
        ]),
    )


def materialize(pipe, desc, m, base, compression=Compression.NONE, shards=3,
                backend=None):
    """Offline prefix by hand: run steps 1..m-1 and pack a container."""
    def gen():
        for t in iter_source_tensors(desc, KNOB):
            for step in pipe.steps[1:m]:
                t = execute_step(step, t)
            yield t

    stats = write_container(gen(), base, compression=compression, shards=shards,
                            backend=backend)
    return MaterializedDataset(
        paths=stats.paths, bytes=stats.bytes_written,
        sample_count=stats.samples, compression=compression,
    )


def oracle_outputs(pipe, desc, seed, epoch):
    """Full chain run sample by sample, mirroring the engine's rng derivation."""
    outs = []
    for i, t in enumerate(iter_source_tensors(desc, KNOB)):
        for idx, step in enumerate(pipe.steps[1:], start=1):
            rng = (
                random.Random(hash((seed, epoch, i, idx)))
                if not step.deterministic else None
            )
            t = execute_step(step, t, rng=rng)
        outs.append(t)
    return outs


def xor_digest(tensors):
    acc = bytearray(32)
    for t in tensors:
        h = hashlib.sha256(encode_tensor(t)).digest()
        for i in range(32):
            acc[i] ^= h[i]
    return bytes(acc).hex()


def seq_digest(tensors):
    h = hashlib.sha256()
    for t in tensors:
        h.update(hashlib.sha256(encode_tensor(t)).digest())
    return h.hexdigest()


def run(strategy, pipe, mat=None, backend=None, **cfg):
    cfg.setdefault("collect_digests", True)
    return run_online(strategy, pipe, backend or StorageBackend(),
                      RunConfig(**cfg), materialized=mat)


# -------------------------------------------------------------------- shuffle


def test_shuffle_capacity_one_is_identity():
    out = list(shuffle_stream(range(100), 1, random.Random(0)))
    assert out == list(range(100))


def test_shuffle_permutes_and_actually_moves_items():
    items = list(range(200))
    out = list(shuffle_stream(items, 16, random.Random(3)))
    assert sorted(out) == items
    assert out != items


def test_shuffle_seeded_reproducibility():
    a = list(shuffle_stream(range(64), 8, random.Random(5)))
    b = list(shuffle_stream(range(64), 8, random.Random(5)))
    c = list(shuffle_stream(range(64), 8, random.Random(6)))
    assert a == b
    assert a != c


def test_shuffle_rejects_zero_capacity():
    with pytest.raises(ValueError):
        list(shuffle_stream(range(4), 0, random.Random(0)))


# ------------------------------------------------------------------ run_online


def test_offline_split_requires_materialization(tmp_path):
    desc = make_dataset(tmp_path)
    pipe = det_pipeline(desc)
    with pytest.raises(MaterializationMissingError):
        run(Strategy(split_index=1), pipe)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(epochs=0)
    with pytest.raises(ValueError):
        RunConfig(sample_limit=0)
    with pytest.raises(ValueError):
        RunConfig(memory_budget=0)


def test_strategies_agree_with_full_chain_oracle(tmp_path):
    desc = make_dataset(tmp_path)
    pipe = det_pipeline(desc)
    ref = oracle_outputs(pipe, desc, seed=0, epoch=1)
    want_multi, want_seq = xor_digest(ref), seq_digest(ref)

    mats = {
        m: materialize(pipe, desc, m, tmp_path / f"m{m}",
                       compression=Compression.GZIP if m == 2 else Compression.NONE)
        for m in (1, 2, 3)
    }
    tried = 0
    for m in (0, 1, 2, 3):
        for par in (1, 4):
            st = Strategy(split_index=m, parallelism=par,
                          compression=mats[m].compression if m else Compression.NONE)
            (ep,) = run(st, pipe, mats.get(m))
            assert ep.samples == desc.sample_count
            assert ep.multiset_digest == want_multi, (m, par)
            if par == 1:
                assert ep.sequence_digest == want_seq, m
            tried += 1
    assert tried == 8


def test_unbalanced_shards_restore_order(tmp_path):
    desc = make_dataset(tmp_path, count=10)
    pipe = det_pipeline(desc)
    mat = materialize(pipe, desc, 3, tmp_path / "m3", shards=3)  # 4/3/3 split
    ref = oracle_outputs(pipe, desc, seed=0, epoch=1)
    (ep,) = run(Strategy(split_index=3), pipe, mat)
    assert ep.sequence_digest == seq_digest(ref)


def test_throughput_is_samples_over_wall(tmp_path):
    desc = make_dataset(tmp_path, count=8)
    pipe = det_pipeline(desc)
    (ep,) = run(Strategy(split_index=0), pipe, collect_digests=False)
    assert ep.throughput == ep.samples / ep.wall_seconds


def test_sample_limit_truncates_in_order(tmp_path):
    desc = make_dataset(tmp_path, count=20)
    pipe = det_pipeline(desc)
    mat = materialize(pipe, desc, 1, tmp_path / "m1")
    ref = oracle_outputs(pipe, desc, seed=0, epoch=1)[:7]
    (ep,) = run(Strategy(split_index=1), pipe, mat, sample_limit=7)
    assert ep.samples == 7
    assert ep.sequence_digest == seq_digest(ref)


def test_random_crop_seeding_is_positional(tmp_path):
    desc = make_dataset(tmp_path)
    pipe = crop_pipeline(desc)
    mat = materialize(pipe, desc, 2, tmp_path / "m2")

    ref1 = oracle_outputs(pipe, desc, seed=0, epoch=1)
    ref2 = oracle_outputs(pipe, desc, seed=0, epoch=2)
    assert xor_digest(ref1) != xor_digest(ref2)  # crops move between epochs

    runs = {
        (m, par): run(
            Strategy(split_index=m, parallelism=par), pipe,
            mat if m else None, epochs=2,
        )
        for m in (0, 2) for par in (1, 4)
    }
    for (m, par), eps in runs.items():
        assert eps[0].multiset_digest == xor_digest(ref1), (m, par)
        assert eps[1].multiset_digest == xor_digest(ref2), (m, par)


# --------------------------------------------------------------------- caches


def cache_run(tmp_path, mode, budget, epochs=2, compression=Compression.NONE,
              count=24, sample_limit=None):
    desc = make_dataset(tmp_path, count=count, bps=100 if budget else 2048)
    pipe = det_pipeline(desc)
    backend = StorageBackend()
    mat = materialize(pipe, desc, 2, tmp_path / "mat", compression=compression,
                      backend=backend)
    st = Strategy(split_index=2, compression=compression, cache_mode=mode)
    eps = run(st, pipe, mat, backend=backend, epochs=epochs,
              memory_budget=budget or 2_000_000_000, sample_limit=sample_limit)
    return eps, mat


def test_sample_cache_serves_second_epoch_without_reads(tmp_path):
    eps, _ = cache_run(tmp_path, CacheMode.SAMPLE, budget=None)
    assert [e.cache for e in eps] == [CacheOutcome.POPULATED, CacheOutcome.SERVED]
    assert eps[0].io.bytes_read > 0
    assert eps[1].io.bytes_read == 0
    assert eps[1].io.opens == 0
    assert eps[0].multiset_digest == eps[1].multiset_digest
    assert eps[0].sequence_digest == eps[1].sequence_digest  # one worker: same order


def test_serialized_cache_replays_compressed_bytes(tmp_path):
    eps, _ = cache_run(tmp_path, CacheMode.SERIALIZED, budget=None,
                       compression=Compression.GZIP)
    assert [e.cache for e in eps] == [CacheOutcome.POPULATED, CacheOutcome.SERVED]
    assert eps[1].io.bytes_read == 0
    assert eps[1].io.opens == 0
    assert eps[0].sequence_digest == eps[1].sequence_digest


@pytest.mark.parametrize("parallelism", [1, 2])
def test_serialized_cache_replays_raw_sample_files(tmp_path, parallelism):
    desc = make_dataset(tmp_path)
    pipe = det_pipeline(desc)
    ref = oracle_outputs(pipe, desc, seed=0, epoch=1)
    st = Strategy(split_index=0, parallelism=parallelism, cache_mode=CacheMode.SERIALIZED)
    eps = run(st, pipe, epochs=2)
    assert [e.cache for e in eps] == [CacheOutcome.POPULATED, CacheOutcome.SERVED]
    assert eps[0].io.opens == desc.sample_count
    assert eps[1].io.opens == 0
    assert eps[1].io.bytes_read == 0
    assert eps[1].samples == desc.sample_count
    assert eps[1].multiset_digest == xor_digest(ref)
    if parallelism == 1:
        assert eps[0].sequence_digest == eps[1].sequence_digest == seq_digest(ref)


def test_no_cache_reads_every_epoch(tmp_path):
    eps, _ = cache_run(tmp_path, CacheMode.NO_CACHE, budget=None)
    assert [e.cache for e in eps] == [CacheOutcome.DISABLED] * 2
    assert eps[0].io.bytes_read == eps[1].io.bytes_read > 0
    assert eps[0].io.opens == eps[1].io.opens > 0


def test_cache_disabled_upfront_when_projection_exceeds_budget(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="presto.engine"):
        eps, _ = cache_run(tmp_path, CacheMode.SAMPLE, budget=1_000)
    assert [e.cache for e in eps] == [CacheOutcome.DISABLED] * 2
    assert eps[1].io.bytes_read > 0
    assert any("cache disabled" in r.message for r in caplog.records)


def test_cache_overflow_mid_population_disables_later_epochs(tmp_path, caplog):
    # stored projection fits the budget, but per-entry overhead pushes the
    # runtime total over it: 100-byte samples cost 164 in cache vs 126 stored
    desc = make_dataset(tmp_path, count=100, bps=100)
    pipe = det_pipeline(desc)
    backend = StorageBackend()
    mat = materialize(pipe, desc, 1, tmp_path / "mat", backend=backend)
    assert mat.bytes <= 13_000
    st = Strategy(split_index=1, cache_mode=CacheMode.SAMPLE)
    with caplog.at_level(logging.WARNING, logger="presto.engine"):
        eps = run(st, pipe, mat, backend=backend, epochs=3, memory_budget=13_000)
    assert [e.cache for e in eps] == [
        CacheOutcome.OVERFLOWED, CacheOutcome.DISABLED, CacheOutcome.DISABLED,
    ]
    assert eps[1].io.bytes_read > 0
    assert any("overflow" in r.message for r in caplog.records)
    assert eps[0].multiset_digest == eps[1].multiset_digest == eps[2].multiset_digest


def test_sample_limit_disables_cache(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="presto.engine"):
        eps, _ = cache_run(tmp_path, CacheMode.SAMPLE, budget=None, sample_limit=5)
    assert [e.cache for e in eps] == [CacheOutcome.DISABLED] * 2
    assert any("sample_limit" in r.message for r in caplog.records)


# ------------------------------------------------------------------ exclusive


def test_exclusive_steps_serialize_across_workers(tmp_path):
    cal = calibration_units_per_second()
    bps = 2048
    cost = 0.015 * cal / bps  # ~15 ms of modeled work per sample
    desc = make_dataset(tmp_path, count=8, bps=bps)

    def pipe_for(mode):
        return Pipeline(
            source=desc,
            steps=chain([StepSpec("heavy", StepKind.MAP_COMPUTE,
                                  compute_cost=cost, exec_mode=mode)]),
        )

    walls = {}
    for mode in (ExecMode.PARALLEL, ExecMode.EXCLUSIVE):
        (ep,) = run(Strategy(split_index=0, parallelism=4), pipe_for(mode),
                    collect_digests=False)
        walls[mode] = ep.wall_seconds
    # 8 samples x 15 ms: ~120 ms serialized, ~30 ms when overlapped
    assert walls[ExecMode.EXCLUSIVE] >= 0.10
    assert walls[ExecMode.PARALLEL] <= 0.6 * walls[ExecMode.EXCLUSIVE]


# ---------------------------------------------------------- shuffle in the engine


def test_engine_shuffle_reproducible_and_conservative(tmp_path):
    desc = make_dataset(tmp_path)
    pipe = det_pipeline(desc)
    plain = run(Strategy(split_index=0), pipe)[0]

    def go(seed):
        st = Strategy(split_index=0, shuffle_buffer=8)
        return run(st, pipe, rng_seed=seed)[0]

    a, b, c = go(1), go(1), go(2)
    assert a.sequence_digest == b.sequence_digest
    assert a.sequence_digest != c.sequence_digest
    assert a.sequence_digest != plain.sequence_digest
    assert a.multiset_digest == plain.multiset_digest


# ------------------------------------------------------------- reader handoff


def open_fds():
    """Descriptors this process holds (0 where /proc is not available)."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


def run_in_thread(fn, timeout=30.0):
    """Run fn on its own thread; fail instead of hanging."""
    out = {}

    def main():
        try:
            out["value"] = fn()
        except BaseException as exc:  # handed to the test
            out["error"] = exc

    t = threading.Thread(target=main, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "run_online hung"
    return out


@pytest.mark.parametrize("parallelism", [1, 4])
def test_payload_crc_flip_mid_batch_raises(tmp_path, parallelism):
    desc = make_dataset(tmp_path, count=40, bps=2048)
    pipe = det_pipeline(desc)
    mat = materialize(pipe, desc, 1, tmp_path / "m1", shards=1)
    raw = bytearray(mat.paths[0].read_bytes())
    record = 16 + 2 + 8 + 2048
    raw[16 + 12 * record + 12 + 100] ^= 0x10  # inside the 13th of ~31 in the first read
    mat.paths[0].write_bytes(bytes(raw))
    before = threading.active_count()
    fds = open_fds()
    out = run_in_thread(lambda: run(Strategy(split_index=1, parallelism=parallelism), pipe, mat))
    assert isinstance(out.get("error"), CrcMismatchError)
    deadline = time.monotonic() + 10
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before, "engine threads left running"
    assert open_fds() == fds, "shard descriptors left open"


@pytest.mark.parametrize("parallelism", [1, 2])
def test_split_zero_hands_off_full_batches_only(tmp_path, monkeypatch, parallelism):
    desc = make_dataset(tmp_path, count=64, bps=4096)
    pipe = det_pipeline(desc)
    ref = oracle_outputs(pipe, desc, seed=0, epoch=1)
    puts = {}
    real_put = engine._put_until

    def counting_put(q, item, stop):
        puts.setdefault(id(q), []).append(len(item))
        real_put(q, item, stop)

    monkeypatch.setattr(engine, "_put_until", counting_put)
    fds = open_fds()
    (ep,) = run(Strategy(split_index=0, parallelism=parallelism), pipe)
    assert open_fds() == fds, "sample file descriptors left open"
    assert ep.samples == ep.io.opens == 64
    assert ep.io.bytes_read == 64 * 4096
    assert ep.multiset_digest == xor_digest(ref)
    per_stream = 64 // parallelism
    assert len(puts) == parallelism
    for sizes in puts.values():
        assert sum(sizes) == per_stream
        assert len(sizes) <= -(-per_stream // engine._BATCH_RECORDS) + 1, sizes


def test_many_workers_under_fast_switching_keep_counts_and_digests(tmp_path):
    desc = make_dataset(tmp_path, count=64, bps=512)
    pipe = det_pipeline(desc)
    ref = oracle_outputs(pipe, desc, seed=0, epoch=1)
    mat = materialize(pipe, desc, 1, tmp_path / "m1", shards=3)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for st, limit in ((Strategy(split_index=1, parallelism=8), None),
                          (Strategy(split_index=1, parallelism=8), 29),
                          (Strategy(split_index=0, parallelism=8), None),
                          (Strategy(split_index=1, parallelism=8, shuffle_buffer=5), None)):
            out = run_in_thread(lambda: run(st, pipe, mat if st.split_index else None,
                                            epochs=2, sample_limit=limit))
            eps = out["value"]
            want = desc.sample_count if limit is None else limit
            assert [e.samples for e in eps] == [want, want], st
            if limit is None:
                assert [e.multiset_digest for e in eps] == [xor_digest(ref)] * 2, st
            assert all(e.sequence_digest is None for e in eps)
    finally:
        sys.setswitchinterval(old)


class CountingBackend(StorageBackend):
    """Local backend that counts reads per opened path."""

    def __init__(self):
        super().__init__()
        self.reads = {}

    def open_read(self, path):
        handle = super().open_read(path)
        counts = self.reads.setdefault(Path(path), [])
        inner = handle.read

        def read(n=-1):
            chunk = inner(n)
            counts.append(len(chunk))
            return chunk

        handle.read = read
        return handle


@pytest.mark.parametrize("bps", [4096, 150_000])
def test_plain_split1_epoch_reads_whole_buffers(tmp_path, bps):
    desc = make_dataset(tmp_path, count=60 if bps == 4096 else 6, bps=bps)
    pipe = Pipeline(source=desc, steps=chain([]))
    mat = materialize(pipe, desc, 1, tmp_path / "m1", shards=2)
    backend = CountingBackend()
    (ep,) = run(Strategy(split_index=1), pipe, mat, backend=backend)
    assert ep.samples == desc.sample_count
    sizes = {Path(p): Path(p).stat().st_size for p in mat.paths}
    assert ep.io.bytes_read == sum(sizes.values())
    assert ep.io.opens == len(mat.paths)
    for path, size in sizes.items():
        reads = backend.reads[path]
        assert sum(reads) == size
        assert len(reads) <= -(-size // (1 << 16)) + 1, reads


def test_split_zero_on_a_containers_source_frames_its_shards(tmp_path):
    desc = generate_synthetic(
        tmp_path / "src", total_bytes=26 * 1000, bytes_per_sample=1000,
        layout=Layout.CONTAINERS, shards=4, seed=4, compressibility=KNOB,
    )
    pipe = det_pipeline(desc)
    ref = oracle_outputs(pipe, desc, seed=0, epoch=1)
    mat = materialize(pipe, desc, 1, tmp_path / "m1")
    for par in (1, 2):
        (zero,) = run(Strategy(split_index=0, parallelism=par), pipe)
        (one,) = run(Strategy(split_index=1, parallelism=par), pipe, mat)
        assert zero.samples == one.samples == desc.sample_count
        assert zero.multiset_digest == one.multiset_digest == xor_digest(ref)
        if par == 1:
            assert zero.sequence_digest == one.sequence_digest == seq_digest(ref)
        else:
            assert zero.sequence_digest is one.sequence_digest is None
    eps = run(Strategy(split_index=0, cache_mode=CacheMode.SERIALIZED), pipe, epochs=2)
    assert [e.cache for e in eps] == [CacheOutcome.POPULATED, CacheOutcome.SERVED]
    assert eps[0].sequence_digest == eps[1].sequence_digest == seq_digest(ref)
    (short,) = run(Strategy(split_index=0), pipe, sample_limit=7)
    assert short.samples == 7
    assert short.sequence_digest == seq_digest(ref[:7])


# ---------------------------------------------------------------- calibration


@pytest.fixture
def calibration_log(monkeypatch):
    """Events in call order: "measure" when the step-cost calibration
    really runs (the cached rate was reset), "clock" when the engine reads
    its epoch clock, and "materialize" when the profiler packs a split."""
    events = []
    real = steps.calibration_units_per_second

    def calibrate():
        if steps._CAL_RATE is None:
            events.append("measure")
        return real()

    monkeypatch.setattr(steps, "_CAL_RATE", None)
    monkeypatch.setattr(steps, "calibration_units_per_second", calibrate)
    monkeypatch.setattr(engine, "calibration_units_per_second", calibrate)

    class Clock:
        def __getattr__(self, name):
            return getattr(time, name)

        def perf_counter(self):
            events.append("clock")
            return time.perf_counter()

    monkeypatch.setattr(engine, "time", Clock())
    return events


def costed_pipeline(desc):
    return Pipeline(source=desc, steps=chain([
        StepSpec("spin", StepKind.MAP_COMPUTE, compute_cost=0.01),
    ]))


def test_run_online_calibrates_before_its_first_epoch(tmp_path, calibration_log):
    desc = make_dataset(tmp_path, count=4)
    run(Strategy(split_index=0), costed_pipeline(desc), collect_digests=False)
    assert calibration_log.count("measure") == 1
    assert calibration_log[0] == "measure"


def test_run_online_skips_calibration_without_costed_steps(tmp_path, calibration_log):
    desc = make_dataset(tmp_path, count=4)
    run(Strategy(split_index=0), det_pipeline(desc), collect_digests=False)
    assert "measure" not in calibration_log


def test_profile_campaign_calibrates_before_materializing(tmp_path, calibration_log, monkeypatch):
    from presto import profiler

    monkeypatch.setattr(profiler, "calibration_units_per_second",
                        steps.calibration_units_per_second)
    real_materialize = profiler.materialize

    def materialize_logged(*args, **kwargs):
        calibration_log.append("materialize")
        return real_materialize(*args, **kwargs)

    monkeypatch.setattr(profiler, "materialize", materialize_logged)
    desc = make_dataset(tmp_path, count=4)
    pipe = Pipeline(source=desc, steps=chain([
        StepSpec("spin", StepKind.MAP_COMPUTE, compute_cost=0.01),
        StepSpec("tail", StepKind.MAP_COMPUTE),
    ]))
    config = profiler.ProfileConfig(run=RunConfig(), workdir=tmp_path / "work")
    campaign = profiler.profile_campaign(pipe, [Strategy(split_index=2)], StorageBackend(), config)
    assert len(campaign.records) == 1
    assert calibration_log.count("measure") == 1
    assert calibration_log.index("measure") < calibration_log.index("materialize")


def test_epoch_sized_shuffle_buffer_keeps_digests(tmp_path):
    # a buffer of at least the epoch holds every sample until the epoch
    # ends; the shuffle then runs over the delivered hashes only
    desc = make_dataset(tmp_path)
    pipe = crop_pipeline(desc)
    mat = materialize(pipe, desc, 2, tmp_path / "m2")
    want = xor_digest(oracle_outputs(pipe, desc, 5, 1))
    for p in (1, 4):
        (ep,) = run(Strategy(split_index=2, shards=3, parallelism=p, shuffle_buffer=64),
                    pipe, mat, rng_seed=5)
        assert ep.samples == desc.sample_count
        assert ep.multiset_digest == want, p
    # as the engine that pushed whole tensors through the buffer computed it
    assert ep.sequence_digest is None
    (ep,) = run(Strategy(split_index=2, shards=3, shuffle_buffer=64), pipe, mat, rng_seed=5)
    assert ep.sequence_digest == "d5e673731beea821914d5fa8b222a771f7527160a95a20f96928a974694286ba"
