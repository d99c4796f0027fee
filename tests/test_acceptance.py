"""End-to-end acceptance checks, one test per headline behaviour.

Each test prints a single PASS line with its measured numbers, so a
``pytest -s`` run reads as a checklist.  Everything is sized for a small
single-CPU box: the simulated backend stands in for a slow shared store
wherever wall-clock behaviour is the point, and the local backend is used
where real I/O or pure data integrity is under test.
"""
from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presto import workloads
from presto.analysis import Bottleneck, classify_bottleneck, score_and_rank, speedup
from presto.core import (
    CacheMode,
    Compression,
    DType,
    ExecMode,
    ObjectiveWeights,
    OptionGrid,
    Pipeline,
    StepKind,
    StepSpec,
    Strategy,
    Tensor,
    enumerate_strategies,
    max_split,
    validate_pipeline,
)
from presto.engine import (
    CacheOutcome,
    MaterializedDataset,
    RunConfig,
    run_online,
    shuffle_stream,
)
from presto.profiler import (
    ProfileConfig,
    ProfileRecord,
    materialize,
    profile_campaign,
    profile_strategy,
)
from presto.recordio import (
    ContainerFormatError,
    encode_tensor,
    read_container,
    space_saving,
    write_container,
)
from presto.steps import calibration_units_per_second, execute_step
from presto.storage import BackendConfig, BackendKind, make_backend, probe_storage


def local_backend():
    return make_backend(BackendConfig.local())


def sim_backend(bandwidth: float, open_latency: float, iops_cap: float = 10_000_000.0):
    return make_backend(
        BackendConfig(
            kind=BackendKind.SIMULATED,
            bandwidth=bandwidth,
            open_latency=open_latency,
            iops_cap=iops_cap,
        )
    )


def strat(m, *, comp=Compression.NONE, shards=8, par=8, cache=CacheMode.NO_CACHE, buf=0):
    return Strategy(
        split_index=m,
        compression=comp,
        shards=shards,
        parallelism=par,
        cache_mode=cache,
        shuffle_buffer=buf,
    )


def ingest_step() -> StepSpec:
    return StepSpec("ingest", StepKind.INGEST, 1.0, 0.0)


def container_source(root, n, bps, *, dtype=DType.U8, shards=8, compressibility=0.05, seed=0):
    """Synthetic containers dataset plus its ready-made concatenated handle.

    The source shards double as the split-1 materialization, so tests that
    only care about the serving path can skip the offline phase.
    """
    desc = workloads.generate_synthetic(
        root,
        total_bytes=n * bps,
        bytes_per_sample=bps,
        dtype=dtype,
        layout=workloads.Layout.CONTAINERS,
        seed=seed,
        compressibility=compressibility,
        shards=shards,
    )
    paths = [str(p) for p in workloads.source_paths(desc)]
    lb = local_backend()
    mat = MaterializedDataset(
        paths=tuple(paths),
        bytes=sum(lb.size(p) for p in paths),
        sample_count=desc.sample_count,
        compression=Compression.NONE,
    )
    pipe = Pipeline(source=desc, steps=(ingest_step(),))
    return pipe, desc, mat


def units_for(seconds_per_sample: float, sample_bytes: int) -> float:
    """Compute-cost knob that burns about the given time per sample here."""
    return seconds_per_sample * calibration_units_per_second() / sample_bytes


# ---------------------------------------------------------------------------
# 1. container format: lossless roundtrip, corruption never slips through


def test_01_container_roundtrip_and_corruption(tmp_path):
    rng = random.Random(71)
    dtypes = list(DType)
    samples = []
    for _ in range(10_000):
        dt = rng.choice(dtypes)
        if rng.random() < 0.5:
            shape = (rng.randrange(1, 17),)
        else:
            shape = (rng.randrange(1, 5), rng.randrange(1, 5))
        nelem = 1
        for d in shape:
            nelem *= d
        samples.append(Tensor(dt, shape, rng.randbytes(nelem * dt.width)))

    combos = 0
    for comp in Compression:
        for shards in (1, 8):
            stats = write_container(
                samples, tmp_path / f"rt-{comp.value}-{shards}" / "c", compression=comp, shards=shards
            )
            back = list(read_container(stats.paths))
            assert len(back) == len(samples)
            for a, b in zip(samples, back):
                assert a.dtype is b.dtype and a.shape == b.shape and a.data == b.data
            combos += 1

    # corruption sweep over a 100-record container, every byte position
    recs = [Tensor(DType.U8, (8,), rng.randbytes(8)) for _ in range(100)]
    key = [(t.dtype, t.shape, t.data) for t in recs]
    plain = write_container(recs, tmp_path / "plain" / "c", compression=Compression.NONE)
    packed = write_container(recs, tmp_path / "packed" / "c", compression=Compression.GZIP)

    def sweep(stats, strict):
        src = Path(stats.paths[0])
        blob = src.read_bytes()
        mdir = src.parent / "mut"
        mdir.mkdir()
        target = mdir / src.name
        detected = benign = 0
        for pos in range(len(blob)):
            mutated = bytearray(blob)
            mutated[pos] ^= 0xFF
            target.write_bytes(bytes(mutated))
            try:
                got = list(read_container([target]))
            except ContainerFormatError:
                detected += 1
                continue
            if strict:
                pytest.fail(f"flipped byte {pos} of {src.name} went undetected")
            # compressed framing holds a few inert header bytes; a flip there
            # must still hand back the exact original data
            assert [(t.dtype, t.shape, t.data) for t in got] == key, f"byte {pos}: silent corruption"
            benign += 1
        return len(blob), detected, benign

    n_plain, det_plain, _ = sweep(plain, strict=True)
    assert det_plain == n_plain
    n_gz, det_gz, benign_gz = sweep(packed, strict=False)
    assert det_gz + benign_gz == n_gz

    print(
        f"\nPASS 01 roundtrip+corruption: {len(samples)} tensors x {combos} layouts bit-exact; "
        f"{n_plain}/{n_plain} plain flips detected, {det_gz}/{n_gz} packed flips detected "
        f"({benign_gz} inert header flips returned exact data)"
    )


# ---------------------------------------------------------------------------
# 2. every legal strategy serves the same multiset of final tensors


def test_02_functional_identity_across_strategies(tmp_path):
    pipe_full, desc = workloads.preset("cv", root=tmp_path / "ds", total_bytes=24 * 114_700)
    workloads.generate_for(desc, workloads.preset_info("cv").compressibility)
    # deterministic variant: drop the trailing random crop
    pipe = Pipeline(source=desc, steps=pipe_full.steps[:4])
    validate_pipeline(pipe)
    assert max_split(pipe) == 4

    def oracle_digests() -> tuple[str, str]:
        xor = bytearray(32)
        ordered = hashlib.sha256()
        for p in workloads.source_paths(desc):
            blob = Path(p).read_bytes()
            t = Tensor(desc.dtype, (len(blob) // desc.dtype.width,), blob)
            for s in pipe.steps[1:]:
                t = execute_step(s, t)
            h = hashlib.sha256(encode_tensor(t)).digest()
            for j in range(32):
                xor[j] ^= h[j]
            ordered.update(h)
        return bytes(xor).hex(), ordered.hexdigest()

    want, want_ordered = oracle_digests()
    lb = local_backend()
    cfg = RunConfig(epochs=1, collect_digests=True)

    runs = 0
    for m in range(0, max_split(pipe) + 1):
        comps = [Compression.NONE] if m == 0 else list(Compression)
        for comp in comps:
            if m == 0:
                mat = None
            else:
                mat, _ = materialize(
                    strat(m, comp=comp, shards=3), pipe, lb, tmp_path / f"mat-{m}-{comp.value}" / "c"
                )
            for par in (1, 8):
                for cache in CacheMode:
                    st_ = strat(m, comp=comp, shards=3, par=par, cache=cache)
                    (ep,) = run_online(st_, pipe, lb, cfg, materialized=mat)
                    assert ep.samples == desc.sample_count
                    assert ep.multiset_digest == want, f"digest drift at {st_}"
                    if par == 1:
                        # a single worker delivers in restored source order
                        assert ep.sequence_digest == want_ordered, f"order drift at {st_}"
                    runs += 1

    # a shuffle reorders but never changes the multiset
    mat1, _ = materialize(strat(1, shards=3), pipe, lb, tmp_path / "mat-shuf" / "c")
    (shuf,) = run_online(strat(1, shards=3, par=1, buf=8), pipe, lb, cfg, materialized=mat1)
    assert shuf.multiset_digest == want
    assert shuf.sequence_digest != want_ordered

    # determinism holds per epoch even when served twice
    two = run_online(strat(1, shards=3, cache=CacheMode.SAMPLE), pipe, lb,
                     RunConfig(epochs=2, collect_digests=True), materialized=mat1)
    assert [e.multiset_digest for e in two] == [want, want]

    print(
        f"\nPASS 02 functional identity: {runs} strategy runs + shuffle + 2-epoch cache replay "
        f"all match oracle digest {want[:12]}..."
    )


# ---------------------------------------------------------------------------
# 3. ranking picks the expected winners on a fixed reference campaign


def ranked_record(strategy_id: str, label: str, split_index: int, preprocessing_seconds,
                  storage_bytes, throughput_sps) -> ProfileRecord:
    """A profile record holding only what ranking reads."""
    return ProfileRecord(
        strategy_id=strategy_id,
        label=label,
        strategy=Strategy(split_index=split_index),
        sample_count=0,
        preprocessing_seconds=preprocessing_seconds,
        storage_bytes=storage_bytes,
        predicted_storage_bytes=storage_bytes,
        throughput_sps=throughput_sps,
        throughput_std=0.0,
        repeats=(),
    )


def test_03_ranking_reference_campaign():
    def table(prep_all: float, prep_resized: float):
        return [
            ranked_record("m0", "unprocessed", 0, 0.0, 146_000_000_000, 107.0),
            ranked_record("m4", "pixel-centered", 4, prep_all, 1_535_000_000_000, 576.0),
            ranked_record("m3", "resized", 3, prep_resized, 494_000_000_000, 1789.0),
        ]

    checked = 0
    for prep_all, prep_resized in ((5400.0, 3600.0), (3600.0, 5400.0), (1.0, 1.0)):
        recs = table(prep_all, prep_resized)
        best_tp = score_and_rank(recs, ObjectiveWeights(0.0, 0.0, 1.0)).chosen
        assert best_tp.label == "resized" and best_tp.strategy_id == "m3"
        best_st = score_and_rank(recs, ObjectiveWeights(0.0, 1.0, 0.0)).chosen
        assert best_st.label == "unprocessed" and best_st.strategy_id == "m0"
        best_pp = score_and_rank(recs, ObjectiveWeights(1.0, 0.0, 0.0)).chosen
        assert best_pp.label == "unprocessed"
        checked += 1

    gain = speedup(1789.0, 107.0)
    assert abs(gain - 16.72) < 0.01

    print(
        f"\nPASS 03 reference-campaign ranking: throughput weight picks resized, storage weight picks "
        f"unprocessed across {checked} prep-time orderings (best/worst throughput = {gain:.2f}x)"
    )


# ---------------------------------------------------------------------------
# 4. rank order is invariant under positive affine rescaling of any metric


def test_04_ranking_affine_invariance():
    rng = random.Random(2026)
    trials = 1000
    for _ in range(trials):
        n = rng.randrange(2, 9)
        recs = [
            ranked_record(
                f"s{j}",
                f"s{j}",
                rng.randrange(0, 5),
                float(rng.randrange(0, 40)),
                rng.randrange(1, 50) * 1_000,
                float(rng.randrange(1, 30)),
            )
            for j in range(n)
        ]
        w = ObjectiveWeights(
            rng.random() + 0.01, rng.random() + 0.01, rng.random() + 0.01
        )
        base = score_and_rank(recs, w)

        ap, bp = rng.uniform(0.05, 25.0), rng.uniform(0.0, 500.0)
        as_, bs = rng.uniform(0.05, 25.0), rng.uniform(0.0, 500.0)
        at, bt = rng.uniform(0.05, 25.0), rng.uniform(0.0, 500.0)
        moved = [
            dataclasses.replace(
                r,
                preprocessing_seconds=ap * r.preprocessing_seconds + bp,
                storage_bytes=as_ * r.storage_bytes + bs,
                throughput_sps=at * r.throughput_sps + bt,
            )
            for r in recs
        ]
        again = score_and_rank(moved, w)

        assert again.chosen.strategy_id == base.chosen.strategy_id
        assert [e.strategy_id for e in again.entries] == [e.strategy_id for e in base.entries]
        assert [e.rank for e in again.entries] == list(range(1, n + 1))

    print(f"\nPASS 04 affine invariance: {trials} randomized campaigns kept winner and full order")


# ---------------------------------------------------------------------------
# 5. concatenating many small files pays off on an open-penalized store


def test_05_concatenation_beats_small_files(tmp_path):
    pipe, desc = workloads.preset("cv", root=tmp_path / "ds", total_bytes=256_000_000)
    workloads.generate_for(desc, workloads.preset_info("cv").compressibility)
    sb = make_backend(BackendConfig.simulated_default())
    cfg = RunConfig(epochs=1)

    (raw,) = run_online(strat(0, par=8), pipe, sb, cfg)
    mat, mstats = materialize(strat(1, par=8, shards=8), pipe, sb, tmp_path / "m1" / "c")
    (one,) = run_online(strat(1, par=8, shards=8), pipe, sb, cfg, materialized=mat)

    ratio = one.throughput / raw.throughput
    assert raw.samples == one.samples == desc.sample_count
    assert ratio >= 2.0, f"concatenation gain only {ratio:.2f}x"

    print(
        f"\nPASS 05 concatenation: {desc.sample_count} files -> 8 shards; "
        f"{raw.throughput:.0f} -> {one.throughput:.0f} samples/s ({ratio:.1f}x >= 2x), "
        f"one-off packing cost {mstats.seconds:.1f}s"
    )


# ---------------------------------------------------------------------------
# 6. bigger offline footprint can lose throughput despite less online compute


def test_06_fully_offline_loses_to_resized(tmp_path):
    pipe, desc = workloads.preset("cv", root=tmp_path / "ds", total_bytes=16_000_000)
    workloads.generate_for(desc, workloads.preset_info("cv").compressibility)
    sb = sim_backend(91_000_000.0, 0.005)

    mat3, _ = materialize(strat(3, par=8), pipe, sb, tmp_path / "m3" / "c")
    mat4, _ = materialize(strat(4, par=8), pipe, sb, tmp_path / "m4" / "c")
    cfg = RunConfig(epochs=1)
    (resized,) = run_online(strat(3, par=1), pipe, sb, cfg, materialized=mat3)
    (pixel,) = run_online(strat(4, par=1), pipe, sb, cfg, materialized=mat4)

    cal = calibration_units_per_second()

    def online_cpu_seconds(m: int) -> float:
        b = float(desc.bytes_per_sample)
        sizes = [b]
        for s in pipe.steps[1:]:
            b *= s.size_ratio
            sizes.append(b)
        units = sum(
            pipe.steps[i].compute_cost * sizes[i - 1]
            for i in range(m, len(pipe.steps))
        )
        return units * desc.sample_count / cal

    cpu3, cpu4 = online_cpu_seconds(3), online_cpu_seconds(4)
    assert cpu4 < cpu3, "fully-offline variant should do less online compute"
    assert pixel.throughput < resized.throughput, "extra stored bytes should cost throughput"
    assert mat4.bytes > mat3.bytes

    probe = probe_storage(
        sim_backend(91_000_000.0, 0.005), workers=1, files_per_worker=4,
        total_bytes_per_worker=16_000_000, root=tmp_path / "probe",
    )
    for ep in (resized, pixel):
        kind = classify_bottleneck(ep.io.bytes_read, ep.wall_seconds, probe.bandwidth)
        assert kind is Bottleneck.IO_BOUND

    print(
        f"\nPASS 06 storage/throughput inversion: resized {resized.throughput:.0f} samples/s > "
        f"pixel-centered {pixel.throughput:.0f} despite online cpu {cpu3:.2f}s > {cpu4:.2f}s; "
        f"both io-bound at {probe.bandwidth / 1e6:.0f} MB/s"
    )


# ---------------------------------------------------------------------------
# 7. tiny samples read far slower per byte than multi-MB samples


def test_07_sample_size_sweep(tmp_path):
    per_dataset = 256_000_000 // 18
    pairs = workloads.synthetic_grid(tmp_path / "grid", total_bytes_each=per_dataset)
    lb = local_backend()

    prepared = []
    for pipe, desc in pairs:
        workloads.generate_for(desc, 0.5)
        paths = [str(p) for p in workloads.source_paths(desc)]
        mat = MaterializedDataset(
            paths=tuple(paths),
            bytes=sum(lb.size(p) for p in paths),
            sample_count=desc.sample_count,
            compression=Compression.NONE,
        )
        prepared.append((pipe, desc, mat))

    # interleave the repeats so transient load hits every point alike
    best: dict[tuple[DType, int], float] = {}
    for _ in range(5):
        for pipe, desc, mat in prepared:
            (ep,) = run_online(strat(1, par=1), pipe, lb, RunConfig(epochs=1), materialized=mat)
            key = (desc.dtype, desc.bytes_per_sample)
            best[key] = min(best.get(key, float("inf")), ep.wall_seconds)

    walls: dict[DType, list[tuple[int, float]]] = {DType.U8: [], DType.F32: []}
    for (dt, bps), w in best.items():
        walls[dt].append((bps, w))

    for dt, series in walls.items():
        series.sort()
        sizes = [s for s, _ in series]
        ws = [w for _, w in series]
        assert ws[0] >= 2.0 * ws[-1], (
            f"{dt.name}: {sizes[0]}B wall {ws[0]:.3f}s not 2x above {sizes[-1]}B wall {ws[-1]:.3f}s"
        )
        # a real reversal must clear noise both locally and against the
        # curve's overall span; the tail is flat by design so tiny absolute
        # wobbles there do not count
        span = max(ws) - min(ws)
        inversions = sum(
            1 for a, b in zip(ws, ws[1:]) if b > a * 1.10 and (b - a) > 0.02 * span
        )
        assert inversions <= 1, f"{dt.name}: {inversions} inversions in {ws}"

    total_u8 = sum(w for _, w in walls[DType.U8])
    total_f32 = sum(w for _, w in walls[DType.F32])
    gap = abs(total_u8 - total_f32) / max(total_u8, total_f32)
    assert gap <= 0.20, f"dtype gap {gap:.1%}"

    small = walls[DType.U8][0][1] / walls[DType.U8][-1][1]
    print(
        f"\nPASS 07 sample-size sweep: 18 datasets x {per_dataset / 1e6:.0f} MB; 0.01 MB samples "
        f"{small:.1f}x slower than 2.56 MB, <=1 inversion per dtype, u8/f32 gap {gap:.1%}"
    )


# ---------------------------------------------------------------------------
# 8. cache tiers pay off in order, and an over-budget cache changes nothing


def test_08_cache_ordering_and_budget(tmp_path):
    pipe, desc, mat = container_source(tmp_path / "ds", n=32, bps=2_000_000)
    sb = sim_backend(91_000_000.0, 0.005)

    def epochs_for(cache, budget):
        cfg = RunConfig(epochs=2, memory_budget=budget)
        return run_online(strat(1, cache=cache), pipe, sb, cfg, materialized=mat)

    ncc = epochs_for(CacheMode.NO_CACHE, 512_000_000)
    ser = epochs_for(CacheMode.SERIALIZED, 512_000_000)
    smp = epochs_for(CacheMode.SAMPLE, 512_000_000)

    assert [e.cache for e in ncc] == [CacheOutcome.DISABLED, CacheOutcome.DISABLED]
    assert [e.cache for e in ser] == [CacheOutcome.POPULATED, CacheOutcome.SERVED]
    assert [e.cache for e in smp] == [CacheOutcome.POPULATED, CacheOutcome.SERVED]

    t_ncc, t_ser, t_smp = ncc[1].throughput, ser[1].throughput, smp[1].throughput
    assert t_smp > t_ser > t_ncc, f"epoch-2 ordering broke: {t_smp:.0f} / {t_ser:.0f} / {t_ncc:.0f}"
    assert ser[1].io.bytes_read == 0 and smp[1].io.bytes_read == 0
    assert ncc[1].io.bytes_read > 0

    tight = epochs_for(CacheMode.SAMPLE, 16_000_000)
    assert [e.cache for e in tight] == [CacheOutcome.DISABLED, CacheOutcome.DISABLED]
    drift = abs(tight[1].wall_seconds - tight[0].wall_seconds) / tight[0].wall_seconds
    assert drift <= 0.15, f"over-budget epochs drifted {drift:.1%}"

    print(
        f"\nPASS 08 cache tiers: epoch-2 samples/s {t_smp:.0f} (sample) > {t_ser:.0f} (serialized) "
        f"> {t_ncc:.0f} (none); 16 MB budget on a 64 MB set stayed disabled (epoch drift {drift:.1%})"
    )


# ---------------------------------------------------------------------------
# 9. worker scaling: parallel stages scale, exclusive stages do not,
#    tiny samples scale worse than large ones


def test_09_parallel_scaling(tmp_path):
    lb = local_backend()
    heavy = units_for(0.05, 2_000_000)  # ~50 ms per 2 MB sample

    def wall(pipe, mat, par):
        (ep,) = run_online(strat(1, par=par), pipe, lb, RunConfig(epochs=1), materialized=mat)
        return ep.wall_seconds

    def with_step(root, n, bps, step):
        base_pipe, desc, mat = container_source(root, n=n, bps=bps)
        pipe = Pipeline(source=desc, steps=(ingest_step(), step))
        return pipe, mat

    par_pipe, par_mat = with_step(
        tmp_path / "par", 32, 2_000_000,
        StepSpec("mapped", StepKind.MAP_COMPUTE, 1.0, heavy),
    )
    s_parallel = wall(par_pipe, par_mat, 1) / wall(par_pipe, par_mat, 8)
    assert s_parallel >= 3.0, f"parallel speedup only {s_parallel:.2f}x"

    exc_pipe, exc_mat = with_step(
        tmp_path / "exc", 12, 2_000_000,
        StepSpec("mapped", StepKind.MAP_COMPUTE, 1.0, heavy, exec_mode=ExecMode.EXCLUSIVE),
    )
    s_exclusive = wall(exc_pipe, exc_mat, 1) / wall(exc_pipe, exc_mat, 8)
    assert s_exclusive <= 1.2, f"exclusive stage sped up {s_exclusive:.2f}x"

    small_pipe, small_mat = with_step(
        tmp_path / "small", 1600, 10_000,
        StepSpec("mapped", StepKind.MAP_COMPUTE, 1.0, heavy),
    )
    s_small = wall(small_pipe, small_mat, 1) / wall(small_pipe, small_mat, 8)
    assert s_small < s_parallel, f"0.01 MB speedup {s_small:.2f}x not below 2 MB {s_parallel:.2f}x"

    print(
        f"\nPASS 09 scaling at 8 workers: parallel {s_parallel:.1f}x >= 3x, exclusive "
        f"{s_exclusive:.2f}x <= 1.2x, 0.01 MB samples {s_small:.1f}x < 2 MB {s_parallel:.1f}x"
    )


# ---------------------------------------------------------------------------
# 10. compression only pays when the bytes are compressible


def test_10_compression_tradeoff(tmp_path):
    assert space_saving(1000, 200) == pytest.approx(0.8)
    assert space_saving(1000, 1000) == 0.0

    sb = sim_backend(91_000_000.0, 0.005)
    cfg = RunConfig(epochs=1)

    def measure(root, knob, m, step):
        desc = workloads.generate_synthetic(
            root, total_bytes=12_000_000, bytes_per_sample=1_000_000, compressibility=knob
        )
        pipe = Pipeline(source=desc, steps=(ingest_step(), step))
        out = {}
        # one stream, one worker: the arms then differ only in codec, so
        # decompression cost cannot hide behind read/compute overlap
        for comp in (Compression.NONE, Compression.GZIP):
            s = strat(m, comp=comp, shards=1, par=1)
            mat, _ = materialize(s, pipe, sb, root / f"mat-{comp.value}" / "c")
            best = 0.0
            for _ in range(3):  # best of three, first run eats warm-up
                (ep,) = run_online(s, pipe, sb, cfg, materialized=mat)
                best = max(best, ep.throughput)
            out[comp] = (mat.bytes, best)
        return out

    widen = StepSpec("widened", StepKind.WIDEN, 4.0, 1.0)

    zeroes = measure(tmp_path / "zero", 0.9, 2, widen)
    saving_z = space_saving(zeroes[Compression.NONE][0], zeroes[Compression.GZIP][0])
    assert saving_z >= 0.5, f"zero-heavy saving only {saving_z:.2f}"
    assert zeroes[Compression.GZIP][1] > zeroes[Compression.NONE][1]

    noise = measure(tmp_path / "noise", 0.0, 1, widen)
    saving_n = space_saving(noise[Compression.NONE][0], noise[Compression.GZIP][0])
    assert saving_n <= 0.05, f"incompressible data claimed {saving_n:.2f} saving"
    assert noise[Compression.GZIP][1] <= noise[Compression.NONE][1] * 1.02

    print(
        f"\nPASS 10 compression: zero-heavy saving {saving_z:.0%} with "
        f"{zeroes[Compression.GZIP][1] / zeroes[Compression.NONE][1]:.1f}x throughput gain; "
        f"incompressible saving {saving_n:.0%} with no gain"
    )


# ---------------------------------------------------------------------------
# 11. shuffle is a permutation with roughly flat per-sample overhead


def test_11_shuffle_permutation_and_overhead():
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=400),
        k=st.integers(min_value=1, max_value=512),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def permutation_property(n, k, seed):
        out = list(shuffle_stream(iter(range(n)), k, random.Random(seed)))
        assert sorted(out) == list(range(n))

    permutation_property()

    assert list(shuffle_stream(iter(range(50)), 1, random.Random(0))) == list(range(50))
    a = list(shuffle_stream(iter(range(1000)), 64, random.Random(5)))
    b = list(shuffle_stream(iter(range(1000)), 64, random.Random(5)))
    c = list(shuffle_stream(iter(range(1000)), 64, random.Random(6)))
    assert a == b and a != c

    def per_item(n, k):
        best = float("inf")
        for rep in range(2):
            rng = random.Random(17 + rep)
            t0 = time.perf_counter()
            deque(shuffle_stream(iter(range(n)), k, rng), maxlen=0)
            best = min(best, (time.perf_counter() - t0) / n)
        return best

    costs = {
        (n, k): per_item(n, k)
        for n in (2**16, 2**17, 2**18)
        for k in (2**8, 2**11, 2**14)
    }
    spread = max(costs.values()) / min(costs.values())
    assert spread < 3.0, f"per-sample shuffle cost varied {spread:.2f}x: {costs}"

    print(
        f"\nPASS 11 shuffle: permutation property held for 60 random (n, k, seed) cases; "
        f"per-sample cost spread {spread:.2f}x (< 3x) over n=64k..256k, k=256..16384"
    )


# ---------------------------------------------------------------------------
# 12. no measured strategy beats the bandwidth / bytes-per-sample bound


def test_12_throughput_never_beats_bandwidth_bound(tmp_path):
    pipe, desc = workloads.preset("cv", root=tmp_path / "ds", total_bytes=16_000_000)
    workloads.generate_for(desc, workloads.preset_info("cv").compressibility)
    bandwidth = 91_000_000.0
    sb = sim_backend(bandwidth, 0.005)

    strategies = enumerate_strategies(
        pipe,
        OptionGrid(
            compressions=(Compression.NONE,),
            shards=(8,),
            parallelisms=(8,),
            cache_modes=(CacheMode.NO_CACHE,),
            shuffle_buffers=(0,),
        ),
    )
    campaign = profile_campaign(
        pipe,
        strategies,
        sb,
        ProfileConfig(
            run=RunConfig(epochs=1),
            repeats=1,
            epoch_selector="first",
            workdir=tmp_path / "work",
        ),
    )
    assert not campaign.errors
    assert len(campaign.records) == len(strategies) == max_split(pipe) + 1

    margins = []
    for rec in campaign.records:
        per_sample = rec.storage_bytes / rec.sample_count
        bound = bandwidth / per_sample * 1.1
        assert rec.throughput_sps <= bound, (
            f"{rec.strategy_id}: {rec.throughput_sps:.0f} samples/s beats bound {bound:.0f}"
        )
        margins.append(rec.throughput_sps / bound)

    print(
        f"\nPASS 12 bandwidth bound: all {len(campaign.records)} profiled strategies within "
        f"bandwidth/bytes-per-sample x1.1 (closest at {max(margins):.0%} of bound)"
    )


# ---------------------------------------------------------------------------
# 13. slotting a greyscale stage in front of widening wins on both axes


def test_13_greyscale_variant_wins_both_axes(tmp_path):
    pipe, desc = workloads.preset("cv", root=tmp_path / "ds", total_bytes=16_000_000)
    workloads.generate_for(desc, workloads.preset_info("cv").compressibility)
    grey = StepSpec("greyscaled", StepKind.GREYSCALE, 1.0 / 3.0, 1.0)
    gpipe = Pipeline(source=desc, steps=pipe.steps[:3] + (grey,) + pipe.steps[3:])
    validate_pipeline(gpipe)

    sb = sim_backend(910_000_000.0, 0.005)
    cfg = ProfileConfig(
        run=RunConfig(epochs=1), repeats=1, epoch_selector="first", workdir=tmp_path / "work"
    )

    def run_splits(p, splits):
        recs = [profile_strategy(strat(m, par=8), p, sb, cfg) for m in splits]
        ranking = score_and_rank(recs, ObjectiveWeights(0.0, 0.0, 1.0))
        deepest = max(recs, key=lambda r: r.strategy.split_index)
        return ranking.chosen, deepest

    base_best, base_deep = run_splits(pipe, (1, 3, 4))
    grey_best, grey_deep = run_splits(gpipe, (1, 4, 5))

    assert grey_best.throughput_sps > base_best.throughput_sps
    assert grey_deep.storage_bytes < base_deep.storage_bytes
    assert grey_best.label == "greyscaled"
    assert base_best.label == "resized"

    print(
        f"\nPASS 13 greyscale variant: best throughput {base_best.throughput_sps:.0f} -> "
        f"{grey_best.throughput_sps:.0f} samples/s "
        f"({grey_best.throughput_sps / base_best.throughput_sps:.1f}x) and deepest storage "
        f"{base_deep.storage_bytes / 1e6:.0f} -> {grey_deep.storage_bytes / 1e6:.0f} MB"
    )
