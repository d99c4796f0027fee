import os
import platform
import statistics
from pathlib import Path

import numpy as np
import pytest

from presto.core import (
    CacheMode,
    Compression,
    OptionGrid,
    Pipeline,
    StepKind,
    StepSpec,
    Strategy,
    enumerate_strategies,
    predict_storage,
)
from presto.engine import CacheOutcome, RunConfig
from presto.profiler import (
    AllStrategiesFailedError,
    Campaign,
    ProfileConfig,
    campaign_to_dict,
    load_campaign,
    materialize,
    profile_campaign,
    profile_strategy,
    save_campaign,
)
from presto.storage import BackendConfig, BackendKind, StorageBackend
from presto.workloads import generate_synthetic, source_paths

KNOB = 0.4


def fast_simulated():
    # simulated accounting with negligible sleeps so unit tests stay quick
    return StorageBackend(
        BackendConfig(kind=BackendKind.SIMULATED, bandwidth=2e9,
                      open_latency=0.0005, iops_cap=1e7)
    )


@pytest.fixture
def setup(tmp_path):
    desc = generate_synthetic(tmp_path / "src", total_bytes=12 * 4096,
                              bytes_per_sample=4096, seed=2, compressibility=KNOB)
    pipe = Pipeline(
        source=desc,
        steps=(
            StepSpec("ingest", StepKind.INGEST),
            StepSpec("double", StepKind.DECODE, size_ratio=2.0),
            StepSpec("widened", StepKind.WIDEN, size_ratio=4.0),
        ),
    )
    return desc, pipe, tmp_path


def config(tmp_path, **kw):
    run = RunConfig(
        epochs=kw.pop("epochs", 1),
        sample_limit=kw.pop("sample_limit", None),
        collect_digests=kw.pop("collect_digests", True),
    )
    return ProfileConfig(run=run, workdir=tmp_path / "work", **kw)


def test_materialize_split_zero_is_free(setup):
    desc, pipe, tmp = setup
    mat, stats = materialize(Strategy(split_index=0), pipe, StorageBackend(), tmp / "x")
    assert mat is None
    assert stats.seconds == 0.0
    assert stats.bytes_written == 0
    assert stats.sample_count == desc.sample_count


def test_materialize_conserves_byte_accounting(setup):
    desc, pipe, tmp = setup
    backend = fast_simulated()
    before = backend.counters.snapshot()
    mat, stats = materialize(Strategy(split_index=2), pipe, backend, tmp / "mat2")
    delta = backend.counters.snapshot().delta(before)
    # writes seen by the counters == container stats == on-store reality
    assert delta.bytes_written == stats.bytes_written == mat.bytes
    assert mat.bytes == sum(backend.size(p) for p in mat.paths)
    # the whole source was read through the backend, nothing else
    assert delta.bytes_read == desc.total_bytes
    assert stats.seconds > 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_materialized_size_tracks_prediction(setup, m):
    desc, pipe, tmp = setup
    backend = StorageBackend()
    mat, _ = materialize(Strategy(split_index=m), pipe, backend, tmp / f"mat{m}")
    predicted = predict_storage(pipe, m, desc.total_bytes)
    assert mat.bytes == pytest.approx(predicted, rel=0.02)


def test_materialize_parallel_output_is_byte_identical(setup):
    desc, pipe, tmp = setup
    backend = StorageBackend()
    mat1, _ = materialize(Strategy(split_index=3, shards=3), pipe, backend, tmp / "p1")
    mat4, _ = materialize(
        Strategy(split_index=3, shards=3, parallelism=4), pipe, backend, tmp / "p4"
    )
    for a, b in zip(mat1.paths, mat4.paths):
        assert Path(a).read_bytes() == Path(b).read_bytes()


def test_profile_record_shape_and_repeat_digests(setup):
    desc, pipe, tmp = setup
    rec = profile_strategy(
        Strategy(split_index=2), pipe, StorageBackend(),
        config(tmp, repeats=3, epochs=2),
    )
    assert rec.label == "double"
    assert rec.sample_count == 12
    assert len(rec.repeats) == 3
    assert all(len(eps) == 2 for eps in rec.repeats)
    assert rec.throughput_std >= 0.0
    digests = {eps[0].multiset_digest for eps in rec.repeats}
    assert len(digests) == 1  # same work every repeat
    assert rec.preprocessing_seconds > 0
    assert rec.storage_bytes == rec.repeats[0][0].io.bytes_read


def test_epoch_selector_arithmetic(setup):
    desc, pipe, tmp = setup
    outs = {}
    for sel in ("first", "last", "mean"):
        outs[sel] = profile_strategy(
            Strategy(split_index=1), pipe, StorageBackend(),
            config(tmp, epochs=3, epoch_selector=sel, collect_digests=False),
        )
    for sel, rec in outs.items():
        eps = rec.repeats[0]
        want = {
            "first": eps[0].throughput,
            "last": eps[-1].throughput,
            "mean": statistics.fmean(e.throughput for e in eps),
        }[sel]
        assert rec.throughput_sps == pytest.approx(want)


def test_split_zero_storage_is_source_footprint(setup):
    desc, pipe, tmp = setup
    rec = profile_strategy(Strategy(split_index=0), pipe, StorageBackend(), config(tmp))
    assert rec.preprocessing_seconds == 0.0
    assert rec.storage_bytes == desc.total_bytes
    assert rec.predicted_storage_bytes == desc.total_bytes
    assert rec.label == "unprocessed"


def test_sample_limit_flows_through(setup):
    desc, pipe, tmp = setup
    rec = profile_strategy(
        Strategy(split_index=1), pipe, StorageBackend(),
        config(tmp, sample_limit=5, collect_digests=False),
    )
    assert rec.sample_count == 5


def test_artifacts_cleaned_unless_kept(setup):
    desc, pipe, tmp = setup
    backend = StorageBackend()
    profile_strategy(Strategy(split_index=2), pipe, backend, config(tmp))
    assert list((tmp / "work").glob("mat-*")) == [] or not any(
        p.is_file() for p in (tmp / "work").rglob("*")
    )
    rec = profile_strategy(
        Strategy(split_index=2), pipe, backend, config(tmp, keep_artifacts=True)
    )
    kept = [p for p in (tmp / "work").rglob("*.prc")]
    assert kept


def test_campaign_full_grid(setup):
    desc, pipe, tmp = setup
    grid = OptionGrid(compressions=(Compression.NONE, Compression.ZLIB))
    strategies = enumerate_strategies(pipe, grid)
    assert len(strategies) == 1 + 3 * 2
    campaign = profile_campaign(
        pipe, strategies, StorageBackend(), config(tmp, collect_digests=False)
    )
    assert len(campaign.records) == 7
    assert campaign.errors == ()
    meta = campaign.metadata
    assert meta["schema"] == 1
    assert meta["backend"]["kind"] == "local"
    assert meta["calibration_units_per_second"] > 1e6
    assert len(meta["config_digest"]) == 64
    assert meta["python"] == platform.python_version()
    assert meta["numpy"] == np.__version__
    assert meta["cpu_count"] == os.cpu_count()
    zl = next(
        r for r in campaign.records
        if r.strategy.split_index == 2 and r.strategy.compression is Compression.ZLIB
    )
    none = next(
        r for r in campaign.records
        if r.strategy.split_index == 2 and r.strategy.compression is Compression.NONE
    )
    assert zl.storage_bytes < none.storage_bytes  # knob left some zeros to squeeze


def test_campaign_digest_is_input_stable(setup):
    desc, pipe, tmp = setup
    strategies = enumerate_strategies(pipe, OptionGrid())
    cfg = config(tmp, collect_digests=False)
    a = profile_campaign(pipe, strategies, StorageBackend(), cfg)
    b = profile_campaign(pipe, strategies, StorageBackend(), cfg)
    assert a.metadata["config_digest"] == b.metadata["config_digest"]


def test_campaign_survives_single_strategy_failure(setup, monkeypatch):
    desc, pipe, tmp = setup
    import presto.profiler as prof

    real = prof.run_online

    def flaky(strategy, *a, **kw):
        if strategy.split_index == 2:
            raise RuntimeError("synthetic fault")
        return real(strategy, *a, **kw)

    monkeypatch.setattr(prof, "run_online", flaky)
    strategies = enumerate_strategies(pipe, OptionGrid())
    campaign = profile_campaign(
        pipe, strategies, StorageBackend(), config(tmp, collect_digests=False)
    )
    assert len(campaign.errors) == 1
    assert campaign.errors[0].strategy_id.startswith("m2-")
    assert "synthetic fault" in campaign.errors[0].error
    assert {r.strategy.split_index for r in campaign.records} == {0, 1, 3}


def test_failed_materialize_leaves_no_partial_shards(setup, monkeypatch):
    desc, pipe, tmp = setup
    import presto.profiler as prof

    real = prof.execute_step
    calls = 0

    def fails_at_sample_8(step, tensor, **kw):
        nonlocal calls
        calls += 1
        if calls == 8:
            raise RuntimeError("prefix step failed")
        return real(step, tensor, **kw)

    monkeypatch.setattr(prof, "execute_step", fails_at_sample_8)
    strategies = [Strategy(split_index=0), Strategy(split_index=2, shards=2)]
    campaign = profile_campaign(pipe, strategies, StorageBackend(),
                                config(tmp, collect_digests=False))
    assert [e.strategy_id for e in campaign.errors] == [strategies[1].id]
    assert "prefix step failed" in campaign.errors[0].error
    assert list((tmp / "work").glob("mat-*")) == []


def test_campaign_raises_when_everything_fails(setup, monkeypatch):
    desc, pipe, tmp = setup
    import presto.profiler as prof

    def boom(*a, **kw):
        raise RuntimeError("no")

    monkeypatch.setattr(prof, "materialize", boom)
    strategies = enumerate_strategies(pipe, OptionGrid())
    with pytest.raises(AllStrategiesFailedError):
        profile_campaign(pipe, strategies, StorageBackend(),
                         config(tmp, collect_digests=False))


def test_campaign_document_roundtrip(setup):
    desc, pipe, tmp = setup
    strategies = enumerate_strategies(pipe, OptionGrid())[:2]
    campaign = profile_campaign(pipe, strategies, StorageBackend(), config(tmp))
    out = tmp / "out" / "campaign.json"
    save_campaign(campaign, out)
    loaded = load_campaign(out)
    assert loaded == campaign
    assert campaign_to_dict(loaded) == campaign_to_dict(campaign)
    rec = loaded.records[0]
    assert rec.repeats[0][0].cache is CacheOutcome.DISABLED
    assert rec.strategy.split_index == campaign.records[0].strategy.split_index


def test_campaign_file_survives_save_load_save_byte_for_byte(setup):
    desc, pipe, tmp = setup
    grid = OptionGrid(parallelisms=(1, 2), cache_modes=(CacheMode.NO_CACHE, CacheMode.SAMPLE))
    # one strategy per split, both parallelisms and cache modes, and one
    # that fails, so the file holds an errors entry too
    strategies = enumerate_strategies(pipe, grid)[::5] + [Strategy(split_index=9)]
    campaign = profile_campaign(pipe, strategies, StorageBackend(), config(tmp, repeats=2))
    assert len(campaign.records) == 4 and len(campaign.errors) == 1
    first, second = tmp / "first.json", tmp / "second.json"
    save_campaign(campaign, first)
    save_campaign(load_campaign(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_profile_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ProfileConfig(repeats=0)
    with pytest.raises(ValueError):
        ProfileConfig(epoch_selector="median")


def test_failed_save_keeps_the_previous_campaign(tmp_path):
    path = tmp_path / "campaign.json"
    save_campaign(Campaign(records=(), errors=(), metadata={"run": 1}), path)
    before = path.read_bytes()
    # serialization fails part way through the document
    broken = Campaign(records=(), errors=(), metadata={"run": 2, "z": object()})
    with pytest.raises(TypeError):
        save_campaign(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["campaign.json"]
