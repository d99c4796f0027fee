import csv
import json
from pathlib import Path

import pytest

from presto.cli import (
    EXIT_CAMPAIGN,
    EXIT_CONFIG,
    EXIT_INTERRUPT,
    EXIT_OK,
    ConfigError,
    main,
    parse_weights,
    validate_config,
)
from presto.core import CacheMode, Compression, ObjectiveWeights, Strategy
from presto.engine import CacheOutcome, EpochStats, RunConfig
from presto.profiler import Campaign, ProfileRecord, campaign_to_dict, load_campaign
from presto.storage import BackendConfig, BackendKind, IoSnapshot


def good_config(tmp_path, **extra):
    doc = {
        "preset": "audio-mp3-like",
        "dataset_root": str(tmp_path / "ds"),
        "total_bytes": 100_000,
        "backend": {"kind": "local"},
        "epochs": 1,
        "repeats": 1,
        "collect_digests": True,
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


# ------------------------------------------------------------------- weights


def test_parse_weights():
    w = parse_weights("0.2,0.3,0.5")
    assert w.as_tuple() == (0.2, 0.3, 0.5)
    for bad in ("1,2", "a,b,c", "-1,0,0", "1,2,3,4"):
        with pytest.raises(ConfigError):
            parse_weights(bad)


# ------------------------------------------------------------------- configs


def test_validate_config_accepts_full_document(tmp_path):
    doc = {
        "preset": "cv",
        "dataset_root": "x",
        "total_bytes": 1000,
        "seed": 1,
        "generate": True,
        "backend": {"kind": "simulated", "bandwidth": 1e8, "open_latency": 0.01,
                    "iops_cap": 1e4, "chunk": 4096},
        "grid": {"splits": [0, 1], "compressions": ["none", "gzip"],
                 "shards": [1, 8], "parallelisms": [1, 8],
                 "cache_modes": ["no_cache", "sample"], "shuffle_buffers": [0, 16]},
        "epochs": 2,
        "repeats": 3,
        "sample_limit": 10,
        "memory_budget": 1_000_000,
        "rng_seed": 7,
        "epoch_selector": "mean",
        "collect_digests": False,
        "weights": [0, 0.5, 0.5],
        "out_dir": "y",
        "keep_artifacts": False,
    }
    setup = validate_config(doc)
    assert setup.preset == "cv"
    assert setup.pipeline.source.root == Path("x") and setup.pipeline.source.seed == 1
    assert setup.backend == BackendConfig(BackendKind.SIMULATED, 1e8, 0.01, 1e4, 4096)
    assert setup.grid.compressions == (Compression.NONE, Compression.GZIP)
    assert setup.grid.cache_modes == (CacheMode.NO_CACHE, CacheMode.SAMPLE)
    assert setup.grid.shards == (1, 8) and setup.grid.shuffle_buffers == (0, 16)
    assert setup.splits == (0, 1)
    assert setup.profile.run == RunConfig(epochs=2, sample_limit=10, memory_budget=1_000_000,
                                          rng_seed=7, collect_digests=False)
    assert (setup.profile.repeats, setup.profile.epoch_selector) == (3, "mean")
    assert setup.profile.workdir == Path("y") / "work" and not setup.profile.keep_artifacts
    assert setup.weights == ObjectiveWeights(0, 0.5, 0.5)
    assert setup.out_dir == Path("y") and setup.generate


@pytest.mark.parametrize(
    "mutate",
    [
        {"bogus_key": 1},
        {"preset": "unknown-thing"},
        {"preset": None},
        {"weights": [1, 2]},
        {"weights": [1, -1, 0]},
        {"epochs": 0},
        {"epochs": True},
        {"epoch_selector": "median"},
        {"backend": {"kind": "nfs"}},
        {"backend": {"bandwidth": -5}},
        {"grid": {"compressions": ["zip"]}},
        {"grid": {"cache_modes": ["ram"]}},
        {"grid": {"parallelisms": [0]}},
        {"grid": {"splits": [-1]}},
        {"total_bytes": "big"},
    ],
)
def test_validate_config_rejections(mutate):
    doc = {"preset": "cv"}
    doc.update(mutate)
    with pytest.raises(ConfigError):
        validate_config(doc)


def test_bad_config_rejected_before_any_writes(tmp_path, capsys):
    cfg = {
        "preset": "cv",
        "dataset_root": str(tmp_path / "never"),
        "out_dir": str(tmp_path / "never-out"),
        "oops": 1,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    rc = main(["profile", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()
    assert not (tmp_path / "never-out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--epochs", "0"],
        ["profile", "--repeats", "0"],
        ["probe", "--bandwidth", "-1"],
        ["generate", "--preset", "cv", "--total-bytes", "0"],
        ["probe", "--backend", "local", "--workers", "1", "0", "--files-per-worker", "2",
         "--bytes-per-worker", "10000"],
        ["generate", "--preset", "cv", "--compressibility", "5"],
        ["generate", "--preset", "cv", "--compressibility", "-1"],
    ],
    ids=["profile-epochs", "profile-repeats", "probe-bandwidth", "generate-total-bytes",
         "probe-grid-point", "generate-compressibility-5", "generate-compressibility-neg"],
)
def test_bad_flag_values_exit_config_before_any_writes(tmp_path, capsys, argv):
    data, out = tmp_path / "ds", tmp_path / "out"
    if argv[0] == "profile":
        cfg_path, _ = good_config(tmp_path)
        argv = [*argv, "--config", str(cfg_path)]
    else:
        argv = [*argv, "--root", str(data)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not data.exists() and not out.exists()


def test_missing_and_malformed_config_files(tmp_path, capsys):
    assert main(["profile", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["profile", "--config", str(bad)]) == EXIT_CONFIG
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["profile", "--config", str(bad)]) == EXIT_CONFIG


# ---------------------------------------------------------------- generate


def test_generate_writes_dataset_and_manifest(tmp_path, capsys):
    root = tmp_path / "ds"
    rc = main([
        "generate", "--preset", "audio-mp3-like",
        "--root", str(root), "--total-bytes", "100000",
    ])
    assert rc == EXIT_OK
    manifest = json.loads((root / "manifest.json").read_text())
    assert manifest["sample_count"] == 5
    assert manifest["dtype"] == "U8"
    assert (root / "d00000" / "s000000000.bin").stat().st_size == 19_700
    assert "generated 5 samples" in capsys.readouterr().out


def test_generate_defaults_to_presto_home(tmp_path, monkeypatch):
    monkeypatch.setenv("PRESTO_HOME", str(tmp_path / "home"))
    rc = main(["generate", "--preset", "audio-mp3-like", "--total-bytes", "40000"])
    assert rc == EXIT_OK
    assert (tmp_path / "home" / "datasets" / "audio-mp3-like" / "manifest.json").exists()


# ------------------------------------------------------------------- probe


def test_probe_grid_and_csv(tmp_path, capsys):
    out = tmp_path / "probe.csv"
    rc = main([
        "probe", "--backend", "simulated",
        "--bandwidth", "1000000000", "--open-latency", "0.0005",
        "--iops-cap", "10000000",
        "--workers", "1", "2", "--files-per-worker", "2",
        "--bytes-per-worker", "100000",
        "--root", str(tmp_path / "probe-data"), "--out", str(out),
    ])
    assert rc == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["workers"] for r in rows] == ["1", "2"]
    assert all(float(r["bandwidth"]) > 0 for r in rows)
    assert set(rows[0]) == {"workers", "files_per_worker", "bandwidth", "iops"}


# ----------------------------------------------------------------- profile


def test_profile_end_to_end(tmp_path, capsys):
    cfg_path, doc = good_config(tmp_path)
    rc = main(["profile", "--config", str(cfg_path)])
    assert rc == EXIT_OK

    out = Path(doc["out_dir"])
    saved = load_campaign(out / "campaign.json")
    # audio pipeline is fully deterministic: splits 0..3, single-option grid
    assert len(saved.records) == 4
    assert saved.errors == ()
    assert saved.metadata["epochs"] == 1
    assert (out / "report.csv").exists()
    assert (out / "report.json").exists()

    text = capsys.readouterr().out
    assert "profiling 4 strategies" in text
    assert "rank" in text

    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 4  # header + strategies x 1 repeat x 1 epoch


def test_profile_flag_overrides_config(tmp_path):
    cfg_path, doc = good_config(tmp_path, epochs=1)
    rc = main(["profile", "--config", str(cfg_path), "--epochs", "2",
               "--weights", "0,1,0"])
    assert rc == EXIT_OK
    saved = load_campaign(Path(doc["out_dir"]) / "campaign.json")
    assert saved.metadata["epochs"] == 2
    report = json.loads((Path(doc["out_dir"]) / "report.json").read_text())
    assert report["weights"] == {"preprocessing": 0.0, "storage": 1.0, "throughput": 0.0}
    # storage-only weights choose the smallest stored footprint
    best = report["ranking"][0]
    sizes = [e["storage_bytes"] for e in report["ranking"]]
    assert best["storage_bytes"] == min(sizes)


def test_profile_grid_splits_filter(tmp_path):
    cfg_path, doc = good_config(tmp_path, grid={"splits": [0, 1]})
    rc = main(["profile", "--config", str(cfg_path)])
    assert rc == EXIT_OK
    saved = load_campaign(Path(doc["out_dir"]) / "campaign.json")
    assert sorted(r.strategy.split_index for r in saved.records) == [0, 1]


def test_profile_runs_are_reproducible(tmp_path):
    cfg_a, doc_a = good_config(tmp_path, out_dir=str(tmp_path / "out-a"))
    assert main(["profile", "--config", str(cfg_a)]) == EXIT_OK
    cfg_b, doc_b = good_config(tmp_path, out_dir=str(tmp_path / "out-b"))
    assert main(["profile", "--config", str(cfg_b)]) == EXIT_OK

    a = load_campaign(tmp_path / "out-a" / "campaign.json")
    b = load_campaign(tmp_path / "out-b" / "campaign.json")
    assert a.metadata["config_digest"] == b.metadata["config_digest"]
    for ra, rb in zip(a.records, b.records):
        assert ra.strategy_id == rb.strategy_id
        assert ra.storage_bytes == rb.storage_bytes
        da = [e.multiset_digest for eps in ra.repeats for e in eps]
        db = [e.multiset_digest for eps in rb.repeats for e in eps]
        assert da == db


def test_profile_partial_failure_exits_one(tmp_path, monkeypatch):
    import presto.profiler as prof

    real = prof.run_online

    def flaky(strategy, *a, **kw):
        if strategy.split_index == 2:
            raise RuntimeError("injected")
        return real(strategy, *a, **kw)

    monkeypatch.setattr(prof, "run_online", flaky)
    cfg_path, doc = good_config(tmp_path)
    rc = main(["profile", "--config", str(cfg_path)])
    assert rc == EXIT_CAMPAIGN
    saved = load_campaign(Path(doc["out_dir"]) / "campaign.json")
    assert len(saved.records) == 3
    assert len(saved.errors) == 1


def test_profile_interrupt_flushes_partial_campaign(tmp_path, monkeypatch):
    import presto.profiler as prof

    real = prof.profile_strategy
    calls = {"n": 0}

    def interrupting(strategy, *a, **kw):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise KeyboardInterrupt
        return real(strategy, *a, **kw)

    monkeypatch.setattr(prof, "profile_strategy", interrupting)
    cfg_path, doc = good_config(tmp_path)
    rc = main(["profile", "--config", str(cfg_path)])
    assert rc == EXIT_INTERRUPT
    saved = load_campaign(Path(doc["out_dir"]) / "campaign.json")
    assert len(saved.records) == 2
    assert saved.metadata["interrupted"] is True


# -------------------------------------------------------------- rank/report


@pytest.fixture
def finished_campaign(tmp_path):
    cfg_path, doc = good_config(tmp_path)
    assert main(["profile", "--config", str(cfg_path)]) == EXIT_OK
    return Path(doc["out_dir"]) / "campaign.json"


def test_rank_prints_table_and_json(finished_campaign, tmp_path, capsys):
    out_json = tmp_path / "ranked.json"
    rc = main(["rank", "--campaign", str(finished_campaign),
               "--weights", "0,0,1", "--json", str(out_json)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "rank" in text and "score" in text
    loaded = json.loads(out_json.read_text())
    assert loaded["ranking"][0]["rank"] == 1


def test_rank_missing_campaign(tmp_path):
    assert main(["rank", "--campaign", str(tmp_path / "none.json")]) == EXIT_CONFIG
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert main(["rank", "--campaign", str(binary)]) == EXIT_CONFIG


def _campaign_doc() -> dict:
    """A one-record campaign document, as save_campaign writes it."""
    epoch = EpochStats(1, 5, 0.5, 10.0, IoSnapshot(4096, 0, 5, 0.1), CacheOutcome.DISABLED)
    record = ProfileRecord("m0-none-s1-p1-no_cache-b0", "unprocessed", Strategy(0), 5,
                           0.0, 4096, 4096, 10.0, 0.0, ((epoch,),))
    return campaign_to_dict(Campaign((record,), (), {"version": "test"}))


def _with(path: tuple, value) -> dict:
    """_campaign_doc() with the value at `path` replaced (None: deleted)."""
    doc = _campaign_doc()
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    if value is None:
        del inner[path[-1]]
    else:
        inner[path[-1]] = value
    return doc


_RECORD = ("records", 0)
_EPOCH = (*_RECORD, "repeats", 0, 0)


# (name, campaign document, how its one stderr line starts)
_BAD_CAMPAIGNS = [
    ("thin", {"records": [{"strategy_id": "x"}]}, "error: campaign record 0"),
    ("nan-throughput", _with((*_RECORD, "throughput_sps"), float("nan")),
     "error: campaign record 0"),
    ("bool-storage", _with((*_RECORD, "storage_bytes"), True), "error: campaign record 0"),
    ("no-opens", _with((*_EPOCH, "opens"), None), "error: campaign record 0"),
    ("bad-cache", _with((*_EPOCH, "cache"), "warm"), "error: campaign record 0"),
    ("records-not-list", _with(("records",), {"0": {}}), "error: campaign"),
    ("array-root", [_campaign_doc()], "error: campaign"),
]


@pytest.mark.parametrize("verb", ["rank", "report"])
def test_incomplete_campaign_records_exit_config(tmp_path, capsys, verb):
    campaign = tmp_path / "thin.json"
    out_csv = tmp_path / "rep.csv"
    out_json = tmp_path / "rep.json"
    extra = ["--csv", str(out_csv)] if verb == "report" else []
    for name, doc, prefix in _BAD_CAMPAIGNS:
        campaign.write_text(json.dumps(doc))
        rc = main([verb, "--campaign", str(campaign), *extra, "--json", str(out_json)])
        assert rc == EXIT_CONFIG, name
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, (name, err)
        assert not out_csv.exists() and not out_json.exists(), name


def test_well_formed_campaign_doc_ranks(tmp_path):
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps(_campaign_doc()))
    assert main(["rank", "--campaign", str(campaign)]) == EXIT_OK


def test_report_writes_csv_rows(finished_campaign, tmp_path, capsys):
    out_csv = tmp_path / "rep.csv"
    rc = main(["report", "--campaign", str(finished_campaign),
               "--weights", "0,0,1", "--csv", str(out_csv)])
    assert rc == EXIT_OK
    assert "4 rows" in capsys.readouterr().out
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5
