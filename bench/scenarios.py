"""The three benchmark workloads: dataset set-up and one campaign round each.

Every round profiles the workload's whole strategy list, ranks it through
the CLI under weights 0,0,1 and returns the campaign and ranking as the
plain-dict documents presto writes to disk, so the checks and the metrics
read one form whichever entry point produced it.  Modules are reached
through their attributes at call time, so the traced mode's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from presto import cli, core, profiler, storage, workloads
from presto.engine import RunConfig

WEIGHTS = "0,0,1"


@dataclass
class Setup:
    """What a workload needs between rounds: the generated dataset and
    the pieces of a campaign that do not change from round to round."""

    name: str
    root: Path
    pipeline: core.Pipeline
    descriptor: workloads.DatasetDescriptor
    seed: int
    backend_config: storage.BackendConfig
    strategies: list[core.Strategy]
    epochs: int
    config_path: Path | None = None  # cv-sim drives the CLI from a file


@dataclass
class Round:
    wall_s: float
    campaign: dict  # campaign.json form
    ranking: list[dict]  # report.json "ranking" form
    workdir: Path  # the artifacts, kept for the checks
    exit_code: int


# total source bytes per workload; bench/README.md says why these sizes
SIZES = {"tiny-local": 2_500 * 4096, "cv-sim": 4_000_000, "nilm-local": 8_000_000}


def _quiet_cli(argv: list[str]) -> int:
    """cli.main with its console output kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def describe(name: str, root: Path, seed: int, scale: float = 1.0) -> Setup:
    """The workload's pipeline, dataset and strategies, without writing
    anything.  scale shrinks the dataset for the self-test."""
    data = root / "data"
    total = int(SIZES[name] * scale)
    if name == "tiny-local":
        bps = 4096
        desc = workloads.DatasetDescriptor(
            workloads.Layout.MANY_SMALL_FILES, max(total // bps, 4), bps, core.DType.U8, data, seed)
        pipe = core.Pipeline(source=desc, steps=(core.StepSpec("ingest", core.StepKind.INGEST),))
        grid = core.OptionGrid(shards=(2,), parallelisms=(1, 2))
        return Setup(name, root, pipe, desc, seed, storage.BackendConfig.local(),
                     core.enumerate_strategies(pipe, grid), epochs=3)
    if name == "nilm-local":
        pipe, desc = workloads.preset("nilm", root=data, total_bytes=total, seed=seed)
        grid = core.OptionGrid(
            compressions=(core.Compression.NONE, core.Compression.GZIP),
            shards=(2,),
            parallelisms=(2,),
            cache_modes=(core.CacheMode.NO_CACHE, core.CacheMode.SERIALIZED, core.CacheMode.SAMPLE),
        )
        # split 0 reads each container shard as one sample; it is left out
        strategies = [s for s in core.enumerate_strategies(pipe, grid) if s.split_index >= 1]
        return Setup(name, root, pipe, desc, seed, storage.BackendConfig.local(),
                     strategies, epochs=3)
    if name == "cv-sim":
        pipe, desc = workloads.preset("cv", root=data, total_bytes=total, seed=seed)
        grid = core.OptionGrid(shards=(2,), parallelisms=(2,), shuffle_buffers=(64,))
        return Setup(name, root, pipe, desc, seed, storage.BackendConfig.simulated_default(),
                     core.enumerate_strategies(pipe, grid), epochs=2,
                     config_path=root / "cv-sim.json")
    raise KeyError(name)


def generate(s: Setup) -> None:
    """Write the dataset (and cv-sim's CLI config) through presto."""
    desc = s.descriptor
    if s.name == "tiny-local":
        workloads.generate_synthetic(desc.root, desc.total_bytes, desc.bytes_per_sample,
                                     desc.dtype, desc.layout, desc.seed, compressibility=0.5)
        return
    preset = "nilm" if s.name == "nilm-local" else "cv"
    workloads.generate_for(desc, workloads.preset_info(preset).compressibility)
    if s.config_path is not None:
        config = {
            "preset": "cv",
            "dataset_root": str(desc.root),
            "total_bytes": desc.total_bytes,
            "seed": s.seed,
            "generate": False,
            "backend": {"kind": "simulated"},
            "grid": {"shards": [2], "parallelisms": [2], "shuffle_buffers": [64]},
            "epochs": s.epochs,
            "repeats": 1,
            "rng_seed": s.seed,
            "epoch_selector": "mean",
            "collect_digests": True,
            "weights": [0.0, 0.0, 1.0],
            "keep_artifacts": True,
        }
        s.config_path.write_text(json.dumps(config, indent=2) + "\n")


def run_round(s: Setup, index: int) -> Round:
    """One timed campaign: profile every strategy, save, rank via the CLI."""
    out = s.root / f"round-{index}"
    shutil.rmtree(out, ignore_errors=True)
    if s.config_path is not None:
        t0 = time.perf_counter()
        code = _quiet_cli(["profile", "--config", str(s.config_path), "--out-dir", str(out)])
        wall = time.perf_counter() - t0
    else:
        pcfg = profiler.ProfileConfig(
            run=RunConfig(epochs=s.epochs, rng_seed=s.seed, collect_digests=True),
            repeats=1,
            epoch_selector="mean",
            workdir=out / "work",
            keep_artifacts=True,
        )
        t0 = time.perf_counter()
        campaign = profiler.profile_campaign(
            s.pipeline, s.strategies, storage.StorageBackend(s.backend_config), pcfg
        )
        profiler.save_campaign(campaign, out / "campaign.json")
        code = _quiet_cli(["rank", "--campaign", str(out / "campaign.json"),
                           "--weights", WEIGHTS, "--json", str(out / "report.json")])
        wall = time.perf_counter() - t0
    return load_round(out, wall, code)


def load_round(out: Path, wall_s: float, exit_code: int) -> Round:
    """A finished round's documents, as presto wrote them under out."""
    campaign, report = out / "campaign.json", out / "report.json"
    doc = json.loads(campaign.read_text()) if campaign.exists() else {}
    ranking = json.loads(report.read_text())["ranking"] if report.exists() else []
    return Round(wall_s, doc, ranking, out / "work", exit_code)
