"""Strategy measurement.

For one strategy: materialize the offline prefix (timed, through the
backend), then run the online phase for a few repeated measurement runs.
For a campaign: do that for every enumerated strategy, surviving individual
failures, and keep enough metadata to reproduce the numbers.
"""

from __future__ import annotations

import collections
import enum
import hashlib
import json
import logging
import math
import os
import platform
import statistics
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .core import (
    CacheMode,
    Compression,
    ExecMode,
    Pipeline,
    Strategy,
    Tensor,
    predict_storage,
    strategy_label,
    validate_strategy,
)
from .engine import (
    CacheOutcome,
    EpochStats,
    MaterializedDataset,
    RunConfig,
    _read_file_bytes,
    run_online,
)
from .recordio import read_container, write_container
from .steps import calibration_units_per_second, execute_step
from .storage import IoSnapshot, StorageBackend
from . import workloads

log = logging.getLogger(__name__)

EPOCH_SELECTORS = ("first", "last", "mean")


class ProfileError(RuntimeError):
    pass


class AllStrategiesFailedError(ProfileError):
    pass


@dataclass(frozen=True)
class ProfileConfig:
    run: RunConfig = RunConfig()
    repeats: int = 1
    epoch_selector: str = "first"
    workdir: Path = Path("presto-work")
    keep_artifacts: bool = False

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.epoch_selector not in EPOCH_SELECTORS:
            raise ValueError(f"epoch_selector must be one of {EPOCH_SELECTORS}")
        object.__setattr__(self, "workdir", Path(self.workdir))


@dataclass(frozen=True)
class MaterializeStats:
    seconds: float
    bytes_written: int
    sample_count: int


def _ordered_parallel(
    items: Iterable, fn: Callable, workers: int
) -> Iterator:
    """Map fn over items with a bounded worker pool, yielding in order."""
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    window = 4 * workers
    pending = collections.deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def materialize(
    strategy: Strategy,
    pipeline: Pipeline,
    backend: StorageBackend,
    base: str | Path,
) -> tuple[MaterializedDataset | None, MaterializeStats]:
    """Run the offline prefix and pack its output into a container.

    Split 0 stays in the source layout, so nothing is written and the cost
    is zero.  The clock covers reading the source, the prefix transforms,
    and writing the shards, all through the same backend.
    """
    validate_strategy(strategy, pipeline)
    m = strategy.split_index
    source = pipeline.source
    if m == 0:
        return None, MaterializeStats(0.0, 0, source.sample_count)

    gate = threading.Lock()
    prefix = pipeline.steps[1:m]

    def transform(t: Tensor) -> Tensor:
        for step in prefix:
            if step.exec_mode is ExecMode.EXCLUSIVE:
                with gate:
                    t = execute_step(step, t)
            else:
                t = execute_step(step, t)
        return t

    start = time.perf_counter()
    paths = workloads.source_paths(source)
    if source.layout is workloads.Layout.CONTAINERS:
        # Few opens either way; only the transforms are worth fanning out.
        stream = _ordered_parallel(
            read_container(paths, backend=backend), transform, strategy.parallelism
        )
    else:
        # One open per sample, so the reads must overlap too.
        def load(p) -> Tensor:
            blob = _read_file_bytes(backend, p)
            return transform(Tensor(source.dtype, (len(blob) // source.dtype.width,), blob))

        stream = _ordered_parallel(paths, load, strategy.parallelism)
    stats = write_container(
        stream,
        base,
        compression=strategy.compression,
        shards=strategy.shards,
        backend=backend,
    )
    seconds = time.perf_counter() - start
    mat = MaterializedDataset(
        paths=stats.paths,
        bytes=stats.bytes_written,
        sample_count=stats.samples,
        compression=strategy.compression,
    )
    return mat, MaterializeStats(seconds, stats.bytes_written, stats.samples)


@dataclass(frozen=True)
class ProfileRecord:
    strategy_id: str
    label: str
    strategy: Strategy
    sample_count: int
    preprocessing_seconds: float
    storage_bytes: int
    predicted_storage_bytes: int
    throughput_sps: float
    throughput_std: float
    repeats: tuple[tuple[EpochStats, ...], ...]  # [repeat][epoch]


def _select_throughput(epochs: Sequence[EpochStats], selector: str) -> float:
    if selector == "first":
        return epochs[0].throughput
    if selector == "last":
        return epochs[-1].throughput
    return statistics.fmean(e.throughput for e in epochs)


def _source_storage_bytes(pipeline: Pipeline, backend: StorageBackend) -> int:
    return sum(backend.size(p) for p in workloads.source_paths(pipeline.source))


def profile_strategy(
    strategy: Strategy,
    pipeline: Pipeline,
    backend: StorageBackend,
    config: ProfileConfig,
) -> ProfileRecord:
    desc = pipeline.source
    base = Path(config.workdir) / f"mat-{strategy.id}"
    mat, mstats = materialize(strategy, pipeline, backend, base)
    try:
        if mat is None:
            storage = _source_storage_bytes(pipeline, backend)
        else:
            storage = mat.bytes
        all_epochs: list[tuple[EpochStats, ...]] = []
        for _ in range(config.repeats):
            eps = run_online(strategy, pipeline, backend, config.run, materialized=mat)
            all_epochs.append(tuple(eps))
        picks = [_select_throughput(eps, config.epoch_selector) for eps in all_epochs]
        return ProfileRecord(
            strategy_id=strategy.id,
            label=strategy_label(pipeline, strategy.split_index),
            strategy=strategy,
            sample_count=all_epochs[0][0].samples,
            preprocessing_seconds=mstats.seconds,
            storage_bytes=storage,
            predicted_storage_bytes=predict_storage(
                pipeline, strategy.split_index, desc.total_bytes
            ),
            throughput_sps=statistics.fmean(picks),
            throughput_std=statistics.stdev(picks) if len(picks) > 1 else 0.0,
            repeats=tuple(all_epochs),
        )
    finally:
        if mat is not None and not config.keep_artifacts:
            for p in mat.paths:
                try:
                    backend.remove(p)
                except FileNotFoundError:
                    pass


@dataclass(frozen=True)
class CampaignError:
    strategy_id: str
    error: str


@dataclass(frozen=True)
class Campaign:
    records: tuple[ProfileRecord, ...]
    errors: tuple[CampaignError, ...]
    metadata: dict


def _pipeline_fingerprint(pipeline: Pipeline) -> dict:
    desc = pipeline.source
    return {
        "source": {
            "layout": desc.layout.value,
            "sample_count": desc.sample_count,
            "bytes_per_sample": desc.bytes_per_sample,
            "dtype": desc.dtype.name,
            "seed": desc.seed,
        },
        "steps": [
            {
                "name": s.name,
                "kind": s.kind.value,
                "size_ratio": s.size_ratio,
                "compute_cost": s.compute_cost,
                "exec_mode": s.exec_mode.value,
                "deterministic": s.deterministic,
                "params": {k: str(v) for k, v in sorted(s.params.items())},
            }
            for s in pipeline.steps
        ],
    }


def _config_digest(pipeline: Pipeline, strategies: Sequence[Strategy], config: ProfileConfig) -> str:
    doc = {
        "pipeline": _pipeline_fingerprint(pipeline),
        "strategies": [s.id for s in strategies],
        "epochs": config.run.epochs,
        "sample_limit": config.run.sample_limit,
        "memory_budget": config.run.memory_budget,
        "rng_seed": config.run.rng_seed,
        "repeats": config.repeats,
        "epoch_selector": config.epoch_selector,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def profile_campaign(
    pipeline: Pipeline,
    strategies: Sequence[Strategy],
    backend: StorageBackend,
    config: ProfileConfig,
) -> Campaign:
    """Profile every strategy, tolerating individual failures."""
    records: list[ProfileRecord] = []
    errors: list[CampaignError] = []
    interrupted = False
    # measured before any strategy's clock starts, not inside the first one
    calibration = calibration_units_per_second()
    for strategy in strategies:
        try:
            records.append(profile_strategy(strategy, pipeline, backend, config))
            log.info("profiled %s", strategy.id)
        except KeyboardInterrupt:
            log.warning("interrupted after %d of %d strategies", len(records), len(strategies))
            interrupted = True
            break
        except Exception as exc:
            log.warning("strategy %s failed: %s", strategy.id, exc)
            errors.append(CampaignError(strategy.id, f"{type(exc).__name__}: {exc}"))
    if strategies and not records and not interrupted:
        raise AllStrategiesFailedError(
            "; ".join(f"{e.strategy_id}: {e.error}" for e in errors[:5])
        )
    metadata = {
        "version": __version__,
        "created_unix": time.time(),
        "config_digest": _config_digest(pipeline, strategies, config),
        "calibration_units_per_second": calibration,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "backend": {
            "kind": backend.config.kind.value,
            "bandwidth": backend.config.bandwidth,
            "open_latency": backend.config.open_latency,
            "iops_cap": backend.config.iops_cap,
            "chunk": backend.config.chunk,
        },
        "epochs": config.run.epochs,
        "repeats": config.repeats,
        "epoch_selector": config.epoch_selector,
        "interrupted": interrupted,
        "strategies_requested": len(strategies),
    }
    return Campaign(records=tuple(records), errors=tuple(errors), metadata=metadata)


# ------------------------------------------------------------- serialization
#
# The campaign document: campaign_to_dict writes it and campaign_from_dict
# reads it back, one function per level (epoch, strategy, record) each
# way.  No other module reads or writes its keys.


class CampaignFormatError(ValueError):
    """A campaign document that does not hold what campaign_to_dict writes."""


_NUMBER = (int, float)
_DIGEST = (str, type(None))


def _checked(doc, where: str, **want) -> dict:
    """The `want` keys of doc, each checked to be of its JSON type; an Enum
    type takes its value as a string.  Never a bool where a number is
    wanted (Python's bool is an int), never a non-finite float (json.loads
    accepts NaN)."""
    if not isinstance(doc, dict):
        raise CampaignFormatError(f"{where} must be an object")
    out = {}
    for key, kind in want.items():
        if key not in doc:
            raise CampaignFormatError(f"{where}: missing {key!r}")
        value = doc[key]
        plain = str if isinstance(kind, enum.EnumMeta) else kind
        if isinstance(value, bool) or not isinstance(value, plain):
            names = " or ".join(t.__name__ for t in (kind if isinstance(kind, tuple) else (kind,)))
            raise CampaignFormatError(f"{where}: {key} must be {names}, got {type(value).__name__}")
        if isinstance(value, float) and not math.isfinite(value):
            raise CampaignFormatError(f"{where}: {key} must be finite, got {value!r}")
        try:
            out[key] = value if plain is kind else kind(value)
        except ValueError:
            names = ", ".join(m.value for m in kind)
            raise CampaignFormatError(f"{where}: {key} {value!r} is not one of {names}") from None
    return out


def _epoch_to_dict(e: EpochStats) -> dict:
    return {
        "epoch": e.epoch,
        "samples": e.samples,
        "wall_seconds": e.wall_seconds,
        "throughput": e.throughput,
        "bytes_read": e.io.bytes_read,
        "bytes_written": e.io.bytes_written,
        "opens": e.io.opens,
        "read_seconds": e.io.read_seconds,
        "cache": e.cache.value,
        "multiset_digest": e.multiset_digest,
        "sequence_digest": e.sequence_digest,
    }


def _epoch_from_dict(d, where: str) -> EpochStats:
    v = _checked(d, where, epoch=int, samples=int, wall_seconds=_NUMBER, throughput=_NUMBER,
                 bytes_read=int, bytes_written=int, opens=int, read_seconds=_NUMBER,
                 cache=CacheOutcome, multiset_digest=_DIGEST, sequence_digest=_DIGEST)
    io = IoSnapshot(*(v.pop(k) for k in ("bytes_read", "bytes_written", "opens", "read_seconds")))
    return EpochStats(io=io, **v)


def _strategy_to_dict(s: Strategy) -> dict:
    return {
        "split_index": s.split_index,
        "compression": s.compression.value,
        "shards": s.shards,
        "parallelism": s.parallelism,
        "cache_mode": s.cache_mode.value,
        "shuffle_buffer": s.shuffle_buffer,
    }


def _strategy_from_dict(d, where: str) -> Strategy:
    v = _checked(d, where, split_index=int, compression=Compression, shards=int,
                 parallelism=int, cache_mode=CacheMode, shuffle_buffer=int)
    try:
        return Strategy(**v)
    except ValueError as exc:
        raise CampaignFormatError(f"{where}: {exc}") from None


def record_to_dict(r: ProfileRecord) -> dict:
    return {
        "strategy_id": r.strategy_id,
        "label": r.label,
        "strategy": _strategy_to_dict(r.strategy),
        "sample_count": r.sample_count,
        "preprocessing_seconds": r.preprocessing_seconds,
        "storage_bytes": r.storage_bytes,
        "predicted_storage_bytes": r.predicted_storage_bytes,
        "throughput_sps": r.throughput_sps,
        "throughput_std": r.throughput_std,
        "repeats": [[_epoch_to_dict(e) for e in eps] for eps in r.repeats],
    }


def record_from_dict(d, where: str = "campaign record") -> ProfileRecord:
    v = _checked(d, where, strategy_id=str, label=str, strategy=dict, sample_count=int,
                 preprocessing_seconds=_NUMBER, storage_bytes=int, predicted_storage_bytes=int,
                 throughput_sps=_NUMBER, throughput_std=_NUMBER, repeats=list)
    if not all(isinstance(eps, list) for eps in v["repeats"]):
        raise CampaignFormatError(f"{where}: repeats must be a list of epoch lists")
    v["strategy"] = _strategy_from_dict(v["strategy"], f"{where}.strategy")
    v["repeats"] = tuple(
        tuple(_epoch_from_dict(ep, f"{where}.repeats[{r}][{e}]") for e, ep in enumerate(eps))
        for r, eps in enumerate(v["repeats"])
    )
    return ProfileRecord(**v)


def campaign_to_dict(campaign: Campaign) -> dict:
    return {
        "metadata": campaign.metadata,
        "records": [record_to_dict(r) for r in campaign.records],
        "errors": [{"strategy_id": e.strategy_id, "error": e.error} for e in campaign.errors],
    }


def campaign_from_dict(doc) -> Campaign:
    """The campaign a campaign_to_dict document holds, with every value
    checked; CampaignFormatError names the first bad one."""
    records = _checked(doc, "campaign", records=list)["records"]
    records = tuple(record_from_dict(r, f"campaign record {i}") for i, r in enumerate(records))
    v = _checked(doc, "campaign", errors=list, metadata=dict)
    errors = tuple(CampaignError(**_checked(e, f"campaign error {i}", strategy_id=str, error=str))
                   for i, e in enumerate(v["errors"]))
    return Campaign(records, errors, v["metadata"])


def save_campaign(campaign: Campaign, path: str | Path) -> None:
    """Write the campaign to a temporary file beside `path`, then rename it
    into place: a crash or a failed serialization leaves any earlier file
    at `path` whole, and no temporary file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(campaign_to_dict(campaign), fh, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_campaign(path: str | Path) -> Campaign:
    """The campaign saved at `path`, typed and checked: raises
    json.JSONDecodeError for a file that is not JSON and
    CampaignFormatError for one that is not a campaign document."""
    return campaign_from_dict(json.loads(Path(path).read_text()))
