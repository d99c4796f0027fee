"""Ranking and reporting over profiled strategies.

Scores live on min-max normalized axes so the weights stay unitless: with
weights (w_p, w_s, w_t), score = w_p*p + w_s*s + w_t*(1 - t) where p, s, t
are the normalized preprocessing time, storage footprint, and throughput.
Lower is better; throughput enters inverted because more of it is better.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .core import ObjectiveWeights
from .profiler import Campaign, ProfileRecord, campaign_to_dict

CSV_COLUMNS = [
    "strategy",
    "split",
    "compression",
    "parallelism",
    "cache_mode",
    "epoch",
    "repeat",
    "preproc_s",
    "storage_bytes",
    "throughput_sps",
    "bytes_read",
    "bytes_written",
    "score",
    "rank",
]


class AnalysisError(ValueError):
    pass


class EmptyVectorError(AnalysisError):
    pass


class NonFiniteValueError(AnalysisError):
    pass


class NegativeWeightError(AnalysisError):
    pass


class NonPositiveBaselineError(AnalysisError):
    pass


def normalize(values: Sequence[float]) -> list[float]:
    """Min-max squeeze onto [0, 1]; a constant vector maps to all zeros."""
    if len(values) == 0:
        raise EmptyVectorError("nothing to normalize")
    floats = [float(v) for v in values]
    if any(not math.isfinite(v) for v in floats):
        raise NonFiniteValueError(f"non-finite value in {floats!r}")
    lo, hi = min(floats), max(floats)
    if hi == lo:
        return [0.0] * len(floats)
    span = hi - lo
    return [(v - lo) / span for v in floats]


@dataclass(frozen=True)
class RankedEntry:
    rank: int
    strategy_id: str
    label: str
    split_index: int
    score: float
    preprocessing_seconds: float
    storage_bytes: int
    throughput_sps: float
    norm_preprocessing: float
    norm_storage: float
    norm_throughput: float


@dataclass(frozen=True)
class StrategyRanking:
    weights: ObjectiveWeights
    entries: tuple[RankedEntry, ...]

    @property
    def chosen(self) -> RankedEntry:
        return self.entries[0]

    def by_id(self, strategy_id: str) -> RankedEntry:
        for e in self.entries:
            if e.strategy_id == strategy_id:
                return e
        raise KeyError(strategy_id)


def score_and_rank(
    records: Sequence[ProfileRecord], weights: ObjectiveWeights | None = None
) -> StrategyRanking:
    """Rank profiled strategies; lowest score wins rank 1.

    Ties break toward the earlier split, then the smaller footprint, then
    the lexicographic strategy id, so a ranking is always a total order.
    """
    weights = weights or ObjectiveWeights()
    if any(w < 0 for w in weights.as_tuple()):
        raise NegativeWeightError(f"weights must be non-negative: {weights}")
    if len(records) == 0:
        raise EmptyVectorError("no records to rank")

    p_hat = normalize([r.preprocessing_seconds for r in records])
    s_hat = normalize([r.storage_bytes for r in records])
    t_hat = normalize([r.throughput_sps for r in records])
    w_p, w_s, w_t = weights.as_tuple()

    scored = []
    for r, p, s, t in zip(records, p_hat, s_hat, t_hat):
        score = w_p * p + w_s * s + w_t * (1.0 - t)
        scored.append((score, r.strategy.split_index, r.storage_bytes,
                       r.strategy_id, r, p, s, t))
    scored.sort(key=lambda row: row[:4])

    entries = tuple(
        RankedEntry(
            rank=i + 1,
            strategy_id=row[3],
            label=row[4].label,
            split_index=row[1],
            score=row[0],
            preprocessing_seconds=row[4].preprocessing_seconds,
            storage_bytes=row[2],
            throughput_sps=row[4].throughput_sps,
            norm_preprocessing=row[5],
            norm_storage=row[6],
            norm_throughput=row[7],
        )
        for i, row in enumerate(scored)
    )
    return StrategyRanking(weights=weights, entries=entries)


def speedup(value: float, baseline: float) -> float:
    if baseline <= 0 or not math.isfinite(baseline):
        raise NonPositiveBaselineError(f"baseline must be positive, got {baseline}")
    return value / baseline


def theoretical_max_throughput(bandwidth_bytes_per_s: float, bytes_per_sample: float) -> float:
    """Upper bound on samples/s if reading were the only cost."""
    if bandwidth_bytes_per_s <= 0 or bytes_per_sample <= 0:
        raise AnalysisError("bandwidth and sample size must be positive")
    return bandwidth_bytes_per_s / bytes_per_sample


class Bottleneck(enum.Enum):
    IO_BOUND = "io_bound"
    CPU_BOUND = "cpu_bound"


def classify_bottleneck(
    bytes_read: int,
    wall_seconds: float,
    probed_bandwidth: float,
    threshold: float = 0.8,
) -> Bottleneck:
    """An epoch that kept storage busier than `threshold` of its measured
    ceiling was limited by reads; anything else had cycles to spare on the
    compute side."""
    if wall_seconds <= 0 or probed_bandwidth <= 0:
        raise AnalysisError("wall_seconds and probed_bandwidth must be positive")
    utilization = (bytes_read / wall_seconds) / probed_bandwidth
    return Bottleneck.IO_BOUND if utilization >= threshold else Bottleneck.CPU_BOUND


# ------------------------------------------------------------------- reports


def emit_report_csv(campaign: Campaign, ranking: StrategyRanking, path: str | Path) -> int:
    """One row per strategy x repeat x epoch; returns the row count.

    Floats are written with repr so a parse of the file reproduces the
    measured values bit for bit.
    """
    by_id = {e.strategy_id: e for e in ranking.entries}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in campaign.records:
            entry = by_id[rec.strategy_id]
            st = rec.strategy
            for repeat_idx, epochs in enumerate(rec.repeats, start=1):
                for ep in epochs:
                    writer.writerow([
                        rec.strategy_id,
                        st.split_index,
                        st.compression.value,
                        st.parallelism,
                        st.cache_mode.value,
                        ep.epoch,
                        repeat_idx,
                        repr(float(rec.preprocessing_seconds)),
                        rec.storage_bytes,
                        repr(float(ep.throughput)),
                        ep.io.bytes_read,
                        ep.io.bytes_written,
                        repr(float(entry.score)),
                        entry.rank,
                    ])
                    rows += 1
    return rows


def emit_report_json(campaign: Campaign, ranking: StrategyRanking, path: str | Path) -> None:
    saved = campaign_to_dict(campaign)
    doc = {
        "metadata": saved["metadata"],
        "weights": {
            "preprocessing": ranking.weights.w_p,
            "storage": ranking.weights.w_s,
            "throughput": ranking.weights.w_t,
        },
        "ranking": [asdict(e) for e in ranking.entries],
        "records": saved["records"],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
