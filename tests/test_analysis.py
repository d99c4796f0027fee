import csv
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presto.analysis import (
    Bottleneck,
    CSV_COLUMNS,
    EmptyVectorError,
    NegativeWeightError,
    NonFiniteValueError,
    NonPositiveBaselineError,
    StrategyRanking,
    classify_bottleneck,
    emit_report_csv,
    emit_report_json,
    normalize,
    score_and_rank,
    speedup,
    theoretical_max_throughput,
)
from presto.core import ObjectiveWeights, Strategy
from presto.engine import CacheOutcome, EpochStats
from presto.profiler import Campaign, ProfileRecord
from presto.storage import IoSnapshot


def rec(strategy_id, label, split, p, s, t, repeats=()):
    return ProfileRecord(
        strategy_id=strategy_id,
        label=label,
        strategy=Strategy(split_index=split),
        sample_count=100,
        preprocessing_seconds=p,
        storage_bytes=s,
        predicted_storage_bytes=s,
        throughput_sps=t,
        throughput_std=0.0,
        repeats=repeats,
    )


# Measured anchors for one modeled image pipeline: the raw layout, the fully
# preprocessed layout, and the intermediate resized layout.
ANCHORS = [
    rec("m0-none-s1-p8-no_cache-b0", "unprocessed", 0, 0.0, 146_000_000_000, 107.0),
    rec("m4-none-s8-p8-no_cache-b0", "pixel-centered", 4, 3600.0, 1_535_000_000_000, 576.0),
    rec("m3-none-s8-p8-no_cache-b0", "resized", 3, 2400.0, 494_000_000_000, 1789.0),
]


# ------------------------------------------------------------------ normalize


def test_normalize_basic():
    assert normalize([10, 20, 30]) == [0.0, 0.5, 1.0]


def test_normalize_constant_vector_goes_to_zero():
    assert normalize([7.5, 7.5, 7.5]) == [0.0, 0.0, 0.0]


def test_normalize_rejects_empty_and_non_finite():
    with pytest.raises(EmptyVectorError):
        normalize([])
    with pytest.raises(NonFiniteValueError):
        normalize([1.0, float("nan")])
    with pytest.raises(NonFiniteValueError):
        normalize([1.0, float("inf")])


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=12),
    scale=st.sampled_from([0.5, 2.0, 10.0]),
    shift=st.sampled_from([-5.0, 0.0, 100.0]),
)
def test_normalize_is_affine_invariant(values, scale, shift):
    base = normalize(values)
    moved = normalize([scale * v + shift for v in values])
    assert moved == pytest.approx(base, abs=1e-9)


# -------------------------------------------------------------------- ranking


def test_throughput_only_weights_pick_fastest():
    ranking = score_and_rank(ANCHORS, ObjectiveWeights(0, 0, 1))
    assert ranking.chosen.label == "resized"
    assert [e.label for e in ranking.entries] == ["resized", "pixel-centered", "unprocessed"]
    assert [e.rank for e in ranking.entries] == [1, 2, 3]


def test_storage_only_weights_pick_smallest():
    ranking = score_and_rank(ANCHORS, ObjectiveWeights(0, 1, 0))
    assert ranking.chosen.label == "unprocessed"


def test_preprocessing_only_weights_pick_cheapest():
    ranking = score_and_rank(ANCHORS, ObjectiveWeights(1, 0, 0))
    assert ranking.chosen.label == "unprocessed"


def test_mixed_weights_match_longhand_arithmetic():
    w = ObjectiveWeights(0.2, 0.3, 0.5)
    ranking = score_and_rank(ANCHORS, w)
    # normalize by hand: spans over p [0, 3600], s [146e9, 1535e9], t [107, 1789]
    for entry, r in zip(sorted(ranking.entries, key=lambda e: e.strategy_id),
                        sorted(ANCHORS, key=lambda r: r.strategy_id)):
        p = (r.preprocessing_seconds - 0.0) / 3600.0
        s = (r.storage_bytes - 146e9) / (1535e9 - 146e9)
        t = (r.throughput_sps - 107.0) / (1789.0 - 107.0)
        assert entry.score == pytest.approx(0.2 * p + 0.3 * s + 0.5 * (1 - t))
        assert entry.norm_preprocessing == pytest.approx(p)
        assert entry.norm_storage == pytest.approx(s)
        assert entry.norm_throughput == pytest.approx(t)


def test_default_weights_are_throughput_only():
    assert score_and_rank(ANCHORS).chosen.label == "resized"


def test_weights_validation_and_empty():
    with pytest.raises(NegativeWeightError):
        score_and_rank(ANCHORS, ObjectiveWeights(-0.1, 0, 1))
    with pytest.raises(EmptyVectorError):
        score_and_rank([], ObjectiveWeights())


def test_tie_breaks_split_then_storage_then_id():
    # equal on every axis: the earlier split wins
    twins = [
        rec("m2-none-s1-p1-no_cache-b0", "b", 2, 1.0, 100, 10.0),
        rec("m0-none-s1-p1-no_cache-b0", "a", 0, 1.0, 100, 10.0),
    ]
    order = [e.strategy_id for e in score_and_rank(twins, ObjectiveWeights(0, 0, 1)).entries]
    assert order == ["m0-none-s1-p1-no_cache-b0", "m2-none-s1-p1-no_cache-b0"]

    # same split and score, smaller footprint wins (weights ignore storage)
    twins = [
        rec("m1-none-s2-p1-no_cache-b0", "big", 1, 1.0, 500, 10.0),
        rec("m1-none-s1-p1-no_cache-b0", "small", 1, 1.0, 100, 10.0),
    ]
    order = [e.label for e in score_and_rank(twins, ObjectiveWeights(0, 0, 1)).entries]
    assert order == ["small", "big"]

    # full tie: lexicographic id keeps the order total
    twins = [
        rec("m1-zlib-s1-p1-no_cache-b0", "z", 1, 1.0, 100, 10.0),
        rec("m1-gzip-s1-p1-no_cache-b0", "g", 1, 1.0, 100, 10.0),
    ]
    order = [e.label for e in score_and_rank(twins, ObjectiveWeights(0, 0, 1)).entries]
    assert order == ["g", "z"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=10, unique=True))
def test_throughput_only_ranking_sorts_by_throughput(throughputs):
    records = [
        rec(f"m1-none-s1-p1-no_cache-b{i}", f"r{i}", 1, 5.0, 1000, float(t))
        for i, t in enumerate(throughputs)
    ]
    ranking = score_and_rank(records, ObjectiveWeights(0, 0, 1))
    got = [e.throughput_sps for e in ranking.entries]
    assert got == sorted(got, reverse=True)


def test_ranking_lookup_helpers():
    ranking = score_and_rank(ANCHORS)
    assert ranking.by_id(ANCHORS[0].strategy_id).label == "unprocessed"
    with pytest.raises(KeyError):
        ranking.by_id("m9-none-s1-p1-no_cache-b0")
    assert ranking.chosen is ranking.entries[0]


# ------------------------------------------------------- derived single values


def test_speedup_arithmetic():
    assert speedup(1789.0, 107.0) == pytest.approx(16.72, rel=1e-3)
    with pytest.raises(NonPositiveBaselineError):
        speedup(10.0, 0.0)
    with pytest.raises(NonPositiveBaselineError):
        speedup(10.0, -3.0)


def test_theoretical_max_throughput_arithmetic():
    # 910 MB/s over 0.1147 MB samples
    assert theoretical_max_throughput(910e6, 0.1147e6) == pytest.approx(7933.7, rel=1e-3)
    with pytest.raises(Exception):
        theoretical_max_throughput(0, 1)


def test_bottleneck_classification_thresholds():
    assert classify_bottleneck(91, 1.0, 100.0) is Bottleneck.IO_BOUND
    assert classify_bottleneck(54, 1.0, 100.0) is Bottleneck.CPU_BOUND
    assert classify_bottleneck(80, 1.0, 100.0) is Bottleneck.IO_BOUND  # boundary
    assert classify_bottleneck(79, 1.0, 100.0, threshold=0.79) is Bottleneck.IO_BOUND
    with pytest.raises(Exception):
        classify_bottleneck(10, 0.0, 100.0)


# -------------------------------------------------------------------- reports


def full_doc(n_strategies=5, repeats=5, epochs=2):
    records = []
    for i in range(n_strategies):
        reps = tuple(
            tuple(
                EpochStats(
                    epoch=e + 1,
                    samples=100,
                    wall_seconds=1.0 + i * 0.1 + r * 0.01 + e * 0.001,
                    throughput=1234.56789012345 + i * 17.3 + r * 1.7 + e * 0.13,
                    io=IoSnapshot(bytes_read=1000 * (i + 1), bytes_written=0, opens=3,
                                  read_seconds=0.5),
                    cache=CacheOutcome.DISABLED,
                )
                for e in range(epochs)
            )
            for r in range(repeats)
        )
        records.append(rec(f"m{i}-none-s1-p1-no_cache-b0", f"s{i}", i,
                           0.987654321098765 * (i + 1), 10_000 + 1000 * i, 900.0 + i, reps))
    return Campaign(records=tuple(records), errors=(), metadata={"version": "test"})


def test_csv_report_shape_and_roundtrip(tmp_path):
    doc = full_doc()
    ranking = score_and_rank(doc.records)
    out = tmp_path / "report.csv"
    rows = emit_report_csv(doc, ranking, out)
    assert rows == 5 * 5 * 2 == 50

    with open(out, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == CSV_COLUMNS
    assert len(parsed) == 51
    # float cells parse back to the exact measured values
    for rec_doc in doc.records:
        want_rows = [
            row for row in parsed[1:] if row[0] == rec_doc.strategy_id
        ]
        assert len(want_rows) == 10
        for row in want_rows:
            repeat, epoch = int(row[6]), int(row[5])
            ep = rec_doc.repeats[repeat - 1][epoch - 1]
            assert float(row[9]) == ep.throughput
            assert float(row[7]) == rec_doc.preprocessing_seconds
            assert int(row[8]) == rec_doc.storage_bytes
            assert int(row[10]) == ep.io.bytes_read
    ranks = {row[0]: int(row[13]) for row in parsed[1:]}
    assert sorted(ranks.values()) == [1, 2, 3, 4, 5]


def test_csv_report_empty_is_header_only(tmp_path):
    doc = Campaign(records=(), errors=(), metadata={})
    ranking = StrategyRanking(weights=ObjectiveWeights(), entries=())
    out = tmp_path / "empty.csv"
    assert emit_report_csv(doc, ranking, out) == 0
    with open(out, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed == [CSV_COLUMNS]


def test_json_report_structure(tmp_path):
    doc = full_doc(n_strategies=3, repeats=1, epochs=1)
    ranking = score_and_rank(doc.records, ObjectiveWeights(0, 0, 1))
    out = tmp_path / "report.json"
    emit_report_json(doc, ranking, out)
    loaded = json.loads(out.read_text())
    assert set(loaded) == {"metadata", "weights", "ranking", "records"}
    assert loaded["ranking"][0]["rank"] == 1
    assert loaded["weights"] == {"preprocessing": 0.0, "storage": 0.0, "throughput": 1.0}
    assert len(loaded["records"]) == 3
    # best throughput listed first under throughput-only weights
    tops = [e["throughput_sps"] for e in loaded["ranking"]]
    assert tops == sorted(tops, reverse=True)
