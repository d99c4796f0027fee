"""Core model tests: type invariants, strategy enumeration, storage prediction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presto.core import (
    FRAMING_BYTES_PER_SAMPLE,
    Compression,
    DType,
    DuplicateStepNameError,
    IllegalSplitError,
    InvalidRatioError,
    MisplacedIngestError,
    NondeterministicMarkedDeterministicError,
    ObjectiveWeights,
    OptionGrid,
    Pipeline,
    StepKind,
    StepSpec,
    Strategy,
    Tensor,
    enumerate_strategies,
    max_split,
    predict_storage,
    strategy_label,
    validate_pipeline,
    validate_strategy,
)


class FakeSource:
    def __init__(self, sample_count=0, bytes_per_sample=0):
        self.sample_count = sample_count
        self.bytes_per_sample = bytes_per_sample


def step(name, kind, ratio=1.0, cost=0.0, **kw):
    return StepSpec(name=name, kind=kind, size_ratio=ratio, compute_cost=cost, **kw)


def pipeline(*steps, source=None):
    return Pipeline(source=source or FakeSource(), steps=tuple(steps))


# ---------------------------------------------------------------- dtypes

def test_dtype_codes_and_widths():
    expected = {
        DType.U8: (0, 1),
        DType.I16: (1, 2),
        DType.I32: (2, 4),
        DType.F32: (3, 4),
        DType.F64: (4, 8),
    }
    for dt, (code, width) in expected.items():
        assert dt.code == code
        assert dt.width == width
        assert DType.from_code(code) is dt


def test_dtype_unknown_code():
    with pytest.raises(ValueError):
        DType.from_code(9)


# ---------------------------------------------------------------- tensors

def test_tensor_checks_payload_length():
    Tensor(DType.U8, (2, 2), b"\x00" * 4)
    with pytest.raises(ValueError):
        Tensor(DType.U8, (2, 2), b"\x00" * 5)
    with pytest.raises(ValueError):
        Tensor(DType.F32, (3,), b"\x00" * 4)


def test_tensor_rank_and_extent_limits():
    with pytest.raises(ValueError):
        Tensor(DType.U8, (1,) * 9, b"\x00")
    with pytest.raises(ValueError):
        Tensor(DType.U8, (-1,), b"")
    t = Tensor(DType.U8, (1,) * 8, b"\x00")
    assert t.rank == 8


def test_tensor_numpy_roundtrip():
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    t = Tensor.from_numpy(arr)
    assert t.dtype is DType.F32
    assert t.shape == (2, 3, 4)
    np.testing.assert_array_equal(t.to_numpy(), arr)


def test_empty_tensor_is_legal():
    t = Tensor(DType.F64, (0, 5), b"")
    assert t.nbytes == 0


# ---------------------------------------------------------------- validation

def good_pipeline():
    return pipeline(
        step("ingest", StepKind.INGEST),
        step("decoded", StepKind.DECODE, ratio=2.0, cost=1.0),
        step("resized", StepKind.RESIZE, ratio=0.5),
        step("crop", StepKind.RANDOM_CROP, ratio=0.9),
    )


def test_validate_accepts_well_formed():
    validate_pipeline(good_pipeline())


def test_validate_rejects_duplicate_names():
    p = pipeline(
        step("ingest", StepKind.INGEST),
        step("x", StepKind.DECODE, ratio=1.0),
        step("x", StepKind.RESIZE, ratio=0.5),
    )
    with pytest.raises(DuplicateStepNameError):
        validate_pipeline(p)


def test_validate_rejects_missing_or_misplaced_ingest():
    with pytest.raises(MisplacedIngestError):
        validate_pipeline(pipeline(step("decode", StepKind.DECODE)))
    with pytest.raises(MisplacedIngestError):
        validate_pipeline(
            pipeline(step("ingest", StepKind.INGEST), step("again", StepKind.INGEST))
        )
    with pytest.raises(MisplacedIngestError):
        validate_pipeline(pipeline())


@pytest.mark.parametrize("ratio", [0.0, -1.0, float("inf"), float("nan")])
def test_validate_rejects_bad_ratio(ratio):
    p = pipeline(step("ingest", StepKind.INGEST), step("d", StepKind.DECODE, ratio=ratio))
    with pytest.raises(InvalidRatioError):
        validate_pipeline(p)


def test_validate_rejects_negative_cost():
    p = pipeline(step("ingest", StepKind.INGEST), step("d", StepKind.DECODE, cost=-0.5))
    with pytest.raises(InvalidRatioError):
        validate_pipeline(p)


def test_validate_rejects_determinism_mismatch():
    p = pipeline(
        step("ingest", StepKind.INGEST),
        StepSpec("crop", StepKind.RANDOM_CROP, size_ratio=0.5, deterministic=True),
    )
    with pytest.raises(NondeterministicMarkedDeterministicError):
        validate_pipeline(p)
    q = pipeline(
        step("ingest", StepKind.INGEST),
        StepSpec("d", StepKind.DECODE, size_ratio=1.0, deterministic=False),
    )
    with pytest.raises(NondeterministicMarkedDeterministicError):
        validate_pipeline(q)


def test_determinism_defaults_from_kind():
    assert StepSpec("d", StepKind.DECODE).deterministic is True
    assert StepSpec("c", StepKind.RANDOM_CROP).deterministic is False


# ---------------------------------------------------------------- splits

def test_max_split_stops_at_first_nondeterministic_step():
    p = pipeline(
        step("ingest", StepKind.INGEST),
        step("decoded", StepKind.DECODE),
        step("crop", StepKind.RANDOM_CROP, ratio=0.5),
        step("widened", StepKind.WIDEN, ratio=4.0),
    )
    # crop sits at index 2, so at most the first two steps may run offline
    assert max_split(p) == 2
    splits = {s.split_index for s in enumerate_strategies(p, OptionGrid())}
    assert splits == {0, 1, 2}


def test_max_split_all_deterministic():
    p = pipeline(
        step("ingest", StepKind.INGEST),
        step("decoded", StepKind.DECODE),
        step("resized", StepKind.RESIZE, ratio=0.5),
        step("widened", StepKind.WIDEN, ratio=4.0),
    )
    assert max_split(p) == 4
    splits = {s.split_index for s in enumerate_strategies(p, OptionGrid())}
    assert splits == {0, 1, 2, 3, 4}


def cv_shaped_pipeline():
    return pipeline(
        step("ingest", StepKind.INGEST),
        step("decoded", StepKind.DECODE, ratio=5.0, cost=1.0),
        step("resized", StepKind.RESIZE, ratio=0.5),
        step("pixel-centered", StepKind.WIDEN, ratio=4.0),
        step("crop", StepKind.RANDOM_CROP, ratio=0.9),
    )


def test_strategy_labels_follow_last_offline_step():
    p = cv_shaped_pipeline()
    labels = [strategy_label(p, m) for m in range(max_split(p) + 1)]
    assert labels == ["unprocessed", "concatenated", "decoded", "resized", "pixel-centered"]


def test_enumerate_collapses_compression_at_split_zero():
    p = cv_shaped_pipeline()
    grid = OptionGrid(compressions=(Compression.NONE, Compression.GZIP, Compression.ZLIB))
    got = enumerate_strategies(p, grid)
    # split 0 admits no compression variants: 1 + 4 splits x 3 compressions
    assert len(got) == 1 + 4 * 3
    assert len(got) == 13
    zero = [s for s in got if s.split_index == 0]
    assert len(zero) == 1 and zero[0].compression is Compression.NONE


_KINDS = st.sampled_from(
    [StepKind.DECODE, StepKind.RESIZE, StepKind.WIDEN, StepKind.MAP_COMPUTE, StepKind.RANDOM_CROP]
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_KINDS, min_size=0, max_size=6))
def test_enumeration_never_puts_nondeterminism_offline(kinds):
    steps = [step("ingest", StepKind.INGEST)]
    steps += [step(f"s{i}", k, ratio=0.5) for i, k in enumerate(kinds)]
    p = pipeline(*steps)
    # independent oracle: scan for the first step an offline prefix may not cover
    first_bad = len(steps)
    for i, s in enumerate(steps):
        if s.kind is StepKind.RANDOM_CROP:
            first_bad = i
            break
    for strat in enumerate_strategies(p, OptionGrid()):
        offline = steps[: strat.split_index]
        assert all(s.kind is not StepKind.RANDOM_CROP for s in offline)
        assert strat.split_index <= first_bad
    split_values = {s.split_index for s in enumerate_strategies(p, OptionGrid())}
    assert split_values == set(range(first_bad + 1))


def test_validate_strategy_rejects_illegal_split():
    p = cv_shaped_pipeline()
    with pytest.raises(IllegalSplitError):
        validate_strategy(Strategy(split_index=5), p)
    with pytest.raises(IllegalSplitError):
        validate_strategy(Strategy(split_index=0, compression=Compression.GZIP), p)
    validate_strategy(Strategy(split_index=4, compression=Compression.GZIP), p)


def test_strategy_field_bounds():
    with pytest.raises(ValueError):
        Strategy(split_index=-1)
    with pytest.raises(ValueError):
        Strategy(split_index=0, shards=0)
    with pytest.raises(ValueError):
        Strategy(split_index=0, parallelism=0)
    with pytest.raises(ValueError):
        Strategy(split_index=0, shuffle_buffer=-1)


@pytest.mark.parametrize("axes", [{"shards": (0,)}, {"parallelisms": (2, 0)},
                                  {"shuffle_buffers": (-1,)}, {"shards": (1.5,)},
                                  {"parallelisms": (True,)}])
def test_option_grid_entry_bounds(axes):
    with pytest.raises(ValueError):
        OptionGrid(**axes)


# ---------------------------------------------------------------- prediction

def test_predict_storage_prefix_semantics():
    # source 100 MB, transform ratios 0.5 then 4; framing is per-sample
    src = FakeSource(sample_count=1000, bytes_per_sample=100_000)
    p = pipeline(
        step("ingest", StepKind.INGEST),
        step("halve", StepKind.RESIZE, ratio=0.5),
        step("widen", StepKind.WIDEN, ratio=4.0),
        source=src,
    )
    total = 100_000_000
    framing = FRAMING_BYTES_PER_SAMPLE * 1000
    assert predict_storage(p, 0, total) == total
    assert predict_storage(p, 1, total) == total + framing
    assert predict_storage(p, 2, total) == 50_000_000 + framing
    assert predict_storage(p, 3, total) == 200_000_000 + framing


def test_predict_storage_multiplicative_in_last_step():
    src = FakeSource(sample_count=10)
    p = pipeline(
        step("ingest", StepKind.INGEST),
        step("a", StepKind.DECODE, ratio=2.0),
        step("b", StepKind.DECODE, ratio=0.25),
        step("c", StepKind.WIDEN, ratio=4.0),
        source=src,
    )
    total = 1_000_000
    framing = FRAMING_BYTES_PER_SAMPLE * 10
    for m in range(2, 5):
        body_prev = predict_storage(p, m - 1, total) - framing
        body = predict_storage(p, m, total) - framing
        assert body == pytest.approx(body_prev * p.steps[m - 1].size_ratio, rel=1e-9)


def test_predict_storage_widen_quadruples():
    src = FakeSource(sample_count=1_300_000)
    p = pipeline(
        step("ingest", StepKind.INGEST),
        step("decoded", StepKind.DECODE, ratio=5.231),
        step("resized", StepKind.RESIZE, ratio=0.4449),
        step("pixel-centered", StepKind.WIDEN, ratio=4.0),
        source=src,
    )
    total = 146_900_000_000
    resized = predict_storage(p, 3, total)
    widened = predict_storage(p, 4, total)
    framing = FRAMING_BYTES_PER_SAMPLE * 1_300_000
    assert (widened - framing) == pytest.approx((resized - framing) * 4, rel=1e-9)
    # the widened representation lands in the 1.4 TB range for a 146.9 GB source
    assert widened == pytest.approx(1.39e12, rel=0.05)


def test_predict_storage_rejects_negatives():
    p = good_pipeline()
    with pytest.raises(ValueError):
        predict_storage(p, -1, 100)
    with pytest.raises(ValueError):
        predict_storage(p, 0, -5)


def test_objective_weights_default_throughput_only():
    w = ObjectiveWeights()
    assert w.as_tuple() == (0.0, 0.0, 1.0)
