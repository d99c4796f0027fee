"""execute_step semantics and the calibrated compute model."""

import random
import struct
import time

import numpy as np
import pytest

from presto.core import DType, StepKind, StepSpec, Tensor
from presto.steps import (
    DTypeMismatchError,
    ShapeMismatchError,
    calibration_units_per_second,
    execute_step,
)


def u8(n, value=7):
    return Tensor(DType.U8, (n,), bytes([value]) * n)


def spec(kind, ratio=1.0, cost=0.0, **params):
    return StepSpec(name="s", kind=kind, size_ratio=ratio, compute_cost=cost, params=params)


# ---------------------------------------------------------------- widen

def test_widen_quadruples_bytes():
    out = execute_step(spec(StepKind.WIDEN, ratio=4.0), u8(1000))
    assert out.dtype is DType.F32
    assert out.nbytes == 4000
    assert out.shape == (1000,)
    np.testing.assert_array_equal(out.to_numpy(), np.full(1000, 7.0, dtype=np.float32))


def test_widen_rejects_non_u8():
    t = Tensor(DType.F32, (4,), bytes(16))
    with pytest.raises(DTypeMismatchError):
        execute_step(spec(StepKind.WIDEN, ratio=4.0), t)


# ---------------------------------------------------------------- greyscale

def test_greyscale_channel_mean():
    arr = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    out = execute_step(spec(StepKind.GREYSCALE, ratio=1 / 3), Tensor.from_numpy(arr))
    assert out.shape == (2, 4)
    assert out.nbytes == 24 // 3
    np.testing.assert_array_equal(out.to_numpy(), np.rint(arr.mean(axis=-1)).astype(np.uint8))


def test_greyscale_needs_three_channels():
    arr = np.zeros((5, 4), dtype=np.uint8)
    with pytest.raises(ShapeMismatchError):
        execute_step(spec(StepKind.GREYSCALE, ratio=1 / 3), Tensor.from_numpy(arr))


# ---------------------------------------------------------------- aggregate

def test_aggregate_window_count_oracle():
    # independent oracle: 64000 elements in windows of 500 -> 128 windows
    n, period = 64000, 500
    values = np.arange(n, dtype=np.float64)
    t = Tensor.from_numpy(values)
    out = execute_step(spec(StepKind.AGGREGATE, period=period), t)
    assert out.shape == (n // period,) == (128,)
    assert out.dtype is DType.F64
    # first three windows recomputed longhand
    for w in range(3):
        window = values[w * period : (w + 1) * period]
        rms = (sum(x * x for x in window) / period) ** 0.5
        assert out.to_numpy()[w] == pytest.approx(rms)


def test_aggregate_copies_multiply_output():
    t = Tensor.from_numpy(np.ones(1000, dtype=np.float64))
    out = execute_step(spec(StepKind.AGGREGATE, period=100, copies=3), t)
    assert out.shape == (30,)
    np.testing.assert_allclose(out.to_numpy(), 1.0)


def test_aggregate_short_input_yields_empty():
    t = Tensor.from_numpy(np.ones(3, dtype=np.float64))
    out = execute_step(spec(StepKind.AGGREGATE, period=10), t)
    assert out.shape == (0,)


# ---------------------------------------------------------------- crop

def test_random_crop_seeded_reproducible():
    t = Tensor.from_numpy(np.arange(1000, dtype=np.int32))
    s = spec(StepKind.RANDOM_CROP, ratio=0.5, fraction=0.5)
    a = execute_step(s, t, random.Random(42))
    b = execute_step(s, t, random.Random(42))
    assert a == b
    assert a.shape == (500,)
    outputs = {execute_step(s, t, random.Random(seed)).data for seed in range(20)}
    assert len(outputs) > 1  # different seeds generally differ


def test_random_crop_is_contiguous_slice():
    base = np.arange(100, dtype=np.int32)
    out = execute_step(
        spec(StepKind.RANDOM_CROP, ratio=0.25, fraction=0.25),
        Tensor.from_numpy(base),
        random.Random(7),
    )
    values = out.to_numpy()
    assert len(values) == 25
    start = values[0]
    np.testing.assert_array_equal(values, base[start : start + 25])


def test_random_crop_requires_rng():
    with pytest.raises(ValueError):
        execute_step(spec(StepKind.RANDOM_CROP, ratio=0.5, fraction=0.5), u8(10))


# ---------------------------------------------------------------- resize

def test_resize_drops_leading_rows():
    arr = np.arange(30, dtype=np.uint8).reshape(10, 3)
    out = execute_step(spec(StepKind.RESIZE, ratio=0.4), Tensor.from_numpy(arr))
    assert out.shape == (4, 3)
    np.testing.assert_array_equal(out.to_numpy(), arr[:4])


# ---------------------------------------------------------------- decode / map

def test_decode_hits_declared_ratio_and_dtype():
    out = execute_step(spec(StepKind.DECODE, ratio=3.0), u8(1000))
    assert out.dtype is DType.U8
    assert out.nbytes == 3000
    deflated = execute_step(spec(StepKind.DECODE, ratio=0.25), u8(1000))
    assert deflated.nbytes == 250


def test_decode_with_channels_shapes_output():
    out = execute_step(spec(StepKind.DECODE, ratio=3.0, channels=3), u8(999))
    assert out.rank == 2
    assert out.shape[1] == 3
    assert out.nbytes == out.shape[0] * 3


def test_map_compute_dtype_out():
    out = execute_step(
        spec(StepKind.MAP_COMPUTE, ratio=8.0, dtype_out="F32"), u8(512)
    )
    assert out.dtype is DType.F32
    assert out.nbytes == 4096


def test_mixing_is_deterministic_and_input_derived():
    s = spec(StepKind.DECODE, ratio=2.0)
    a = execute_step(s, u8(100, value=3))
    b = execute_step(s, u8(100, value=3))
    c = execute_step(s, u8(100, value=9))
    assert a == b
    assert a != c


def test_mixing_preserves_zero_runs():
    src = Tensor(DType.U8, (1000,), bytes(500) + bytes([255]) * 500)
    out = execute_step(spec(StepKind.DECODE, ratio=2.0), src)
    values = out.to_numpy()
    assert (values == 0).sum() == 1000  # zero fraction carried through


# ---------------------------------------------------------------- compute model

def test_calibration_is_positive_and_cached():
    a = calibration_units_per_second()
    b = calibration_units_per_second()
    assert a == b
    assert a > 1e6


def test_compute_cost_scales_step_wall_time():
    payload = u8(200_000)
    cal = calibration_units_per_second()
    cheap = spec(StepKind.MAP_COMPUTE, ratio=1.0, cost=0.0)
    heavy_cost = max(100.0, 0.05 * cal / payload.nbytes)  # at least 50 ms modeled
    heavy = spec(StepKind.MAP_COMPUTE, ratio=1.0, cost=heavy_cost)

    t0 = time.perf_counter()
    execute_step(cheap, payload)
    cheap_s = time.perf_counter() - t0

    expected = heavy_cost * payload.nbytes / cal
    t0 = time.perf_counter()
    execute_step(heavy, payload)
    heavy_s = time.perf_counter() - t0

    assert heavy_s >= expected * 0.95
    assert heavy_s > cheap_s
    assert heavy_s == pytest.approx(expected, rel=0.5, abs=0.05)


def test_ingest_is_identity():
    t = u8(64)
    assert execute_step(spec(StepKind.INGEST), t) == t


def test_costed_step_takes_the_larger_of_real_time_and_budget():
    # the real transform runs inside the modeled budget, not after it
    payload = u8(4_000_000)
    cal = calibration_units_per_second()

    def costed(budget):
        return spec(StepKind.DECODE, ratio=4.0, cost=budget * cal / payload.nbytes,
                    dtype_out="F32")

    def timed(step):
        t0 = time.perf_counter()
        execute_step(step, payload)
        return time.perf_counter() - t0

    free = costed(0.0)
    real = min(timed(free) for _ in range(3))
    over = costed(0.8 * real)  # real work overruns the budget
    # interleaved, so a slow phase of the host hits both
    runs = [(timed(free), timed(over)) for _ in range(5)]
    real = min(r for r, _ in runs)
    assert min(o for _, o in runs) < 1.4 * real  # 1.8x if the two added up

    budget = max(0.04, 4 * real)  # real work fits well inside the budget
    under = costed(budget)
    took = min(timed(under) for _ in range(3))
    assert 0.95 * budget <= took < budget + 0.5 * real
