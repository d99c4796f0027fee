"""Step semantics and the calibrated compute model.

A step's compute_cost is expressed in work units per input byte, where one
unit is one byte run through the reference checksum loop.  At import time
nothing is measured; the first costed step calibrates the loop once
(bytes/second of zlib.crc32 on this machine) and the constant is reported
in campaign metadata.

Executing a step with cost c on an n-byte payload takes max(real transform
time, c*n units of virtual CPU time): the budget is booked on the calling
thread's Pacer before the real transform runs, and the worker sleeps only
for what the transform leaves of it.  Each worker thread has its own
Pacer, so parallel workers overlap exactly like cores would, and a wake-up
that comes late is credited to that thread's next step, so sleep
granularity does not pile up over a stream of steps.  Exclusive steps
serialize under the engine's gate, which is held for the whole budget.
The modeled time stays valid on machines with any core count.
"""

from __future__ import annotations

import random
import threading
import time
import zlib

import numpy as np

from .core import DType, StepKind, StepSpec, Tensor
from .storage import Pacer


class ShapeMismatchError(ValueError):
    pass


class DTypeMismatchError(ValueError):
    pass


_CAL_LOCK = threading.Lock()
_CAL_RATE: float | None = None
_CAL_BUFFER = b"\xa5" * (1 << 20)


def calibration_units_per_second() -> float:
    """Measured checksum throughput in units (bytes) per second, cached."""
    global _CAL_RATE
    if _CAL_RATE is not None:
        return _CAL_RATE
    with _CAL_LOCK:
        if _CAL_RATE is not None:
            return _CAL_RATE
        best = 0.0
        for _ in range(3):
            crc = 0
            done = 0
            t0 = time.perf_counter()
            while True:
                crc = zlib.crc32(_CAL_BUFFER, crc)
                done += len(_CAL_BUFFER)
                elapsed = time.perf_counter() - t0
                if elapsed >= 0.05:
                    break
            best = max(best, done / elapsed)
        _CAL_RATE = best
        return _CAL_RATE


_LANES = threading.local()  # each worker thread's Pacer for modeled CPU time


def _cpu_lane() -> Pacer:
    try:
        return _LANES.pacer
    except AttributeError:
        _LANES.pacer = Pacer(calibration_units_per_second())
        return _LANES.pacer


def _as_bytes_view(t: Tensor) -> np.ndarray:
    return np.frombuffer(t.buffer, dtype="<u1")


def _mix_resample(t: Tensor, out_bytes: int, out_dtype: DType, channels: int | None) -> Tensor:
    """Fixed mixing function for Decode/MapCompute output: tile the input's
    byte stream to the target element count and promote to the out dtype.
    Tiling keeps runs of equal bytes intact, so source compressibility
    carries through the pipeline."""
    width = out_dtype.width
    n_elems = max(0, int(round(out_bytes / width)))
    if channels:
        n_elems = (n_elems // channels) * channels
    src = _as_bytes_view(t)
    values = np.resize(src, n_elems)  # cyclic tiling; empty source yields zeros
    arr = values.astype(out_dtype.np)
    if channels:
        arr = arr.reshape(n_elems // channels, channels)
    return Tensor.from_numpy(arr)


def _parse_dtype(value) -> DType:
    if isinstance(value, DType):
        return value
    return DType[str(value).upper()]


def execute_step(step: StepSpec, tensor: Tensor, rng: random.Random | None = None) -> Tensor:
    """Run one step on one sample.  rng is consulted only by RandomCrop."""
    units = step.compute_cost * tensor.nbytes
    if units <= 0:
        return _transform(step, tensor, rng)
    lane = _cpu_lane()
    finish = lane.reserve(units)
    out = _transform(step, tensor, rng)
    lane.wait(finish)
    return out


def _transform(step: StepSpec, tensor: Tensor, rng: random.Random | None) -> Tensor:
    kind = step.kind

    if kind is StepKind.INGEST:
        return tensor

    if kind in (StepKind.DECODE, StepKind.MAP_COMPUTE):
        out_dtype = _parse_dtype(step.params.get("dtype_out", tensor.dtype))
        channels = step.params.get("channels")
        target = step.size_ratio * tensor.nbytes
        return _mix_resample(tensor, int(round(target)), out_dtype, channels)

    if kind is StepKind.RESIZE:
        if tensor.rank < 1:
            raise ShapeMismatchError("resize needs at least one axis")
        arr = tensor.to_numpy()
        keep = int(round(tensor.shape[0] * step.size_ratio))
        keep = min(max(keep, 0), tensor.shape[0])
        return Tensor.from_numpy(arr[:keep])

    if kind is StepKind.WIDEN:
        if tensor.dtype is not DType.U8:
            raise DTypeMismatchError(f"widen expects U8 input, got {tensor.dtype.name}")
        return Tensor.from_numpy(tensor.to_numpy().astype(DType.F32.np))

    if kind is StepKind.GREYSCALE:
        if tensor.rank < 1 or tensor.shape[-1] != 3:
            raise ShapeMismatchError(
                f"greyscale needs a trailing axis of extent 3, got shape {tensor.shape}"
            )
        arr = tensor.to_numpy().astype("<f8").mean(axis=-1)
        if tensor.dtype in (DType.U8, DType.I16, DType.I32):
            arr = np.rint(arr)
        return Tensor.from_numpy(arr.astype(tensor.dtype.np))

    if kind is StepKind.RANDOM_CROP:
        if rng is None:
            raise ValueError("random crop needs an rng")
        if tensor.rank < 1:
            raise ShapeMismatchError("random crop needs at least one axis")
        n0 = tensor.shape[0]
        fraction = float(step.params.get("fraction", step.size_ratio))
        keep = min(max(int(round(n0 * fraction)), 1), n0) if n0 else 0
        offset = rng.randrange(n0 - keep + 1) if n0 > keep else 0
        return Tensor.from_numpy(tensor.to_numpy()[offset : offset + keep])

    if kind is StepKind.AGGREGATE:
        period = int(step.params.get("period", 1))
        copies = int(step.params.get("copies", 1))
        if period < 1 or copies < 1:
            raise ValueError("aggregate needs period >= 1 and copies >= 1")
        flat = tensor.to_numpy().reshape(-1)
        nwin = flat.size // period
        windows = flat[: nwin * period].astype("<f8").reshape(nwin, period)
        rms = np.sqrt(np.square(windows).mean(axis=1)) if nwin else np.zeros(0)
        out = np.tile(rms, copies).astype(tensor.dtype.np)
        return Tensor.from_numpy(out)

    raise ValueError(f"unhandled step kind {kind}")
