"""Core domain model: tensors, pipeline steps, strategies, storage prediction.

A pipeline is a linear chain of steps, step 0 always being the Ingest step
that reads raw samples.  A strategy picks a split position m: the first m
steps run once ahead of time and their output is materialized to record
containers; the remaining steps run online every epoch.  m=0 means nothing
is materialized (raw files are read directly), m=1 repacks the raw samples
into containers without transforming them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np


class DType(enum.Enum):
    """Element types supported by the record container format."""

    U8 = 0
    I16 = 1
    I32 = 2
    F32 = 3
    F64 = 4

    @property
    def code(self) -> int:
        return self.value

    @property
    def width(self) -> int:
        return _WIDTHS[self]

    @property
    def np(self) -> np.dtype:
        # explicit little-endian so container payloads are platform independent
        return _NP_DTYPES[self]

    @classmethod
    def from_code(cls, code: int) -> "DType":
        try:
            return cls(code)
        except ValueError:
            raise ValueError(f"unknown dtype code {code!r}") from None


_WIDTHS = {DType.U8: 1, DType.I16: 2, DType.I32: 4, DType.F32: 4, DType.F64: 8}
_NP_DTYPES = {
    DType.U8: np.dtype("<u1"),
    DType.I16: np.dtype("<i2"),
    DType.I32: np.dtype("<i4"),
    DType.F32: np.dtype("<f4"),
    DType.F64: np.dtype("<f8"),
}

MAX_RANK = 8


class Tensor:
    """A dense row-major tensor: dtype + shape + little-endian element bytes.

    The elements stay in the buffer the tensor was built from (bytes, a
    memoryview, or a C-contiguous ndarray) and are never copied.  `buffer`
    is a read-only flat byte view of them, for hot paths (hashing, writing,
    numpy views); `data` is the same bytes as a `bytes` object, hashable
    and comparable, copied only when the buffer is not already one.
    Tensors are values: nothing reassigns their fields.
    """

    __slots__ = ("dtype", "shape", "buffer")

    def __init__(self, dtype: DType, shape: tuple[int, ...], data) -> None:
        buf = data if type(data) is memoryview else memoryview(data)
        if buf.format != "B" or buf.ndim != 1:
            buf = buf.cast("B") if buf.nbytes else memoryview(b"")
        if not buf.readonly:
            buf = buf.toreadonly()
        if len(shape) > MAX_RANK:
            raise ValueError(f"rank {len(shape)} exceeds maximum {MAX_RANK}")
        if shape and min(shape) < 0:
            raise ValueError(f"negative extent in shape {shape}")
        expected = math.prod(shape) * _WIDTHS[dtype]
        if buf.nbytes != expected:
            raise ValueError(
                f"payload is {buf.nbytes} bytes, shape {shape} of "
                f"{dtype.name} needs {expected}"
            )
        self.dtype = dtype
        self.shape = shape
        self.buffer = buf

    @property
    def data(self) -> bytes:
        whole = self.buffer.obj
        if type(whole) is bytes and len(whole) == self.buffer.nbytes:
            return whole
        return self.buffer.tobytes()

    @property
    def nbytes(self) -> int:
        return self.buffer.nbytes

    @property
    def rank(self) -> int:
        return len(self.shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.dtype is other.dtype
            and self.shape == other.shape
            and self.buffer == other.buffer
        )

    def __hash__(self) -> int:
        return hash((self.dtype, self.shape, self.data))

    def __repr__(self) -> str:
        return f"Tensor(dtype={self.dtype}, shape={self.shape}, nbytes={self.nbytes})"

    def to_numpy(self) -> np.ndarray:
        """A read-only view of the elements."""
        return np.frombuffer(self.buffer, dtype=self.dtype.np).reshape(self.shape)

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "Tensor":
        """Wraps `arr` without copying when it is already C-contiguous in a
        container dtype; the caller must not modify it afterwards."""
        dt = _dtype_for_numpy(arr.dtype)
        contiguous = np.ascontiguousarray(arr, dtype=dt.np)
        return cls(dt, tuple(int(d) for d in arr.shape), contiguous)


def _dtype_for_numpy(npdt: np.dtype) -> DType:
    for dt, candidate in _NP_DTYPES.items():
        if candidate == npdt.newbyteorder("<"):
            return dt
    raise ValueError(f"no container dtype for numpy dtype {npdt}")


class StepKind(enum.Enum):
    INGEST = "ingest"
    DECODE = "decode"
    RESIZE = "resize"
    WIDEN = "widen"
    GREYSCALE = "greyscale"
    MAP_COMPUTE = "map_compute"
    RANDOM_CROP = "random_crop"
    AGGREGATE = "aggregate"


# RandomCrop is the only kind that draws from an rng at run time.
_NONDETERMINISTIC_KINDS = frozenset({StepKind.RANDOM_CROP})


def kind_is_deterministic(kind: StepKind) -> bool:
    return kind not in _NONDETERMINISTIC_KINDS


class ExecMode(enum.Enum):
    PARALLEL = "parallel"
    EXCLUSIVE = "exclusive"  # at most one worker inside the step at a time


class Compression(enum.Enum):
    NONE = "none"
    GZIP = "gzip"
    ZLIB = "zlib"


class CacheMode(enum.Enum):
    NO_CACHE = "no_cache"
    SERIALIZED = "serialized"  # keeps on-store bytes; deserialization still paid
    SAMPLE = "sample"  # keeps tensors at the load point


@dataclass(frozen=True)
class StepSpec:
    """One pipeline stage.

    compute_cost is in calibrated work units per input byte (one unit is one
    byte run through the engine's checksum loop), so the same preset means
    the same amount of CPU work everywhere.
    """

    name: str
    kind: StepKind
    size_ratio: float = 1.0
    compute_cost: float = 0.0
    deterministic: bool | None = None
    exec_mode: ExecMode = ExecMode.PARALLEL
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.deterministic is None:
            object.__setattr__(self, "deterministic", kind_is_deterministic(self.kind))

    def __hash__(self) -> int:  # params dict keeps us from the default hash
        return hash((self.name, self.kind, self.size_ratio, self.compute_cost))


@dataclass(frozen=True)
class Pipeline:
    """Declared transformation chain plus its raw source dataset."""

    source: Any  # workloads.DatasetDescriptor; kept loose to avoid an import cycle
    steps: tuple[StepSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    def step_names(self) -> list[str]:
        return [s.name for s in self.steps]


class PipelineError(ValueError):
    """A pipeline violates a structural invariant."""


class DuplicateStepNameError(PipelineError):
    pass


class MisplacedIngestError(PipelineError):
    pass


class InvalidRatioError(PipelineError):
    pass


class NondeterministicMarkedDeterministicError(PipelineError):
    """A step's deterministic flag disagrees with what its kind allows."""


def validate_pipeline(pipeline: Pipeline) -> None:
    """Raise a PipelineError subclass if the pipeline is malformed."""
    steps = pipeline.steps
    if not steps or steps[0].kind is not StepKind.INGEST:
        raise MisplacedIngestError("step 0 must be the Ingest step")
    for i, step in enumerate(steps[1:], start=1):
        if step.kind is StepKind.INGEST:
            raise MisplacedIngestError(f"Ingest step {step.name!r} at index {i}")
    seen: set[str] = set()
    for step in steps:
        if step.name in seen:
            raise DuplicateStepNameError(f"duplicate step name {step.name!r}")
        seen.add(step.name)
    for step in steps:
        if not (math.isfinite(step.size_ratio) and step.size_ratio > 0):
            raise InvalidRatioError(
                f"step {step.name!r} size_ratio must be finite and > 0, "
                f"got {step.size_ratio!r}"
            )
        if not (math.isfinite(step.compute_cost) and step.compute_cost >= 0):
            raise InvalidRatioError(
                f"step {step.name!r} compute_cost must be finite and >= 0, "
                f"got {step.compute_cost!r}"
            )
        if step.deterministic != kind_is_deterministic(step.kind):
            raise NondeterministicMarkedDeterministicError(
                f"step {step.name!r} of kind {step.kind.value} cannot be "
                f"marked deterministic={step.deterministic}"
            )


def max_split(pipeline: Pipeline) -> int:
    """Largest legal split index: the offline prefix may never contain a
    non-deterministic step, so splits stop at the first one."""
    for i, step in enumerate(pipeline.steps):
        if not kind_is_deterministic(step.kind):
            return i
    return len(pipeline.steps)


@dataclass(frozen=True)
class Strategy:
    """A split position plus materialization and run options."""

    split_index: int
    compression: Compression = Compression.NONE
    shards: int = 1
    parallelism: int = 1
    cache_mode: CacheMode = CacheMode.NO_CACHE
    shuffle_buffer: int = 0

    def __post_init__(self) -> None:
        if self.split_index < 0:
            raise ValueError("split_index must be >= 0")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.shuffle_buffer < 0:
            raise ValueError("shuffle_buffer must be >= 0")

    @property
    def id(self) -> str:
        return (
            f"m{self.split_index}-{self.compression.value}-s{self.shards}"
            f"-p{self.parallelism}-{self.cache_mode.value}-b{self.shuffle_buffer}"
        )


class IllegalSplitError(ValueError):
    """Strategy split index not reachable for this pipeline."""


def validate_strategy(strategy: Strategy, pipeline: Pipeline) -> None:
    limit = max_split(pipeline)
    if strategy.split_index > limit:
        raise IllegalSplitError(
            f"split {strategy.split_index} is beyond the last legal split "
            f"{limit} (offline steps must stay deterministic)"
        )
    if strategy.split_index == 0 and strategy.compression is not Compression.NONE:
        raise IllegalSplitError("split 0 reads raw source files; compression does not apply")


def strategy_label(pipeline: Pipeline, split_index: int) -> str:
    """Human name for a split: unprocessed, concatenated, or the last
    offline step's name."""
    if split_index == 0:
        return "unprocessed"
    if split_index == 1:
        return "concatenated"
    return pipeline.steps[split_index - 1].name


@dataclass(frozen=True)
class OptionGrid:
    """Materialization option axes crossed with every legal split."""

    compressions: tuple[Compression, ...] = (Compression.NONE,)
    shards: tuple[int, ...] = (1,)
    parallelisms: tuple[int, ...] = (1,)
    cache_modes: tuple[CacheMode, ...] = (CacheMode.NO_CACHE,)
    shuffle_buffers: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        for name in ("compressions", "shards", "parallelisms", "cache_modes", "shuffle_buffers"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name, low in (("shards", 1), ("parallelisms", 1), ("shuffle_buffers", 0)):
            if any(isinstance(v, bool) or not isinstance(v, int) or v < low
                   for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be ints >= {low}")


def enumerate_strategies(pipeline: Pipeline, grid: OptionGrid) -> list[Strategy]:
    """Every legal split crossed with the option grid.

    Split 0 reads raw files, so compression and sharding collapse there and
    only one (compression=none, shards=1) variant is emitted per remaining
    axis combination.
    """
    validate_pipeline(pipeline)
    out: list[Strategy] = []
    seen: set[Strategy] = set()
    for m in range(max_split(pipeline) + 1):
        for comp in grid.compressions:
            for shards in grid.shards:
                for par in grid.parallelisms:
                    for cache in grid.cache_modes:
                        for buf in grid.shuffle_buffers:
                            s = Strategy(
                                split_index=m,
                                compression=Compression.NONE if m == 0 else comp,
                                shards=1 if m == 0 else shards,
                                parallelism=par,
                                cache_mode=cache,
                                shuffle_buffer=buf,
                            )
                            if s not in seen:
                                seen.add(s)
                                out.append(s)
    return out


# Per-record container overhead: 16 bytes of record framing plus a rank-1
# tensor header (dtype byte, rank byte, one 8-byte extent).
FRAMING_BYTES_PER_SAMPLE = 16 + 2 + 8


def predict_storage(pipeline: Pipeline, split_index: int, source_bytes: int) -> int:
    """Predicted on-store size of a split's materialization, before compression.

    The offline prefix of split m executes steps 0..m-1, so the stored
    representation is the source scaled by the ratios of steps 1..m-1.
    Splits 0 and 1 both store the raw sample bytes; split 0 adds no framing
    because nothing is re-packed.
    """
    if split_index < 0:
        raise ValueError("split_index must be >= 0")
    if source_bytes < 0:
        raise ValueError("source_bytes must be >= 0")
    if split_index == 0:
        return source_bytes
    scale = 1.0
    for step in pipeline.steps[1:split_index]:
        scale *= step.size_ratio
    sample_count = int(getattr(pipeline.source, "sample_count", 0))
    return int(round(source_bytes * scale)) + FRAMING_BYTES_PER_SAMPLE * sample_count


@dataclass(frozen=True)
class ObjectiveWeights:
    """Relative importance of preprocessing time, storage, and throughput."""

    w_p: float = 0.0
    w_s: float = 0.0
    w_t: float = 1.0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_p, self.w_s, self.w_t)
