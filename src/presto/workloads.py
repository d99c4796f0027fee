"""Synthetic datasets and preset pipelines.

Sources are generated, not downloaded: every sample is a seeded pseudo-random
byte string with a controllable fraction of zero bytes (the compressibility
knob).  Presets mirror measured production pipelines through their size
ratios and per-sample compute budgets; the numbers are encoded here as plain
ratios so predictions stay checkable arithmetic.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .core import DType, ExecMode, Pipeline, StepKind, StepSpec, Tensor, validate_pipeline
from .recordio import write_container
from .storage import StorageBackend

FILES_PER_DIR = 4096
DEFAULT_SOURCE_SHARDS = 8


class Layout(enum.Enum):
    MANY_SMALL_FILES = "many_small_files"  # one file per sample
    CONTAINERS = "containers"  # pre-packed record shards


class UnknownPresetError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetDescriptor:
    layout: Layout
    sample_count: int
    bytes_per_sample: int
    dtype: DType
    root: Path
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", Path(self.root))
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.bytes_per_sample < self.dtype.width:
            raise ValueError("bytes_per_sample smaller than one element")
        if self.bytes_per_sample % self.dtype.width:
            raise ValueError("bytes_per_sample must be a multiple of the element width")

    @property
    def total_bytes(self) -> int:
        return self.sample_count * self.bytes_per_sample


def planned_sample_count(total_bytes: int, bytes_per_sample: int) -> int:
    """Sample count whose total lands within one sample of the request."""
    if total_bytes <= 0 or bytes_per_sample <= 0:
        raise ValueError("sizes must be positive")
    return max(1, round(total_bytes / bytes_per_sample))


def sample_file_path(root: Path, index: int) -> Path:
    return Path(root) / f"d{index // FILES_PER_DIR:05d}" / f"s{index:09d}.bin"


def source_paths(descriptor: DatasetDescriptor) -> list[Path]:
    """On-store files backing a descriptor, in sample order."""
    if descriptor.layout is Layout.MANY_SMALL_FILES:
        # the same paths as sample_file_path, each built from one string
        # rather than two Path joins
        prefix = os.path.join(descriptor.root, "")
        return [
            Path(f"{prefix}d{i // FILES_PER_DIR:05d}/s{i:09d}.bin")
            for i in range(descriptor.sample_count)
        ]
    hits = sorted(Path(descriptor.root).glob("data-*-of-*.prc*"))
    if not hits:
        raise FileNotFoundError(f"no container shards under {descriptor.root}")
    return hits


def sample_bytes(descriptor: DatasetDescriptor, index: int, compressibility: float) -> bytes:
    """Deterministic payload for one sample: a zero-byte prefix sized by the
    compressibility knob (a fraction in [0, 1]), then seeded random bytes."""
    n = descriptor.bytes_per_sample
    n_zero = int(round(compressibility * n))
    rng = np.random.default_rng([descriptor.seed, index])
    tail = rng.integers(0, 256, n - n_zero, dtype=np.uint8).tobytes()
    return bytes(n_zero) + tail


def iter_source_tensors(
    descriptor: DatasetDescriptor, compressibility: float
) -> Iterator[Tensor]:
    width = descriptor.dtype.width
    for i in range(descriptor.sample_count):
        data = sample_bytes(descriptor, i, compressibility)
        yield Tensor(descriptor.dtype, (len(data) // width,), data)


def generate_synthetic(
    root: str | Path,
    total_bytes: int,
    bytes_per_sample: int,
    dtype: DType = DType.U8,
    layout: Layout = Layout.MANY_SMALL_FILES,
    seed: int = 0,
    compressibility: float = 0.5,
    backend: StorageBackend | None = None,
    shards: int = DEFAULT_SOURCE_SHARDS,
) -> DatasetDescriptor:
    """Write a synthetic dataset and return its descriptor."""
    if not 0.0 <= compressibility <= 1.0:
        raise ValueError(f"compressibility must be in [0, 1], got {compressibility}")
    backend = backend or StorageBackend()
    bytes_per_sample = (bytes_per_sample // dtype.width) * dtype.width
    descriptor = DatasetDescriptor(
        layout=layout,
        sample_count=planned_sample_count(total_bytes, bytes_per_sample),
        bytes_per_sample=bytes_per_sample,
        dtype=dtype,
        root=Path(root),
        seed=seed,
    )
    if layout is Layout.MANY_SMALL_FILES:
        for i in range(descriptor.sample_count):
            with backend.open_write(sample_file_path(descriptor.root, i)) as fh:
                fh.write(sample_bytes(descriptor, i, compressibility))
    else:
        write_container(
            iter_source_tensors(descriptor, compressibility),
            Path(descriptor.root) / "data",
            shards=min(shards, descriptor.sample_count),
            backend=backend,
        )
    return descriptor


# ---------------------------------------------------------------------------
# Presets.  Sample sizes are the measured per-sample averages of the modeled
# datasets; sample counts default to 1/64 of the originals so a preset fits on
# a desk.  compute_cost units are checksum bytes (see steps module): cost *
# bytes_per_input / calibration ~= the modeled per-sample seconds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PresetInfo:
    name: str
    steps: tuple[StepSpec, ...]
    layout: Layout
    dtype: DType
    bytes_per_sample: int
    default_total_bytes: int
    compressibility: float


def _cv_like(name: str, bps: int, total: int, decode_ratio: float, decode_cost: float) -> PresetInfo:
    return PresetInfo(
        name=name,
        steps=(
            StepSpec("ingest", StepKind.INGEST),
            StepSpec("decoded", StepKind.DECODE, size_ratio=decode_ratio,
                     compute_cost=decode_cost, params={"channels": 3}),
            StepSpec("resized", StepKind.RESIZE, size_ratio=0.4449, compute_cost=2.0),
            StepSpec("pixel-centered", StepKind.WIDEN, size_ratio=4.0, compute_cost=4.0),
            StepSpec("random-crop", StepKind.RANDOM_CROP, size_ratio=0.875,
                     params={"fraction": 0.875}),
        ),
        layout=Layout.MANY_SMALL_FILES,
        dtype=DType.U8,
        bytes_per_sample=bps,
        default_total_bytes=total,
        compressibility=0.05,
    )


def _registry() -> dict[str, PresetInfo]:
    presets = {}

    # photos stored compressed; decoding inflates ~5.2x, resize keeps ~44%,
    # widening to float quadruples, the random crop keeps 7/8
    presets["cv"] = _cv_like("cv", bps=114_700, total=2_295_000_000,
                             decode_ratio=5.231, decode_cost=30.0)
    # high-resolution camera raws: huge decode inflation, aggressive resize
    cv2 = _cv_like("cv2-jpg-like", bps=520_300, total=39_700_000,
                   decode_ratio=24.99, decode_cost=40.0)
    presets["cv2-jpg-like"] = replace(
        cv2,
        steps=tuple(
            replace(s, size_ratio=0.0227) if s.name == "resized" else s for s in cv2.steps
        ),
    )
    # same photos losslessly packed: decode deflates below the source size
    png = _cv_like("cv2-png-like", bps=17_417_600, total=1_331_000_000,
                   decode_ratio=0.7464, decode_cost=15.0)
    presets["cv2-png-like"] = replace(
        png,
        steps=tuple(
            replace(s, size_ratio=0.0227) if s.name == "resized" else s for s in png.steps
        ),
    )

    presets["nlp"] = PresetInfo(
        name="nlp",
        steps=(
            StepSpec("ingest", StepKind.INGEST),
            # article extraction via a non-reentrant library: exclusive, slow,
            # and the clean text is a small fraction of the page
            StepSpec("decoded", StepKind.DECODE, size_ratio=0.0770, compute_cost=3900.0,
                     exec_mode=ExecMode.EXCLUSIVE),
            StepSpec("bpe-encoded", StepKind.MAP_COMPUTE, size_ratio=1.089, compute_cost=2400.0,
                     params={"dtype_out": "I16"}),
            # embedding lookup blows each token up to a float vector
            StepSpec("embedded", StepKind.MAP_COMPUTE, size_ratio=758.9, compute_cost=1100.0,
                     params={"dtype_out": "F32"}),
        ),
        layout=Layout.MANY_SMALL_FILES,
        dtype=DType.U8,
        bytes_per_sample=42_700,
        default_total_bytes=120_000_000,
        compressibility=0.05,
    )

    presets["nilm"] = PresetInfo(
        name="nilm",
        steps=(
            StepSpec("ingest", StepKind.INGEST),
            # hdf5-style unpack through an exclusive library call
            StepSpec("decoded", StepKind.DECODE, size_ratio=6.933, compute_cost=13.5,
                     exec_mode=ExecMode.EXCLUSIVE, params={"dtype_out": "F64"}),
            # three window aggregates per dual-channel block of 256 readings
            StepSpec("aggregated", StepKind.AGGREGATE, size_ratio=3 / 256, compute_cost=1.5,
                     params={"period": 256, "copies": 3}),
        ),
        layout=Layout.CONTAINERS,
        dtype=DType.U8,
        bytes_per_sample=147_700,
        default_total_bytes=618_000_000,
        compressibility=0.05,
    )

    presets["audio-mp3-like"] = PresetInfo(
        name="audio-mp3-like",
        steps=(
            StepSpec("ingest", StepKind.INGEST),
            StepSpec("decoded", StepKind.DECODE, size_ratio=11.19, compute_cost=305.0,
                     params={"dtype_out": "I16"}),
            StepSpec("spectrogram", StepKind.MAP_COMPUTE, size_ratio=0.363, compute_cost=23.0,
                     params={"dtype_out": "F32"}),
        ),
        layout=Layout.MANY_SMALL_FILES,
        dtype=DType.U8,
        bytes_per_sample=19_700,
        default_total_bytes=3_900_000,
        compressibility=0.05,
    )

    presets["audio-flac-like"] = PresetInfo(
        name="audio-flac-like",
        steps=(
            StepSpec("ingest", StepKind.INGEST),
            StepSpec("decoded", StepKind.DECODE, size_ratio=1.768, compute_cost=35.0,
                     params={"dtype_out": "I16"}),
            StepSpec("spectrogram", StepKind.MAP_COMPUTE, size_ratio=1.0, compute_cost=20.0,
                     params={"dtype_out": "F32"}),
        ),
        layout=Layout.MANY_SMALL_FILES,
        dtype=DType.U8,
        bytes_per_sample=231_900,
        default_total_bytes=103_000_000,
        compressibility=0.05,
    )

    presets["synthetic-grid"] = PresetInfo(
        name="synthetic-grid",
        steps=(StepSpec("ingest", StepKind.INGEST),),
        layout=Layout.CONTAINERS,
        dtype=DType.U8,
        bytes_per_sample=512_000,
        default_total_bytes=256_000_000,
        compressibility=0.5,
    )
    return presets


_PRESETS = _registry()

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_info(name: str) -> PresetInfo:
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}"
        ) from None


def preset(
    name: str,
    root: str | Path = "dataset",
    total_bytes: int | None = None,
    seed: int = 0,
) -> tuple[Pipeline, DatasetDescriptor]:
    """Pipeline plus dataset defaults for a named preset.  The dataset is
    described, not generated; pass the descriptor to generate_for."""
    info = preset_info(name)
    total = total_bytes if total_bytes is not None else info.default_total_bytes
    descriptor = DatasetDescriptor(
        layout=info.layout,
        sample_count=planned_sample_count(total, info.bytes_per_sample),
        bytes_per_sample=info.bytes_per_sample,
        dtype=info.dtype,
        root=Path(root),
        seed=seed,
    )
    pipe = Pipeline(source=descriptor, steps=info.steps)
    validate_pipeline(pipe)
    return pipe, descriptor


def generate_for(
    descriptor: DatasetDescriptor,
    compressibility: float,
    backend: StorageBackend | None = None,
) -> DatasetDescriptor:
    """Write the files a descriptor promises."""
    return generate_synthetic(
        root=descriptor.root,
        total_bytes=descriptor.total_bytes,
        bytes_per_sample=descriptor.bytes_per_sample,
        dtype=descriptor.dtype,
        layout=descriptor.layout,
        seed=descriptor.seed,
        compressibility=compressibility,
        backend=backend,
    )


GRID_SIZES_MB = tuple(0.01 * 2**k for k in range(9))  # 0.01 .. 2.56 MB


def synthetic_grid(
    root: str | Path,
    total_bytes_each: int,
    sizes_mb: Sequence[float] = GRID_SIZES_MB,
    dtypes: Sequence[DType] = (DType.U8, DType.F32),
    seed: int = 0,
) -> list[tuple[Pipeline, DatasetDescriptor]]:
    """Descriptor sweep over sample sizes and dtypes, containers layout."""
    out = []
    for dtype in dtypes:
        for mb in sizes_mb:
            bps = int(round(mb * 1_000_000))
            bps = max(dtype.width, (bps // dtype.width) * dtype.width)
            sub = Path(root) / f"{dtype.name.lower()}-{int(round(mb * 1000)):06d}kb"
            descriptor = DatasetDescriptor(
                layout=Layout.CONTAINERS,
                sample_count=planned_sample_count(total_bytes_each, bps),
                bytes_per_sample=bps,
                dtype=dtype,
                root=sub,
                seed=seed,
            )
            pipe = Pipeline(
                source=descriptor, steps=(StepSpec("ingest", StepKind.INGEST),)
            )
            out.append((pipe, descriptor))
    return out
