import random
import zlib
from pathlib import Path

import pytest

from presto.core import DType, StepKind, validate_pipeline
from presto.recordio import read_container
from presto.workloads import (
    DatasetDescriptor,
    Layout,
    PRESET_NAMES,
    UnknownPresetError,
    generate_for,
    generate_synthetic,
    iter_source_tensors,
    planned_sample_count,
    preset,
    preset_info,
    sample_bytes,
    sample_file_path,
    source_paths,
    synthetic_grid,
)
from presto.steps import execute_step


def test_planned_sample_count_matches_hand_division():
    # 15 GB of 20.5 MB samples and of 10 KB samples, worked out by hand
    assert planned_sample_count(15_000_000_000, 20_500_000) == 732
    assert planned_sample_count(15_000_000_000, 10_000) == 1_500_000
    assert planned_sample_count(5, 10) == 1  # never zero


def test_planned_sample_count_within_one_sample():
    for total, bps in [(1_000_000, 333), (77, 10), (2_295_000_000, 114_700)]:
        count = planned_sample_count(total, bps)
        assert abs(count * bps - total) <= bps


def test_sample_bytes_deterministic_and_seed_sensitive():
    d = DatasetDescriptor(Layout.MANY_SMALL_FILES, 4, 4096, DType.U8, Path("x"), seed=7)
    assert sample_bytes(d, 0, 0.5) == sample_bytes(d, 0, 0.5)
    assert sample_bytes(d, 0, 0.5) != sample_bytes(d, 1, 0.5)
    other = DatasetDescriptor(Layout.MANY_SMALL_FILES, 4, 4096, DType.U8, Path("x"), seed=8)
    assert sample_bytes(d, 0, 0.5) != sample_bytes(other, 0, 0.5)


def test_compressibility_knob_controls_zero_prefix():
    d = DatasetDescriptor(Layout.MANY_SMALL_FILES, 1, 10_000, DType.U8, Path("x"))
    all_zero = sample_bytes(d, 0, 1.0)
    assert all_zero == bytes(10_000)
    half = sample_bytes(d, 0, 0.5)
    assert half[:5000] == bytes(5000)
    assert any(half[5000:])
    # compression tracks the knob
    assert len(zlib.compress(all_zero)) < 200
    assert len(zlib.compress(sample_bytes(d, 0, 0.0))) > 9000
    ratio_half = len(zlib.compress(half)) / 10_000
    assert 0.3 < ratio_half < 0.7


def test_generate_many_small_files_layout(tmp_path):
    d = generate_synthetic(tmp_path / "ds", total_bytes=40_000, bytes_per_sample=1000,
                           seed=3, compressibility=0.2)
    assert d.sample_count == 40
    paths = source_paths(d)
    assert paths[0] == tmp_path / "ds" / "d00000" / "s000000000.bin"
    for i, p in enumerate(paths):
        assert p.read_bytes() == sample_bytes(d, i, 0.2)


def test_directory_fanout_boundary():
    root = Path("r")
    assert sample_file_path(root, 4095) == root / "d00000" / "s000004095.bin"
    assert sample_file_path(root, 4096) == root / "d00001" / "s000004096.bin"


@pytest.mark.parametrize("root", ["r", "/", "./r/", "/abs/root"])
def test_source_paths_match_sample_file_path_across_directories(root):
    d = DatasetDescriptor(layout=Layout.MANY_SMALL_FILES, sample_count=4100,
                          bytes_per_sample=1, dtype=DType.U8, root=Path(root))
    assert source_paths(d) == [sample_file_path(d.root, i) for i in range(4100)]


@pytest.mark.parametrize("knob", [5.0, -1.0, float("nan")])
def test_generate_rejects_compressibility_outside_unit_range(tmp_path, knob):
    with pytest.raises(ValueError, match="compressibility"):
        generate_synthetic(tmp_path / "ds", 4_000, 1_000, compressibility=knob)
    assert not (tmp_path / "ds").exists()


def test_generate_is_reproducible(tmp_path):
    a = generate_synthetic(tmp_path / "a", 20_000, 500, seed=11)
    b = generate_synthetic(tmp_path / "b", 20_000, 500, seed=11)
    for pa, pb in zip(source_paths(a), source_paths(b)):
        assert pa.read_bytes() == pb.read_bytes()
    c = generate_synthetic(tmp_path / "c", 20_000, 500, seed=12)
    assert source_paths(a)[0].read_bytes() != source_paths(c)[0].read_bytes()


def test_generate_containers_roundtrip(tmp_path):
    d = generate_synthetic(tmp_path / "ds", total_bytes=64_000, bytes_per_sample=4_000,
                           layout=Layout.CONTAINERS, seed=5, compressibility=0.3, shards=3)
    paths = source_paths(d)
    assert len(paths) == 3
    assert paths[0].name == "data-00000-of-00003.prc"
    back = list(read_container(paths))
    assert len(back) == d.sample_count == 16
    for i, t in enumerate(back):
        assert t.data == sample_bytes(d, i, 0.3)


def test_bytes_per_sample_snapped_to_element_width(tmp_path):
    d = generate_synthetic(tmp_path / "f32", total_bytes=8_000, bytes_per_sample=1_001,
                           dtype=DType.F32)
    assert d.bytes_per_sample == 1_000
    with pytest.raises(ValueError):
        DatasetDescriptor(Layout.MANY_SMALL_FILES, 1, 1_001, DType.F32, Path("x"))
    with pytest.raises(ValueError):
        DatasetDescriptor(Layout.MANY_SMALL_FILES, 0, 1_000, DType.F32, Path("x"))


def test_preset_names_and_unknown():
    for name in ("cv", "cv2-jpg-like", "cv2-png-like", "nlp", "nilm",
                 "audio-mp3-like", "audio-flac-like", "synthetic-grid"):
        assert name in PRESET_NAMES
    with pytest.raises(UnknownPresetError):
        preset_info("tabular")


def test_presets_validate_and_default_scale():
    for name in PRESET_NAMES:
        pipe, desc = preset(name, root="r")
        validate_pipeline(pipe)
        assert pipe.source is desc
        assert desc.total_bytes <= 2_400_000_000  # desk scale throughout
    pipe, desc = preset("cv", total_bytes=1_147_000)
    assert desc.sample_count == 10


def _per_sample_after(info, step_name):
    size = float(info.bytes_per_sample)
    for step in info.steps:
        size *= step.size_ratio
        if step.name == step_name:
            return size
    raise AssertionError(step_name)


# Declared chain products against the modeled per-sample footprints the
# ratios were derived from (independent arithmetic, 10% relative headroom).
@pytest.mark.parametrize(
    "name,step_name,expected",
    [
        ("cv", "decoded", 600_000),
        ("cv", "resized", 266_923),        # 347 GB over 1.3 M samples
        ("cv", "pixel-centered", 1_067_692),  # 1388 GB over 1.3 M samples
        ("cv2-jpg-like", "decoded", 13_000_000),
        ("cv2-jpg-like", "pixel-centered", 1_180_000),
        ("cv2-png-like", "decoded", 13_000_000),
        ("nlp", "decoded", 3_290),
        ("nlp", "bpe-encoded", 3_580),
        ("nlp", "embedded", 2_713_000),
        ("nilm", "decoded", 1_024_000),
        ("nilm", "aggregated", 12_000),
        ("audio-mp3-like", "decoded", 220_400),
        ("audio-mp3-like", "spectrogram", 80_000),
        ("audio-flac-like", "decoded", 410_000),
    ],
)
def test_preset_chain_products_match_modeled_sizes(name, step_name, expected):
    info = preset_info(name)
    assert _per_sample_after(info, step_name) == pytest.approx(expected, rel=0.10)


@pytest.mark.parametrize("name", sorted(set(PRESET_NAMES) - {"synthetic-grid"}))
def test_preset_chains_execute_and_track_declared_ratios(name):
    # Running the real steps on a generated sample must land within 2% of
    # the declared size products, else storage predictions would drift.
    info = preset_info(name)
    pipe, desc = preset(name, root="unused")
    t = next(iter_source_tensors(desc, info.compressibility))
    rng = random.Random(0)
    expected = float(desc.bytes_per_sample)
    for step in pipe.steps[1:]:
        t = execute_step(step, t, rng=rng)
        expected *= step.size_ratio
        assert t.nbytes == pytest.approx(expected, rel=0.02), step.name


def test_nilm_aggregate_grid_is_exact():
    # 1.024 MB of float64 readings in blocks of 256 -> 500 windows, 3 stats
    info = preset_info("nilm")
    pipe, desc = preset("nilm", root="unused")
    t = next(iter_source_tensors(desc, info.compressibility))
    for step in pipe.steps[1:]:
        t = execute_step(step, t)
    assert t.dtype is DType.F64
    assert t.nbytes == 12_000


def test_exclusive_steps_marked():
    assert preset_info("nlp").steps[1].exec_mode.name == "EXCLUSIVE"
    assert preset_info("nilm").steps[1].exec_mode.name == "EXCLUSIVE"
    assert preset_info("cv").steps[1].exec_mode.name == "PARALLEL"


def test_synthetic_grid_sweep(tmp_path):
    grid = synthetic_grid(tmp_path, total_bytes_each=1_000_000)
    assert len(grid) == 18
    u8 = [d for p, d in grid if d.dtype is DType.U8]
    f32 = [d for p, d in grid if d.dtype is DType.F32]
    assert len(u8) == len(f32) == 9
    for prev, cur in zip(u8, u8[1:]):
        assert cur.bytes_per_sample == pytest.approx(2 * prev.bytes_per_sample, rel=0.01)
    for d in f32:
        assert d.bytes_per_sample % 4 == 0
    roots = {d.root for _, d in grid}
    assert len(roots) == 18
    for pipe, _ in grid:
        assert [s.kind for s in pipe.steps] == [StepKind.INGEST]


def test_generate_for_uses_descriptor(tmp_path):
    pipe, desc = preset("audio-mp3-like", root=tmp_path / "au", total_bytes=100_000)
    info = preset_info("audio-mp3-like")
    out = generate_for(desc, info.compressibility)
    assert out == desc
    assert source_paths(desc)[0].exists()
