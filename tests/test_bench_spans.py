"""The traced benchmark (bench/spans.py) wraps presto's functions by the
attribute names its callers look them up by, so a rename inside presto
would leave a layer untraced, or stop the traced run at its first patch."""

import importlib.util
import threading
from pathlib import Path

import pytest

from presto import engine
from presto.core import Pipeline, StepKind, StepSpec, Strategy
from presto.engine import RunConfig, run_online
from presto.profiler import materialize
from presto.storage import StorageBackend
from presto.workloads import generate_synthetic

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_attribute_exists():
    spans = load_spans()
    targets = [
        *((owner, attr) for owner, attr, _ in spans.FUNCTIONS),
        *spans.CALIBRATION,
        *((spans.storage.StorageBackend, attr) for attr in spans.OPENERS),
    ]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


@pytest.mark.parametrize("split", [0, 1])
def test_engine_calls_traced_functions_through_their_attributes(tmp_path, monkeypatch, split):
    """A patch of an engine attribute must see every call the engine makes:
    a function bound before the patch would drop its layer from a trace."""
    traced = {attr for owner, attr, _ in load_spans().FUNCTIONS if owner is engine}
    assert traced == {"verify_payload", "decode_tensor", "execute_step"}
    desc = generate_synthetic(tmp_path / "src", total_bytes=12 * 1024,
                              bytes_per_sample=1024, seed=3)
    pipe = Pipeline(source=desc, steps=(
        StepSpec("ingest", StepKind.INGEST),
        StepSpec("double", StepKind.DECODE, size_ratio=2.0),
        StepSpec("widened", StepKind.WIDEN, size_ratio=4.0),
    ))
    strategy = Strategy(split_index=split, parallelism=2)
    backend = StorageBackend()
    mat, _ = materialize(strategy, pipe, backend, tmp_path / "mat")
    calls = dict.fromkeys(traced, 0)
    lock = threading.Lock()

    def counted(attr):
        real = getattr(engine, attr)

        def wrapper(*args, **kwargs):
            with lock:  # two workers call these
                calls[attr] += 1
            return real(*args, **kwargs)
        return wrapper

    for attr in traced:
        monkeypatch.setattr(engine, attr, counted(attr))
    (ep,) = run_online(strategy, pipe, backend, RunConfig(), materialized=mat)
    framed = desc.sample_count if split == 1 else 0  # raw files are not framed
    assert ep.samples == desc.sample_count == 12
    assert calls == {
        "verify_payload": framed,
        "decode_tensor": framed,
        "execute_step": desc.sample_count * (len(pipe.steps) - 1),
    }
