"""The traced benchmark (bench/spans.py) wraps presto's functions by the
attribute names its callers look them up by, so a rename inside presto
would leave a layer untraced, or stop the traced run at its first patch."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [
        *((owner, attr) for owner, attr, _ in spans.FUNCTIONS),
        *spans.CALIBRATION,
        *((spans.storage.StorageBackend, attr) for attr in spans.OPENERS),
    ]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
