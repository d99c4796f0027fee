"""In-memory spans around presto's public layer boundaries.

The tracer replaces public functions at the attribute their callers look
them up by (``engine.decode_tensor``, ``profiler.materialize``, ...) and
the ``open_read``/``open_write`` methods of ``StorageBackend``, whose
handles it wraps so each ``read``/``write`` is a span too.  Nothing inside
presto changes, so waits inside the engine (merger, reader queues) are not
visible here.  A span records its parent on the same thread; a layer's
self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path

from presto import cli, engine, profiler, recordio, steps, storage

# (owner, attribute, span name); owners are modules or classes
FUNCTIONS = (
    (engine, "verify_payload", "recordio.crc"),
    (recordio, "verify_payload", "recordio.crc"),
    (engine, "decode_tensor", "recordio.decode"),
    (recordio, "decode_tensor", "recordio.decode"),
    (recordio, "encode_tensor", "recordio.encode"),
    (engine, "execute_step", "steps.execute"),
    (profiler, "execute_step", "steps.execute"),
    (profiler, "run_online", "engine.run_online"),
    (profiler, "materialize", "profiler.materialize"),
    (profiler, "profile_campaign", "profiler.profile_campaign"),
    (cli, "profile_campaign", "profiler.profile_campaign"),
    (cli, "score_and_rank", "analysis.rank_report"),
    (cli, "emit_report_csv", "analysis.rank_report"),
    (cli, "emit_report_json", "analysis.rank_report"),
    (cli, "main", "cli.main"),
)
OPENERS = ("open_read", "open_write")
CALIBRATION = ((steps, "calibration_units_per_second"), (profiler, "calibration_units_per_second"))


class Tracer:
    """Records spans as (id, parent, name, thread, start_ns, end_ns, info)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []
        self.calibration_s: float | None = None

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, info=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), t0, t1,
                               info(args, result) if info and result is not None else None))
        return result

    # ------------------------------------------------------------ wrapping

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name in FUNCTIONS:
            self._patch(owner, attr, self._wrapped(name, getattr(owner, attr), _INFO.get(name)))
        for attr in OPENERS:
            self._patch(storage.StorageBackend, attr, self._opener(getattr(storage.StorageBackend, attr)))
        for owner, attr in CALIBRATION:
            self._patch(owner, attr, self._first_call(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrapped(self, name: str, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)
        return wrapper

    def _opener(self, method):
        tracer = self

        @functools.wraps(method)
        def open_traced(backend, path):
            return _Handle(tracer, tracer.call("storage.open", method, (backend, path), {}))
        return open_traced

    def _first_call(self, fn):
        """Times the first calibration only; later calls hit presto's cache."""
        @functools.wraps(fn)
        def wrapper():
            if self.calibration_s is not None:
                return fn()
            t0 = time.perf_counter()
            rate = fn()
            if self.calibration_s is None:
                self.calibration_s = time.perf_counter() - t0
            return rate
        return wrapper

    # ------------------------------------------------------------ reading

    def select(self, prefixes=("",), start_ns: int = 0, end_ns: int | None = None) -> list[tuple]:
        end = end_ns if end_ns is not None else 1 << 63
        return [s for s in self.spans if s[2].startswith(prefixes) and start_ns <= s[4] <= end]

    def self_ns_by_thread(self, prefixes, start_ns: int = 0, end_ns: int | None = None) -> dict[int, int]:
        """Self time per thread of matching spans started inside the window."""
        child = defaultdict(int)
        for s in self.spans:
            if s[1]:
                child[s[1]] += s[5] - s[4]
        out = defaultdict(int)
        for s in self.select(prefixes, start_ns, end_ns):
            out[s[3]] += s[5] - s[4] - child[s[0]]
        return out

    def self_ns(self, prefixes, start_ns: int = 0, end_ns: int | None = None) -> int:
        return sum(self.self_ns_by_thread(prefixes, start_ns, end_ns).values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tthread\tstart_ns\tend_ns\tinfo\n")
            for s in self.spans:
                fh.write("\t".join(str(v) for v in s) + "\n")


def total_ns(spans) -> int:
    return sum(s[5] - s[4] for s in spans)


def _materialize_info(args, result):
    strategy = args[0]
    mat, stats = result
    return (strategy.split_index, strategy.compression.value, strategy.shards,
            stats.sample_count if mat is not None else 0)


_INFO = {"profiler.materialize": _materialize_info}


class _Handle:
    """A backend file handle whose reads and writes are spans with sizes."""

    def __init__(self, tracer: Tracer, fh) -> None:
        self._tracer = tracer
        self._fh = fh

    def read(self, n: int = -1) -> bytes:
        return self._tracer.call("storage.read", self._fh.read, (n,), {}, _len_of_result)

    def write(self, data: bytes) -> int:
        return self._tracer.call("storage.write", self._fh.write, (data,), {}, _len_of_result)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "_Handle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _len_of_result(args, result):
    return result if isinstance(result, int) else len(result)
