"""Layer probes for the traced run.

Some per-layer figures need a controlled comparison the campaign does not
make (digests on against off, one worker against two, a step at zero cost
against its modeled cost), a path the workload may not take (gzip, both
caches), or one thread, so that no time spent waiting for the interpreter
lock is counted (the ROADMAP item-1 baseline).  The probes make those
measurements on the workload's own source samples, on the local backend
so that no simulated wait is counted, with every compute cost set to zero
unless the cost is the point.  Each timing is the median of a few repeats.
Only the engine probe runs under the tracer.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import replace
from pathlib import Path

from presto import core, engine, profiler, recordio, steps, storage
from presto.engine import RunConfig
from presto.recordio import decode_tensor, encode_tensor, verify_payload

import checks
from spans import Tracer

REPEATS = 3
RECORDIO_BYTES = 8_000_000  # cap on the samples the recordio probe packs
STEP_SAMPLES = 64
REFERENCE_BUDGET_S = 50e-6  # modeled time per step of the reference chain

MB = 1e6


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def source_tensors(descriptor, limit_bytes: int | None = None, limit_count: int | None = None):
    out, total = [], 0
    for arr in checks.read_source(descriptor):
        if (limit_count is not None and len(out) >= limit_count) or (
            limit_bytes is not None and out and total + arr.nbytes > limit_bytes
        ):
            break
        out.append(core.Tensor.from_numpy(arr))
        total += arr.nbytes
    return out


def reference_chain(tensor: core.Tensor) -> tuple[core.StepSpec, ...]:
    """ROADMAP item-1 chain for an ingest-only pipeline: a DECODE that
    keeps the size, then a WIDEN to float, each costed at 50 us."""
    units = REFERENCE_BUDGET_S * steps.calibration_units_per_second()
    return (
        core.StepSpec("decoded", core.StepKind.DECODE, 1.0, units / tensor.nbytes),
        core.StepSpec("widened", core.StepKind.WIDEN, 4.0, units / tensor.nbytes),
    )


def steps_probe(pipeline, descriptor) -> dict[str, float]:
    """The online chain after ingest at zero cost (µs/sample), and how far a
    costed step's execution overshoots its modeled budget (µs/step)."""
    tensors = source_tensors(descriptor, limit_count=STEP_SAMPLES)
    chain = pipeline.steps[1:] or reference_chain(tensors[0])
    free = tuple(replace(s, compute_cost=0.0) for s in chain)
    rate = steps.calibration_units_per_second()

    def run_chain(specs, timings=None):
        for t in tensors:
            rng = random.Random(0)
            for spec in specs:
                t0 = time.perf_counter()
                out = steps.execute_step(spec, t, rng=rng)
                if timings is not None:
                    timings.append((time.perf_counter() - t0, spec.compute_cost * t.nbytes / rate))
                t = out

    transform_s = _median_time(lambda: run_chain(free))
    costed, zero = [], []
    run_chain(chain, costed)
    run_chain(free, zero)
    over = [c - z - budget for (c, budget), (z, _) in zip(costed, zero) if budget > 0]
    return {
        "steps.transform_us_per_sample": transform_s / len(tensors) * 1e6,
        "steps.burn_overshoot_us_per_step": statistics.fmean(over) * 1e6,
    }


def recordio_probe(descriptor, work: Path) -> dict[str, float]:
    """Single-threaded record costs on the source samples packed as one
    shard (at most RECORDIO_BYTES of them): encode, write, deflate, the
    whole read path, framing, CRC, decode, inflate."""
    tensors = source_tensors(descriptor, limit_bytes=RECORDIO_BYTES)
    backend = storage.StorageBackend(storage.BackendConfig.local())
    n = len(tensors)

    def pack(comp):
        """(write seconds, shard path, framing seconds) for one compression."""
        base = work / f"probe-{comp.value}"
        write_s = _median_time(lambda: recordio.write_container(tensors, base, comp, 1, backend))
        path = recordio.shard_paths(base, 1, comp)[0]
        blob = path.read_bytes()
        return write_s, path, _median_time(lambda: list(recordio.frames_from_bytes(blob)))

    plain_s, plain, plain_frame_s = pack(core.Compression.NONE)
    gz_s, _, gz_frame_s = pack(core.Compression.GZIP)
    frames = list(recordio.frames_from_bytes(plain.read_bytes()))
    encode_s = _median_time(lambda: [encode_tensor(t) for t in tensors])
    stream_mb = (plain.stat().st_size - recordio.HEADER_LEN) / MB
    return {
        "recordio.encode_us_per_record.single": encode_s / n * 1e6,
        "recordio.write_us_per_mb": (plain_s - encode_s) / stream_mb * 1e6,
        # both writes encode the same records, so the difference is deflate
        "recordio.deflate_us_per_mb": (gz_s - plain_s) / stream_mb * 1e6,
        "recordio.read_us_per_record.single": _median_time(
            lambda: list(recordio.read_container([plain], backend=backend))) / n * 1e6,
        "recordio.frame_us_per_record": plain_frame_s / n * 1e6,
        "recordio.crc_us_per_record.single": _median_time(
            lambda: [verify_payload(p, c) for p, c in frames]) / n * 1e6,
        "recordio.decode_us_per_record.single": _median_time(
            lambda: [decode_tensor(p) for p, _ in frames]) / n * 1e6,
        "recordio.inflate_us_per_mb": (gz_frame_s - plain_frame_s) / stream_mb * 1e6,
    }


HARNESS = ("storage.", "recordio.", "steps.")


def engine_probe(tracer: Tracer, pipeline, descriptor, seed: int, work: Path) -> dict[str, float]:
    """Harness cost per sample of the split-1 strategy on a zero-cost copy
    of the pipeline: handoff at one and two workers, the digest sink, and
    the two cache replays."""
    zero = core.Pipeline(source=descriptor,
                         steps=tuple(replace(s, compute_cost=0.0) for s in pipeline.steps))
    backend = storage.StorageBackend(storage.BackendConfig.local())
    mat, _ = profiler.materialize(core.Strategy(1, shards=2), zero, backend, work / "probe-m1")
    n = mat.sample_count

    def run(parallelism=1, digests=False, cache=core.CacheMode.NO_CACHE, epochs=1):
        strategy = core.Strategy(1, shards=2, parallelism=parallelism, cache_mode=cache)
        config = RunConfig(epochs=epochs, collect_digests=digests, rng_seed=seed)
        start = time.perf_counter_ns()
        eps = engine.run_online(strategy, zero, backend, config, materialized=mat)
        end = time.perf_counter_ns()
        last = eps[-1]
        # the last epoch's window ends with the call
        window_start = end - int(last.wall_seconds * 1e9)
        # threads overlap, so the busiest thread's traced time is the
        # part of the wall time the traced layers account for
        busiest_s = max(tracer.self_ns_by_thread(HARNESS, window_start, end).values(), default=0) / 1e9
        steps_s = tracer.self_ns(("steps.",), window_start, end) / 1e9
        return last.wall_seconds, busiest_s, steps_s

    p1, p1_digest, p2 = [], [], []
    for _ in range(REPEATS):
        p1.append(run(1))
        p1_digest.append(run(1, digests=True))
        p2.append(run(2))
    ser = run(cache=core.CacheMode.SERIALIZED, epochs=2)
    smp = run(cache=core.CacheMode.SAMPLE, epochs=2)

    def handoff(runs):
        return statistics.median((wall - busiest) / n for wall, busiest, _ in runs) * 1e6

    wall_off = statistics.median(r[0] for r in p1)
    wall_on = statistics.median(r[0] for r in p1_digest)
    return {
        "engine.handoff_us_per_sample.p1": handoff(p1),
        "engine.handoff_us_per_sample.p2": handoff(p2),
        "engine.digest_us_per_sample": (wall_on - wall_off) / n * 1e6,
        "engine.replay_us_per_sample.serialized": (ser[0] - ser[2]) / n * 1e6,
        "engine.replay_us_per_sample.sample": (smp[0] - smp[2]) / n * 1e6,
    }
