"""Correctness checks, computed apart from presto.

The oracle reads the generated source with plain ``open``, parses record
containers with its own reader of the format documented in
``presto.recordio``, re-derives each step's output from the step semantics
documented in ``presto.steps`` with numpy, and hashes the documented tensor
payload layout (dtype u8, rank u8, rank u64 extents, row-major bytes) with
``struct`` and ``hashlib``.  Only the pipeline's declared numbers (size
ratios, params) are taken from presto, never its code paths.

Every check takes the plain-dict campaign document (the ``campaign.json``
form) and returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import gzip
import hashlib
import math
import random
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"PRESTOC1"
HEADER = struct.Struct("<8sBB6s")
DTYPES = {0: "<u1", 1: "<i2", 2: "<i4", 3: "<f4", 4: "<f8"}
DTYPE_CODES = {np.dtype(v): k for k, v in DTYPES.items()}
DTYPE_NAMES = {"U8": "<u1", "I16": "<i2", "I32": "<i4", "F32": "<f4", "F64": "<f8"}


# ----------------------------------------------------------------- format


def parse_container(blob: bytes) -> list[bytes]:
    """The record payloads of one shard file, CRCs checked."""
    magic, version, comp, reserved = HEADER.unpack_from(blob)
    if magic != MAGIC or version != 1 or reserved != bytes(6):
        raise ValueError("bad container header")
    stream = blob[HEADER.size:]
    if comp == 1:
        stream = gzip.decompress(stream)
    elif comp == 2:
        stream = zlib.decompress(stream)
    payloads, pos = [], 0
    while pos < len(stream):
        (length,) = struct.unpack_from("<Q", stream, pos)
        (lencrc,) = struct.unpack_from("<I", stream, pos + 8)
        if zlib.crc32(stream[pos:pos + 8]) != lencrc:
            raise ValueError(f"length CRC mismatch at {pos}")
        payload = stream[pos + 12:pos + 12 + length]
        if len(payload) != length or pos + 16 + length > len(stream):
            raise ValueError(f"record truncated at {pos}")
        (crc,) = struct.unpack_from("<I", stream, pos + 12 + length)
        if zlib.crc32(payload) != crc:
            raise ValueError(f"payload CRC mismatch at {pos}")
        payloads.append(payload)
        pos += 16 + length
    return payloads


def payload_to_array(payload: bytes) -> np.ndarray:
    code, rank = struct.unpack_from("<BB", payload)
    shape = struct.unpack_from(f"<{rank}Q", payload, 2)
    return np.frombuffer(payload, dtype=DTYPES[code], offset=2 + 8 * rank).reshape(shape)


def array_payload(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    return (struct.pack("<BB", DTYPE_CODES[arr.dtype], arr.ndim)
            + struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.tobytes())


def record_bytes(arr: np.ndarray) -> int:
    """On-store bytes of one uncompressed record: framing plus payload."""
    return 16 + 2 + 8 * arr.ndim + arr.nbytes


def digests(payloads) -> tuple[str, str]:
    """(multiset, sequence) digests: XOR and chained SHA-256 of payload hashes."""
    xor = 0
    seq = hashlib.sha256()
    for p in payloads:
        h = hashlib.sha256(p).digest()
        xor ^= int.from_bytes(h, "big")
        seq.update(h)
    return xor.to_bytes(32, "big").hex(), seq.hexdigest()


# ----------------------------------------------------------------- oracle


def read_source(descriptor) -> list[np.ndarray]:
    """Source samples in index order, read with plain open."""
    root = Path(descriptor.root)
    if descriptor.layout.value == "many_small_files":
        files = sorted(root.glob("d*/s*.bin"))
        return [np.frombuffer(f.read_bytes(), dtype="<u1") for f in files]
    shards = [parse_container(f.read_bytes()) for f in sorted(root.glob("data-*-of-*.prc"))]
    out = []
    for i in range(max(len(s) for s in shards)):
        out.extend(payload_to_array(s[i]) for s in shards if i < len(s))
    return out


def apply_step(step, arr: np.ndarray, rng_seed: int, epoch: int, seq: int, idx: int) -> np.ndarray:
    """One step's documented output; compute cost does not change it."""
    kind, params = step.kind.value, step.params
    if kind == "ingest":
        return arr
    if kind in ("decode", "map_compute"):
        name = params.get("dtype_out")
        out_dtype = np.dtype(DTYPE_NAMES[str(name).upper()]) if name else arr.dtype
        channels = params.get("channels")
        n = max(0, int(round(int(round(step.size_ratio * arr.nbytes)) / out_dtype.itemsize)))
        if channels:
            n = (n // channels) * channels
        out = np.resize(arr.view("<u1").reshape(-1), n).astype(out_dtype)
        return out.reshape(n // channels, channels) if channels else out
    if kind == "resize":
        return arr[:min(max(int(round(arr.shape[0] * step.size_ratio)), 0), arr.shape[0])]
    if kind == "widen":
        return arr.astype("<f4")
    if kind == "random_crop":
        n0 = arr.shape[0]
        keep = min(max(int(round(n0 * float(params.get("fraction", step.size_ratio)))), 1), n0)
        rng = random.Random(hash((rng_seed, epoch, seq, idx)))
        offset = rng.randrange(n0 - keep + 1) if n0 > keep else 0
        return arr[offset:offset + keep]
    if kind == "aggregate":
        period, copies = int(params.get("period", 1)), int(params.get("copies", 1))
        flat = arr.reshape(-1)
        nwin = flat.size // period
        windows = flat[:nwin * period].astype("<f8").reshape(nwin, period)
        rms = np.sqrt(np.square(windows).mean(axis=1)) if nwin else np.zeros(0)
        return np.tile(rms, copies).astype(arr.dtype)
    raise ValueError(f"no oracle for step kind {kind}")


@dataclass
class Oracle:
    sample_count: int
    source_bytes: int  # on-store bytes of the raw source files
    stored_record_bytes: dict[int, int]  # split -> sum of uncompressed record bytes
    epoch_digests: dict[int, tuple[str, str]]  # epoch -> (multiset, sequence)


def build_oracle(pipeline, descriptor, rng_seed: int, epochs: int) -> Oracle:
    """Expected digests per epoch and stored bytes per split."""
    source = read_source(descriptor)
    steps = pipeline.steps
    random_from = next((i for i, s in enumerate(steps) if not s.deterministic), len(steps))
    stored = {1: sum(record_bytes(a) for a in source)}
    prefix = list(source)
    for m in range(2, random_from + 1):
        prefix = [apply_step(steps[m - 1], a, rng_seed, 0, i, m - 1) for i, a in enumerate(prefix)]
        stored[m] = sum(record_bytes(a) for a in prefix)
    # deterministic steps give the same output every epoch
    epoch_digests = {}
    for epoch in range(1, epochs + 1):
        if epoch > 1 and random_from == len(steps):
            epoch_digests[epoch] = epoch_digests[1]
            continue
        outs = []
        for i, a in enumerate(prefix):
            for j in range(random_from + 1, len(steps) + 1):
                a = apply_step(steps[j - 1], a, rng_seed, epoch, i, j - 1)
            outs.append(array_payload(a))
        epoch_digests[epoch] = digests(outs)
    source_bytes = sum(f.stat().st_size for f in Path(descriptor.root).glob(
        "d*/s*.bin" if descriptor.layout.value == "many_small_files" else "data-*-of-*.prc"))
    return Oracle(len(source), source_bytes, stored, epoch_digests)


# ----------------------------------------------------------------- checks


def _epochs(doc: dict):
    for rec in doc["records"]:
        for rep in rec["repeats"]:
            for ep in rep:
                yield rec, ep


def check_digests(doc: dict, oracle: Oracle) -> list[str]:
    """Every epoch's multiset digest equals the oracle's; an unshuffled
    single-worker epoch also delivers the oracle's order.  Across splits,
    the per-epoch multisets agree (and with a shuffle, still match the
    unshuffled oracle)."""
    bad = []
    for rec, ep in _epochs(doc):
        want_set, want_seq = oracle.epoch_digests[ep["epoch"]]
        if ep["multiset_digest"] != want_set:
            bad.append(f"{rec['strategy_id']} epoch {ep['epoch']}: multiset digest differs from oracle")
        st = rec["strategy"]
        if st["parallelism"] == 1 and st["shuffle_buffer"] == 0 and ep["sequence_digest"] != want_seq:
            bad.append(f"{rec['strategy_id']} epoch {ep['epoch']}: sequence digest differs from oracle")
    by_epoch: dict[int, set] = {}
    for _, ep in _epochs(doc):
        by_epoch.setdefault(ep["epoch"], set()).add(ep["multiset_digest"])
    bad += [f"epoch {e}: splits disagree on the multiset" for e, s in by_epoch.items() if len(s) > 1]
    return bad


def check_counts(doc: dict, oracle: Oracle) -> list[str]:
    """Every epoch delivers exactly the source sample count."""
    return [
        f"{rec['strategy_id']} epoch {ep['epoch']}: {ep['samples']} samples, want {oracle.sample_count}"
        for rec, ep in _epochs(doc) if ep["samples"] != oracle.sample_count
    ]


def check_stored_bytes(doc: dict, oracle: Oracle) -> list[str]:
    """Uncompressed footprint is format arithmetic: 16 bytes per shard plus
    16 + 2 + 8*rank + payload per record; split 0 is the raw source."""
    bad = []
    for rec in doc["records"]:
        st = rec["strategy"]
        if st["compression"] != "none":
            continue
        m = st["split_index"]
        want = oracle.source_bytes if m == 0 else 16 * st["shards"] + oracle.stored_record_bytes[m]
        if rec["storage_bytes"] != want:
            bad.append(f"{rec['strategy_id']}: stored {rec['storage_bytes']} B, format says {want} B")
    return bad


def shard_files(workdir: Path, strategy_id: str) -> list[Path]:
    return sorted(Path(workdir).glob(f"mat-{strategy_id}-*-of-*.prc*"))


def check_gzip_twins(doc: dict, workdir: Path) -> list[str]:
    """Each gzip shard, gunzipped, is byte-identical to the record stream
    of the same strategy's uncompressed twin."""
    bad = []
    for rec in doc["records"]:
        if rec["strategy"]["compression"] != "gzip":
            continue
        sid = rec["strategy_id"]
        twin = sid.replace("-gzip-", "-none-", 1)
        gz, plain = shard_files(workdir, sid), shard_files(workdir, twin)
        if not gz or len(gz) != len(plain):
            bad.append(f"{sid}: {len(gz)} gzip shards but {len(plain)} plain twin shards")
            continue
        for g, p in zip(gz, plain):
            gblob, pblob = g.read_bytes(), p.read_bytes()
            try:
                if gblob[:8] != MAGIC or gblob[9] != 1:
                    raise ValueError("header is not a gzip container")
                same = gzip.decompress(gblob[HEADER.size:]) == pblob[HEADER.size:]
            except (OSError, EOFError, ValueError, IndexError) as exc:
                bad.append(f"{g.name}: not a readable gzip shard ({exc})")
                continue
            if not same:
                bad.append(f"{g.name}: gunzipped stream differs from {p.name}")
    return bad


def check_io(doc: dict, oracle: Oracle) -> list[str]:
    """Each uncached epoch reads exactly the artifact's on-disk bytes with
    one open per file; an epoch served from a cache reads nothing."""
    bad = []
    for rec, ep in _epochs(doc):
        st = rec["strategy"]
        if ep["cache"] == "served":
            want_bytes, want_opens = 0, 0
        else:
            want_bytes = rec["storage_bytes"]
            want_opens = oracle.sample_count if st["split_index"] == 0 else st["shards"]
        if (ep["bytes_read"], ep["opens"]) != (want_bytes, want_opens):
            bad.append(f"{rec['strategy_id']} epoch {ep['epoch']} ({ep['cache']}): read "
                       f"{ep['bytes_read']} B in {ep['opens']} opens, want {want_bytes} B in {want_opens}")
        if st["cache_mode"] != "no_cache" and ep["epoch"] > 1 and ep["cache"] != "served":
            bad.append(f"{rec['strategy_id']} epoch {ep['epoch']}: cache not served")
    return bad


def check_ceiling(doc: dict, oracle: Oracle, backend: dict) -> list[str]:
    """On the simulated store no epoch beats its storage bound: reading the
    artifact takes stored bytes / bandwidth, and each stream pays
    open_latency per file it opens (for split 0 this is the
    streams / open_latency ceiling)."""
    bad = []
    for rec, ep in _epochs(doc):
        st = rec["strategy"]
        if ep["cache"] == "served":
            continue
        files = oracle.sample_count if st["split_index"] == 0 else st["shards"]
        streams = min(st["parallelism"], files) if st["split_index"] == 0 else files
        floor_s = max(rec["storage_bytes"] / backend["bandwidth"],
                      math.ceil(files / streams) * backend["open_latency"])
        bound = ep["samples"] / floor_s
        if ep["throughput"] > bound:
            bad.append(f"{rec['strategy_id']} epoch {ep['epoch']}: {ep['throughput']:.1f} sps "
                       f"beats the storage ceiling {bound:.1f} sps")
    return bad


def check_round(doc: dict, workdir: Path, oracle: Oracle, exit_code: int) -> list[str]:
    """All checks that apply to a workload's round.  The CLI exits 0, or 1
    when strategies failed; failed strategies are counted, not checked."""
    ok_codes = (0, 1) if doc.get("errors") else (0,)
    bad = [] if exit_code in ok_codes else [f"presto exited with code {exit_code}"]
    if not doc.get("records"):
        return bad + ["campaign has no records"]
    bad += check_counts(doc, oracle)
    bad += check_digests(doc, oracle)
    bad += check_stored_bytes(doc, oracle)
    bad += check_io(doc, oracle)
    bad += check_gzip_twins(doc, workdir)
    if doc["metadata"]["backend"]["kind"] == "simulated":
        bad += check_ceiling(doc, oracle, doc["metadata"]["backend"])
    return bad
