#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs one round of each workload at a small size, requires every check to
pass on presto's real output, then feeds each check a deliberately wrong
copy of that output (a flipped digest byte, a dropped sample, a byte too
many on disk, a truncated or altered gzip shard, a read that did not
happen, an epoch faster than the store allows, a wrong exit code) and
requires the check to fail.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import shutil
import sys

import checks
import run

SCALES = {"tiny-local": 0.04, "cv-sim": 0.2, "nilm-local": 0.25}


def _flip_hex(text: str) -> str:
    return ("0" if text[0] != "0" else "1") + text[1:]


def _first(doc, pred):
    for rec in doc["records"]:
        for rep in rec["repeats"]:
            for ep in rep:
                if pred(rec, ep):
                    return rec, ep
    raise LookupError("no epoch matches the corruption's precondition")


def doc_corruptions(name: str):
    """(label, check name, mutate(doc)) triples that apply to a workload."""

    def flip_multiset(doc):
        _, ep = _first(doc, lambda r, e: True)
        ep["multiset_digest"] = _flip_hex(ep["multiset_digest"])

    def flip_sequence(doc):
        _, ep = _first(doc, lambda r, e: r["strategy"]["parallelism"] == 1)
        ep["sequence_digest"] = _flip_hex(ep["sequence_digest"])

    def drop_sample(doc):
        _, ep = _first(doc, lambda r, e: True)
        ep["samples"] -= 1

    def grow_storage(doc):
        rec, _ = _first(doc, lambda r, e: r["strategy"]["compression"] == "none"
                        and r["strategy"]["split_index"] >= 1)
        rec["storage_bytes"] += 1

    def short_read(doc):
        _, ep = _first(doc, lambda r, e: e["cache"] != "served")
        ep["bytes_read"] -= 1

    def extra_open(doc):
        _, ep = _first(doc, lambda r, e: True)
        ep["opens"] += 1

    def served_read(doc):
        _, ep = _first(doc, lambda r, e: e["cache"] == "served")
        ep["bytes_read"] = 1

    def beat_ceiling(doc):
        _, ep = _first(doc, lambda r, e: True)
        ep["throughput"] *= 100

    out = [
        ("flipped multiset digest byte", "check_digests", flip_multiset),
        ("dropped sample", "check_counts", drop_sample),
        ("one stored byte too many", "check_stored_bytes", grow_storage),
        ("short read", "check_io", short_read),
        ("extra open", "check_io", extra_open),
    ]
    if name == "tiny-local":
        out.append(("flipped sequence digest byte", "check_digests", flip_sequence))
    if name == "nilm-local":
        out.append(("read during a served epoch", "check_io", served_read))
    if name == "cv-sim":
        out.append(("epoch beats the storage ceiling", "check_ceiling", beat_ceiling))
    return out


def file_corruptions(doc, workdir):
    """The first gzip shard, and (label, damage(bytes) -> bytes) pairs."""
    rec, _ = _first(doc, lambda r, e: r["strategy"]["compression"] == "gzip")

    def alter(blob: bytes) -> bytes:
        middle = len(blob) // 2
        return blob[:middle] + bytes([blob[middle] ^ 0xFF]) + blob[middle + 1:]

    return checks.shard_files(workdir, rec["strategy_id"])[0], [
        ("truncated gzip shard", lambda blob: blob[:-9]),
        ("altered gzip shard byte", alter),
    ]


def main() -> int:
    run.import_presto()
    import scenarios

    missed = 0
    for name, scale in SCALES.items():
        root = run.WORK / f"selftest-{name}"
        shutil.rmtree(root, ignore_errors=True)
        try:
            setup = scenarios.describe(name, root, seed=7, scale=scale)
            scenarios.generate(setup)
            rnd = scenarios.run_round(setup, 0)
            oracle = checks.build_oracle(setup.pipeline, setup.descriptor, 7, setup.epochs)
            honest = checks.check_round(rnd.campaign, rnd.workdir, oracle, rnd.exit_code)
            if honest:
                print(f"FAIL {name}: real output rejected: {honest[:3]}")
                missed += 1
                continue
            print(f"PASS {name}: every check passes on the real output "
                  f"({len(rnd.campaign['records'])} strategies)")
            for label, check, mutate in doc_corruptions(name):
                doc = copy.deepcopy(rnd.campaign)
                mutate(doc)
                caught = getattr(checks, check)(*_args(check, doc, rnd, oracle))
                whole = checks.check_round(doc, rnd.workdir, oracle, rnd.exit_code)
                ok = bool(caught) and bool(whole)
                missed += not ok
                print(f"{'PASS' if ok else 'FAIL'} {name}: {check} rejects {label}"
                      + (f" ({caught[0]})" if caught else ""))
            bad_exit = checks.check_round(rnd.campaign, rnd.workdir, oracle, 1)
            missed += not bad_exit
            print(f"{'PASS' if bad_exit else 'FAIL'} {name}: check_round rejects a wrong exit code")
            if name == "nilm-local":
                shard, damages = file_corruptions(rnd.campaign, rnd.workdir)
                original = shard.read_bytes()
                for label, damage in damages:
                    shard.write_bytes(damage(original))
                    caught = checks.check_gzip_twins(rnd.campaign, rnd.workdir)
                    shard.write_bytes(original)
                    missed += not caught
                    print(f"{'PASS' if caught else 'FAIL'} {name}: check_gzip_twins rejects {label}"
                          + (f" ({caught[0]})" if caught else ""))
        finally:
            shutil.rmtree(root, ignore_errors=True)
    print("self-test", "passed" if not missed else f"FAILED ({missed} unnoticed)")
    return 1 if missed else 0


def _args(check: str, doc, rnd, oracle):
    if check == "check_gzip_twins":
        return doc, rnd.workdir
    if check == "check_ceiling":
        return doc, oracle, doc["metadata"]["backend"]
    return doc, oracle


if __name__ == "__main__":
    sys.exit(main())
