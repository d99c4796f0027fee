#!/usr/bin/env python3
"""End-to-end benchmark for presto.

    python3 bench/run.py --workload tiny-local --seed 1 --seconds 45 --trace 0

Generates the workload's dataset (the timed set-up), then runs whole
campaign rounds, each in a fresh interpreter (round.py), until the next
round would end past --seconds of measured time (at least one round).
Every round's outputs are checked against an oracle computed apart from
presto, and one JSON result line is printed.  With --trace 0 it reports
the end-to-end metrics, medians over the rounds; with --trace 1 it runs
one traced round with the layer probes and one untraced round, and
reports the per-layer metrics.  presto is imported from the checkout's
src/ directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".bench_work"
RESULTS = CHECKOUT / ".bench_results"


def process_age_s() -> float:
    """Seconds since the kernel started this process, so that interpreter
    start-up and imports count towards set-up time."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_presto():
    sys.path.insert(0, str(SRC))
    try:
        import presto
    except ImportError as exc:
        sys.exit(f"bench: cannot import presto from {SRC}: {exc}")
    if Path(presto.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: presto resolved to {presto.__file__}, not the checkout's src/")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    p.add_argument("--workload", required=True, choices=["tiny-local", "cv-sim", "nilm-local"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def summarize(rnd, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end figures of one round, from the saved campaign."""
    recs = rnd.campaign["records"]
    epochs = [ep for r in recs for rep in r["repeats"] for ep in rep]
    return {
        "peak_rss_mb": peak_rss_mb,
        "campaign_s": rnd.wall_s,
        "offline_s": sum(r["preprocessing_seconds"] for r in recs),
        "stored_bytes": sum(r["storage_bytes"] for r in recs),
        "online_sps": sum(e["samples"] for e in epochs) / sum(e["wall_seconds"] for e in epochs),
        "top_sps": rnd.ranking[0]["throughput_sps"],
    }


UNITS = {
    "setup_s": "s", "campaign_s": "s", "offline_s": "s", "stored_bytes": "bytes",
    "online_sps": "samples/s", "top_sps": "samples/s", "peak_rss_mb": "MB",
}


ROUND_TIMEOUT_S = 170


def spawn_round(args, root: Path, index: int, spans_path: Path | None = None) -> dict:
    """Run round.py in a child process and return its JSON line."""
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--root", str(root), "--index", str(index),
           "--trace", "1" if spans_path else "0"]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"bench: round {index} failed ({done.returncode}):\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    import_presto()
    import checks
    import scenarios

    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup = scenarios.describe(args.workload, run_dir, args.seed)
        t0 = time.perf_counter()
        scenarios.generate(setup)
        generate_s = time.perf_counter() - t0
        setup_s = process_age_s()

        rounds = []
        if args.trace:
            RESULTS.mkdir(parents=True, exist_ok=True)
            spans_path = RESULTS / f"spans-{args.workload}-s{args.seed}.tsv.gz"
            traced = spawn_round(args, run_dir, 0, spans_path)
            untraced = spawn_round(args, run_dir, 1)
            rounds = [scenarios.load_round(run_dir / f"round-{i}", r["wall_s"], r["exit_code"])
                      for i, r in enumerate((traced, untraced))]
            layers = traced["layers"]
            layers["workloads.generate_us_per_sample"] = (
                generate_s / setup.descriptor.sample_count * 1e6, "us")
            a, b = (summarize(r, j["peak_rss_mb"]) for r, j in zip(rounds, (traced, untraced)))
            # the untraced round calibrates too, so both pay that once
            layers["trace.overhead.campaign_s"] = (a["campaign_s"] / b["campaign_s"], "ratio")
            layers["trace.overhead.online_sps"] = (a["online_sps"] / b["online_sps"], "ratio")
            metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(layers.items())}
        else:
            measured, per_round = 0.0, []
            while True:
                r = spawn_round(args, run_dir, len(rounds))
                rounds.append(scenarios.load_round(run_dir / f"round-{len(rounds)}",
                                                   r["wall_s"], r["exit_code"]))
                per_round.append(summarize(rounds[-1], r["peak_rss_mb"]))
                print(f"round {len(rounds) - 1}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in per_round[-1].items()), file=sys.stderr)
                measured += r["wall_s"]
                if measured + measured / len(rounds) > args.seconds:
                    break
            values = {k: statistics.median(s[k] for s in per_round) for k in per_round[0]}
            values["setup_s"] = setup_s
            metrics = {k: {"value": float(values[k]), "unit": UNITS[k]} for k in UNITS}

        oracle = checks.build_oracle(setup.pipeline, setup.descriptor, args.seed, setup.epochs)
        failures = []
        for rnd in rounds:
            failures += checks.check_round(rnd.campaign, rnd.workdir, oracle, rnd.exit_code)
        attempted = len(setup.strategies) * len(rounds)
        failed = sum(len(r.campaign.get("errors", [])) for r in rounds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for f in failures[:20]:
        print(f"check failed: {f}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
