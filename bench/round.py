#!/usr/bin/env python3
"""One campaign round in a fresh interpreter, started by run.py.

    python3 bench/round.py --workload W --seed N --root DIR --index I --trace 0|1

Each round runs in its own process, as a user's ``presto`` run would, so
that per-process state (the step-cost calibration, warm imports) is drawn
afresh every round.  The dataset under DIR must already exist.  Prints one
JSON line: the round's wall time, presto's exit code, the process's peak
resident memory and, when traced, the per-layer figures of the round and
of the layer probes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import run


def campaign_layers(tracer, spans, rnd) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced campaign round."""
    sel, tot = tracer.select, spans.total_ns
    opens, reads, writes = sel(("storage.open",)), sel(("storage.read",)), sel(("storage.write",))
    bytes_read = sum(s[6] for s in reads)
    crc, dec, enc = sel(("recordio.crc",)), sel(("recordio.decode",)), sel(("recordio.encode",))
    all_mats = sel(("profiler.materialize",))
    mats = [s for s in all_mats if s[6][3] > 0]  # split 0 writes nothing
    epoch_wall = sum(ep["wall_seconds"] for r in rnd.campaign["records"]
                     for rep in r["repeats"] for ep in rep)
    mains = sel(("cli.main",))
    in_cli = [s for s in sel(("profiler.profile_campaign",))
              if any(m[4] <= s[4] and s[5] <= m[5] for m in mains)]
    return {
        "storage.open_us": (tot(opens) / len(opens) / 1e3, "us"),
        "storage.read_us_per_mb": (tot(reads) / 1e3 / (bytes_read / 1e6), "us/MB"),
        "storage.opens": (len(opens), "count"),
        "storage.bytes_read": (bytes_read, "bytes"),
        "storage.bytes_written": (sum(s[6] for s in writes), "bytes"),
        "recordio.crc_us_per_record": (tot(crc) / len(crc) / 1e3, "us"),
        "recordio.decode_us_per_record": (tot(dec) / len(dec) / 1e3, "us"),
        "recordio.encode_us_per_record": (tot(enc) / len(enc) / 1e3, "us"),
        "steps.calibration_s": (tracer.calibration_s, "s"),
        "profiler.materializations": (len(mats), "count"),
        "profiler.distinct_materializations": (len({s[6][:3] for s in mats}) / len(mats), "ratio"),
        "profiler.materialize_us_per_sample": (tot(mats) / 1e3 / sum(s[6][3] for s in mats), "us"),
        "profiler.unaccounted_s": (rnd.wall_s - tot(all_mats) / 1e9 - epoch_wall, "s"),
        "cli.overhead_s": ((tot(mains) - tot(in_cli)) / 1e9, "s"),
        "analysis.rank_report_ms": (tot(sel(("analysis.rank_report",))) / 1e6, "ms"),
    }


PROBE_UNITS = {"us_per_record": "us", "us_per_sample": "us", "us_per_step": "us", "us_per_mb": "us/MB"}


def traced_round(setup, index: int, spans_out: Path) -> tuple:
    """A traced campaign round, then the layer probes; the engine probe
    runs under a fresh tracer, the others untraced."""
    import probes
    import scenarios
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        rnd = scenarios.run_round(setup, index)
    finally:
        tracer.uninstall()
    layers = campaign_layers(tracer, spans, rnd)
    tracer.write(spans_out)

    found = probes.steps_probe(setup.pipeline, setup.descriptor)
    found.update(probes.recordio_probe(setup.descriptor, setup.root / "probe"))
    probe = spans.Tracer()
    probe.install()
    try:
        found.update(probes.engine_probe(probe, setup.pipeline, setup.descriptor,
                                         setup.seed, setup.root / "probe"))
    finally:
        probe.uninstall()
    for name, value in found.items():
        layers[name] = (value, next(u for k, u in PROBE_UNITS.items() if k in name))
    return rnd, layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one benchmark round")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args(argv)
    run.import_presto()
    import scenarios

    setup = scenarios.describe(args.workload, args.root, args.seed)
    out = {}
    if args.trace:
        rnd, out["layers"] = traced_round(setup, args.index, args.spans)
    else:
        rnd = scenarios.run_round(setup, args.index)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(wall_s=rnd.wall_s, exit_code=rnd.exit_code, peak_rss_mb=peak_mb)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
