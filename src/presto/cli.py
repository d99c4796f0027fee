"""Command line front end.

Subcommands: generate a synthetic dataset, probe a backend, profile a
strategy campaign, rank a saved campaign, and emit report files.  Exit
codes: 0 success, 1 campaign-level failures, 2 bad configuration or IO,
130 interrupted.

Profile settings come from a JSON config file; command line flags override
config values, which override defaults.  The config is fully validated
before anything touches the file system.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from .analysis import emit_report_csv, emit_report_json, score_and_rank
from .core import (
    CacheMode,
    Compression,
    ObjectiveWeights,
    OptionGrid,
    enumerate_strategies,
)
from .engine import RunConfig
from .profiler import (
    AllStrategiesFailedError,
    ProfileConfig,
    load_campaign,
    profile_campaign,
    save_campaign,
)
from .storage import BackendConfig, BackendKind, ProbeReport, StorageBackend, probe_storage
from .workloads import PRESET_NAMES, generate_for, preset, preset_info, source_paths

EXIT_OK = 0
EXIT_CAMPAIGN = 1
EXIT_CONFIG = 2
EXIT_INTERRUPT = 130


class ConfigError(ValueError):
    pass


def default_home() -> Path:
    return Path(os.environ.get("PRESTO_HOME", "presto-out"))


# ----------------------------------------------------------- config handling

_BACKEND_KEYS = {
    "kind": str,
    "bandwidth": (int, float),
    "open_latency": (int, float),
    "iops_cap": (int, float),
    "chunk": int,
}

_GRID_KEYS = {
    "splits": list,
    "compressions": list,
    "shards": list,
    "parallelisms": list,
    "cache_modes": list,
    "shuffle_buffers": list,
}

_CONFIG_KEYS = {
    "preset": str,
    "dataset_root": str,
    "total_bytes": int,
    "seed": int,
    "generate": bool,
    "backend": dict,
    "grid": dict,
    "epochs": int,
    "repeats": int,
    "sample_limit": int,
    "memory_budget": int,
    "rng_seed": int,
    "epoch_selector": str,
    "collect_digests": bool,
    "weights": list,
    "out_dir": str,
    "keep_artifacts": bool,
}


def _check_keys(doc: dict, allowed: dict, where: str) -> None:
    for key, value in doc.items():
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")
        want = allowed[key]
        if isinstance(value, bool) and want is not bool:
            raise ConfigError(f"{where}: {key} must not be a boolean")
        if value is not None and not isinstance(value, want):
            names = want.__name__ if isinstance(want, type) else "number"
            raise ConfigError(f"{where}: {key} must be {names}, got {type(value).__name__}")


def validate_config(doc: dict) -> dict:
    """Type- and value-check a profile config document; no file system use."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _check_keys(doc, _CONFIG_KEYS, "config")

    merged = dict(doc)
    name = merged.get("preset")
    if not name:
        raise ConfigError("config: 'preset' is required")
    if name not in PRESET_NAMES:
        raise ConfigError(f"config: unknown preset {name!r}")

    backend = merged.get("backend") or {}
    _check_keys(backend, _BACKEND_KEYS, "config.backend")
    kind = backend.get("kind", "simulated")
    if kind not in ("local", "simulated"):
        raise ConfigError(f"config.backend: kind must be local or simulated, got {kind!r}")
    for numeric in ("bandwidth", "open_latency", "iops_cap", "chunk"):
        v = backend.get(numeric)
        if v is not None and v <= 0 and numeric != "open_latency":
            raise ConfigError(f"config.backend: {numeric} must be positive")
        if numeric == "open_latency" and v is not None and v < 0:
            raise ConfigError("config.backend: open_latency must be >= 0")

    grid = merged.get("grid") or {}
    _check_keys(grid, _GRID_KEYS, "config.grid")
    comp_names = {c.value for c in Compression}
    for c in grid.get("compressions") or []:
        if c not in comp_names:
            raise ConfigError(f"config.grid: unknown compression {c!r}")
    cache_names = {c.value for c in CacheMode}
    for c in grid.get("cache_modes") or []:
        if c not in cache_names:
            raise ConfigError(f"config.grid: unknown cache mode {c!r}")
    for axis in ("shards", "parallelisms", "shuffle_buffers", "splits"):
        for v in grid.get(axis) or []:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ConfigError(f"config.grid: {axis} entries must be ints >= 0")
            if axis in ("shards", "parallelisms") and v < 1:
                raise ConfigError(f"config.grid: {axis} entries must be >= 1")

    weights = merged.get("weights")
    if weights is not None:
        if len(weights) != 3 or any(
            not isinstance(w, (int, float)) or isinstance(w, bool) for w in weights
        ):
            raise ConfigError("config: weights must be three numbers")
        if any(w < 0 for w in weights):
            raise ConfigError("config: weights must be non-negative")

    for positive in ("epochs", "repeats", "sample_limit", "memory_budget", "total_bytes"):
        v = merged.get(positive)
        if v is not None and v < 1:
            raise ConfigError(f"config: {positive} must be >= 1")
    sel = merged.get("epoch_selector")
    if sel is not None and sel not in ("first", "last", "mean"):
        raise ConfigError(f"config: epoch_selector must be first/last/mean, got {sel!r}")
    return merged


def build_backend(doc: dict) -> StorageBackend:
    doc = {k: v for k, v in doc.items() if v is not None}
    kind = BackendKind.SIMULATED if doc.get("kind", "simulated") == "simulated" else BackendKind.LOCAL
    if kind is BackendKind.LOCAL:
        return StorageBackend(BackendConfig(kind=kind))
    base = BackendConfig.simulated_default()
    return StorageBackend(
        BackendConfig(
            kind=kind,
            bandwidth=float(doc.get("bandwidth", base.bandwidth)),
            open_latency=float(doc.get("open_latency", base.open_latency)),
            iops_cap=float(doc.get("iops_cap", base.iops_cap)),
            chunk=int(doc.get("chunk", base.chunk)),
        )
    )


def build_grid(doc: dict) -> OptionGrid:
    kw = {}
    if doc.get("compressions"):
        kw["compressions"] = tuple(Compression(c) for c in doc["compressions"])
    if doc.get("shards"):
        kw["shards"] = tuple(doc["shards"])
    if doc.get("parallelisms"):
        kw["parallelisms"] = tuple(doc["parallelisms"])
    if doc.get("cache_modes"):
        kw["cache_modes"] = tuple(CacheMode(c) for c in doc["cache_modes"])
    if doc.get("shuffle_buffers"):
        kw["shuffle_buffers"] = tuple(doc["shuffle_buffers"])
    return OptionGrid(**kw)


def parse_weights(text: str) -> ObjectiveWeights:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"weights must be three comma-separated numbers, got {text!r}")
    try:
        w = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"weights must be numeric, got {text!r}") from None
    if any(x < 0 for x in w):
        raise ConfigError("weights must be non-negative")
    return ObjectiveWeights(*w)


# ---------------------------------------------------------------- subcommands


def cmd_generate(args) -> int:
    info = preset_info(args.preset)
    root = Path(args.root) if args.root else default_home() / "datasets" / args.preset
    pipe, desc = preset(args.preset, root=root, total_bytes=args.total_bytes, seed=args.seed)
    generate_for(desc, args.compressibility if args.compressibility is not None
                 else info.compressibility)
    manifest = {
        "preset": args.preset,
        "root": str(root),
        "layout": desc.layout.value,
        "sample_count": desc.sample_count,
        "bytes_per_sample": desc.bytes_per_sample,
        "dtype": desc.dtype.name,
        "seed": desc.seed,
        "total_bytes": desc.total_bytes,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"generated {desc.sample_count} samples "
          f"({desc.total_bytes:,} bytes) under {root}")
    return EXIT_OK


def cmd_probe(args) -> int:
    backend = build_backend({
        "kind": args.backend,
        "bandwidth": args.bandwidth,
        "open_latency": args.open_latency,
        "iops_cap": args.iops_cap,
        "chunk": args.chunk,
    })
    root = Path(args.root) if args.root else default_home() / "probe"
    rows = []
    for workers in args.workers:
        for files in args.files_per_worker:
            report = probe_storage(
                backend, workers, files, args.bytes_per_worker, root
            )
            rows.append(report.to_row())
            print(
                f"workers={workers:3d} files={files:4d} "
                f"bandwidth={report.bandwidth / 1e6:8.1f} MB/s "
                f"iops={report.iops:10.0f}"
            )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(ProbeReport.ROW_FIELDS))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {out}")
    return EXIT_OK


def _print_ranking(ranking) -> None:
    header = f"{'rank':>4}  {'strategy':32}  {'label':16}  {'preproc_s':>10}  " \
             f"{'storage_bytes':>14}  {'sps':>10}  {'score':>8}"
    print(header)
    print("-" * len(header))
    for e in ranking.entries:
        print(
            f"{e.rank:>4}  {e.strategy_id:32}  {e.label:16}  "
            f"{e.preprocessing_seconds:>10.2f}  {e.storage_bytes:>14,}  "
            f"{e.throughput_sps:>10.1f}  {e.score:>8.4f}"
        )


def cmd_profile(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = validate_config(doc)

    # flags override config
    if args.epochs is not None:
        cfg["epochs"] = args.epochs
    if args.repeats is not None:
        cfg["repeats"] = args.repeats
    if args.out_dir is not None:
        cfg["out_dir"] = args.out_dir
    if args.weights is not None:
        w = parse_weights(args.weights)
        cfg["weights"] = [w.w_p, w.w_s, w.w_t]

    out_dir = Path(cfg.get("out_dir") or default_home() / "campaigns" / cfg["preset"])
    dataset_root = Path(cfg.get("dataset_root") or default_home() / "datasets" / cfg["preset"])
    info = preset_info(cfg["preset"])
    pipe, desc = preset(
        cfg["preset"], root=dataset_root,
        total_bytes=cfg.get("total_bytes"), seed=cfg.get("seed", 0),
    )
    backend = build_backend(cfg.get("backend") or {})

    try:
        missing = not source_paths(desc)[0].exists()
    except FileNotFoundError:
        missing = True
    if missing:
        if cfg.get("generate", True):
            print(f"generating dataset under {dataset_root}")
            generate_for(desc, info.compressibility)
        else:
            raise ConfigError(f"dataset missing under {dataset_root} and generate=false")

    strategies = enumerate_strategies(pipe, build_grid(cfg.get("grid") or {}))
    wanted_splits = (cfg.get("grid") or {}).get("splits")
    if wanted_splits:
        strategies = [s for s in strategies if s.split_index in wanted_splits]
        if not strategies:
            raise ConfigError("config.grid.splits excluded every legal strategy")

    run = RunConfig(
        epochs=cfg.get("epochs", 2),
        sample_limit=cfg.get("sample_limit"),
        memory_budget=cfg.get("memory_budget", 2_000_000_000),
        rng_seed=cfg.get("rng_seed", 0),
        collect_digests=cfg.get("collect_digests", True),
    )
    pcfg = ProfileConfig(
        run=run,
        repeats=cfg.get("repeats", 3),
        epoch_selector=cfg.get("epoch_selector", "first"),
        workdir=out_dir / "work",
        keep_artifacts=cfg.get("keep_artifacts", False),
    )
    print(f"profiling {len(strategies)} strategies of preset {cfg['preset']}")
    campaign = profile_campaign(pipe, strategies, backend, pcfg)

    out_dir.mkdir(parents=True, exist_ok=True)
    campaign_path = out_dir / "campaign.json"
    save_campaign(campaign, campaign_path)
    print(f"wrote {campaign_path} ({len(campaign.records)} records, "
          f"{len(campaign.errors)} failures)")

    if campaign.records:
        weights = ObjectiveWeights(*cfg.get("weights", [0.0, 0.0, 1.0]))
        ranking = score_and_rank(campaign.records, weights)
        emit_report_csv(campaign, ranking, out_dir / "report.csv")
        emit_report_json(campaign, ranking, out_dir / "report.json")
        _print_ranking(ranking)

    if campaign.metadata.get("interrupted"):
        return EXIT_INTERRUPT
    if campaign.errors:
        return EXIT_CAMPAIGN
    return EXIT_OK


# what rank and report read of each saved record, and what report reads
# of each of its epochs
_RECORD_FIELDS = {
    "strategy_id": str,
    "label": str,
    "preprocessing_seconds": (int, float),
    "storage_bytes": int,
    "throughput_sps": (int, float),
    "strategy": dict,
}
_STRATEGY_FIELDS = {
    "split_index": int,
    "compression": str,
    "parallelism": int,
    "cache_mode": str,
}
_EPOCH_FIELDS = {
    "epoch": int,
    "throughput": (int, float),
    "bytes_read": int,
    "bytes_written": int,
}


def _require(doc, fields: dict, where: str) -> None:
    """ConfigError unless `doc` is an object holding every field, typed."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    for key, want in fields.items():
        value = doc.get(key)
        if value is None:
            raise ConfigError(f"{where}: missing {key!r}")
        if isinstance(value, bool) or not isinstance(value, want):
            names = want.__name__ if isinstance(want, type) else "number"
            raise ConfigError(f"{where}: {key} must be {names}, got {type(value).__name__}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where}: {key} must be finite, got {value!r}")


def _checked_campaign(path: str, verb: str, epochs: bool) -> dict:
    """The saved campaign at `path`, checked to hold what `verb` reads:
    the ranking fields of every record, and its epochs when `epochs`."""
    try:
        doc = load_campaign(path)
    except FileNotFoundError:
        raise ConfigError(f"campaign file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"campaign is not valid JSON: {exc}")
    records = doc.get("records") if isinstance(doc, dict) else None
    if not records:
        raise ConfigError(f"campaign has no records to {verb}")
    if not isinstance(records, list):
        raise ConfigError("campaign: records must be a list")
    for i, rec in enumerate(records):
        where = f"campaign record {i}"
        _require(rec, _RECORD_FIELDS, where)
        _require(rec["strategy"], _STRATEGY_FIELDS, f"{where}.strategy")
        if not epochs:
            continue
        repeats = rec.get("repeats")
        if not isinstance(repeats, list) or not all(isinstance(r, list) for r in repeats):
            raise ConfigError(f"{where}: repeats must be a list of epoch lists")
        for r, eps in enumerate(repeats):
            for e, ep in enumerate(eps):
                _require(ep, _EPOCH_FIELDS, f"{where}.repeats[{r}][{e}]")
    return doc


def cmd_rank(args) -> int:
    doc = _checked_campaign(args.campaign, "rank", epochs=False)
    ranking = score_and_rank(doc["records"], parse_weights(args.weights))
    _print_ranking(ranking)
    if args.json:
        emit_report_json(doc, ranking, args.json)
        print(f"wrote {args.json}")
    return EXIT_OK


def cmd_report(args) -> int:
    doc = _checked_campaign(args.campaign, "report", epochs=True)
    ranking = score_and_rank(doc["records"], parse_weights(args.weights))
    rows = emit_report_csv(doc, ranking, args.csv)
    print(f"wrote {args.csv} ({rows} rows)")
    if args.json:
        emit_report_json(doc, ranking, args.json)
        print(f"wrote {args.json}")
    return EXIT_OK


# --------------------------------------------------------------------- parser


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="presto",
        description="Profile preprocessing strategies: materialize each legal "
        "offline/online split of a pipeline, measure it, and rank the choices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic preset dataset")
    g.add_argument("--preset", required=True, choices=sorted(PRESET_NAMES))
    g.add_argument("--root", default=None)
    g.add_argument("--total-bytes", type=int, default=None, dest="total_bytes")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--compressibility", type=float, default=None)
    g.set_defaults(fn=cmd_generate)

    p = sub.add_parser("probe", help="measure backend bandwidth over a worker/file grid")
    p.add_argument("--backend", choices=["local", "simulated"], default="simulated")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--open-latency", type=float, default=None, dest="open_latency")
    p.add_argument("--iops-cap", type=float, default=None, dest="iops_cap")
    p.add_argument("--chunk", type=int, default=None)
    p.add_argument("--workers", type=int, nargs="+", default=[1, 8])
    p.add_argument("--files-per-worker", type=int, nargs="+", default=[1, 64],
                   dest="files_per_worker")
    p.add_argument("--bytes-per-worker", type=int, default=8_000_000,
                   dest="bytes_per_worker")
    p.add_argument("--root", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_probe)

    f = sub.add_parser("profile", help="run a strategy campaign from a JSON config")
    f.add_argument("--config", required=True)
    f.add_argument("--epochs", type=int, default=None)
    f.add_argument("--repeats", type=int, default=None)
    f.add_argument("--weights", default=None, help="w_preproc,w_storage,w_throughput")
    f.add_argument("--out-dir", default=None, dest="out_dir")
    f.set_defaults(fn=cmd_profile)

    r = sub.add_parser("rank", help="rank a saved campaign under given weights")
    r.add_argument("--campaign", required=True)
    r.add_argument("--weights", default="0,0,1")
    r.add_argument("--json", default=None)
    r.set_defaults(fn=cmd_rank)

    t = sub.add_parser("report", help="emit CSV/JSON reports for a saved campaign")
    t.add_argument("--campaign", required=True)
    t.add_argument("--weights", default="0,0,1")
    t.add_argument("--csv", required=True)
    t.add_argument("--json", default=None)
    t.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AllStrategiesFailedError as exc:
        print(f"error: every strategy failed: {exc}", file=sys.stderr)
        return EXIT_CAMPAIGN
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
