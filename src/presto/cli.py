"""Command line front end.

Subcommands: generate a synthetic dataset, probe a backend, profile a
strategy campaign, rank a saved campaign, and emit report files.  Exit
codes: 0 success, 1 campaign-level failures, 2 bad configuration or IO,
130 interrupted.

Profile settings come from a JSON config file; command line flags override
config values, which override defaults.  The flags are written into the
config document, and `validate_config` builds from it the objects the
campaign runs with, so the dataclasses' own checks see every value before
anything touches the file system.  `rank` and `report` read a saved
campaign with `profiler.load_campaign`, which returns a typed, checked
`Campaign`, and then make the same ranking and report calls as `profile`.
A bad config, flag value or campaign file exits 2 with one `error:` line
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .analysis import emit_report_csv, emit_report_json, score_and_rank
from .core import (
    CacheMode,
    Compression,
    ObjectiveWeights,
    OptionGrid,
    Pipeline,
    enumerate_strategies,
)
from .engine import RunConfig
from .profiler import (
    AllStrategiesFailedError,
    Campaign,
    CampaignFormatError,
    ProfileConfig,
    load_campaign,
    profile_campaign,
    save_campaign,
)
from .storage import (
    BackendConfig,
    BackendKind,
    ProbeReport,
    StorageBackend,
    check_probe_point,
    probe_storage,
)
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


@dataclass(frozen=True)
class ProfileSetup:
    """What a checked profile config asks for."""

    preset: str
    pipeline: Pipeline
    backend: BackendConfig
    grid: OptionGrid
    splits: tuple[int, ...]  # empty: every legal split
    profile: ProfileConfig
    weights: ObjectiveWeights
    out_dir: Path
    generate: bool


_GRID_ENUMS = {"compressions": Compression, "cache_modes": CacheMode}


def validate_config(doc: dict) -> ProfileSetup:
    """Build what a profile config document asks for; no file system use.

    This checks the JSON types here and leaves every range and enum check
    to the constructors, whose ValueError becomes a ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _check_keys(doc, _CONFIG_KEYS, "config")
    doc = {k: v for k, v in doc.items() if v is not None}
    backend = doc.get("backend", {})
    _check_keys(backend, _BACKEND_KEYS, "config.backend")
    grid = doc.get("grid", {})
    _check_keys(grid, _GRID_KEYS, "config.grid")
    splits = tuple(grid.get("splits") or ())
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 0 for v in splits):
        raise ConfigError("config.grid: splits entries must be ints >= 0")
    name = doc.get("preset")
    if name is None:
        raise ConfigError("config: 'preset' is required")

    backend = build_backend(backend)
    weights = _weights(doc.get("weights", [0.0, 0.0, 1.0]))
    home = default_home()
    out_dir = Path(doc.get("out_dir") or home / "campaigns" / name)
    try:
        pipeline, _ = preset(
            name, root=doc.get("dataset_root") or home / "datasets" / name,
            total_bytes=doc.get("total_bytes"), seed=doc.get("seed", 0),
        )
        grid = OptionGrid(**{
            axis: tuple(_GRID_ENUMS[axis](v) if axis in _GRID_ENUMS else v for v in values)
            for axis, values in grid.items() if axis != "splits" and values
        })
        run = RunConfig(
            epochs=doc.get("epochs", 2),
            sample_limit=doc.get("sample_limit"),
            memory_budget=doc.get("memory_budget", 2_000_000_000),
            rng_seed=doc.get("rng_seed", 0),
            collect_digests=doc.get("collect_digests", True),
        )
        profile = ProfileConfig(
            run=run,
            repeats=doc.get("repeats", 3),
            epoch_selector=doc.get("epoch_selector", "first"),
            workdir=out_dir / "work",
            keep_artifacts=doc.get("keep_artifacts", False),
        )
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from None
    return ProfileSetup(name, pipeline, backend, grid, splits, profile, weights, out_dir,
                        doc.get("generate", True))


def build_backend(doc: dict) -> BackendConfig:
    """The backend a config's backend object or the probe flags ask for;
    a value left out (or None) keeps the default."""
    given = {k: v for k, v in doc.items() if v is not None}
    try:
        return BackendConfig(kind=BackendKind(given.pop("kind", "simulated")), **given)
    except ValueError as exc:
        raise ConfigError(f"backend: {exc}") from None


def _weights(values: list) -> ObjectiveWeights:
    """ObjectiveWeights, which leaves its values to score_and_rank to check;
    checked here so a campaign never runs under weights it cannot rank by."""
    if len(values) != 3 or any(
        isinstance(w, bool) or not isinstance(w, (int, float)) or not w >= 0 for w in values
    ):
        raise ConfigError(f"weights must be three non-negative numbers, got {values!r}")
    return ObjectiveWeights(*values)


def parse_weights(text: str) -> ObjectiveWeights:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise ConfigError(f"weights must be numeric, got {text!r}") from None
    return _weights(values)


# ---------------------------------------------------------------- subcommands


def cmd_generate(args) -> int:
    info = preset_info(args.preset)
    root = Path(args.root) if args.root else default_home() / "datasets" / args.preset
    try:
        _, desc = preset(args.preset, root=root, total_bytes=args.total_bytes, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        generate_for(desc, args.compressibility if args.compressibility is not None
                     else info.compressibility)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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
    backend = StorageBackend(build_backend({
        "kind": args.backend,
        "bandwidth": args.bandwidth,
        "open_latency": args.open_latency,
        "iops_cap": args.iops_cap,
        "chunk": args.chunk,
    }))
    root = Path(args.root) if args.root else default_home() / "probe"
    grid = [(w, f) for w in args.workers for f in args.files_per_worker]
    try:
        # every point, before the first one writes anything
        for workers, files in grid:
            check_probe_point(workers, files, args.bytes_per_worker)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = []
    for workers, files in grid:
        report = probe_storage(backend, workers, files, args.bytes_per_worker, root)
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    # flags override the config, and are checked with it
    flags = {"epochs": args.epochs, "repeats": args.repeats, "out_dir": args.out_dir}
    if args.weights is not None:
        flags["weights"] = list(parse_weights(args.weights).as_tuple())
    if isinstance(doc, dict):
        doc.update((k, v) for k, v in flags.items() if v is not None)
    setup = validate_config(doc)

    strategies = enumerate_strategies(setup.pipeline, setup.grid)
    if setup.splits:
        strategies = [s for s in strategies if s.split_index in setup.splits]
        if not strategies:
            raise ConfigError("config.grid.splits excluded every legal strategy")

    desc = setup.pipeline.source
    try:
        missing = not source_paths(desc)[0].exists()
    except FileNotFoundError:
        missing = True
    if missing:
        if not setup.generate:
            raise ConfigError(f"dataset missing under {desc.root} and generate=false")
        print(f"generating dataset under {desc.root}")
        generate_for(desc, preset_info(setup.preset).compressibility)

    print(f"profiling {len(strategies)} strategies of preset {setup.preset}")
    campaign = profile_campaign(
        setup.pipeline, strategies, StorageBackend(setup.backend), setup.profile
    )

    setup.out_dir.mkdir(parents=True, exist_ok=True)
    campaign_path = setup.out_dir / "campaign.json"
    save_campaign(campaign, campaign_path)
    print(f"wrote {campaign_path} ({len(campaign.records)} records, "
          f"{len(campaign.errors)} failures)")

    if campaign.records:
        ranking = score_and_rank(campaign.records, setup.weights)
        emit_report_csv(campaign, ranking, setup.out_dir / "report.csv")
        emit_report_json(campaign, ranking, setup.out_dir / "report.json")
        _print_ranking(ranking)

    if campaign.metadata.get("interrupted"):
        return EXIT_INTERRUPT
    if campaign.errors:
        return EXIT_CAMPAIGN
    return EXIT_OK


def _saved_campaign(path: str, verb: str) -> Campaign:
    """The campaign saved at `path`, with records to `verb`."""
    try:
        campaign = load_campaign(path)
    except FileNotFoundError:
        raise ConfigError(f"campaign file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"campaign is not valid JSON: {exc}")
    except CampaignFormatError as exc:
        raise ConfigError(str(exc)) from None
    if not campaign.records:
        raise ConfigError(f"campaign has no records to {verb}")
    return campaign


def cmd_rank(args) -> int:
    campaign = _saved_campaign(args.campaign, "rank")
    ranking = score_and_rank(campaign.records, parse_weights(args.weights))
    _print_ranking(ranking)
    if args.json:
        emit_report_json(campaign, ranking, args.json)
        print(f"wrote {args.json}")
    return EXIT_OK


def cmd_report(args) -> int:
    campaign = _saved_campaign(args.campaign, "report")
    ranking = score_and_rank(campaign.records, parse_weights(args.weights))
    rows = emit_report_csv(campaign, ranking, args.csv)
    print(f"wrote {args.csv} ({rows} rows)")
    if args.json:
        emit_report_json(campaign, ranking, args.json)
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
