"""Command-line front end.

Subcommands:
  ingest    validate raw post/user files and write a merged dataset JSON
  synth     generate a seeded synthetic dataset
  analyze   run the full analysis pipeline into an output directory
  metrics   print the structural-measure table for one projection
  viz       export one network as DOT, GraphML, or SVG

Every subcommand accepts ``--config FILE``: a JSON object whose keys
mirror the long flag names (hyphens become underscores). Explicit flags
override config-file values. Exit codes: 0 success, 1 unreadable or
invalid input (or a failed file operation), 2 bad configuration or usage.
Any other exception is a bug and ends with a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

from . import __version__
from .errors import ConfigError, InputError
from .graph import THREAD_MODE, USER_MODE, build_bipartite, project
from .ingest import dataset_to_json, load_dataset, posts_csv, users_csv
from .metrics import format_structural_table, structural_report
from .report import PipelineConfig, run_pipeline
from .synth import SynthConfig, generate
from .viz import ThinningSpec, export_graph, layout, thin


def _field_defaults(cls) -> dict:
    """Each dataclass field's default; None where a field has none."""
    return {
        f.name: f.default_factory() if f.default_factory is not MISSING
        else None if f.default is MISSING else f.default
        for f in fields(cls)
    }


INGEST_DEFAULTS = {"posts": None, "users": None, "format": None, "out": None}
# synth flag -> SynthConfig field; the flag's default is the field's
_SYNTH_FIELDS = {
    "users": "user_count",
    "threads": "thread_count",
    "posts": "post_count",
    "alpha": "skew_alpha",
    "seed": "seed",
    "forums": "forum_count",
    "moderators": "moderator_count",
    "silent_initiators": "silent_initiator_count",
}
_synth_defaults = _field_defaults(SynthConfig)
_SYNTH_TYPES = get_type_hints(SynthConfig)
SYNTH_DEFAULTS = {flag: _synth_defaults[name] for flag, name in _SYNTH_FIELDS.items()}
SYNTH_DEFAULTS["out"] = None
# analyze takes every PipelineConfig field as an option, with its default;
# --out sets out_dir and the input checksum is always computed from --data
_PIPELINE_DEFAULTS = {
    name: default
    for name, default in _field_defaults(PipelineConfig).items()
    if name not in ("out_dir", "input_checksum")
}
ANALYZE_DEFAULTS = {"data": None, "out": None, **_PIPELINE_DEFAULTS}
METRICS_DEFAULTS = {"data": None, "mode": None, "weighting": _PIPELINE_DEFAULTS["weighting"]}
VIZ_DEFAULTS = {
    "data": None,
    "mode": None,
    "format": None,
    "out": None,
    "thin_sd": None,
    "layout_seed": _PIPELINE_DEFAULTS["layout_seed"],
    "layout_iterations": _PIPELINE_DEFAULTS["layout_iterations"],
}


def _load_config_file(path: str) -> dict:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return payload


def _merge_options(args: argparse.Namespace, defaults: dict) -> dict:
    merged = dict(defaults)
    if getattr(args, "config", None):
        overrides = _load_config_file(args.config)
        unknown = sorted(set(overrides) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        merged.update(overrides)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _require(options: dict, *keys: str) -> None:
    missing = [key for key in keys if options[key] is None]
    if missing:
        flags = ", ".join("--" + key.replace("_", "-") for key in missing)
        raise ConfigError(f"missing required option(s): {flags}")


def _coerce(name: str, kind: type, value):
    """``value`` as a ``kind``; strings pass as given, and a bool field
    takes only a bool, since ``bool("false")`` is True."""
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    try:
        return value if kind is str else kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}") from exc


def _cmd_ingest(args: argparse.Namespace) -> int:
    options = _merge_options(args, INGEST_DEFAULTS)
    _require(options, "posts", "out")
    data = load_dataset(options["posts"], options["users"], format=options["format"])
    out_dir = Path(options["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "dataset.json").write_text(dataset_to_json(data), encoding="utf-8")
    print(
        f"ingested {len(data.posts)} posts, {len(data.users)} users, "
        f"{len(data.rejected)} rejected -> {out_dir / 'dataset.json'}"
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    options = _merge_options(args, SYNTH_DEFAULTS)
    _require(options, "users", "threads", "posts", "out")
    data = generate(SynthConfig(**{
        name: _coerce(flag, _SYNTH_TYPES[name], options[flag])
        for flag, name in _SYNTH_FIELDS.items()
    }))
    out_path = Path(options["out"])
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    if out_path.suffix.lower() == ".csv":
        out_path.write_text(posts_csv(data), encoding="utf-8")
        users_path = out_path.with_suffix(".users.csv")
        users_path.write_text(users_csv(data), encoding="utf-8")
        print(f"wrote {len(data.posts)} posts -> {out_path} (+ {users_path})")
    else:
        out_path.write_text(dataset_to_json(data), encoding="utf-8")
        print(f"wrote {len(data.posts)} posts -> {out_path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    options = _merge_options(args, ANALYZE_DEFAULTS)
    _require(options, "data", "out")
    try:
        raw = Path(options["data"]).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {options['data']}: {exc}") from exc
    data = load_dataset(options["data"])
    config = PipelineConfig(
        out_dir=options["out"],
        input_checksum=hashlib.sha256(raw).hexdigest(),
        **{name: _coerce(name, type(d), options[name]) for name, d in _PIPELINE_DEFAULTS.items()},
    )
    bundle = run_pipeline(data, config)
    print(f"wrote {len(bundle.artifacts)} files under {options['out']}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    options = _merge_options(args, METRICS_DEFAULTS)
    _require(options, "data", "mode")
    if options["mode"] not in (USER_MODE, THREAD_MODE):
        raise ConfigError(f"mode must be user or thread, got {options['mode']!r}")
    data = load_dataset(options["data"])
    g = project(build_bipartite(data), options["mode"], options["weighting"])
    print(format_structural_table([structural_report(g)]))
    return 0


def _cmd_viz(args: argparse.Namespace) -> int:
    options = _merge_options(args, VIZ_DEFAULTS)
    _require(options, "data", "mode", "format", "out")
    if options["mode"] not in (USER_MODE, THREAD_MODE, "bipartite"):
        raise ConfigError(f"mode must be user, thread, or bipartite, got {options['mode']!r}")
    if options["format"] not in ("dot", "graphml", "svg"):
        raise ConfigError(f"format must be dot, graphml, or svg, got {options['format']!r}")
    data = load_dataset(options["data"])
    b = build_bipartite(data)
    if options["mode"] == "bipartite":
        network = b
    else:
        network = project(b, options["mode"])
        if options["thin_sd"] is not None:
            k_sd = _coerce("thin_sd", float, options["thin_sd"])
            network = thin(network, ThinningSpec(k_sd=k_sd))
    placed = None
    if options["format"] == "svg":
        if not data.posts:
            raise InputError("layout requires at least one node, and no post was retained")
        placed = layout(
            network,
            seed=_coerce("layout_seed", int, options["layout_seed"]),
            iterations=_coerce("layout_iterations", int, options["layout_iterations"]),
        )
    rendered = export_graph(network, layout_result=placed, format=options["format"])
    out_path = Path(options["out"])
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(rendered, encoding="utf-8")
    print(f"wrote {options['format']} graph -> {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forumnet",
        description="Build and analyze forum co-participation networks.",
    )
    parser.add_argument("--version", action="version", version=f"forumnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate raw files into a dataset JSON")
    p_ingest.add_argument("--posts", help="posts file (CSV or JSON)")
    p_ingest.add_argument("--users", help="optional users CSV")
    p_ingest.add_argument("--format", choices=["csv", "json"], help="posts file format")
    p_ingest.add_argument("--out", help="output directory")
    p_ingest.set_defaults(handler=_cmd_ingest)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--users", type=int, help="number of users")
    p_synth.add_argument("--threads", type=int, help="number of threads")
    p_synth.add_argument("--posts", type=int, help="number of posts")
    p_synth.add_argument("--alpha", type=float, help="activity skew exponent")
    p_synth.add_argument("--seed", type=int, help="random seed")
    p_synth.add_argument("--forums", type=int, help="number of forums")
    p_synth.add_argument("--moderators", type=int, help="planted high-activity users")
    p_synth.add_argument(
        "--silent-initiators", type=int, help="planted users whose threads get no replies"
    )
    p_synth.add_argument("--out", help="output file (.json or .csv)")
    p_synth.set_defaults(handler=_cmd_synth)

    p_analyze = sub.add_parser("analyze", help="run the full pipeline")
    p_analyze.add_argument("--data", help="dataset file (.json or posts .csv)")
    p_analyze.add_argument("--out", help="output directory")
    p_analyze.add_argument("--core-threshold", type=float, help="degree cutoff for the core set")
    p_analyze.add_argument("--thin-sd", type=float, help="tie-thinning cutoff in sd units")
    p_analyze.add_argument("--layout-seed", type=int, help="layout random seed")
    p_analyze.add_argument("--weighting", choices=["events", "posts"], help="tie weighting")
    p_analyze.add_argument(
        "--bipartite-norm",
        action="store_true",
        default=None,
        help="also write two-mode density and degree report",
    )
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_metrics = sub.add_parser("metrics", help="print the structural-measure table")
    p_metrics.add_argument("--data", help="dataset file (.json or posts .csv)")
    p_metrics.add_argument("--mode", choices=["user", "thread"], help="projection to report")
    p_metrics.add_argument("--weighting", choices=["events", "posts"], help="tie weighting")
    p_metrics.set_defaults(handler=_cmd_metrics)

    p_viz = sub.add_parser("viz", help="export one network as a graph file")
    p_viz.add_argument("--data", help="dataset file (.json or posts .csv)")
    p_viz.add_argument("--mode", choices=["user", "thread", "bipartite"], help="network to export")
    p_viz.add_argument("--format", choices=["dot", "graphml", "svg"], help="output format")
    p_viz.add_argument("--out", help="output file")
    p_viz.add_argument("--thin-sd", type=float, help="thin ties before export (sd units)")
    p_viz.add_argument("--layout-seed", type=int, help="layout random seed (svg)")
    p_viz.add_argument("--layout-iterations", type=int, help="layout iterations (svg)")
    p_viz.set_defaults(handler=_cmd_viz)

    for sub_parser in (p_ingest, p_synth, p_analyze, p_metrics, p_viz):
        sub_parser.add_argument("--config", help="JSON file with option defaults")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
