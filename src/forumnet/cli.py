"""Command-line front end.

Subcommands:
  ingest    validate raw post/user files and write a merged dataset JSON
  synth     generate a seeded synthetic dataset
  analyze   run the full analysis pipeline into an output directory
  metrics   print the structural-measure table for one projection
  viz       export one network as DOT, GraphML, or SVG

Each subcommand's option table declares every input once: its type or
allowed values, its default, and its flag help (none: config file only).
``--config FILE`` takes a JSON object keyed by option name; flags override
it, and null leaves an option at its default. Every value is checked
before any input file is read. A command that reads a posts file loads
it with ``ingest.load_dataset``, which reads it once and tells CSV from
dataset JSON by its content, and reports its rejected rows on stderr, one
line per reason, once its work is done. Exit codes: 0 success, 1
unreadable or invalid input (or a failed file operation), 2 bad
configuration or usage.
Any other exception is a bug and ends with a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .errors import ConfigError, InputError
from .graph import THREAD_MODE, USER_MODE, WEIGHTINGS, build_bipartite, project
from .ingest import PERIODS, dataset_to_json, load_dataset, posts_csv, users_csv
from .metrics import format_structural_table, structural_report
from .report import PipelineConfig, run_pipeline
from .synth import SynthConfig, generate
from .viz import EXPORT_FORMATS, ThinningSpec, export_graph, layout, thin

REQUIRED = MISSING  # the default of an option a command cannot run without


class Option(NamedTuple):
    """One input of a subcommand, given by flag or config-file key."""

    kind: type | tuple[str, ...]  # the value's type, or its allowed values
    default: object  # REQUIRED, or the value when none is given
    help: str | None  # the flag's help; None for a config-file-only option
    field: str | None = None  # the SynthConfig/PipelineConfig field it sets


def _feeds(cls, field: str, kind, help: str | None = None) -> Option:
    """An option that sets ``field`` of ``cls``, with the field's default."""
    [spec] = [f for f in fields(cls) if f.name == field]
    default = spec.default if spec.default_factory is MISSING else spec.default_factory()
    return Option(kind, default, help, field)


DATA_HELP = "dataset JSON or posts CSV"

INGEST_OPTIONS = {
    "posts": Option(str, REQUIRED, "posts file (CSV or JSON)"),
    "users": Option(str, None, "optional users CSV"),
    "out": Option(str, REQUIRED, "output directory"),
}
SYNTH_OPTIONS = {
    "users": _feeds(SynthConfig, "user_count", int, "number of users"),
    "threads": _feeds(SynthConfig, "thread_count", int, "number of threads"),
    "posts": _feeds(SynthConfig, "post_count", int, "number of posts"),
    "alpha": _feeds(SynthConfig, "skew_alpha", float, "activity skew exponent"),
    "seed": _feeds(SynthConfig, "seed", int, "random seed"),
    "forums": _feeds(SynthConfig, "forum_count", int, "number of forums"),
    "moderators": _feeds(SynthConfig, "moderator_count", int, "planted high-activity users"),
    "silent_initiators": _feeds(
        SynthConfig, "silent_initiator_count", int, "planted users whose threads get no replies"
    ),
    "out": Option(str, REQUIRED, "output file (.json or .csv)"),
}
# every PipelineConfig field
ANALYZE_OPTIONS = {
    "data": Option(str, REQUIRED, DATA_HELP),
    "out": Option(str, REQUIRED, "output directory", "out_dir"),
    "core_threshold": _feeds(
        PipelineConfig, "core_threshold", float, "degree cutoff for the core set"
    ),
    "thin_sd": _feeds(PipelineConfig, "thin_sd", float, "tie-thinning cutoff in sd units"),
    "layout_seed": _feeds(PipelineConfig, "layout_seed", int, "layout random seed"),
    "weighting": _feeds(PipelineConfig, "weighting", WEIGHTINGS, "tie weighting"),
    "bipartite_norm": _feeds(
        PipelineConfig, "bipartite_norm", bool, "also write two-mode density and degree report"
    ),
    "period": _feeds(PipelineConfig, "period", PERIODS),
    "silent_min_threads": _feeds(PipelineConfig, "silent_min_threads", int),
    "thin_strict": _feeds(PipelineConfig, "thin_strict", bool),
    "layout_iterations": _feeds(PipelineConfig, "layout_iterations", int),
    "figures": _feeds(PipelineConfig, "figures", tuple),
    "figure_format": _feeds(PipelineConfig, "figure_format", EXPORT_FORMATS),
    "roles": _feeds(PipelineConfig, "roles", dict),
}
METRICS_OPTIONS = {
    "data": Option(str, REQUIRED, DATA_HELP),
    "mode": Option((USER_MODE, THREAD_MODE), REQUIRED, "projection to report"),
}
VIZ_OPTIONS = {
    "data": Option(str, REQUIRED, DATA_HELP),
    "mode": Option((USER_MODE, THREAD_MODE, "bipartite"), REQUIRED, "network to export"),
    "format": Option(EXPORT_FORMATS, REQUIRED, "output format"),
    "out": Option(str, REQUIRED, "output file"),
    "thin_sd": Option(float, None, "thin ties before export (sd units)"),
    "layout_seed": Option(int, PipelineConfig.layout_seed, "layout random seed (svg)"),
    "layout_iterations": Option(
        int, PipelineConfig.layout_iterations, "layout iterations (svg)"
    ),
}


def _checked(name: str, kind, value):
    """``value`` as the option ``name`` of ``kind`` takes it. A str or bool
    option takes only a str or a bool (``bool("false")`` is True), a tuple
    option only a list of strings (``tuple("user")`` splits it into
    characters), and a dict option only an object of strings. A number
    option takes a number or a numeric string, never a bool: an int
    option only an integral one (``int(1.7)`` is 1), a float option only
    a finite one (NaN is not valid JSON in provenance)."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
        return value
    if kind is tuple:
        if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
            raise ConfigError(f"{name} must be a list of strings, got {value!r}")
        return tuple(value)
    if kind is dict:
        if not isinstance(value, dict) or not all(
            isinstance(key, str) and isinstance(item, str) for key, item in value.items()
        ):
            raise ConfigError(f"{name} must be an object of strings, got {value!r}")
        return value
    if kind in (str, bool):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
        return value
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or fractional:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}") from exc
    if kind is float and not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite float, got {value!r}")
    return number


def _options(table: dict[str, Option], args: argparse.Namespace) -> dict:
    """Every option in ``table``: its flag, else its value in the config
    file, else its default. Each given value is checked; a missing one raises."""
    given, path = {}, args.config
    if path:
        try:
            given = json.loads(Path(path).read_bytes())
        except OSError as exc:
            raise InputError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    options, missing = {}, []
    for name, option in table.items():
        value = getattr(args, name, None)
        if value is None:
            value = given.get(name)
        if value is not None:
            options[name] = _checked(name, option.kind, value)
        elif option.default is REQUIRED:
            missing.append("--" + name.replace("_", "-"))
        else:
            options[name] = option.default
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")
    return options


def _build_config(cls, table: dict[str, Option], options: dict):
    """``cls`` built from the options in ``table`` that set its fields."""
    return cls(**{opt.field: options[name] for name, opt in table.items() if opt.field})


@contextmanager
def _loaded(path: str, users: str | None = None):
    """Yield the dataset loaded from ``path`` (with the optional ``users``
    roster). When the command's work is done, print one stderr line per
    rejection reason, with its count, sorted by reason."""
    data = load_dataset(path, users)
    yield data
    for reason, count in sorted(Counter(row.reason for row in data.rejected).items()):
        print(f"rejected {count} row{'' if count == 1 else 's'}: {reason}", file=sys.stderr)


def _cmd_ingest(options: dict) -> int:
    with _loaded(options["posts"], options["users"]) as data:
        out_dir = Path(options["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "dataset.json").write_text(dataset_to_json(data), encoding="utf-8")
        print(
            f"ingested {len(data.posts)} posts, {len(data.users)} users, "
            f"{len(data.rejected)} rejected -> {out_dir / 'dataset.json'}"
        )
    return 0


def _cmd_synth(options: dict) -> int:
    data = generate(_build_config(SynthConfig, SYNTH_OPTIONS, options))
    out_path = Path(options["out"])
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


def _cmd_analyze(options: dict) -> int:
    config = _build_config(PipelineConfig, ANALYZE_OPTIONS, options)
    config.validate()  # a bad value or a refused --out wins over any fault in --data
    with _loaded(options["data"]) as data:
        bundle = run_pipeline(data, config)
        print(f"wrote {len(bundle.artifacts)} files under {options['out']}")
    return 0


def _cmd_metrics(options: dict) -> int:
    with _loaded(options["data"]) as data:
        g = project(build_bipartite(data), options["mode"])
        print(format_structural_table([structural_report(g)]), end="")
    return 0


def _cmd_viz(options: dict) -> int:
    # range checks come before --data is read, as in analyze
    spec = None if options["thin_sd"] is None else ThinningSpec(k_sd=options["thin_sd"])
    if options["layout_seed"] < 0:
        raise ConfigError("layout_seed must be >= 0")
    if options["layout_iterations"] < 1:
        raise ConfigError("layout_iterations must be >= 1")
    with _loaded(options["data"]) as data:
        b = build_bipartite(data)
        if options["mode"] == "bipartite":
            network = b
        else:
            network = project(b, options["mode"])
            if spec is not None:
                network = thin(network, spec)
        placed = None
        if options["format"] == "svg":
            if not data.posts:
                raise InputError("layout requires at least one node, and no post was retained")
            placed = layout(
                network, seed=options["layout_seed"], iterations=options["layout_iterations"]
            )
        rendered = export_graph(network, placed, format=options["format"])
        out_path = Path(options["out"])
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(rendered, encoding="utf-8")
        print(f"wrote {options['format']} graph -> {out_path}")
    return 0


# subcommand -> (help, option table, handler)
COMMANDS = {
    "ingest": ("validate raw files into a dataset JSON", INGEST_OPTIONS, _cmd_ingest),
    "synth": ("generate a synthetic dataset", SYNTH_OPTIONS, _cmd_synth),
    "analyze": ("run the full pipeline", ANALYZE_OPTIONS, _cmd_analyze),
    "metrics": ("print the structural-measure table", METRICS_OPTIONS, _cmd_metrics),
    "viz": ("export one network as a graph file", VIZ_OPTIONS, _cmd_viz),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forumnet",
        description="Build and analyze forum co-participation networks.",
    )
    parser.add_argument("--version", action="version", version=f"forumnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, table, _) in COMMANDS.items():
        sub_parser = sub.add_parser(command, help=summary)
        for name, option in table.items():
            if option.help is None:
                continue
            flag = "--" + name.replace("_", "-")
            if option.kind is bool:
                sub_parser.add_argument(flag, action="store_true", default=None, help=option.help)
            elif isinstance(option.kind, tuple):
                sub_parser.add_argument(flag, choices=option.kind, help=option.help)
            else:
                sub_parser.add_argument(flag, type=option.kind, help=option.help)
        sub_parser.add_argument("--config", help="JSON file with option defaults")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, table, handler = COMMANDS[args.command]
    try:
        return handler(_options(table, args))
    except (ConfigError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
