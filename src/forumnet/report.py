"""End-to-end analysis pipeline: one dataset in, one output directory out.

``run_pipeline`` chains the whole flow (bipartite build, both
projections, one shortest-path pass per projection read by its
structural report and centrality table, core detection, silent-initiator
scan, thinned figures), publishes every artifact, under fixed file
names, as one output directory that holds one run's complete set, and
returns the relative paths it wrote. Every JSON artifact is written by
one ``write_json`` that adds the run's provenance block, so a report
always states what produced it; ``text`` fixes the bytes of each CSV and
JSON file, and reruns with identical inputs and seeds are
byte-identical. Edge lists and figures are written chunk by chunk as
they arrive, never as one string.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from . import __version__, paths, viz
from .centrality import (
    MEASURES,
    centrality_table,
    check_core_threshold,
    core_set,
    histogram_csv,
    silent_initiators,
    summaries,
    table_csv,
)
from .errors import ConfigError
from .graph import (
    BipartiteNetwork,
    OneModeNetwork,
    THREAD_MODE,
    USER_MODE,
    WEIGHTINGS,
    build_bipartite,
    edge_list_csv,
    node_list_csv,
    project,
)
from .ingest import PERIODS, ForumDataset, activity_overview, dataset_to_json
from .metrics import bipartite_report, structural_report
from .paths import path_stats
from .text import json_text
from .viz import (
    EXPORT_FORMATS, Layout, ThinningSpec, check_layout_settings, export_graph, positions_csv, thin,
)

FIGURE_NETWORKS = ("bipartite", "user", "thread")


@dataclass
class PipelineConfig:
    """Knobs for one pipeline run; serialized into every JSON output."""

    out_dir: str | Path = "out"
    period: str = PERIODS[0]
    weighting: str = WEIGHTINGS[0]
    core_threshold: float = 0.20
    silent_min_threads: int = 21
    thin_sd: float = ThinningSpec.k_sd
    thin_strict: bool = ThinningSpec.strict
    layout_seed: int = viz.LAYOUT_SEED
    layout_iterations: int = viz.LAYOUT_ITERATIONS
    figures: tuple[str, ...] = FIGURE_NETWORKS
    figure_format: str = "svg"
    bipartite_norm: bool = False
    roles: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        check_core_threshold(self.core_threshold)
        ThinningSpec(self.thin_sd, self.thin_strict)  # refuses a bad thin_sd
        check_layout_settings(self.layout_seed, self.layout_iterations)
        if self.period not in PERIODS:
            raise ConfigError(f"unknown period: {self.period!r}")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"unknown weighting: {self.weighting!r}")
        if self.figure_format not in EXPORT_FORMATS:
            raise ConfigError(f"unknown figure format: {self.figure_format!r}")
        unknown = set(self.figures) - set(FIGURE_NETWORKS)
        if unknown:
            raise ConfigError(f"unknown figure networks: {sorted(unknown)}")
        if len(set(self.figures)) < len(self.figures):
            raise ConfigError(f"repeated figure networks: {list(self.figures)}")
        if self.silent_min_threads < 0:
            raise ConfigError("silent_min_threads must be >= 0")
        # a swap never deletes foreign files: out_dir, resolved as _published resolves
        # it, must be missing, empty, or a previous output (it holds manifest.json)
        given = Path(self.out_dir).absolute()
        out = given.resolve()
        if given.is_symlink() or (out.exists() and not out.is_dir()):
            raise ConfigError(f"output path {given} is a file or a symlink, not a directory")
        if out.is_dir() and any(out.iterdir()) and not (out / "manifest.json").is_file():
            raise ConfigError(f"output directory {out} is not empty and holds no manifest.json")


def _provenance(data: ForumDataset, config: PipelineConfig) -> dict:
    """The run's provenance: the input's sha256 is that of the posts file
    the dataset was loaded from, or of its dataset JSON if built in memory."""
    checksum = data.source_sha256
    if checksum is None:
        checksum = hashlib.sha256(dataset_to_json(data).encode("utf-8")).hexdigest()
    snapshot = asdict(config)
    snapshot.pop("out_dir")
    snapshot["figures"] = list(config.figures)
    return {
        "tool": "forumnet",
        "version": __version__,
        "input_sha256": checksum,
        "config": snapshot,
    }


def write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text`` to ``path``: one string, or its chunks in turn as given."""
    with path.open("w", encoding="utf-8") as file:
        file.writelines((text,) if isinstance(text, str) else text)


@contextmanager
def _published(out: Path):
    """Yield a path in a fresh box beside ``out`` for the caller to create, as
    a file or a directory; on a clean exit it replaces ``out`` (a symlink's
    target) whole, a replaced file keeping its mode, and on an error or a
    change of kind leaves it as it was. A pipe or a device, which no rename
    can replace, is yielded itself, to be written in place."""
    if out.exists() and not (out.is_file() or out.is_dir()):
        yield out
        return
    out = out.resolve()
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(
        prefix=f".{out.name}.", dir=out.parent, ignore_cleanup_errors=True
    ) as box:
        stage, old = Path(box) / "new", Path(box) / "old"
        yield stage
        if out.exists():
            if out.is_dir() != stage.is_dir():
                raise OSError(f"cannot replace {out} with a {'file' if out.is_dir() else 'directory'}")
            if out.is_file():
                shutil.copymode(out, stage)
            out.rename(old)
        try:
            stage.rename(out)
        except OSError:
            if old.exists():
                old.rename(out)
            raise


def _figure_artifacts(
    write: Callable[[str, str], None],
    config: PipelineConfig,
    b: BipartiteNetwork,
    networks: dict[str, OneModeNetwork],
) -> None:
    """Lay the figures out on up to one thread per core, then write each on
    this thread, in ``config.figures`` order. This thread also thins each
    network and builds its ``Layout``, so every workspace is allocated here
    and serves this thread's later allocations once freed; ``Layout.run``
    frees it before handing back the positions. No pool is started when no
    figure is configured or no post was kept (no network has a node)."""
    if not config.figures or not b.user_nodes:
        return
    spec = ThinningSpec(k_sd=config.thin_sd, strict=config.thin_strict)
    with ThreadPoolExecutor(min(paths._workers(), len(config.figures))) as pool:
        figures = []
        for name in config.figures:
            target = b if name == "bipartite" else thin(networks[name], spec)
            work = Layout(target, config.layout_seed, config.layout_iterations)
            figures.append((name, target, pool.submit(work.run)))
        for name, target, placed in figures:
            positions = placed.result()
            write(f"figures/{name}_positions.csv", positions_csv(target, positions))
            rendered = export_graph(target, positions, format=config.figure_format)
            write(f"figures/{name}.{config.figure_format}", rendered)


def run_pipeline(data: ForumDataset, config: PipelineConfig | None = None) -> list[str]:
    """Run the full analysis, publish all artifacts as config.out_dir, and
    return their paths relative to it: the manifest's entries, then
    ``manifest.json``.

    Artifacts are written into a staging directory beside ``out_dir``,
    which replaces ``out_dir`` only once the whole set is written, so no
    file of an earlier run survives. On any failure the stage is removed
    and a previous ``out_dir`` is left untouched. Missing ancestors of
    ``out_dir`` are created as ``mkdir -p`` would, and stay after a failed
    run. A bad config, or an ``out_dir`` that is not missing, empty or a
    previous output, raises ConfigError before any work. Empty datasets
    produce zero-valued reports and no figures.
    """
    config = config or PipelineConfig()
    config.validate()
    artifacts: list[str] = []

    with _published(Path(config.out_dir)) as stage:
        stage.mkdir()  # the mode a plain mkdir gives; the box's is 0700
        provenance = _provenance(data, config)

        def write(relative: str, text: str | Iterable[str]) -> None:
            (stage / relative).parent.mkdir(exist_ok=True)
            write_text(stage / relative, text)
            artifacts.append(relative)

        def write_json(relative: str, payload: dict) -> None:
            write(relative, json_text({**payload, "provenance": provenance}))

        write_json("overview.json", activity_overview(data, config.period).to_dict())

        b = build_bipartite(data)
        networks = {
            USER_MODE: project(b, USER_MODE, config.weighting),
            THREAD_MODE: project(b, THREAD_MODE, config.weighting),
        }
        for mode, g in networks.items():
            stats = path_stats(g)
            write_json(f"{mode}_structural.json", structural_report(g, stats).to_dict())
            table = centrality_table(g, stats)
            write(f"{mode}_centrality.csv", table_csv(table))
            write_json(f"{mode}_centrality_summary.json", summaries(table))
            for measure in MEASURES:
                write(f"{mode}_{measure}_hist.csv", histogram_csv(table, measure))
            write(f"{mode}_edges.csv", edge_list_csv(g))
            write(f"{mode}_nodes.csv", node_list_csv(g))
            if mode == USER_MODE:
                user_table = table

        core = core_set(user_table, config.core_threshold, config.roles)
        write_json("core.json", core.to_dict())

        silent = silent_initiators(networks[USER_MODE], config.silent_min_threads)
        write_json(
            "silent.json",
            {
                "min_threads": config.silent_min_threads,
                "users": [{"user_id": uid, "thread_count": n} for uid, n in silent],
            },
        )

        if config.bipartite_norm:
            two_mode = bipartite_report(networks[USER_MODE], networks[THREAD_MODE])
            write_json("bipartite.json", two_mode)

        _figure_artifacts(write, config, b, networks)
        write_json("manifest.json", {"artifacts": list(artifacts)})

    return artifacts
