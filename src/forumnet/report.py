"""End-to-end analysis pipeline: one dataset in, one report bundle out.

``run_pipeline`` chains the whole flow (bipartite build, both
projections, structural reports, centrality tables, core detection,
silent-initiator scan, thinned figures) and publishes every artifact,
under fixed file names, as one output directory that holds one run's
complete set. Every JSON artifact is written by one ``write_json`` that
adds the run's provenance block, so a report always states what produced
it; ``text`` fixes the bytes of each CSV and JSON file, and reruns with
identical inputs and seeds are byte-identical.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from . import __version__
from .centrality import (
    CentralityTable,
    CoreSet,
    MEASURES,
    bipartite_degree_centrality,
    centrality_table,
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
from .ingest import PERIODS, ActivityOverview, ForumDataset, activity_overview, dataset_to_json
from .metrics import StructuralReport, bipartite_density, structural_report
from .paths import path_stats
from .text import json_text
from .viz import EXPORT_FORMATS, ThinningSpec, export_graph, layout, positions_csv, thin

FIGURE_NETWORKS = ("bipartite", "user", "thread")


@dataclass
class PipelineConfig:
    """Knobs for one pipeline run; serialized into every JSON output."""

    out_dir: str | Path = "out"
    period: str = "year"
    weighting: str = "events"
    core_threshold: float = 0.20
    silent_min_threads: int = 21
    thin_sd: float = 1.0
    thin_strict: bool = True
    layout_seed: int = 42
    layout_iterations: int = 100
    figures: tuple[str, ...] = FIGURE_NETWORKS
    figure_format: str = "svg"
    bipartite_norm: bool = False
    roles: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if not 0.0 <= self.core_threshold <= 1.0:
            raise ConfigError("core_threshold must be in [0, 1]")
        if not 0 <= self.thin_sd < math.inf:  # NaN fails too
            raise ConfigError("thin_sd must be a finite number >= 0")
        if self.layout_seed < 0:
            raise ConfigError("layout_seed must be >= 0")
        if self.layout_iterations < 1:
            raise ConfigError("layout_iterations must be >= 1")
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
        # a swap never deletes foreign files: out_dir must be missing,
        # empty, or a previous output (it holds manifest.json)
        out = Path(os.path.abspath(self.out_dir))
        if out.is_symlink() or (out.exists() and not out.is_dir()):
            raise ConfigError(f"output path {out} is a file or a symlink, not a directory")
        if out.is_dir() and any(out.iterdir()) and not (out / "manifest.json").is_file():
            raise ConfigError(f"output directory {out} is not empty and holds no manifest.json")


@dataclass
class AnalysisBundle:
    overview: ActivityOverview
    user_report: StructuralReport
    thread_report: StructuralReport
    user_centrality: CentralityTable
    thread_centrality: CentralityTable
    core: CoreSet
    silent: list[tuple[str, int]]
    artifacts: list[str]
    provenance: dict


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


@contextmanager
def _published(out_dir: Path):
    """Yield a fresh staging directory beside ``out_dir``; on a clean exit
    it replaces ``out_dir`` whole, and on an error ``out_dir`` is left as
    it was. ``PipelineConfig.validate`` has checked ``out_dir``."""
    out_dir = Path(os.path.abspath(out_dir))
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    box = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        stage, old = box / "new", box / "old"
        stage.mkdir()  # the mode a plain mkdir gives; mkdtemp's is 0700
        yield stage
        if out_dir.exists():
            out_dir.rename(old)
        try:
            stage.rename(out_dir)
        except OSError:
            if old.exists():
                old.rename(out_dir)
            raise
    finally:
        shutil.rmtree(box, ignore_errors=True)


def _figure_artifacts(
    write: Callable[[str, str], None],
    config: PipelineConfig,
    b: BipartiteNetwork,
    networks: dict[str, OneModeNetwork],
) -> None:
    spec = ThinningSpec(k_sd=config.thin_sd, strict=config.thin_strict)
    for name in config.figures:
        if name == "bipartite":
            target = b
            if not target.user_nodes and not target.thread_nodes:
                continue
        else:
            full = networks[name]
            if not full.nodes:
                continue
            target = thin(full, spec)
        placed = layout(target, seed=config.layout_seed, iterations=config.layout_iterations)
        write(f"figures/{name}_positions.csv", positions_csv(target, placed))
        rendered = export_graph(target, placed, format=config.figure_format)
        write(f"figures/{name}.{config.figure_format}", rendered)


def run_pipeline(data: ForumDataset, config: PipelineConfig | None = None) -> AnalysisBundle:
    """Run the full analysis and publish all artifacts as config.out_dir.

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
        provenance = _provenance(data, config)

        def write(relative: str, text: str) -> None:
            path = stage / relative
            path.parent.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
            artifacts.append(relative)

        def write_json(relative: str, payload: dict) -> None:
            write(relative, json_text({**payload, "provenance": provenance}))

        overview = activity_overview(data, config.period)
        write_json("overview.json", overview.to_dict())

        b = build_bipartite(data)
        networks = {
            USER_MODE: project(b, USER_MODE, config.weighting),
            THREAD_MODE: project(b, THREAD_MODE, config.weighting),
        }
        stats = {mode: path_stats(g) for mode, g in networks.items()}
        reports = {mode: structural_report(g, stats[mode]) for mode, g in networks.items()}
        tables = {mode: centrality_table(g, stats[mode]) for mode, g in networks.items()}

        for mode in (USER_MODE, THREAD_MODE):
            write_json(f"{mode}_structural.json", reports[mode].to_dict())
            write(f"{mode}_centrality.csv", table_csv(tables[mode]))
            write_json(f"{mode}_centrality_summary.json", summaries(tables[mode]))
            for measure in MEASURES:
                write(f"{mode}_{measure}_hist.csv", histogram_csv(tables[mode], measure))
            write(f"{mode}_edges.csv", edge_list_csv(networks[mode]))
            write(f"{mode}_nodes.csv", node_list_csv(networks[mode]))

        core = core_set(tables[USER_MODE], config.core_threshold, config.roles)
        write_json("core.json", core.to_dict())

        silent = silent_initiators(b, networks[USER_MODE], config.silent_min_threads)
        write_json(
            "silent.json",
            {
                "min_threads": config.silent_min_threads,
                "users": [{"user_id": uid, "thread_count": n} for uid, n in silent],
            },
        )

        if config.bipartite_norm:
            write_json(
                "bipartite.json",
                {
                    "density": bipartite_density(b),
                    "user_degree": bipartite_degree_centrality(b, USER_MODE),
                    "thread_degree": bipartite_degree_centrality(b, THREAD_MODE),
                },
            )

        _figure_artifacts(write, config, b, networks)
        write_json("manifest.json", {"artifacts": list(artifacts)})

    return AnalysisBundle(
        overview=overview,
        user_report=reports[USER_MODE],
        thread_report=reports[THREAD_MODE],
        user_centrality=tables[USER_MODE],
        thread_centrality=tables[THREAD_MODE],
        core=core,
        silent=silent,
        artifacts=artifacts,
        provenance=provenance,
    )
