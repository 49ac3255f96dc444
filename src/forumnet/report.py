"""End-to-end analysis pipeline: one dataset in, one report bundle out.

``run_pipeline`` chains the whole flow (bipartite build, both
projections, structural reports, centrality tables, core detection,
silent-initiator scan, thinned figures) and writes every artifact under
a single output directory with fixed file names. Outputs embed a
provenance block so a report always states what produced it; reruns with
identical inputs and seeds are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .centrality import (
    CentralityTable,
    CoreSet,
    MEASURES,
    bipartite_degree_centrality,
    centrality_table,
    core_json,
    core_set,
    histogram_csv,
    silent_initiators,
    summaries_json,
    table_csv,
)
from .errors import ConfigError
from .graph import (
    BipartiteNetwork,
    OneModeNetwork,
    THREAD_MODE,
    USER_MODE,
    build_bipartite,
    edge_list_csv,
    node_list_csv,
    project,
)
from .ingest import ActivityOverview, ForumDataset, activity_overview, dataset_to_json
from .metrics import StructuralReport, bipartite_density, report_json, structural_report
from .paths import path_stats
from .viz import ThinningSpec, export_graph, layout, positions_csv, thin

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
    input_checksum: str | None = None

    def validate(self) -> None:
        if not 0.0 <= self.core_threshold <= 1.0:
            raise ConfigError("core_threshold must be in [0, 1]")
        if self.thin_sd < 0:
            raise ConfigError("thin_sd must be >= 0")
        if self.layout_iterations < 1:
            raise ConfigError("layout_iterations must be >= 1")
        if self.weighting not in ("events", "posts"):
            raise ConfigError(f"unknown weighting: {self.weighting!r}")
        if self.figure_format not in ("svg", "dot", "graphml"):
            raise ConfigError(f"unknown figure format: {self.figure_format!r}")
        unknown = set(self.figures) - set(FIGURE_NETWORKS)
        if unknown:
            raise ConfigError(f"unknown figure networks: {sorted(unknown)}")
        if self.silent_min_threads < 0:
            raise ConfigError("silent_min_threads must be >= 0")


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
    checksum = config.input_checksum
    if checksum is None:
        checksum = hashlib.sha256(dataset_to_json(data).encode("utf-8")).hexdigest()
    snapshot = asdict(config)
    snapshot.pop("out_dir")
    snapshot.pop("input_checksum")
    snapshot["figures"] = list(config.figures)
    return {
        "tool": "forumnet",
        "version": __version__,
        "input_sha256": checksum,
        "config": snapshot,
    }


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _ArtifactWriter:
    """Tracks written files so a failed run can clean up after itself."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.created_dirs: list[Path] = []
        self.written: list[Path] = []

    def ensure_dir(self, path: Path) -> None:
        missing = []
        probe = path
        while not probe.exists():
            missing.append(probe)
            probe = probe.parent
        path.mkdir(parents=True, exist_ok=True)
        self.created_dirs.extend(reversed(missing))

    def write(self, relative: str, text: str) -> None:
        path = self.out_dir / relative
        self.ensure_dir(path.parent)
        path.write_text(text, encoding="utf-8")
        self.written.append(path)

    def relative_paths(self) -> list[str]:
        return [str(p.relative_to(self.out_dir)) for p in self.written]

    def rollback(self) -> None:
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass
        for directory in reversed(self.created_dirs):
            try:
                directory.rmdir()
            except OSError:
                pass


def _figure_artifacts(
    writer: _ArtifactWriter,
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
            sizes = None
        else:
            full = networks[name]
            if not full.nodes:
                continue
            target = thin(full, spec)
            sizes = target.node_attr
        placed = layout(target, seed=config.layout_seed, iterations=config.layout_iterations)
        writer.write(f"figures/{name}_positions.csv", positions_csv(placed))
        rendered = export_graph(
            target, layout_result=placed, format=config.figure_format, node_size_attr=sizes
        )
        writer.write(f"figures/{name}.{config.figure_format}", rendered)


def run_pipeline(data: ForumDataset, config: PipelineConfig | None = None) -> AnalysisBundle:
    """Run the full analysis and write all artifacts under config.out_dir.

    Empty datasets produce zero-valued reports and no figures. On any
    failure the partially written output is removed before the error
    propagates.
    """
    config = config or PipelineConfig()
    config.validate()
    provenance = _provenance(data, config)
    out_dir = Path(config.out_dir)
    writer = _ArtifactWriter(out_dir)
    writer.ensure_dir(out_dir)

    try:
        overview = activity_overview(data, config.period)
        payload = overview.to_dict()
        payload["provenance"] = provenance
        writer.write("overview.json", _dump_json(payload))

        b = build_bipartite(data)
        networks = {
            USER_MODE: project(b, USER_MODE, config.weighting),
            THREAD_MODE: project(b, THREAD_MODE, config.weighting),
        }
        stats = {mode: path_stats(g) for mode, g in networks.items()}
        reports = {mode: structural_report(g, stats[mode]) for mode, g in networks.items()}
        tables = {mode: centrality_table(g, stats[mode]) for mode, g in networks.items()}

        for mode in (USER_MODE, THREAD_MODE):
            writer.write(f"{mode}_structural.json", report_json(reports[mode], provenance))
            writer.write(f"{mode}_centrality.csv", table_csv(tables[mode]))
            writer.write(
                f"{mode}_centrality_summary.json", summaries_json(tables[mode], provenance)
            )
            for measure in MEASURES:
                writer.write(
                    f"{mode}_{measure}_hist.csv", histogram_csv(tables[mode], measure)
                )
            writer.write(f"{mode}_edges.csv", edge_list_csv(networks[mode]))
            writer.write(f"{mode}_nodes.csv", node_list_csv(networks[mode]))

        core = core_set(tables[USER_MODE], config.core_threshold, config.roles)
        writer.write("core.json", core_json(core, provenance))

        silent = silent_initiators(b, networks[USER_MODE], config.silent_min_threads)
        writer.write(
            "silent.json",
            _dump_json(
                {
                    "min_threads": config.silent_min_threads,
                    "users": [{"user_id": uid, "thread_count": n} for uid, n in silent],
                    "provenance": provenance,
                }
            ),
        )

        if config.bipartite_norm:
            writer.write(
                "bipartite.json",
                _dump_json(
                    {
                        "density": bipartite_density(b),
                        "user_degree": bipartite_degree_centrality(b, USER_MODE),
                        "thread_degree": bipartite_degree_centrality(b, THREAD_MODE),
                        "provenance": provenance,
                    }
                ),
            )

        _figure_artifacts(writer, config, b, networks)

        artifacts = writer.relative_paths()
        writer.write(
            "manifest.json", _dump_json({"artifacts": artifacts, "provenance": provenance})
        )
    except BaseException:
        writer.rollback()
        raise

    return AnalysisBundle(
        overview=overview,
        user_report=reports[USER_MODE],
        thread_report=reports[THREAD_MODE],
        user_centrality=tables[USER_MODE],
        thread_centrality=tables[THREAD_MODE],
        core=core,
        silent=silent,
        artifacts=writer.relative_paths(),
        provenance=provenance,
    )
