"""Forum interaction networks: ingest post logs, project user and thread
networks, and compute structural and centrality measures.

The package turns raw forum post logs into a two-mode user/thread
network, projects it into one-mode co-participation networks, and
reports density, centralization, path statistics, per-node centrality,
core membership, and figure exports. ``report.run_pipeline`` chains the
whole flow; the ``forumnet`` console script exposes it as subcommands.
"""

__version__ = "0.1.0"

from .centrality import (
    CentralityTable,
    CoreSet,
    centrality_table,
    core_set,
    silent_initiators,
)
from .errors import ConfigError, ForumNetError, InputError, SchemaError
from .graph import (
    BipartiteNetwork,
    OneModeNetwork,
    THREAD_MODE,
    USER_MODE,
    build_bipartite,
    project,
)
from .ingest import (
    ActivityOverview,
    ForumDataset,
    PostRecord,
    RejectedRow,
    UserProfile,
    activity_overview,
    load_dataset,
    parse_posts,
    parse_users,
)
from .metrics import (
    StructuralReport,
    bipartite_report,
    degree_centralization,
    density,
    format_structural_table,
    structural_report,
)
from .report import PipelineConfig, run_pipeline
from .synth import PlantedStructure, SynthConfig, generate, planted_structure
from .viz import ThinningSpec, export_graph, layout, thin

__all__ = [
    "ActivityOverview",
    "BipartiteNetwork",
    "CentralityTable",
    "ConfigError",
    "CoreSet",
    "ForumDataset",
    "ForumNetError",
    "InputError",
    "OneModeNetwork",
    "PipelineConfig",
    "PlantedStructure",
    "PostRecord",
    "RejectedRow",
    "SchemaError",
    "StructuralReport",
    "SynthConfig",
    "THREAD_MODE",
    "ThinningSpec",
    "USER_MODE",
    "UserProfile",
    "activity_overview",
    "bipartite_report",
    "build_bipartite",
    "centrality_table",
    "core_set",
    "degree_centralization",
    "density",
    "export_graph",
    "format_structural_table",
    "generate",
    "layout",
    "load_dataset",
    "parse_posts",
    "parse_users",
    "planted_structure",
    "project",
    "run_pipeline",
    "silent_initiators",
    "structural_report",
    "thin",
    "__version__",
]
