"""Network-level structural measures: density, centralization, diameter,
average path length, and the combined structural report.

All measures work on the binary view of a network; tie weights never
matter here. Diameter and average path length are computed within the
largest connected component, with component counts reported alongside so
nothing is silently dropped. They come from ``paths.path_stats``, the
same shortest-path pass the centrality table reads.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

from .graph import BipartiteNetwork, OneModeNetwork
from .paths import PathStats, path_stats


@dataclass(frozen=True)
class StructuralReport:
    mode: str
    n: int
    m: int
    density: float
    centralization: float
    diameter: int
    avg_path_length: float
    component_count: int
    largest_component_size: int
    isolate_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def density(g: OneModeNetwork) -> float:
    """Present ties as a fraction of possible ties; 0 for n <= 1."""
    n = len(g.nodes)
    if n <= 1:
        return 0.0
    return 2.0 * len(g.edges) / (n * (n - 1))


def degree_centralization(g: OneModeNetwork) -> float:
    """Freeman degree centralization: 0 for regular graphs, 1 for a star.

    Sum of (max degree - degree) over nodes, divided by the star-graph
    maximum (n-1)(n-2). By convention 0 when n < 3.
    """
    n = len(g.nodes)
    if n < 3:
        return 0.0
    degrees = g.degree_map()
    top = max(degrees.values())
    return sum(top - d for d in degrees.values()) / ((n - 1) * (n - 2))


def structural_report(g: OneModeNetwork, stats: PathStats | None = None) -> StructuralReport:
    """All structural measures plus component metadata.

    ``stats`` is the network's ``path_stats``, computed here when omitted.
    """
    n = len(g.nodes)
    if n == 0:
        return StructuralReport(g.mode, 0, 0, 0.0, 0.0, 0, 0.0, 0, 0, 0)
    if stats is None:
        stats = path_stats(g)
    degrees = g.degree_map()
    return StructuralReport(
        mode=g.mode,
        n=n,
        m=len(g.edges),
        density=density(g),
        centralization=degree_centralization(g),
        diameter=stats.diameter,
        avg_path_length=stats.avg_path_length,
        component_count=len(stats.components),
        largest_component_size=len(stats.components[0]),
        isolate_count=sum(1 for d in degrees.values() if d == 0),
    )


def bipartite_density(b: BipartiteNetwork) -> float:
    """Density of the two-mode network itself: present incidences over
    the user x thread grid."""
    possible = len(b.user_nodes) * len(b.thread_nodes)
    if possible == 0:
        return 0.0
    return len(b.incidence) / possible


def report_json(report: StructuralReport, provenance: dict | None = None) -> str:
    payload = report.to_dict()
    if provenance is not None:
        payload["provenance"] = provenance
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_TABLE_ROWS = (
    ("Nodes", "n", "{:d}"),
    ("Edges", "m", "{:d}"),
    ("Density", "density", "{:.2f}"),
    ("Degree centralization", "centralization", "{:.2f}"),
    ("Diameter", "diameter", "{:.2f}"),
    ("Average path length", "avg_path_length", "{:.2f}"),
    ("Components", "component_count", "{:d}"),
    ("Largest component", "largest_component_size", "{:d}"),
    ("Isolates", "isolate_count", "{:d}"),
)


def format_structural_table(reports: Sequence[StructuralReport]) -> str:
    """Fixed-width text table: measure rows, one column per network mode."""
    headers = ["Measure"] + [r.mode.capitalize() + f" (n={r.n})" for r in reports]
    rows = [headers]
    for label, attr, fmt in _TABLE_ROWS:
        rows.append([label] + [fmt.format(getattr(r, attr)) for r in reports])
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:])]
        lines.append("  ".join(cells).rstrip())
    lines.insert(1, "-" * max(len(line) for line in lines))
    return "\n".join(lines) + "\n"
