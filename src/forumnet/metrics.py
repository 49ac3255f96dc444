"""Network-level structural measures: density, centralization, diameter,
average path length, and the structural and two-mode reports.

All measures work on the binary view of a network; tie weights never
matter here. Diameter and average path length are computed within the
largest connected component, with component counts reported alongside so
nothing is silently dropped. ``structural_report`` aggregates them from
the per-node arrays of the ``paths.path_stats`` pass the caller gives,
the same pass the centrality table reads; the report never runs one itself.
``StructuralReport.to_dict`` is the payload that ``report`` writes as
``<mode>_structural.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .graph import THREAD_MODE, USER_MODE, OneModeNetwork
from .paths import PathStats


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
    degrees = g.degrees()
    return int((degrees.max() - degrees).sum()) / ((n - 1) * (n - 2))


def structural_report(g: OneModeNetwork, stats: PathStats) -> StructuralReport:
    """All structural measures plus component metadata, the path-based ones
    aggregated from ``stats``: the network's ``path_stats``, with or without
    the betweenness sweep.
    """
    n = len(g.nodes)
    if n == 0:
        return StructuralReport(g.mode, 0, 0, 0.0, 0.0, 0, 0.0, 0, 0, 0)
    sizes = np.bincount(stats.component)
    size = int(sizes.max())
    # ties on size break toward the component holding the smallest name, whatever the node order
    first = min(np.flatnonzero(sizes[stats.component] == size).tolist(), key=g.nodes.__getitem__)
    ids = np.flatnonzero(stats.component == stats.component[first])
    diameter, apl = 0, 0.0
    if size > 1:
        diameter = int(stats.eccentricity[ids].max())
        # each unordered pair appears in the distance sums of both ends
        pair_sum = int(stats.distance_sum[ids].sum()) // 2
        apl = float(pair_sum) / (size * (size - 1) / 2)
    return StructuralReport(
        mode=g.mode,
        n=n,
        m=len(g.edges),
        density=density(g),
        centralization=degree_centralization(g),
        diameter=diameter,
        avg_path_length=apl,
        component_count=int(np.count_nonzero(sizes)),
        largest_component_size=size,
        # a degree-0 node is exactly a single-node component
        isolate_count=int(np.count_nonzero(sizes == 1)),
    )


def bipartite_report(users: OneModeNetwork, threads: OneModeNetwork) -> dict:
    """Two-mode density, and each node's ties over the other side's size
    (Borgatti & Everett 1997), from the unthinned user and thread projections'
    ``node_attr``: B's row lengths."""
    if (users.mode, threads.mode) != (USER_MODE, THREAD_MODE):
        raise ConfigError("bipartite_report takes the user and thread projections, in that order")
    u, t = len(users.nodes), len(threads.nodes)
    degree = lambda g, other: {node: n / other for node, n in zip(g.nodes, g.node_attr.tolist())}
    return {
        "density": int(users.node_attr.sum()) / (u * t) if u * t else 0.0,
        "user_degree": degree(users, t),
        "thread_degree": degree(threads, u),
    }


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
