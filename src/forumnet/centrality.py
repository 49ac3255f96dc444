"""Per-node centrality measures and their distribution summaries.

Degree, closeness, and betweenness are all normalized to [0, 1].
Closeness uses the component-size-penalized form so disconnected
networks still get meaningful nonzero values; betweenness is computed
with Brandes dependency accumulation (fractional credit over multiple
shortest paths). Both read one ``paths.path_stats`` pass, which the
structural report shares.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .graph import BipartiteNetwork, OneModeNetwork, USER_MODE
from .paths import PathStats, path_stats

MEASURES = ("degree", "closeness", "betweenness")
HISTOGRAM_BINS = 50


@dataclass
class CentralityTable:
    """Each measure in ``MEASURES`` as a float64 column in node order."""

    mode: str
    nodes: tuple[str, ...]
    columns: dict[str, np.ndarray]


@dataclass
class CoreSet:
    """High-degree nodes above a threshold, with externally supplied roles."""

    mode: str
    threshold: float
    members: set[str]
    roles: dict[str, str]


def _summarize(values: np.ndarray) -> dict[str, float]:
    if values.size == 0:
        return dict.fromkeys(("min", "q1", "median", "q3", "max", "mean"), 0.0)
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return {
        "min": float(values.min()),
        "q1": float(q1),
        "median": float(median),
        "q3": float(q3),
        "max": float(values.max()),
        "mean": float(values.mean()),
    }


def centrality_table(g: OneModeNetwork, stats: PathStats | None = None) -> CentralityTable:
    """Degree, closeness and betweenness of every node, isolates included.

    Degree is direct ties over (n - 1). Closeness is reach-penalized: a
    node that reaches r others with total distance s scores
    (r / (n-1)) * (r / s), the classic (n-1)/s on a connected graph, and
    0 when r is 0. Betweenness is Brandes betweenness over
    (n-1)(n-2)/2, all zeros when n < 3. Each is 0 for every node when
    n <= 1. ``stats`` is the network's ``path_stats``, computed here when
    omitted.
    """
    if stats is None:
        stats = path_stats(g)
    n = len(g.nodes)
    pairs = max(n - 1, 1)
    reach = stats.reach
    inverse_mean = np.divide(reach, stats.distance_sum, out=np.zeros(n), where=reach > 0)
    scale = (n - 1) * (n - 2) / 2.0
    return CentralityTable(
        mode=g.mode,
        nodes=g.nodes,
        columns={
            "degree": g.degrees() / pairs,
            "closeness": (reach / pairs) * inverse_mean,
            "betweenness": stats.betweenness / scale if n >= 3 else np.zeros(n),
        },
    )


def core_set(
    table: CentralityTable,
    threshold: float,
    roles: dict[str, str] | None = None,
) -> CoreSet:
    """Nodes whose normalized degree reaches the threshold.

    Role labels (moderator / core_member) are out-of-band metadata; any
    member missing from the supplied mapping is labeled "unknown".
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    members = {table.nodes[i] for i in np.flatnonzero(table.columns["degree"] >= threshold)}
    supplied = roles or {}
    return CoreSet(
        mode=table.mode,
        threshold=threshold,
        members=members,
        roles={node: supplied.get(node, "unknown") for node in sorted(members)},
    )


def silent_initiators(
    b: BipartiteNetwork,
    g_user: OneModeNetwork,
    min_threads: int = 21,
) -> list[tuple[str, int]]:
    """Users active in >= min_threads threads yet tied to nobody.

    These are thread starters whose threads got no other participants.
    Returns (user_id, thread_count) pairs, most prolific first.
    """
    if g_user.mode != USER_MODE:
        raise ValueError(f"expected a user-mode network, got {g_user.mode!r}")
    if g_user.nodes != b.user_nodes:
        raise ValueError("user network does not match the bipartite network")
    thread_counts = np.bincount(b.incidence[:, 0], minlength=len(b.user_nodes)).tolist()
    hits = [
        (user, count)
        for user, count, degree in zip(b.user_nodes, thread_counts, g_user.degrees().tolist())
        if degree == 0 and count >= min_threads
    ]
    hits.sort(key=lambda item: (-item[1], item[0]))
    return hits


def bipartite_degree_centrality(b: BipartiteNetwork, mode: str) -> dict[str, float]:
    """Two-mode degree normalization: ties divided by the opposite class size."""
    side = 0 if mode == USER_MODE else 1
    nodes = b.user_nodes if side == 0 else b.thread_nodes
    opposite = len(b.thread_nodes if side == 0 else b.user_nodes)
    if opposite == 0:
        return dict.fromkeys(nodes, 0.0)
    ties = np.bincount(b.incidence[:, side], minlength=len(nodes)).tolist()
    return {node: count / opposite for node, count in zip(nodes, ties)}


# --- serialization -------------------------------------------------------

def table_csv(table: CentralityTable) -> str:
    """Full-precision per-node CSV: node_id,degree,closeness,betweenness."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node_id", "degree", "closeness", "betweenness"])
    columns = [table.columns[name].tolist() for name in MEASURES]
    for node, *values in zip(table.nodes, *columns):
        writer.writerow([node, *map(repr, values)])
    return buf.getvalue()


def summaries_json(table: CentralityTable, provenance: dict | None = None) -> str:
    payload: dict = {
        "mode": table.mode,
        "node_count": len(table.nodes),
        "measures": {name: _summarize(column) for name, column in table.columns.items()},
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def histogram_csv(table: CentralityTable, measure: str) -> str:
    """Fixed-width bin counts over [0, 1]: bin_lo,bin_hi,count."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure: {measure!r}")
    counts, _ = np.histogram(table.columns[measure], bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin_lo", "bin_hi", "count"])
    for i, count in enumerate(counts.tolist()):
        writer.writerow([repr(i / HISTOGRAM_BINS), repr((i + 1) / HISTOGRAM_BINS), count])
    return buf.getvalue()


def core_json(core: CoreSet, provenance: dict | None = None) -> str:
    payload: dict = {
        "mode": core.mode,
        "threshold": core.threshold,
        "members": sorted(core.members),
        "roles": {node: core.roles[node] for node in sorted(core.roles)},
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
