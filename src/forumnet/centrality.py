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


@dataclass(frozen=True)
class CentralityRow:
    node: str
    degree: float
    closeness: float
    betweenness: float


@dataclass(frozen=True)
class MeasureSummary:
    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float


@dataclass
class CentralityTable:
    mode: str
    rows: list[CentralityRow]
    summaries: dict[str, MeasureSummary]
    histograms: dict[str, list[int]]


@dataclass
class CoreSet:
    """High-degree nodes above a threshold, with externally supplied roles."""

    mode: str
    threshold: float
    members: set[str]
    roles: dict[str, str]


def degree_centrality(g: OneModeNetwork) -> dict[str, float]:
    """Direct ties divided by (n - 1); all zeros when n <= 1."""
    n = len(g.nodes)
    if n <= 1:
        return dict.fromkeys(g.nodes, 0.0)
    return {node: d / (n - 1) for node, d in zip(g.nodes, g.degrees().tolist())}


def closeness_centrality(g: OneModeNetwork, stats: PathStats | None = None) -> dict[str, float]:
    """Reach-penalized closeness.

    For a node that reaches r others with total distance s:
    (r / (n-1)) * (r / s). On a connected graph this is the classic
    (n-1)/s; isolates score 0.
    """
    n = len(g.nodes)
    if n <= 1:
        return dict.fromkeys(g.nodes, 0.0)
    if stats is None:
        stats = path_stats(g)
    pairs = zip(g.nodes, stats.reach.tolist(), stats.distance_sum.tolist())
    return {node: (r / (n - 1)) * (r / s) if r else 0.0 for node, r, s in pairs}


def betweenness_centrality(g: OneModeNetwork, stats: PathStats | None = None) -> dict[str, float]:
    """Brandes betweenness normalized by (n-1)(n-2)/2; zeros when n < 3."""
    n = len(g.nodes)
    if n < 3:
        return dict.fromkeys(g.nodes, 0.0)
    if stats is None:
        stats = path_stats(g)
    scale = (n - 1) * (n - 2) / 2.0
    return {node: raw / scale for node, raw in zip(g.nodes, stats.betweenness.tolist())}


def _summarize(values: np.ndarray) -> MeasureSummary:
    if values.size == 0:
        return MeasureSummary(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return MeasureSummary(
        min=float(values.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        max=float(values.max()),
        mean=float(values.mean()),
    )


def _histogram(values: np.ndarray) -> list[int]:
    counts, _ = np.histogram(values, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return [int(c) for c in counts]


def centrality_table(g: OneModeNetwork, stats: PathStats | None = None) -> CentralityTable:
    """One row per node (isolates included) plus summaries and histograms.

    ``stats`` is the network's ``path_stats``, computed here when omitted.
    """
    if stats is None:
        stats = path_stats(g)
    degree = degree_centrality(g)
    closeness = closeness_centrality(g, stats)
    betweenness = betweenness_centrality(g, stats)
    rows = [
        CentralityRow(node, degree[node], closeness[node], betweenness[node])
        for node in g.nodes
    ]
    columns = {
        "degree": np.array([r.degree for r in rows], dtype=np.float64),
        "closeness": np.array([r.closeness for r in rows], dtype=np.float64),
        "betweenness": np.array([r.betweenness for r in rows], dtype=np.float64),
    }
    return CentralityTable(
        mode=g.mode,
        rows=rows,
        summaries={name: _summarize(col) for name, col in columns.items()},
        histograms={name: _histogram(col) for name, col in columns.items()},
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
    members = {row.node for row in table.rows if row.degree >= threshold}
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
    for row in table.rows:
        writer.writerow([row.node, repr(row.degree), repr(row.closeness), repr(row.betweenness)])
    return buf.getvalue()


def summaries_json(table: CentralityTable, provenance: dict | None = None) -> str:
    payload: dict = {
        "mode": table.mode,
        "node_count": len(table.rows),
        "measures": {
            name: {
                "min": s.min,
                "q1": s.q1,
                "median": s.median,
                "q3": s.q3,
                "max": s.max,
                "mean": s.mean,
            }
            for name, s in table.summaries.items()
        },
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def histogram_csv(table: CentralityTable, measure: str) -> str:
    """Fixed-width bin counts over [0, 1]: bin_lo,bin_hi,count."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure: {measure!r}")
    counts = table.histograms[measure]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin_lo", "bin_hi", "count"])
    for i, count in enumerate(counts):
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
