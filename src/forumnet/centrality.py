"""Per-node centrality measures and their distribution summaries.

Degree, closeness, and betweenness are all normalized to [0, 1].
Closeness uses the component-size-penalized form so disconnected
networks still get meaningful nonzero values; betweenness is computed
with Brandes dependency accumulation (fractional credit over multiple
shortest paths). Both read the ``paths.path_stats`` pass the caller
gives, which must include the betweenness sweep; the structural report
reads the same pass. ``table_csv`` and ``histogram_csv`` write a
table through ``text.csv_text``; ``summaries`` and ``CoreSet.to_dict``
give the payloads that ``report`` writes as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import OneModeNetwork, USER_MODE
from .paths import PathStats
from .text import csv_text

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

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "threshold": self.threshold,
            "members": sorted(self.members),
            "roles": dict(self.roles),
        }


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


def centrality_table(g: OneModeNetwork, stats: PathStats) -> CentralityTable:
    """Degree, closeness and betweenness of every node, isolates included.

    Degree is direct ties over (n - 1). Closeness is reach-penalized: a
    node that reaches r others with total distance s scores
    (r / (n-1)) * (r / s), the classic (n-1)/s on a connected graph, and
    0 when r is 0. Betweenness is Brandes betweenness over
    (n-1)(n-2)/2, all zeros when n < 3. Each is 0 for every node when
    n <= 1. ``stats`` is the network's ``path_stats``; a pass without
    betweenness raises ValueError.
    """
    if stats.betweenness is None:
        raise ValueError("centrality_table needs a path_stats pass with betweenness")
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


def check_core_threshold(threshold: float) -> None:
    """Refuse a core threshold outside [0, 1] (NaN included)."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError("core_threshold must be in [0, 1]")


def core_set(
    table: CentralityTable,
    threshold: float,
    roles: dict[str, str] | None = None,
) -> CoreSet:
    """Nodes whose normalized degree reaches the threshold.

    Role labels (moderator / core_member) are out-of-band metadata; any
    member missing from the supplied mapping is labeled "unknown".
    """
    check_core_threshold(threshold)
    members = {table.nodes[i] for i in np.flatnonzero(table.columns["degree"] >= threshold)}
    supplied = roles or {}
    return CoreSet(
        mode=table.mode,
        threshold=threshold,
        members=members,
        roles={node: supplied.get(node, "unknown") for node in sorted(members)},
    )


def silent_initiators(g_user: OneModeNetwork, min_threads: int) -> list[tuple[str, int]]:
    """Users active in >= min_threads threads yet tied to nobody.

    These are thread starters whose threads got no other participants.
    Returns (user_id, thread_count) pairs, most prolific first. The user
    projection holds every posting user, with its thread count as
    ``node_attr``.
    """
    if g_user.mode != USER_MODE:
        raise ValueError(f"expected a user-mode network, got {g_user.mode!r}")
    counts, degrees = g_user.node_attr.tolist(), g_user.degrees().tolist()
    hits = [
        (user, count) for user, count, degree in zip(g_user.nodes, counts, degrees)
        if degree == 0 and count >= min_threads
    ]
    hits.sort(key=lambda item: (-item[1], item[0]))
    return hits


# --- serialization -------------------------------------------------------

def table_csv(table: CentralityTable) -> str:
    """Full-precision per-node CSV: node_id,degree,closeness,betweenness."""
    columns = [table.columns[name].tolist() for name in MEASURES]
    return csv_text(("node_id", *MEASURES), zip(table.nodes, *columns))


def summaries(table: CentralityTable) -> dict:
    """The mode, node count and per-measure quartile summary of a table."""
    return {
        "mode": table.mode,
        "node_count": len(table.nodes),
        "measures": {name: _summarize(column) for name, column in table.columns.items()},
    }


def histogram_csv(table: CentralityTable, measure: str) -> str:
    """Fixed-width bin counts over [0, 1]: bin_lo,bin_hi,count."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure: {measure!r}")
    counts, _ = np.histogram(table.columns[measure], bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    bounds = [i / HISTOGRAM_BINS for i in range(HISTOGRAM_BINS + 1)]
    return csv_text(("bin_lo", "bin_hi", "count"), zip(bounds, bounds[1:], counts.tolist()))
