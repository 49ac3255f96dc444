"""Unweighted shortest-path machinery shared by the measure modules.

One all-sources breadth-first search per network feeds every path-based
measure. ``path_stats`` runs it once, counting shortest paths as it goes,
accumulates Brandes dependencies from the same levels, and keeps only
per-node results: components, the largest component's diameter and
average path length, closeness inputs and raw betweenness. The searches
run level-synchronously over a dense adjacency matrix. At the scale this
package targets (hundreds to a few thousand nodes) the matrix form is
fast, and every reduction happens in a fixed order, so repeated runs are
bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import OneModeNetwork


@dataclass(frozen=True)
class PathStats:
    """Path-based figures of one network; arrays are per node, in node order.

    Nothing here is n x n: the distance and path-count matrices are
    dropped once these are derived.
    """

    components: list[list[str]]  # as connected_components returns them
    diameter: int  # longest shortest path inside the largest component
    avg_path_length: float  # mean over the largest component's unordered pairs
    reach: np.ndarray  # other nodes each node reaches
    distance_sum: np.ndarray  # total hops to those nodes
    betweenness: np.ndarray  # raw Brandes betweenness


def adjacency_matrix(g: OneModeNetwork) -> np.ndarray:
    """Boolean adjacency in node order (weights ignored: binary view)."""
    n = len(g.nodes)
    index = {node: i for i, node in enumerate(g.nodes)}
    adj = np.zeros((n, n), dtype=bool)
    for a, b in g.edges:
        i, j = index[a], index[b]
        adj[i, j] = True
        adj[j, i] = True
    return adj


def _bfs_levels(adj: np.ndarray):
    """All-sources BFS. Returns (dist, sigma); dist is -1 when unreachable,
    sigma counts shortest paths."""
    n = adj.shape[0]
    dist = np.full((n, n), -1, dtype=np.int32)
    sigma = np.eye(n, dtype=np.float64)
    if n == 0:
        return dist, sigma
    np.fill_diagonal(dist, 0)
    hop = adj.astype(np.float64)
    frontier = np.eye(n, dtype=bool)
    level = 0
    while True:
        reach = np.where(frontier, sigma, 0.0) @ hop
        newly = (reach > 0.0) & (dist < 0)
        if not newly.any():
            break
        level += 1
        dist[newly] = level
        sigma[newly] = reach[newly]
        frontier = newly
    return dist, sigma


def _accumulate(adj: np.ndarray, dist: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Raw betweenness per node: Brandes dependency accumulation.

    Credit for a pair splits evenly over its shortest paths; each
    unordered pair is counted once. Sources are accumulated in index
    order (vectorized), so output is deterministic.
    """
    n = adj.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    hop = adj.astype(np.float64)
    inv_sigma = np.zeros_like(sigma)
    np.divide(1.0, sigma, out=inv_sigma, where=sigma > 0.0)
    delta = np.zeros((n, n), dtype=np.float64)
    for level in range(int(dist.max()), 0, -1):
        # nodes at `level` push (1 + delta)/sigma back to predecessors
        coef = np.where(dist == level, (1.0 + delta) * inv_sigma, 0.0)
        pushed = coef @ hop
        on_prev = dist == level - 1
        delta += np.where(on_prev, pushed * sigma, 0.0)
    np.fill_diagonal(delta, 0.0)
    # each unordered pair was visited from both endpoints
    return delta.sum(axis=0) / 2.0


def all_pairs_distances(adj: np.ndarray) -> np.ndarray:
    """dist[i, j] = hops from i to j; -1 when unreachable."""
    return _bfs_levels(adj)[0]


def betweenness_raw(adj: np.ndarray) -> np.ndarray:
    """Raw Brandes betweenness per node, from a search of its own."""
    return _accumulate(adj, *_bfs_levels(adj))


def path_stats(g: OneModeNetwork) -> PathStats:
    """Every path-based figure of ``g`` from one shortest-path pass."""
    components = connected_components(g)
    n = len(g.nodes)
    if n == 0:
        none = np.zeros(0, dtype=np.int64)
        return PathStats(components, 0, 0.0, none, none, np.zeros(0, dtype=np.float64))
    adj = adjacency_matrix(g)
    dist, sigma = _bfs_levels(adj)
    betweenness = _accumulate(adj, dist, sigma)
    reach = (dist > 0).sum(axis=1)
    # a row sums its distances, 0 for itself and -1 per unreached node
    distance_sum = dist.sum(axis=1, dtype=np.int64) + (n - 1 - reach)
    eccentricity = dist.max(axis=1)
    index = {node: i for i, node in enumerate(g.nodes)}
    ids = np.array([index[node] for node in components[0]])
    size = len(ids)
    if size > 1:
        diameter = int(eccentricity[ids].max())
        # each unordered pair appears in the distance sums of both ends
        pair_sum = int(distance_sum[ids].sum()) // 2
        apl = float(pair_sum) / (size * (size - 1) / 2)
    else:
        diameter, apl = 0, 0.0
    return PathStats(components, diameter, apl, reach, distance_sum, betweenness)


def connected_components(g: OneModeNetwork) -> list[list[str]]:
    """Components as sorted node lists, largest first.

    Ties on size break toward the component holding the lexicographically
    smallest node, so "the largest component" is deterministic.
    """
    adjacency = g.adjacency_map()
    seen: set[str] = set()
    components: list[list[str]] = []
    for start in g.nodes:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        component = []
        while queue:
            node = queue.popleft()
            component.append(node)
            for neighbor in sorted(adjacency[node]):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        components.append(sorted(component))
    components.sort(key=lambda comp: (-len(comp), comp[0]))
    return components
