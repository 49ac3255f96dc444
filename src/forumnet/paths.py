"""Unweighted shortest-path machinery shared by the measure modules.

One all-sources breadth-first search per network feeds every path-based
measure. ``path_stats`` runs it once, counting shortest paths as it goes,
accumulates Brandes dependencies from the same levels, and keeps only
per-node results: components, the largest component's diameter and
average path length, closeness inputs and raw betweenness. Each node is
labelled with the smallest index it reaches, and those labels give the
components, isolates included.

The search is level-synchronous over ``SOURCE_BLOCK`` sources at a time:
O(m + SOURCE_BLOCK·n) memory, no n x n array. Every neighbour sum is a
scipy CSR product with an (n x block) array, a plain loop over each row's
ties in index order with no BLAS, and blocks are summed in source order.
Results are bit-identical whatever the BLAS thread count as long as the
sums keep that fixed order and the path counts stay exact, which float64
guarantees below 2**53 shortest paths per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import OneModeNetwork

SOURCE_BLOCK = 64  # sources searched together; memory grows with it, not with n


@dataclass(frozen=True)
class PathStats:
    """Path-based figures of one network; arrays are per node, in node order.

    Nothing here is n x n: each block of the search is dropped once these
    are read from it.
    """

    components: list[list[str]]  # sorted node lists, largest first
    diameter: int  # longest shortest path inside the largest component
    avg_path_length: float  # mean over the largest component's unordered pairs
    reach: np.ndarray  # other nodes each node reaches
    distance_sum: np.ndarray  # total hops to those nodes
    betweenness: np.ndarray  # raw Brandes betweenness


def _csr(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
    """0/1 CSR matrix with ones at (rows, cols); scipy loads on first use,
    so the commands that run no search start without it."""
    from scipy import sparse
    return sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=shape)


def adjacency_matrix(g: OneModeNetwork):
    """Symmetric 0/1 adjacency in node order as CSR (weights ignored)."""
    i, j = g.edges.T
    return _csr(np.concatenate([i, j]), np.concatenate([j, i]), (len(g.nodes),) * 2)


def _neighbour_sum(adj):
    """The product x -> adj @ x for an (n, k) array, in CSR index order.

    When more than half of all pairs are tied, the absent ties Ā are
    fewer (so n² is O(m)) and are stored instead: adj @ x = 1ᵀx - x - Ā @ x.
    Both sums run in index order, so where x is 0 at a node and at all its
    neighbours they add the same terms alike and the node gets an exact 0.0.
    """
    n = adj.shape[0]
    if 2 * adj.nnz <= n * (n - 1):
        return lambda x: adj @ x
    # one byte per ordered pair: fewer bytes than adj's own 2m column indices here
    absent = np.ones(n * n, dtype=bool)
    absent[np.ravel_multi_index(adj.nonzero(), (n, n))] = False
    absent[:: n + 1] = False
    complement = _csr(*np.unravel_index(np.flatnonzero(absent), (n, n)), (n, n))
    ones_row = _csr(np.zeros(n, dtype=np.int64), np.arange(n), (1, n))
    return lambda x: ones_row @ x - x - complement @ x


def _source_blocks(adj):
    """Search from each block of sources; yield (sources, dist, delta).

    ``dist`` and ``delta`` are (n x block): column c holds the hops from
    ``sources[c]`` (-1 when unreachable) and the Brandes dependency of
    every node on that source.
    """
    n = adj.shape[0]
    neighbour_sum = _neighbour_sum(adj)
    for start in range(0, n, SOURCE_BLOCK):
        sources = np.arange(start, min(start + SOURCE_BLOCK, n))
        dist = np.full((n, len(sources)), -1, dtype=np.int32)
        sigma = np.zeros(dist.shape)  # shortest paths from each source
        dist[sources, np.arange(len(sources))] = 0
        sigma[sources, np.arange(len(sources))] = 1.0
        frontier, level = sigma, 0
        while True:
            reached = neighbour_sum(frontier)
            newly = (reached > 0.0) & (dist < 0)
            if not newly.any():
                break
            level += 1
            dist[newly] = level
            sigma[newly] = reached[newly]
            frontier = np.where(newly, sigma, 0.0)
        inv_sigma = np.divide(1.0, sigma, out=np.zeros(dist.shape), where=sigma > 0.0)
        delta = np.zeros(dist.shape)
        # nodes at `level` push (1 + delta)/sigma back to predecessors;
        # level 1 would push only onto the source, which is not counted
        for level in range(level, 1, -1):
            pushed = neighbour_sum(np.where(dist == level, (1.0 + delta) * inv_sigma, 0.0))
            delta += np.where(dist == level - 1, pushed * sigma, 0.0)
        yield sources, dist, delta


def all_pairs_distances(adj) -> np.ndarray:
    """dist[i, j] = hops from i to j; -1 when unreachable (n x n)."""
    dist = np.full(adj.shape, -1, dtype=np.int32)
    for sources, block, _ in _source_blocks(adj):
        dist[sources] = block.T
    return dist


def betweenness_raw(adj) -> np.ndarray:
    """Raw Brandes betweenness per node, from a search of its own."""
    blocks = (delta.sum(axis=1) for *_, delta in _source_blocks(adj))
    return sum(blocks, np.zeros(adj.shape[0])) / 2.0


def _components(nodes: tuple[str, ...], labels: np.ndarray) -> list[tuple[list[str], np.ndarray]]:
    """Components as (sorted node list, index array) pairs, largest first.

    Two nodes share a component exactly when one reaches the other, so
    nodes with the same label (smallest index reached) form one. Ties on
    size break toward the component holding the lexicographically
    smallest node, so "the largest component" is deterministic.
    """
    if not nodes:
        return []
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    components = [(sorted(nodes[i] for i in ids), ids) for ids in groups]
    components.sort(key=lambda comp: (-len(comp[0]), comp[0][0]))
    return components


def path_stats(g: OneModeNetwork) -> PathStats:
    """Every path-based figure of ``g`` from one shortest-path pass."""
    n = len(g.nodes)
    reach, distance_sum, eccentricity, labels = (np.zeros(n, dtype=np.int64) for _ in range(4))
    betweenness = np.zeros(n)
    for sources, dist, delta in _source_blocks(adjacency_matrix(g)):
        reach[sources] = (dist > 0).sum(axis=0)
        # a column sums its hops, 0 for its source and -1 per unreached node
        distance_sum[sources] = dist.sum(axis=0, dtype=np.int64) + (n - 1 - reach[sources])
        eccentricity[sources] = dist.max(axis=0)
        labels[sources] = (dist >= 0).argmax(axis=0)
        betweenness += delta.sum(axis=1)
    betweenness /= 2.0  # each unordered pair was visited from both endpoints
    components = _components(g.nodes, labels)
    ids = components[0][1] if components else labels  # labels is empty then
    size = len(ids)
    if size > 1:
        diameter = int(eccentricity[ids].max())
        # each unordered pair appears in the distance sums of both ends
        pair_sum = int(distance_sum[ids].sum()) // 2
        apl = float(pair_sum) / (size * (size - 1) / 2)
    else:
        diameter, apl = 0, 0.0
    names = [comp for comp, _ in components]
    return PathStats(names, diameter, apl, reach, distance_sum, betweenness)


def connected_components(g: OneModeNetwork) -> list[list[str]]:
    """Components as sorted node lists, largest first, from a search of
    their own; ``path_stats`` reads them from its pass instead."""
    return path_stats(g).components
