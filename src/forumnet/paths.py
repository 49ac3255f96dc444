"""Unweighted shortest-path machinery shared by the measure modules.

One all-sources breadth-first search per network feeds every path-based
measure. ``path_stats`` runs it once, counting shortest paths as it goes,
accumulates Brandes dependencies from the same levels, and keeps only
per-node arrays: reach, distance sums, eccentricities, component labels
and raw betweenness, which ``metrics.structural_report`` aggregates. A
node's label is the smallest index it reaches, so nodes share a label
exactly when they share a component, isolates included.

The search is level-synchronous over ``SOURCE_BLOCK`` sources at a time,
and the blocks run on a pool of threads, one per core this process may
run on (its CPU affinity, else the machine's core count), but no more
than ``WORKSPACE_BUDGET`` bytes of workspaces hold. scipy's CSR product
and numpy's array loops release the GIL, so the blocks overlap. Each
block in flight has one of ``workers`` workspaces, each under five
(n x block) float64 arrays' bytes, and a block hands back only its O(n)
reductions, so the pass holds O(m + workers·SOURCE_BLOCK·n) memory and
no n x n array. The calling thread allocates the workspaces, so once the
pass frees them they serve its later allocations.

Every neighbour sum is a CSR product with an (n x block) array, a plain
loop over each row's ties in index order with no BLAS: ``csr_matvecs``
from scipy's ``_sparsetools`` extension, which ``graph._sparsetools``
loads without importing ``scipy.sparse``. The operand is the network's
own rows and their transpose (Ā's when more than half of all pairs are
tied), and a product runs over the lower half, then the upper, only over
the rows its level needs: the forward step over the rows still unseen
from some source of the block, the backward step over the rows one level
up from some source. Each selected row still sums all its ties in index
order, so it gets the bits a product over every row gives it, and no
other row is read unmasked. The backward sweep runs over whole arrays
with no ``where=`` mask; its masks enter as factors of 0.0 and 1.0.
Each block is computed whole by one thread, and the consumer adds the
blocks in source order, so results are bit-identical whatever the BLAS
thread count or the number of cores, as long as the path counts stay
exact, which float64 guarantees below 2**53 shortest paths per pair.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import OneModeNetwork, _check_fits, _index_dtype, _sparsetools

SOURCE_BLOCK = 64  # sources searched together; memory grows with it, not with n
# bytes that the workspaces of one pass may hold together: 8 workers at n = 50k
WORKSPACE_BUDGET = 1 << 30


@dataclass(frozen=True)
class PathStats:
    """The per-node figures of one shortest-path pass, one entry per node
    in node order. Nothing here is n x n: each block of the search is
    dropped once these are read from it."""

    reach: np.ndarray  # other nodes each node reaches
    distance_sum: np.ndarray  # total hops to those nodes
    eccentricity: np.ndarray  # hops to the farthest of them
    component: np.ndarray  # component label: the smallest index each node reaches
    betweenness: np.ndarray | None  # raw Brandes betweenness; None when not asked for


class Adjacency(NamedTuple):
    """A 0/1 operand in node order as two CSR halves, (indptr, indices) each:
    row v of ``lower`` holds v's ties below v, of ``upper`` those above it."""

    lower: tuple[np.ndarray, np.ndarray]  # the transpose of upper
    upper: tuple[np.ndarray, np.ndarray]  # int32 (see _index_dtype), ascending within each row
    data: np.ndarray  # float64 ones, one per tie of a half
    absent: bool  # the ties are those of Ā, the absent ties, not of A

    @property
    def n(self) -> int:
        return len(self.upper[0]) - 1


def adjacency_matrix(g: OneModeNetwork) -> Adjacency:
    """The operand of ``g`` (weights ignored). Its upper half is A's, ``g``'s
    CSR rows, no copy when of the index dtype; or, when more than half of
    all pairs are tied (4m > n(n - 1)), Ā's, row i read in an n-byte row.
    The lower half is its transpose by ``csr_tocsc`` (Gustavson's permuted
    transposition), which leaves each row ascending. An operand that would
    exceed the machine's total memory is refused with an ``InputError``
    before its ties are allocated."""
    n, indptr, ends = len(g.nodes), g.indptr, g.edges
    if absent := 4 * len(ends) > n * (n - 1):
        indptr = np.concatenate([[0], np.cumsum(np.arange(n - 1, -1, -1) - np.diff(g.indptr))])
    k = int(indptr[-1])
    index = _index_dtype(max(n, k))
    # both halves' ends, the float64 data and csr_tocsc's two bool operands
    operand = f"{'absent-ties' if absent else 'ties'} operand of the {g.mode} projection"
    _check_fits(operand, k, k * (2 * np.dtype(index).itemsize + 8 + 2))
    if absent:
        ends, row = np.empty(k, dtype=index), np.empty(n, bool)
        for i, j in enumerate(np.split(g.edges, g.indptr[1:-1])):  # row i's ends j > i
            row[: i + 1], row[i + 1 :] = False, True
            row[j] = False
            ends[indptr[i] : indptr[i + 1]] = np.flatnonzero(row)
    upper = (indptr.astype(index), ends.astype(index, copy=False))
    lower = (np.empty(n + 1, dtype=index), np.empty(k, dtype=index))
    _sparsetools().csr_tocsc(n, n, *upper, np.ones(k, dtype=bool), *lower, np.empty(k, dtype=bool))
    return Adjacency(lower, upper, np.ones(k), absent)


def _product(adj: Adjacency):
    """The product (x, out, rows) -> out = adj @ x in the rows where the
    bool n-vector ``rows`` is set, for non-negative (n, k) C-ordered
    arrays; ``x`` may be overwritten, and the other rows of ``out`` hold
    finite non-negative values that mean nothing. ``csr_matvecs``, the
    loop behind ``adj @ x`` (see ``_sparsetools``), adds into ``out`` over
    the lower half, then the upper, each with unselected rows as empty
    ranges: no BLAS, and a selected row sums all its ties in index order,
    as the symmetric CSR's full product does, so it gets the same bits.
    For Ā it takes adj @ x = 1ᵀx - x - Ā @ x, with Ā under the same mask
    and 1ᵀx from the same loop over a one-row operand. Both sums run in
    index order, so where x is 0 at a node and at all its neighbours they
    add the same terms alike: an exact 0.0. A call allocates O(n + m)
    indices and nothing of size n x k.
    """
    csr_matvecs, n, index = _sparsetools().csr_matvecs, adj.n, adj.upper[0].dtype
    halves = [(indices, np.diff(indptr)) for indptr, indices in (adj.lower, adj.upper)]
    if adj.absent:  # the operand of 1ᵀx
        every = (np.array([0, n], dtype=index), np.arange(n, dtype=index), np.ones(n))

    def product(x, out, rows):
        indptr = np.zeros(n + 1, dtype=index)
        out.fill(0.0)  # csr_matvecs adds to what out holds
        for indices, degrees in halves:
            np.cumsum(degrees * rows, out=indptr[1:])
            picked = indices[np.repeat(rows, degrees)]
            csr_matvecs(n, n, x.shape[1], indptr, picked, adj.data[: len(picked)],
                        x.ravel(), out.ravel())
        if adj.absent:
            total = np.zeros(x.shape[1])
            csr_matvecs(1, n, x.shape[1], *every, x.ravel(), total)
            np.subtract(total, x, out=x)
            np.subtract(x, out, out=out)

    return product


def _search(product, n: int, sources: np.ndarray, workspace: list[np.ndarray]):
    """One block's search in ``workspace``: (dist, delta), both (n x block)
    views of it. Column c of ``dist`` holds the hops from ``sources[c]`` (-1
    when unreachable) and of ``delta`` the Brandes dependency of every node
    on that source; ``delta`` is None when the workspace has no room for it.
    Each level's product pulls only over the rows still unseen in some
    column: the others cannot change.
    """
    cols = np.arange(len(sources))
    dist, unseen, newly, sigma, frontier, reached, *delta = (
        flat[: n * len(sources)].reshape(n, len(sources)) for flat in workspace)
    dist.fill(-1)
    unseen.fill(True)
    sigma.fill(0.0)  # shortest paths from each source
    dist[sources, cols] = 0
    unseen[sources, cols] = False
    sigma[sources, cols] = 1.0
    np.copyto(frontier, sigma)
    level = 0
    while True:
        product(frontier, reached, unseen.any(axis=1))
        np.greater(reached, 0.0, out=newly)
        newly &= unseen  # so rows left out of the product are never read
        if not newly.any():
            break
        level += 1
        np.copyto(dist, level, where=newly)
        unseen ^= newly
        # sigma is 0 wherever newly is set, so adding the masked counts sets them
        reached *= newly
        sigma += reached
        frontier, reached = reached, frontier
    if not delta:
        return dist, None
    _dependencies(product, dist, sigma, level, delta[0], frontier, reached, newly, unseen)
    return dist, delta[0]


def _dependencies(product, dist, sigma, top, delta, work, pushed, at, below) -> None:
    """Brandes accumulation into ``delta``, from the deepest level up.
    ``work``, ``pushed``, ``at`` and ``below`` are scratch. Each level's
    product pulls only over the rows one level up in some column, and every
    step runs over whole arrays, with no ``where=`` mask: ``sigma`` is
    raised to at least 1 (unreached nodes hold 1), so every factor is
    finite, and the masks enter as factors. x·1.0 = x, and a finite value
    times 0.0 is a zero, which leaves ``delta`` (never -0.0) as it was, so
    every entry gets the bits a masked step gives it."""
    delta.fill(0.0)
    np.maximum(sigma, 1.0, out=sigma)
    np.equal(dist, top, out=at)
    # nodes at `level` push (1 + delta)/sigma back to predecessors;
    # level 1 would push only onto the source, which is not counted
    for level in range(top, 1, -1):
        np.equal(dist, level - 1, out=below)
        np.divide(at, sigma, out=work)
        work *= np.add(1.0, delta, out=pushed)
        product(work, pushed, below.any(axis=1))
        pushed *= sigma
        pushed *= below
        delta += pushed
        at, below = below, at


def _workers() -> int:
    """One thread per core this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pass_workers(cores: int, blocks: int, workspace: int) -> int:
    """Threads for a pass of ``blocks`` source blocks, each thread holding a
    ``workspace`` of that many bytes: one per core, but no more than there
    are blocks, nor than ``WORKSPACE_BUDGET`` holds; never fewer than one."""
    return max(1, min(cores, blocks, WORKSPACE_BUDGET // max(workspace, 1)))


def _source_blocks(adj, reduce, betweenness=True):
    """Search from each block of sources; yield ``reduce(sources, dist,
    delta)`` per block (see ``_search``), in source order. Blocks and their
    ``reduce`` run on ``_pass_workers`` threads. Block k runs in workspace
    k % workers, and block k + workers is submitted only after block k's
    result is taken, so no two running blocks share one. ``reduce`` must
    copy what it keeps of ``dist`` and ``delta``: a later block reuses
    them. The pool ends with the search."""
    n, size = adj.n, SOURCE_BLOCK
    product = _product(adj)
    starts = range(0, n, size)
    # a workspace: hops, two masks, path counts, two product operands and,
    # for betweenness, the dependencies
    dtypes = [np.int32, bool, bool] + [np.float64] * (4 if betweenness else 3)
    workspace = n * size * sum(np.dtype(dtype).itemsize for dtype in dtypes)
    workers = _pass_workers(_workers(), len(starts), workspace)
    workspaces = [[np.empty(n * size, dtype=dtype) for dtype in dtypes] for _ in range(workers)]

    def block(k, start):
        sources = np.arange(start, min(start + size, n))
        return reduce(sources, *_search(product, n, sources, workspaces[k % workers]))

    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for k, start in enumerate(starts):
            if len(pending) == workers:
                yield pending.popleft().result()
            pending.append(pool.submit(block, k, start))
        while pending:
            yield pending.popleft().result()


def all_pairs_distances(adj) -> np.ndarray:
    """dist[i, j] = hops from i to j; -1 when unreachable (n x n)."""
    dist = np.full((adj.n, adj.n), -1, dtype=np.int32)

    blocks = _source_blocks(adj, lambda sources, block, _: (sources, block.copy()), False)
    for sources, block in blocks:
        dist[sources] = block.T
    return dist


def betweenness_raw(adj) -> np.ndarray:
    """Raw Brandes betweenness per node, from a search of its own."""
    blocks = _source_blocks(adj, lambda _sources, _dist, delta: delta.sum(axis=1))
    return sum(blocks, np.zeros(adj.n)) / 2.0


def _block_figures(sources: np.ndarray, dist: np.ndarray, delta: np.ndarray | None):
    """What ``path_stats`` keeps of one block: (sources, reach, distance
    sum, eccentricity, component label, summed dependencies or None).
    ``dist`` is spent, turned into masks in place: no (n x block) temporary."""
    n, eccentricity = len(dist), dist.max(axis=0)
    hops = dist.sum(axis=0, dtype=np.int64)  # 0 for the source, -1 per unreached node
    reached = np.greater_equal(dist, 0, out=dist)  # 1 where reached, the source too
    reach = reached.sum(axis=0) - 1
    # n - row is largest at the smallest row reached: the component label
    np.multiply(reached, np.arange(n, 0, -1, dtype=np.int32)[:, None], out=reached)
    labels = n - reached.max(axis=0)
    dependency = None if delta is None else delta.sum(axis=1)
    return sources, reach, hops + (n - 1 - reach), eccentricity, labels, dependency


def path_stats(g: OneModeNetwork, betweenness: bool = True) -> PathStats:
    """Every path-based figure of ``g`` from one shortest-path pass;
    ``betweenness=False`` skips the Brandes sweep and leaves it None."""
    n = len(g.nodes)
    reach, distance_sum, eccentricity, component = (np.zeros(n, dtype=np.int64) for _ in range(4))
    total = np.zeros(n) if betweenness else None
    blocks = _source_blocks(adjacency_matrix(g), _block_figures, betweenness)
    for sources, *figures, dependency in blocks:
        reach[sources], distance_sum[sources], eccentricity[sources], component[sources] = figures
        if betweenness:
            total += dependency  # in source order, whatever order the blocks finished in
    if betweenness:
        total /= 2.0  # each unordered pair was visited from both endpoints
    return PathStats(reach, distance_sum, eccentricity, component, total)


def connected_components(g: OneModeNetwork) -> list[list[str]]:
    """Components as sorted node lists, largest first, ties toward the one
    holding the lexicographically smallest node: the nodes of one label in a
    path pass of their own, without betweenness."""
    groups: dict[int, list[str]] = {}
    for node, label in zip(g.nodes, path_stats(g, betweenness=False).component.tolist()):
        groups.setdefault(label, []).append(node)
    return sorted((sorted(nodes) for nodes in groups.values()), key=lambda comp: (-len(comp), comp[0]))
