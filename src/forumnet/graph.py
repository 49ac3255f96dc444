"""User-by-thread incidence network and its one-mode projections.

A forum is modeled as a two-mode network: users are tied to the threads
they post in. Projecting onto one node class ties users who share a
thread (and threads that share a user). Networks are plain immutable
value objects; everything downstream treats them as read-only.

Both kinds are integer-indexed: a node is its position in a tuple of
names, and ties are CSR (compressed sparse row) rows, the one tie layout
that every module reads: B's rows, users by threads, in a bipartite
network, and an upper triangle's in a one-mode one. Names are used only
when a network is written out. ``build_bipartite`` sorts them, so index
order is name order in every network built from data. Networks compare
by identity, since arrays have no single truth value. ``edge_list_csv``
and ``node_list_csv`` write a projection through ``text``: the edge
list's ties through ``text.tie_lines``, from one CSV cell per node name,
in chunks that the caller writes one at a time.

A projection is a sparse product of the incidence matrix B: B·Bᵀ ties
users and Bᵀ·B ties threads. ``project`` builds it row by row, as
Gustavson's product does (F. G. Gustavson, "Two fast algorithms for
sparse matrices: multiplication and permuted transposition", ACM TOMS
4(3), 1978): row i sums the incidence rows of i's events. The loops are
those of scipy's ``_sparsetools`` extension, which ``_sparsetools``
loads from its file without importing ``scipy.sparse``; the path pass
takes its product loop from here as well. A batch of rows computes at
most ``PROJECT_BATCH`` product entries, so beyond the network it returns
a projection holds O(k + n) for the incidence operands and one batch,
however skewed the forum.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib import machinery
from typing import Iterator

import numpy as np

from .errors import ConfigError
from .ingest import ForumDataset
from .text import csv_cells, csv_text, tie_lines

USER_MODE = "user"
THREAD_MODE = "thread"
WEIGHTINGS = ("events", "posts")  # the first is the default
# product entries that one batch of projection rows may compute at once
PROJECT_BATCH = 1 << 21


@dataclass(eq=False)
class BipartiteNetwork:
    """Users x threads with post multiplicities; no zero entries stored.

    The k entries are held as the CSR rows of B, users by threads: user
    u's threads are ``incidence[indptr[u]:indptr[u + 1]]``, ascending,
    and ``counts`` holds each entry's post count.
    """

    user_nodes: tuple[str, ...]
    thread_nodes: tuple[str, ...]
    indptr: np.ndarray
    incidence: np.ndarray
    counts: np.ndarray


@dataclass(eq=False)
class OneModeNetwork:
    """Undirected weighted graph over users or threads.

    Ties are held as the CSR (compressed sparse row) rows of the upper
    triangle: row i's are ``edges[indptr[i]:indptr[i + 1]]``, nodes j > i
    ascending, with ``weights`` alongside; ``edges`` has ``project``'s
    index dtype. ``node_attr`` carries, per node, the distinct threads
    contributed to (user mode) or the distinct participants (thread
    mode). Isolates are kept: a node with posts but no co-participants
    still matters.
    """

    mode: str
    nodes: tuple[str, ...]
    indptr: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    node_attr: np.ndarray

    def degrees(self) -> np.ndarray:
        """Ties per node, in node order: as the row, then as an end."""
        degrees = np.diff(self.indptr)
        np.add.at(degrees, self.edges, 1)  # a buffer at a time: bincount copies all m to int64
        return degrees


def _index_dtype(largest: int) -> type:
    """int32 while ``largest``, the node count or the stored entries, fits
    it, else int64: the ``_sparsetools`` loops take either, and a cast past
    2**31 - 1 would wrap without a word."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


@functools.cache
def _sparsetools():
    """scipy's private ``_sparsetools`` extension, the loops behind CSR
    products, loaded from its file in scipy's ``sparse`` directory without
    importing ``scipy`` or ``scipy.sparse``: the projections and the path
    pass need the loops alone, not the package's start-up. It is loaded
    once, by whichever needs it first."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:  # scipy.sparse is imported already
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("forumnet needs scipy, which is not installed")
    directory = os.path.join(scipy.submodule_search_locations[0], "sparse")
    loaders = (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
    spec = machinery.FileFinder(directory, loaders).find_spec(name)
    if spec is None:
        raise ImportError(f"no extension file {os.path.join(directory, '_sparsetools')}.*")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension enters itself in sys.modules; taken out, it is loaded
    # again as scipy.sparse's own submodule if scipy.sparse is imported later
    sys.modules.pop(name, None)
    return module


def build_bipartite(data: ForumDataset) -> BipartiteNetwork:
    """Count posts per (user, thread); node sets come from the posts alone."""
    users = tuple(sorted({post.user_id for post in data.posts}))
    threads = tuple(sorted({post.thread_id for post in data.posts}))
    user_index = {user: i for i, user in enumerate(users)}
    thread_index = {thread: i for i, thread in enumerate(threads)}
    width = len(threads)
    keys = np.array(
        [user_index[post.user_id] * width + thread_index[post.thread_id] for post in data.posts],
        dtype=np.int64,
    )
    pairs, counts = np.unique(keys, return_counts=True)
    indptr = np.searchsorted(pairs, np.arange(len(users) + 1) * width)
    return BipartiteNetwork(users, threads, indptr, pairs % width, counts)


def _batches(work: np.ndarray) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) whose summed event sizes, from the cumulative
    ``work``, stay within ``PROJECT_BATCH``; a range holds at least one row."""
    batches, lo, n = [], 0, len(work) - 1
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(work, work[lo] + PROJECT_BATCH, side="right")) - 1)
        batches.append((lo, hi))
        lo = hi
    return batches


def project(b: BipartiteNetwork, mode: str, weighting: str = WEIGHTINGS[0]) -> OneModeNetwork:
    """Project the two-mode network onto users or threads.

    Tie weight is the number of distinct shared events (default), or with
    ``weighting="posts"`` the sum over shared events of the product of
    post counts. Both weightings produce the same edge set.

    The ties are the off-diagonal entries of B·Bᵀ (users) or Bᵀ·B
    (threads), B the incidence with ones or post counts as entries, built
    row by row (see the module notes) in batches of rows whose product
    entries number at most ``PROJECT_BATCH``. Every node has an event, so
    every row holds its diagonal entry, and the product's symbolic size
    gives the tie count m before any tie is computed: the result is
    allocated once, and a batch fills it with the entries j > i of its
    rows, each row sorted, and their ends in ``indptr``.
    """
    if mode not in (USER_MODE, THREAD_MODE):
        raise ConfigError(f"unknown projection mode: {mode!r}")
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting: {weighting!r}")

    side = 0 if mode == USER_MODE else 1
    nodes = b.user_nodes if side == 0 else b.thread_nodes
    users, threads, n, k = len(b.user_nodes), len(b.thread_nodes), len(nodes), len(b.incidence)
    sizes = np.bincount(b.incidence) if side == 0 else np.diff(b.indptr)  # members per event
    # sizes·sizes bounds the product's entries, so every offset into them
    index = _index_dtype(max(k, users, threads, int(sizes @ sizes)))
    # "events" weighs every membership 1, so a tie sums one per shared event
    data = b.counts.astype(np.int64) if weighting == "posts" else np.ones(k, dtype=np.int64)
    # B's CSR, users by threads, and Bᵀ's, whose rows csr_tocsc writes in
    # ascending order
    by_user = (b.indptr.astype(index), b.incidence.astype(index), data)
    by_thread = (np.empty(threads + 1, dtype=index), np.empty(k, dtype=index), np.empty_like(data))
    tools = _sparsetools()
    tools.csr_tocsc(users, threads, *by_user, *by_thread)
    # each node's events, and each event's members
    (ptr, events, values), members = (by_user, by_thread) if side == 0 else (by_thread, by_user)

    # a row's product entries number at most the summed sizes of its events
    work = np.concatenate(([0], np.cumsum(sizes[events])))[ptr]
    batches = _batches(work)
    room = max((work[hi] - work[lo] for lo, hi in batches), default=0)
    m = (tools.csr_matmat_maxnnz(n, n, ptr, events, *members[:2]) - n) // 2
    indptr = np.zeros(n + 1, dtype=np.int64)
    edges, weights = np.empty(m, dtype=index), np.empty(m, dtype=np.int64)
    columns, sums = np.empty(room, dtype=index), np.empty(room, dtype=np.int64)
    for lo, hi in batches:
        # the batch's product rows, each row's columns in no set order
        start, stop = ptr[lo], ptr[hi]
        row_ptr = np.empty(hi - lo + 1, dtype=index)
        tools.csr_matmat(hi - lo, n, ptr[lo : hi + 1] - start, events[start:stop],
                         values[start:stop], *members, row_ptr, columns, sums)
        # its entries j > i go to the result, where each row is sorted
        size = row_ptr[-1]
        upper = columns[:size] > np.repeat(np.arange(lo, hi, dtype=index), np.diff(row_ptr))
        upper_ptr = np.zeros_like(row_ptr)
        # every row holds its diagonal entry, so no range of reduceat is empty
        np.cumsum(np.add.reduceat(upper, row_ptr[:-1], dtype=index), out=upper_ptr[1:])
        ties = slice(indptr[lo], indptr[lo] + upper_ptr[-1])  # after the rows before lo
        np.compress(upper, columns[:size], out=edges[ties])
        np.compress(upper, sums[:size], out=weights[ties])
        tools.csr_sort_indices(hi - lo, upper_ptr, edges[ties], weights[ties])
        indptr[lo + 1 : hi + 1] = ties.start + upper_ptr[1:]
    # opposite-class group sizes decorate the nodes (threads touched /
    # distinct participants)
    return OneModeNetwork(mode, nodes, indptr, edges, weights, np.diff(ptr).astype(np.int64))


def edge_list_csv(g: OneModeNetwork) -> Iterator[str]:
    """The edge list's header, then its tie lines ``text.TIE_CHUNK`` at a
    time: no string holds the whole list."""
    ends = csv_cells(g.nodes)
    yield csv_text(("source", "target", "weight"), ())
    yield from tie_lines(ends, ends, g, lambda weight: f"{weight}\n")


def node_list_csv(g: OneModeNetwork) -> str:
    return csv_text(("id", "attr"), zip(g.nodes, g.node_attr.tolist()))
