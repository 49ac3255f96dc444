"""User-by-thread incidence network and its one-mode projections.

A forum is modeled as a two-mode network: users are tied to the threads
they post in. Projecting onto one node class ties users who share a
thread (and threads that share a user). Networks are plain immutable
value objects; everything downstream treats them as read-only.

Both kinds are integer-indexed: a node is its position in a tuple of
names, and ties are rows of index arrays. Names are used only when a
network is written out. ``build_bipartite`` sorts them, so index order
is name order in every network built from data. Networks compare by
identity, since arrays have no single truth value. ``edge_list_csv`` and
``node_list_csv`` write a projection through ``text``: the edge list's
ties through ``text.tie_lines``, from one CSV cell per node name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ingest import ForumDataset
from .text import csv_cells, csv_text, tie_lines

USER_MODE = "user"
THREAD_MODE = "thread"
WEIGHTINGS = ("events", "posts")  # the first is the default


@dataclass(eq=False)
class BipartiteNetwork:
    """Users x threads with post multiplicities; no zero entries stored.

    ``incidence`` is a (k, 2) array of (user index, thread index) rows,
    sorted, and ``counts`` the post count of each row.
    """

    user_nodes: tuple[str, ...]
    thread_nodes: tuple[str, ...]
    incidence: np.ndarray
    counts: np.ndarray


@dataclass(eq=False)
class OneModeNetwork:
    """Undirected weighted graph over users or threads.

    ``edges`` is an (m, 2) array of node-index rows (i, j), i < j, sorted;
    ``weights`` holds each tie's weight. ``node_attr`` carries, per node,
    the distinct threads contributed to (user mode) or the distinct
    participants (thread mode). Isolates are kept: a node with posts but
    no co-participants still matters.
    """

    mode: str
    nodes: tuple[str, ...]
    edges: np.ndarray
    weights: np.ndarray
    node_attr: np.ndarray

    def degrees(self) -> np.ndarray:
        """Ties per node, in node order."""
        return np.bincount(self.edges.ravel(), minlength=len(self.nodes))


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
    return BipartiteNetwork(users, threads, np.column_stack(np.divmod(pairs, width)), counts)


def project(b: BipartiteNetwork, mode: str, weighting: str = WEIGHTINGS[0]) -> OneModeNetwork:
    """Project the two-mode network onto users or threads.

    Tie weight is the number of distinct shared events (default), or with
    ``weighting="posts"`` the sum over shared events of the product of
    post counts. Both weightings produce the same edge set.
    """
    if mode not in (USER_MODE, THREAD_MODE):
        raise ConfigError(f"unknown projection mode: {mode!r}")
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"unknown weighting: {weighting!r}")

    side = 0 if mode == USER_MODE else 1
    nodes = b.user_nodes if side == 0 else b.thread_nodes
    n = len(nodes)
    member, event = b.incidence[:, side], b.incidence[:, 1 - side]
    # each event's members in index order, so every pair below has i < j
    order = np.lexsort((member, event))
    member, event = member[order], event[order]
    # "events" weighs every membership 1, so a tie sums one per shared event
    counts = b.counts[order] if weighting == "posts" else np.ones_like(member)
    starts = np.flatnonzero(np.diff(event, prepend=-1))
    sizes = np.diff(starts, append=len(event))
    keys, products = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    # events of one size pair up at once: one row of member positions each
    for size in np.unique(sizes[sizes > 1]).tolist():
        rows = starts[sizes == size][:, None] + np.arange(size)
        i, j = np.triu_indices(size, 1)
        ids, posts = member[rows], counts[rows]
        keys.append((ids[:, i] * n + ids[:, j]).ravel())
        products.append((posts[:, i] * posts[:, j]).ravel())
    pairs, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    weights = np.bincount(inverse, weights=np.concatenate(products), minlength=len(pairs))
    edges = np.column_stack(np.divmod(pairs, n))
    # opposite-class group sizes decorate the nodes (threads touched /
    # distinct participants)
    node_attr = np.bincount(b.incidence[:, side], minlength=n)
    return OneModeNetwork(mode, nodes, edges, weights.astype(np.int64), node_attr.astype(np.int64))


def edge_list_csv(g: OneModeNetwork) -> str:
    ends = csv_cells(g.nodes)
    ties = tie_lines(ends, ends, g.edges, g.weights, lambda weight: f"{weight}\n")
    return csv_text(("source", "target", "weight"), ()) + ties


def node_list_csv(g: OneModeNetwork) -> str:
    return csv_text(("id", "attr"), zip(g.nodes, g.node_attr.tolist()))
