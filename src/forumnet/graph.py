"""User-by-thread incidence network and its one-mode projections.

A forum is modeled as a two-mode network: users are tied to the threads
they post in. Projecting onto one node class ties users who share a
thread (and threads that share a user). Networks are plain immutable
value objects; everything downstream treats them as read-only.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations

from .ingest import ForumDataset

USER_MODE = "user"
THREAD_MODE = "thread"
WEIGHTINGS = ("events", "posts")


def edge_key(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered pair; self-loops are not representable."""
    if a == b:
        raise ValueError(f"self-loop on {a!r}")
    return (a, b) if a < b else (b, a)


@dataclass
class BipartiteNetwork:
    """Users x threads with post multiplicities; no zero entries stored."""

    user_nodes: tuple[str, ...]
    thread_nodes: tuple[str, ...]
    incidence: dict[tuple[str, str], int]

    def threads_of(self) -> dict[str, list[str]]:
        """user -> sorted distinct threads they posted in."""
        out: dict[str, list[str]] = defaultdict(list)
        for user, thread in sorted(self.incidence):
            out[user].append(thread)
        for user in self.user_nodes:
            out.setdefault(user, [])
        return dict(out)

    def users_of(self) -> dict[str, list[str]]:
        """thread -> sorted distinct users who posted in it."""
        out: dict[str, list[str]] = defaultdict(list)
        for user, thread in sorted(self.incidence, key=lambda key: (key[1], key[0])):
            out[thread].append(user)
        for thread in self.thread_nodes:
            out.setdefault(thread, [])
        return dict(out)


@dataclass
class OneModeNetwork:
    """Undirected weighted graph over users or threads.

    ``node_attr`` carries, per node, the distinct threads contributed to
    (user mode) or the distinct participants (thread mode). Isolates are
    kept: a node with posts but no co-participants still matters.
    """

    mode: str
    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], int]
    node_attr: dict[str, int] = field(default_factory=dict)

    def degree_map(self) -> dict[str, int]:
        degrees = dict.fromkeys(self.nodes, 0)
        for a, b in self.edges:
            degrees[a] += 1
            degrees[b] += 1
        return degrees


def build_bipartite(data: ForumDataset) -> BipartiteNetwork:
    """Count posts per (user, thread); node sets come from the posts alone."""
    incidence: dict[tuple[str, str], int] = defaultdict(int)
    for post in data.posts:
        incidence[(post.user_id, post.thread_id)] += 1
    users = tuple(sorted({u for u, _ in incidence}))
    threads = tuple(sorted({t for _, t in incidence}))
    return BipartiteNetwork(users, threads, dict(incidence))


def project(b: BipartiteNetwork, mode: str, weighting: str = "events") -> OneModeNetwork:
    """Project the two-mode network onto users or threads.

    Tie weight is the number of distinct shared events (default), or with
    ``weighting="posts"`` the sum over shared events of the product of
    post counts. Both weightings produce the same edge set.
    """
    if mode not in (USER_MODE, THREAD_MODE):
        raise ValueError(f"unknown projection mode: {mode!r}")
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting: {weighting!r}")

    if mode == USER_MODE:
        nodes = b.user_nodes
        groups = b.users_of()          # event -> members
        memberships = b.threads_of()   # node -> events, for node_attr
        counts = b.incidence
    else:
        nodes = b.thread_nodes
        groups = b.threads_of()
        memberships = b.users_of()
        counts = {(t, u): n for (u, t), n in b.incidence.items()}

    edges: dict[tuple[str, str], int] = defaultdict(int)
    for event in sorted(groups):
        members = groups[event]
        for a, c in combinations(members, 2):
            if weighting == "events":
                edges[edge_key(a, c)] += 1
            else:
                edges[edge_key(a, c)] += counts[(a, event)] * counts[(c, event)]

    # opposite-class group sizes decorate the nodes (threads touched /
    # distinct participants)
    node_attr = {node: len(memberships.get(node, [])) for node in nodes}
    return OneModeNetwork(mode=mode, nodes=nodes, edges=dict(edges), node_attr=node_attr)


def edge_list_csv(g: OneModeNetwork) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "target", "weight"])
    for (a, b), weight in sorted(g.edges.items()):
        writer.writerow([a, b, weight])
    return buf.getvalue()


def node_list_csv(g: OneModeNetwork) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "attr"])
    for node in g.nodes:
        writer.writerow([node, g.node_attr.get(node, 0)])
    return buf.getvalue()
