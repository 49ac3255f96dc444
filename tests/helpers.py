"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the library's own algorithms: distances
come from Floyd-Warshall over dicts, betweenness from explicit
shortest-path enumeration, and projections from incidence-matrix
products, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
from datetime import datetime, timedelta, timezone

import numpy as np

from forumnet.graph import BipartiteNetwork, OneModeNetwork
from forumnet.ingest import ForumDataset, PostRecord, UserProfile
from forumnet.viz import _drawing

INF = float("inf")


def edge_key(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered pair; self-loops are not representable."""
    if a == b:
        raise ValueError(f"self-loop on {a!r}")
    return (a, b) if a < b else (b, a)


def edge_dict(g: OneModeNetwork) -> dict[tuple[str, str], int]:
    """A network's ties keyed by name pairs (a, b) with a < b."""
    return {
        edge_key(g.nodes[i], g.nodes[j]): w
        for (i, j), w in zip(g.edges.tolist(), g.weights.tolist())
    }


def by_node(table, measure: str) -> dict[str, float]:
    """One column of a ``CentralityTable`` keyed by node name."""
    return dict(zip(table.nodes, table.columns[measure].tolist()))


def incidence_dict(b: BipartiteNetwork) -> dict[tuple[str, str], int]:
    """Post counts keyed by (user, thread) names."""
    return {
        (b.user_nodes[u], b.thread_nodes[t]): count
        for (u, t), count in zip(b.incidence.tolist(), b.counts.tolist())
    }


def one_mode(nodes, edge_map, mode="user", node_attr=None) -> OneModeNetwork:
    """A OneModeNetwork over ``nodes`` in the order given, from ties keyed
    by name pairs; ``node_attr`` maps names to sizes, 0 where absent."""
    index = {node: i for i, node in enumerate(nodes)}
    rows = sorted(
        (min(index[a], index[b]), max(index[a], index[b]), w) for (a, b), w in edge_map.items()
    )
    attr = node_attr or {}
    return OneModeNetwork(
        mode=mode,
        nodes=tuple(nodes),
        edges=np.array([(i, j) for i, j, _ in rows], dtype=np.int64).reshape(-1, 2),
        weights=np.array([w for _, _, w in rows], dtype=np.int64),
        node_attr=np.array([attr.get(node, 0) for node in nodes], dtype=np.int64),
    )


def make_network(edges, nodes=(), mode="user", node_attr=None) -> OneModeNetwork:
    """Build a OneModeNetwork from (a, b[, weight]) tuples plus extra nodes."""
    edge_map = {}
    node_set = set(nodes)
    for spec in edges:
        a, b = spec[0], spec[1]
        weight = spec[2] if len(spec) > 2 else 1
        edge_map[edge_key(a, b)] = weight
        node_set.update((a, b))
    return one_mode(sorted(node_set), edge_map, mode, node_attr)


def make_bipartite(incidence) -> BipartiteNetwork:
    """Build a BipartiteNetwork from post counts keyed by (user, thread)."""
    users = sorted({u for u, _ in incidence})
    threads = sorted({t for _, t in incidence})
    user_index = {u: i for i, u in enumerate(users)}
    thread_index = {t: i for i, t in enumerate(threads)}
    rows = sorted((user_index[u], thread_index[t], c) for (u, t), c in incidence.items())
    return BipartiteNetwork(
        user_nodes=tuple(users),
        thread_nodes=tuple(threads),
        incidence=np.array([(u, t) for u, t, _ in rows], dtype=np.int64).reshape(-1, 2),
        counts=np.array([c for _, _, c in rows], dtype=np.int64),
    )


def complete_graph(n: int) -> OneModeNetwork:
    names = [f"n{i:02d}" for i in range(n)]
    return make_network(itertools.combinations(names, 2), nodes=names)


def path_graph(n: int) -> OneModeNetwork:
    names = [f"n{i:02d}" for i in range(n)]
    return make_network(zip(names, names[1:]), nodes=names)


def cycle_graph(n: int) -> OneModeNetwork:
    names = [f"n{i:02d}" for i in range(n)]
    return make_network(list(zip(names, names[1:])) + [(names[-1], names[0])], nodes=names)


def star_graph(n: int) -> OneModeNetwork:
    """Star with n nodes total: one hub plus n - 1 leaves."""
    hub = "hub"
    leaves = [f"leaf{i:02d}" for i in range(n - 1)]
    return make_network([(hub, leaf) for leaf in leaves], nodes=[hub] + leaves)


def random_graph(rng, n: int, p: float = 0.5) -> OneModeNetwork:
    names = [f"n{i:02d}" for i in range(n)]
    edges = [(a, b) for a, b in itertools.combinations(names, 2) if rng.random() < p]
    return make_network(edges, nodes=names)


def random_bipartite(rng, n_users: int, n_threads: int, p: float = 0.3) -> BipartiteNetwork:
    users = [f"u{i:02d}" for i in range(n_users)]
    threads = [f"t{i:02d}" for i in range(n_threads)]
    incidence = {}
    for u in users:
        for t in threads:
            if rng.random() < p:
                incidence[(u, t)] = rng.randint(1, 4)
    return make_bipartite(incidence)


def dataset_from_posts(rows, users=()) -> ForumDataset:
    """Rows are (user_id, thread_id) or (user_id, thread_id, forum_id)."""
    base = datetime(2010, 1, 1, tzinfo=timezone.utc)
    posts = []
    seen_threads = set()
    for i, row in enumerate(rows):
        user_id, thread_id = row[0], row[1]
        forum_id = row[2] if len(row) > 2 else "f1"
        posts.append(
            PostRecord(
                post_id=f"p{i:04d}",
                thread_id=thread_id,
                user_id=user_id,
                forum_id=forum_id,
                timestamp=base + timedelta(hours=i),
                is_thread_start=thread_id not in seen_threads,
            )
        )
        seen_threads.add(thread_id)
    profiles = {u: UserProfile(user_id=u, profession=None) for u, *_ in rows}
    for profile in users:
        profiles[profile.user_id] = profile
    ordered = [profiles[u] for u in sorted(profiles)]
    return ForumDataset(posts=posts, users=ordered, rejected=[])


def adjacency_sets(g: OneModeNetwork) -> dict[str, set[str]]:
    neighbors = {node: set() for node in g.nodes}
    for (a, b) in edge_dict(g):
        neighbors[a].add(b)
        neighbors[b].add(a)
    return neighbors


def floyd_warshall(g: OneModeNetwork) -> dict[tuple[str, str], float]:
    nodes = list(g.nodes)
    dist = {(a, b): (0.0 if a == b else INF) for a in nodes for b in nodes}
    for (a, b) in edge_dict(g):
        dist[(a, b)] = 1.0
        dist[(b, a)] = 1.0
    for k in nodes:
        for i in nodes:
            ik = dist[(i, k)]
            if ik == INF:
                continue
            for j in nodes:
                through = ik + dist[(k, j)]
                if through < dist[(i, j)]:
                    dist[(i, j)] = through
    return dist


def oracle_components(g: OneModeNetwork, dist=None) -> list[list[str]]:
    """Components as sorted node lists, largest first, ties toward the
    smallest node; reachability comes from Floyd-Warshall."""
    nodes = list(g.nodes)
    dist = floyd_warshall(g) if dist is None else dist
    unassigned = set(nodes)
    components = []
    while unassigned:
        seed = min(unassigned)
        comp = {v for v in nodes if dist[(seed, v)] < INF}
        components.append(sorted(comp))
        unassigned -= comp
    components.sort(key=lambda comp: (-len(comp), comp[0]))
    return components


def oracle_diameter_apl(g: OneModeNetwork) -> tuple[int, float]:
    """Diameter and mean pairwise distance over the largest component."""
    if not g.nodes:
        return 0, 0.0
    dist = floyd_warshall(g)
    largest = oracle_components(g, dist)[0]
    pair_dists = [
        dist[(a, b)] for a, b in itertools.combinations(largest, 2)
    ]
    if not pair_dists:
        return 0, 0.0
    return int(max(pair_dists)), sum(pair_dists) / len(pair_dists)


def _shortest_path_nodes(neighbors, dist_from_s, s, t):
    """Yield every shortest s-t path as a node tuple, walking back from t."""
    if dist_from_s.get(t, INF) == INF:
        return
    stack = [(t, (t,))]
    while stack:
        node, tail = stack.pop()
        if node == s:
            yield tail
            continue
        for prev in neighbors[node]:
            if dist_from_s.get(prev, INF) == dist_from_s[node] - 1:
                stack.append((prev, (prev,) + tail))


def _bfs_distances(neighbors, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for other in neighbors[node]:
                if other not in dist:
                    dist[other] = dist[node] + 1
                    nxt.append(other)
        frontier = nxt
    return dist


def naive_betweenness_raw(g: OneModeNetwork) -> dict[str, float]:
    """Raw betweenness by enumerating every shortest path of every pair."""
    neighbors = adjacency_sets(g)
    nodes = list(g.nodes)
    score = {node: 0.0 for node in nodes}
    for s, t in itertools.combinations(nodes, 2):
        dist = _bfs_distances(neighbors, s)
        paths = list(_shortest_path_nodes(neighbors, dist, s, t))
        if not paths:
            continue
        for path in paths:
            for interior in path[1:-1]:
                score[interior] += 1.0 / len(paths)
    return score


def naive_betweenness(g: OneModeNetwork) -> dict[str, float]:
    n = len(g.nodes)
    if n < 3:
        return {node: 0.0 for node in g.nodes}
    scale = (n - 1) * (n - 2) / 2.0
    return {node: raw / scale for node, raw in naive_betweenness_raw(g).items()}


def projection_oracle(b: BipartiteNetwork, mode: str, weighting: str = "events"):
    """Tie weights from the incidence matrix product, off-diagonal only."""
    users = list(b.user_nodes)
    threads = list(b.thread_nodes)
    matrix = np.zeros((len(users), len(threads)))
    for (u, t), count in incidence_dict(b).items():
        value = 1 if weighting == "events" else count
        matrix[users.index(u), threads.index(t)] = value
    if mode == "user":
        product, names = matrix @ matrix.T, users
    else:
        product, names = matrix.T @ matrix, threads
    edges = {}
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            if product[i, j] > 0:
                edges[edge_key(a, names[j])] = product[i, j]
    return edges


def dense_layout(network, seed: int, iterations: int) -> np.ndarray:
    """Reference spring embedding: the whole n x n repulsion per step and
    the edge pulls added by ``np.add.at``. ``viz.layout`` must match its
    (n, 2) positions bit for bit."""
    nodes, edges, _, _, _ = _drawing(network)
    n = len(nodes)
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    if n == 1:
        return np.array([[0.5, 0.5]])

    ei, ej = edges.T
    k = (1.0 / n) ** 0.5
    start_temp = 0.1
    dx = np.empty((n, n))
    dy = np.empty((n, n))
    factor = np.empty((n, n))
    for step in range(iterations):
        temp = start_temp * (1.0 - step / iterations)
        np.subtract(pos[:, 0][:, None], pos[:, 0][None, :], out=dx)
        np.subtract(pos[:, 1][:, None], pos[:, 1][None, :], out=dy)
        np.multiply(dx, dx, out=factor)
        factor += dy * dy
        np.maximum(factor, 1e-12, out=factor)
        np.divide(k * k, factor, out=factor)
        disp = np.empty((n, 2))
        disp[:, 0] = np.einsum("ij,ij->i", dx, factor)
        disp[:, 1] = np.einsum("ij,ij->i", dy, factor)
        if len(ei):
            span = pos[ei] - pos[ej]
            length = np.sqrt(np.einsum("ij,ij->i", span, span))
            np.maximum(length, 1e-9, out=length)
            pull = span * (length / k)[:, None]
            np.add.at(disp, ei, -pull)
            np.add.at(disp, ej, pull)
        norm = np.sqrt(np.einsum("ij,ij->i", disp, disp))
        np.maximum(norm, 1e-12, out=norm)
        pos += disp * (np.minimum(norm, temp) / norm)[:, None]

    lo = pos.min(axis=0)
    span = pos.max(axis=0) - lo
    for axis in range(2):
        if span[axis] > 0:
            pos[:, axis] = (pos[:, axis] - lo[axis]) / span[axis]
        else:
            pos[:, axis] = 0.5
    return pos
