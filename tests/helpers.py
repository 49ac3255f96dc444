"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the library's own algorithms: distances
come from Floyd-Warshall over dicts, betweenness from explicit
shortest-path enumeration, projections from incidence-matrix products,
and edge lists and graph files from one formatted line per tie, so
agreement is meaningful.
"""

from __future__ import annotations

import csv
import io
import itertools
import tracemalloc
from datetime import datetime, timedelta, timezone
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from forumnet.graph import BipartiteNetwork, OneModeNetwork, _index_dtype
from forumnet.ingest import ForumDataset, PostRecord, UserProfile
from forumnet.viz import _drawing

INF = float("inf")


def edge_key(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered pair; self-loops are not representable."""
    if a == b:
        raise ValueError(f"self-loop on {a!r}")
    return (a, b) if a < b else (b, a)


def csr_rows(indptr, ends) -> list[tuple[int, int]]:
    """(i, j) index rows read row by row from CSR rows, in their order:
    ``ends[indptr[i]:indptr[i + 1]]`` are row i's ends j."""
    indptr, ends = indptr.tolist(), ends.tolist()
    return [(i, j) for i in range(len(indptr) - 1) for j in ends[indptr[i] : indptr[i + 1]]]


def tie_rows(g: OneModeNetwork) -> list[tuple[int, int]]:
    """A network's ties as (i, j) index rows, in its order."""
    return csr_rows(g.indptr, g.edges)


def edge_dict(g: OneModeNetwork) -> dict[tuple[str, str], int]:
    """A network's ties keyed by name pairs (a, b) with a < b."""
    return {
        edge_key(g.nodes[i], g.nodes[j]): w for (i, j), w in zip(tie_rows(g), g.weights.tolist())
    }


def by_node(table, measure: str) -> dict[str, float]:
    """One column of a ``CentralityTable`` keyed by node name."""
    return dict(zip(table.nodes, table.columns[measure].tolist()))


def incidence_dict(b: BipartiteNetwork) -> dict[tuple[str, str], int]:
    """Post counts keyed by (user, thread) names."""
    return {
        (b.user_nodes[u], b.thread_nodes[t]): count
        for (u, t), count in zip(csr_rows(b.indptr, b.incidence), b.counts.tolist())
    }


def from_rows(nodes, rows, weights, mode="user", node_attr=None) -> OneModeNetwork:
    """A OneModeNetwork over ``nodes`` from its ties as (i, j) index rows,
    i < j, in ascending order, with one weight each: row i's ends j become
    ``edges[indptr[i]:indptr[i + 1]]``, in int32, the index dtype
    ``project`` picks at test sizes. ``node_attr`` is 0 for every node
    when not given."""
    n, rows = len(nodes), np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    keys = rows[:, 0] * n + rows[:, 1]
    assert (rows[:, 0] < rows[:, 1]).all() and (np.diff(keys) > 0).all(), "rows out of order"
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[:, 0], minlength=n), out=indptr[1:])
    attr = np.zeros(n, dtype=np.int64) if node_attr is None else node_attr
    return OneModeNetwork(mode, tuple(nodes), indptr, rows[:, 1].astype(np.int32),
                          np.asarray(weights, dtype=np.int64), np.asarray(attr, dtype=np.int64))


def one_mode(nodes, edge_map, mode="user", node_attr=None) -> OneModeNetwork:
    """A OneModeNetwork over ``nodes`` in the order given, from ties keyed
    by name pairs; ``node_attr`` maps names to sizes, 0 where absent."""
    index = {node: i for i, node in enumerate(nodes)}
    rows = sorted(
        (min(index[a], index[b]), max(index[a], index[b]), w) for (a, b), w in edge_map.items()
    )
    attr = node_attr or {}
    return from_rows(nodes, [(i, j) for i, j, _ in rows], [w for _, _, w in rows], mode,
                     [attr.get(node, 0) for node in nodes])


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


def bipartite_from_rows(users, threads, rows, counts) -> BipartiteNetwork:
    """A BipartiteNetwork over ``users`` and ``threads`` from its entries
    as (user index, thread index) rows in ascending order, with one post
    count each: user u's threads become ``incidence[indptr[u]:indptr[u + 1]]``."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    keys = rows[:, 0] * len(threads) + rows[:, 1]
    assert (np.diff(keys) > 0).all(), "rows out of order"
    indptr = np.zeros(len(users) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[:, 0], minlength=len(users)), out=indptr[1:])
    return BipartiteNetwork(tuple(users), tuple(threads), indptr, rows[:, 1].copy(),
                            np.asarray(counts, dtype=np.int64))


def make_bipartite(incidence) -> BipartiteNetwork:
    """Build a BipartiteNetwork from post counts keyed by (user, thread)."""
    users = sorted({u for u, _ in incidence})
    threads = sorted({t for _, t in incidence})
    user_index = {u: i for i, u in enumerate(users)}
    thread_index = {t: i for i, t in enumerate(threads)}
    rows = sorted((user_index[u], thread_index[t], c) for (u, t), c in incidence.items())
    return bipartite_from_rows(users, threads, [(u, t) for u, t, _ in rows], [c for *_, c in rows])


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


def pair_key_projection(b: BipartiteNetwork, mode: str, weighting: str = "events") -> OneModeNetwork:
    """The projection from every pair key i·n + j of every shared event at
    once, summed by ``np.unique``: ``graph.project`` must match its indptr,
    edges, weights and node attributes byte for byte."""
    side = 0 if mode == "user" else 1
    nodes = b.user_nodes if side == 0 else b.thread_nodes
    n = len(nodes)
    user, thread = np.array(csr_rows(b.indptr, b.incidence), dtype=np.int64).reshape(-1, 2).T
    member, event = (user, thread) if side == 0 else (thread, user)
    # each event's members in index order, so every pair below has i < j
    order = np.lexsort((member, event))
    member, event = member[order], event[order]
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
    node_attr = np.bincount(member, minlength=n)
    return from_rows(nodes, np.column_stack(np.divmod(pairs, n)), weights.astype(np.int64), mode,
                     node_attr)


def drawn_ties(network) -> tuple[list[tuple[int, int]], list[int]]:
    """The (i, j) index rows and weights of the ties a drawing of
    ``network`` holds, in order, row by row from its CSR: a bipartite
    network's with each thread numbered after every user."""
    if isinstance(network, BipartiteNetwork):
        users = len(network.user_nodes)
        rows = csr_rows(network.indptr, network.incidence)
        return [(u, users + t) for u, t in rows], network.counts.tolist()
    return tie_rows(network), network.weights.tolist()


def symmetric_operand(g: OneModeNetwork, absent: bool):
    """The path pass's former operand, the symmetric canonical CSR
    (indptr, indices, data) of A, or of Ā when ``absent``: from the keys
    i·n + j of both directions of every tie, sorted once, or from an n²
    byte mask cleared row by row. The two-half product must give the bits
    of a product over it."""
    n = len(g.nodes)
    if absent:
        square = np.ones((n, n), dtype=bool)
        np.fill_diagonal(square, False)
        for i, j in enumerate(np.split(g.edges, g.indptr[1:-1])):  # row i's ends j
            square[i, j] = square[j, i] = False
        keys, counts = np.flatnonzero(square), square.sum(axis=1)  # keys ascend
    else:
        i, j = np.repeat(np.arange(n), np.diff(g.indptr)), g.edges.astype(np.int64)
        keys, counts = np.sort(np.concatenate([i * n + j, j * n + i])), g.degrees()
    index = _index_dtype(max(n, len(keys)))
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(index)
    indices = np.remainder(keys, max(n, 1), out=keys).astype(index)
    del keys  # before the ones are allocated
    return indptr, indices, np.ones(len(indices))


def traced_peak(fn) -> int:
    """The tracemalloc peak of ``fn()``, in bytes above what was held before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_layout(network, seed: int, iterations: int) -> np.ndarray:
    """Reference spring embedding: the whole n x n repulsion per step and
    the edge pulls added by ``np.add.at``. ``viz.layout`` must match its
    (n, 2) positions bit for bit."""
    n = len(_drawing(network)[0].nodes)
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    if n == 1:
        return np.array([[0.5, 0.5]])

    ei, ej = np.array(drawn_ties(network)[0], dtype=np.int64).reshape(-1, 2).T
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


def scan_pick(weights, target: float) -> int:
    """Reference weighted draw: add the weights one by one in index order
    and return the first index whose running sum exceeds ``target``, or
    the last index when none does. ``synth``'s picker must agree."""
    acc = 0.0
    for i, weight in enumerate(weights):
        acc += weight
        if target < acc:
            return i
    return len(weights) - 1


def oracle_edge_list_csv(g: OneModeNetwork) -> str:
    """``graph.edge_list_csv`` written one ``csv`` row per tie."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("source", "target", "weight"))
    for (i, j), weight in zip(tie_rows(g), g.weights.tolist()):
        writer.writerow((g.nodes[i], g.nodes[j], weight))
    return buf.getvalue()


def _oracle_dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _oracle_dot(nodes, ties, modes, sizes) -> str:
    quoted = [_oracle_dot_quote(node) for node in nodes]
    lines = ["graph G {"]
    for k, node in enumerate(quoted):
        attrs = []
        if modes is not None:
            attrs.append(f"mode={_oracle_dot_quote(modes[k])}")
        if sizes is not None:
            attrs.append(f"size={sizes[k]}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {node}{suffix};")
    lines.extend(f"  {quoted[i]} -- {quoted[j]} [weight={weight}];" for i, j, weight in ties)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _oracle_graphml(nodes, ties, modes, sizes) -> str:
    quoted = [quoteattr(node) for node in nodes]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="long"/>',
        '  <key id="size" for="node" attr.name="size" attr.type="long"/>',
        '  <key id="mode" for="node" attr.name="mode" attr.type="string"/>',
        '  <graph edgedefault="undirected">',
    ]
    for k, node in enumerate(quoted):
        data = []
        if modes is not None:
            data.append(f'<data key="mode">{escape(modes[k])}</data>')
        if sizes is not None:
            data.append(f'<data key="size">{sizes[k]}</data>')
        if data:
            out.append(f"    <node id={node}>{''.join(data)}</node>")
        else:
            out.append(f"    <node id={node}/>")
    out.extend(
        f"    <edge source={quoted[i]} target={quoted[j]}>"
        f'<data key="weight">{weight}</data></edge>'
        for i, j, weight in ties
    )
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"


def _oracle_svg(nodes, ties, modes, sizes, positions) -> str:
    size, margin = 1000, 40
    usable = size - 2 * margin
    points = (margin + positions * usable).tolist()
    max_weight = max((w for _, _, w in ties), default=1)
    sizes = sizes or [0] * len(nodes)
    max_size = max(sizes, default=0)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">',
        f'  <rect width="{size}" height="{size}" fill="white"/>',
        '  <g stroke="#8899aa" stroke-opacity="0.55">',
    ]
    for i, j, weight in ties:
        x1, y1 = points[i]
        x2, y2 = points[j]
        width = 0.6 + 2.4 * weight / max_weight
        out.append(
            f'    <line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"'
            f' stroke-width="{width:.2f}"/>'
        )
    out.append("  </g>")
    out.append('  <g fill="#3465a4" stroke="#1f3d66" stroke-width="0.8">')
    for k, node in enumerate(nodes):
        x, y = points[k]
        radius = 3.0 + 11.0 * sizes[k] / max_size if max_size > 0 else 6.0
        label = f"<title>{escape(node)}</title>"
        if modes is not None and modes[k] == "thread":
            side = 2 * radius
            out.append(
                f'    <rect x="{x - radius:.2f}" y="{y - radius:.2f}"'
                f' width="{side:.2f}" height="{side:.2f}" fill="#cc6644">{label}</rect>'
            )
        else:
            out.append(f'    <circle cx="{x:.2f}" cy="{y:.2f}" r="{radius:.2f}">{label}</circle>')
    out.append("  </g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def oracle_export(network, positions, format: str) -> str:
    """``viz.export_graph`` written one line per tie, each from its own
    f-string, with ``xml.sax.saxutils`` escaping."""
    g = _drawing(network)[0]
    nodes, modes, sizes = g.nodes, None, g.node_attr.tolist()
    if isinstance(network, BipartiteNetwork):  # users, then threads
        modes = ["user"] * len(network.user_nodes) + ["thread"] * len(network.thread_nodes)
        sizes = None
    ties = [(i, j, w) for (i, j), w in zip(*drawn_ties(network))]
    if format == "dot":
        return _oracle_dot(nodes, ties, modes, sizes)
    if format == "graphml":
        return _oracle_graphml(nodes, ties, modes, sizes)
    return _oracle_svg(nodes, ties, modes, sizes, positions)
