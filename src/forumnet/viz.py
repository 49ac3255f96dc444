"""Tie thinning, force-directed layout, and graph file exports.

Thinning hides ties below a statistical cutoff (mean + k * sd of the tie
weights) so dense networks stay readable; nodes are never dropped. The
layout is a seeded spring embedder: connected hubs migrate toward the
middle of the drawing. Exports cover DOT, GraphML, and a dependency-free
SVG rendering; ``positions_csv`` writes a layout through
``text.csv_text``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from .errors import ConfigError
from .graph import BipartiteNetwork, OneModeNetwork
from .text import csv_text

EXPORT_FORMATS = ("dot", "graphml", "svg")

SVG_SIZE = 1000
SVG_MARGIN = 40
# rows of the pairwise repulsion that layout() holds at once
LAYOUT_BLOCK = 32


@dataclass(frozen=True)
class ThinningSpec:
    """Cutoff = mean + k_sd * sample standard deviation of edge weights.

    strict=True keeps only weights strictly greater than the cutoff.
    """

    k_sd: float = 1.0
    strict: bool = True

    def __post_init__(self):
        if not 0 <= self.k_sd < math.inf:  # NaN fails too
            raise ConfigError("k_sd must be a finite number >= 0")


def _sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num / den), correctly rounded, as ``statistics.stdev`` rounds it.

    The integer root keeps at least 57 bits; setting its last bit when it
    is inexact (round to odd) leaves one rounding, in the final division.
    """
    shift = max(0, 58 - (num.bit_length() - den.bit_length()) // 2)
    scaled = num << 2 * shift
    root = math.isqrt(scaled // den)
    root |= root * root * den != scaled
    return root / (1 << shift)


def thin(g: OneModeNetwork, spec: ThinningSpec | None = None) -> OneModeNetwork:
    """Drop ties at or below the cutoff; keep every node.

    Graphs with fewer than two edges are returned unchanged (no spread to
    measure). The sample standard deviation uses the n-1 denominator.
    Mean and deviation come from exact integer sums, rounded once each, as
    ``statistics.mean`` and ``statistics.stdev`` round them.
    """
    spec = spec or ThinningSpec()
    m = len(g.weights)
    if m < 2:
        return g
    total = int(g.weights.sum())
    squares = sum(w * w for w in g.weights.tolist())
    sd = _sqrt_of_ratio(m * squares - total * total, m * (m - 1))
    cutoff = total / m + spec.k_sd * sd
    kept = g.weights > cutoff if spec.strict else g.weights >= cutoff
    return OneModeNetwork(g.mode, g.nodes, g.edges[kept], g.weights[kept], g.node_attr)


def _drawing(network):
    """(node names, (m, 2) index edges, weights, per-node modes or None,
    per-node sizes or None) of either network kind. Bipartite threads
    follow the users, and only one-mode nodes carry a size. When a user
    and a thread share an ID, every bipartite node is written as
    ``user:<id>`` or ``thread:<id>``."""
    if isinstance(network, BipartiteNetwork):
        users, threads = network.user_nodes, network.thread_nodes
        if not set(users).isdisjoint(threads):
            users = tuple(f"user:{u}" for u in users)
            threads = tuple(f"thread:{t}" for t in threads)
        edges = network.incidence + np.array([0, len(users)])
        modes = ("user",) * len(users) + ("thread",) * len(threads)
        return users + threads, edges, network.counts, modes, None
    return network.nodes, network.edges, network.weights, None, network.node_attr


def layout(network, seed: int = 42, iterations: int = 100) -> np.ndarray:
    """Seeded spring embedding scaled to the unit square: an (n, 2) array
    of positions, one row per node in the order ``export_graph`` writes.

    Nodes repel each other, edges pull their endpoints together, and a
    linearly cooling step cap anneals the placement. Identical
    (network, seed, iterations) inputs give identical positions.

    Repulsion is summed ``LAYOUT_BLOCK`` rows at a time, so the step loop
    holds O(LAYOUT_BLOCK * n + m) floats rather than n x n matrices. Each
    row's sum is taken whole, so the positions do not depend on the block
    size. No call is BLAS-backed, so they do not depend on its thread
    count either.
    """
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    nodes, edges, _, _, _ = _drawing(network)
    n = len(nodes)
    if n == 0:
        raise ValueError("layout requires at least one node")
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    if n == 1:
        return np.array([[0.5, 0.5]])

    ei, ej = edges.T
    m = len(ei)
    k = (1.0 / n) ** 0.5
    start_temp = 0.1
    block = min(LAYOUT_BLOCK, n)
    dx, dy, factor, dy2 = (np.empty((block, n)) for _ in range(4))
    # one bincount per axis adds, per node, 0 + its repulsion, then the
    # pulls where it is ei, then those where it is ej, in edge order; any
    # other order (bincount(ej) - bincount(ei)) rounds differently and
    # moves the drawing
    targets = np.concatenate((np.arange(n), ei, ej))
    forces = np.empty((2, n + 2 * m))
    disp = np.empty((n, 2))
    for step in range(iterations):
        temp = start_temp * (1.0 - step / iterations)
        x, y = pos.T.copy()
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            rows = hi - lo
            bx, by, bf, by2 = dx[:rows], dy[:rows], factor[:rows], dy2[:rows]
            # fill from the column, then subtract rows contiguously: a
            # stride-0 first operand makes the subtraction loop slow
            bx[...] = x[lo:hi, None]
            bx -= x
            by[...] = y[lo:hi, None]
            by -= y
            np.multiply(bx, bx, out=bf)
            np.multiply(by, by, out=by2)
            bf += by2
            np.maximum(bf, 1e-12, out=bf)
            # repulsion k^2/d along each pair direction: delta * k^2/d^2
            np.divide(k * k, bf, out=bf)
            forces[0, lo:hi] = np.einsum("ij,ij->i", bx, bf)
            forces[1, lo:hi] = np.einsum("ij,ij->i", by, bf)
        span = pos[ei] - pos[ej]
        length = np.sqrt(np.einsum("ij,ij->i", span, span))
        np.maximum(length, 1e-9, out=length)
        # attraction d^2/k along the edge
        pull = span * (length / k)[:, None]
        np.negative(pull.T, out=forces[:, n : n + m])
        forces[:, n + m :] = pull.T
        for axis in range(2):
            disp[:, axis] = np.bincount(targets, forces[axis])
        norm = np.sqrt(np.einsum("ij,ij->i", disp, disp))
        np.maximum(norm, 1e-12, out=norm)
        pos += disp * (np.minimum(norm, temp) / norm)[:, None]

    # rescale each axis into [0, 1]; degenerate axes collapse to center
    lo = pos.min(axis=0)
    span = pos.max(axis=0) - lo
    for axis in range(2):
        if span[axis] > 0:
            pos[:, axis] = (pos[:, axis] - lo[axis]) / span[axis]
        else:
            pos[:, axis] = 0.5
    return pos


def _placed(nodes, positions: np.ndarray) -> np.ndarray:
    if positions.shape != (len(nodes), 2):
        raise ValueError(f"layout has shape {positions.shape}, expected ({len(nodes)}, 2)")
    return positions


def positions_csv(network, positions: np.ndarray) -> str:
    """node_id,x,y per node of ``network``, from its ``layout``."""
    nodes = _drawing(network)[0]
    return csv_text(("node_id", "x", "y"), zip(nodes, *_placed(nodes, positions).T.tolist()))


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(nodes, ties, modes, sizes) -> str:
    quoted = [_dot_quote(node) for node in nodes]
    lines = ["graph G {"]
    for k, node in enumerate(quoted):
        attrs = []
        if modes is not None:
            attrs.append(f"mode={_dot_quote(modes[k])}")
        if sizes is not None:
            attrs.append(f"size={sizes[k]}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {node}{suffix};")
    lines.extend(f"  {quoted[i]} -- {quoted[j]} [weight={weight}];" for i, j, weight in ties)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_graphml(nodes, ties, modes, sizes) -> str:
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


def _to_svg(nodes, ties, modes, sizes, positions: np.ndarray) -> str:
    usable = SVG_SIZE - 2 * SVG_MARGIN
    points = (SVG_MARGIN + _placed(nodes, positions) * usable).tolist()
    max_weight = max((w for _, _, w in ties), default=1)
    sizes = sizes or [0] * len(nodes)
    max_size = max(sizes, default=0)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'  <rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
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
        if max_size > 0:
            radius = 3.0 + 11.0 * sizes[k] / max_size
        else:
            radius = 6.0
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


def export_graph(network, positions: np.ndarray | None = None, format: str = "dot") -> str:
    """Serialize a network (one-mode or bipartite) as DOT, GraphML, or SVG.

    SVG needs the network's ``layout`` positions. One-mode nodes are
    sized by the network's own ``node_attr``.
    """
    if format not in EXPORT_FORMATS:
        raise ValueError(f"unknown export format: {format!r}")
    nodes, edges, weights, modes, sizes = _drawing(network)
    ties = [(i, j, w) for (i, j), w in zip(edges.tolist(), weights.tolist())]
    sizes = None if sizes is None else sizes.tolist()
    if format == "dot":
        return _to_dot(nodes, ties, modes, sizes)
    if format == "graphml":
        return _to_graphml(nodes, ties, modes, sizes)
    if positions is None:
        raise ValueError("svg export requires a layout")
    return _to_svg(nodes, ties, modes, sizes, positions)
