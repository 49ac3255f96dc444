"""Tie thinning, force-directed layout, and graph file exports.

Thinning hides ties below a statistical cutoff (mean + k * sd of the tie
weights) so dense networks stay readable; nodes are never dropped. The
layout is a seeded spring embedder: connected hubs migrate toward the
middle of the drawing. A ``Layout`` is built in two parts: its
constructor allocates the whole workspace, O(LAYOUT_BLOCK * n + m)
floats, on the calling thread, and ``run`` steps in it, on any thread,
without allocating an m-sized array; ``layout`` does both in turn.
Exports cover DOT, GraphML, and a dependency-free SVG rendering, each in
string chunks, as an edge list is. The layout and the exports draw a
bipartite network as a one-mode one (``_drawing``), whose nodes carry a
``mode`` where a projection's carry a ``size``. Each export gives
its nodes line by line and its ties through ``text.tie_lines``: one
quoted name (or, in SVG, one pair of coordinates) per node for each end
of a tie, and one tail per distinct weight. XML text is escaped here, as
``xml.sax.saxutils`` escapes it, without importing that module's
``urllib`` dependencies. ``positions_csv`` writes a layout through
``text.csv_text``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

from .errors import ConfigError
from .graph import THREAD_MODE, USER_MODE, BipartiteNetwork, OneModeNetwork, _index_dtype
from .text import csv_text, tie_lines

EXPORT_FORMATS = ("dot", "graphml", "svg")

SVG_SIZE = 1000
SVG_MARGIN = 40
# rows of the pairwise repulsion that a Layout holds at once
LAYOUT_BLOCK = 32
LAYOUT_SEED = 42
LAYOUT_ITERATIONS = 100


@dataclass(frozen=True)
class ThinningSpec:
    """Cutoff = mean + k_sd * sample standard deviation of edge weights.

    strict=True keeps only weights strictly greater than the cutoff.
    Its range check names ``thin_sd``, the setting that gives ``k_sd``.
    """

    k_sd: float = 1.0
    strict: bool = True

    def __post_init__(self):
        if not 0 <= self.k_sd < math.inf:  # NaN fails too
            raise ConfigError("thin_sd must be a finite number >= 0")


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
    values, counts = (a.tolist() for a in np.unique(g.weights, return_counts=True))
    total = sum(v * c for v, c in zip(values, counts))
    squares = sum(v * v * c for v, c in zip(values, counts))
    sd = _sqrt_of_ratio(m * squares - total * total, m * (m - 1))
    cutoff = total / m + spec.k_sd * sd
    kept = g.weights > cutoff if spec.strict else g.weights >= cutoff
    indptr = np.concatenate(([0], np.cumsum(kept)))[g.indptr]  # ties kept before each row
    return OneModeNetwork(g.mode, g.nodes, indptr, g.edges[kept], g.weights[kept], g.node_attr)


def check_layout_settings(seed: int, iterations: int) -> None:
    """Refuse a layout seed below 0 or fewer than one iteration."""
    if seed < 0:
        raise ConfigError("layout_seed must be >= 0")
    if iterations < 1:
        raise ConfigError("layout_iterations must be >= 1")


def _drawing(network) -> tuple[OneModeNetwork, str, list]:
    """(g, key, column): the one-mode network to draw and the one attribute
    each of its nodes carries. A projection is drawn as it is, with its
    ``size``; a bipartite network as one over the users, then the threads,
    weighted by post counts and sized 0, each node with its ``mode``. If a
    user and a thread share an ID, every node is ``user:<id>`` or ``thread:<id>``."""
    if not isinstance(network, BipartiteNetwork):
        return network, "size", network.node_attr.tolist()
    users, threads = network.user_nodes, network.thread_nodes
    if not set(users).isdisjoint(threads):
        users = tuple(f"user:{u}" for u in users)
        threads = tuple(f"thread:{t}" for t in threads)
    n = len(users) + len(threads)
    indptr = np.pad(network.indptr, (0, len(threads)), "edge")  # B's rows, then empty ones
    drawn = OneModeNetwork("bipartite", users + threads, indptr,
                           np.add(network.incidence, len(users), dtype=_index_dtype(n)),
                           network.counts, np.zeros(n, dtype=np.int64))
    return drawn, "mode", [USER_MODE] * len(users) + [THREAD_MODE] * len(threads)


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An empty float64 array of ``shape`` that starts on a 64-byte
    boundary, sliced from one 64 bytes longer: the repulsion loops run up
    to a fifth faster on aligned rows, and their speed would otherwise
    hang on where the allocator puts each array."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + size].reshape(shape)


class Layout:
    """One seeded spring embedding, set up to run once, on any thread.

    Building it checks the inputs and allocates the whole workspace on the
    building thread: the positions, ``LAYOUT_BLOCK`` rows of each pairwise
    repulsion array, the scatter targets and forces, and the edge lengths,
    O(LAYOUT_BLOCK * n + m) floats in all, each float array on a 64-byte
    boundary (``_aligned``). ``run`` steps in that workspace without
    allocating any m-sized array, drops it, and returns the (n, 2)
    positions, so once ``run`` returns nothing keeps the workspace alive.
    A caller that runs several layouts on a thread pool builds each one
    itself: memory a pool thread frees stays in that thread's allocator
    arena, and memory the caller frees serves its next allocations.
    """

    def __init__(self, network, seed: int, iterations: int):
        check_layout_settings(seed, iterations)
        g = _drawing(network)[0]
        n, m = len(g.nodes), len(g.edges)
        if n == 0:
            raise ValueError("layout requires at least one node")
        self.iterations = iterations
        xy = _aligned((2, n))
        xy[...] = np.random.default_rng(seed).random((n, 2)).T
        block = min(LAYOUT_BLOCK, n)
        # one bincount per axis adds, per node, 0 + its repulsion, then the
        # pulls where it is ei, then those where it is ej, in edge order; any
        # other order (bincount(ej) - bincount(ei)) rounds differently and
        # moves the drawing
        ei = np.repeat(np.arange(n), np.diff(g.indptr))
        targets = np.concatenate((np.arange(n), ei, g.edges))
        self._space = (
            xy, targets, _aligned((2, block, n)), _aligned((2, block, n)),
            _aligned((2, n + 2 * m)), _aligned((m,)), _aligned((n,)),
        )

    def run(self) -> np.ndarray:
        """Anneal the placement, then scale it to the unit square: one row
        per node in the order ``export_graph`` writes. Runs once."""
        space, self._space = self._space, None
        xy, targets, delta, square, forces, length, norm = space
        n, m, iterations = len(norm), len(length), self.iterations
        ei, ej = targets[n : n + m], targets[n + m :]
        pushed, pulled = forces[:, n : n + m], forces[:, n + m :]
        k = (1.0 / n) ** 0.5
        start_temp = 0.1
        x, y = xy
        block = delta.shape[1]
        for step in range(iterations):
            temp = start_temp * (1.0 - step / iterations)
            for lo in range(0, n, block):
                hi = min(lo + block, n)
                rows = hi - lo
                d, sq = delta[:, :rows], square[:, :rows]
                # fill from the column, then subtract rows contiguously: a
                # stride-0 first operand makes the subtraction loop slow
                d[...] = xy[:, lo:hi, None]
                d -= xy[:, None, :]
                np.multiply(d, d, out=sq)
                factor = sq[0]
                factor += sq[1]
                np.maximum(factor, 1e-12, out=factor)
                # repulsion k^2/d along each pair direction: delta * k^2/d^2,
                # each row summed as einsum("ij,ij->i") sums it
                np.divide(k * k, factor, out=factor)
                np.einsum("aij,ij->ai", d, factor, out=forces[:, lo:hi])
            # the span pos[ei] - pos[ej], per axis, in the slots of the pulls;
            # the ends are in range, and any mode but "raise" takes them
            # straight into ``out``, with no m-sized buffer
            for axis, coords in enumerate((x, y)):
                np.take(coords, ei, out=pulled[axis], mode="wrap")
                np.take(coords, ej, out=pushed[axis], mode="wrap")
                pulled[axis] -= pushed[axis]
            np.multiply(pulled[0], pulled[0], out=length)
            np.multiply(pulled[1], pulled[1], out=pushed[0])
            length += pushed[0]
            np.sqrt(length, out=length)
            np.maximum(length, 1e-9, out=length)
            # attraction d^2/k along the edge
            length /= k
            pulled *= length
            np.negative(pulled, out=pushed)
            disp_x = np.bincount(targets, forces[0])
            disp_y = np.bincount(targets, forces[1])
            np.multiply(disp_x, disp_x, out=norm)
            norm += disp_y * disp_y
            np.sqrt(norm, out=norm)
            np.maximum(norm, 1e-12, out=norm)
            # the step, capped at temp: norm turns into its scale factor
            np.divide(np.minimum(norm, temp), norm, out=norm)
            disp_x *= norm
            disp_y *= norm
            x += disp_x
            y += disp_y

        # rescale each axis into [0, 1]; degenerate axes collapse to center
        pos = np.empty((n, 2))
        for axis, coords in enumerate((x, y)):
            lo = coords.min()
            span = coords.max() - lo
            pos[:, axis] = (coords - lo) / span if span > 0 else 0.5
        return pos


def layout(network, seed: int = LAYOUT_SEED, iterations: int = LAYOUT_ITERATIONS) -> np.ndarray:
    """Seeded spring embedding scaled to the unit square: an (n, 2) array
    of positions, one row per node in the order ``export_graph`` writes.

    Nodes repel each other, edges pull their endpoints together, and a
    linearly cooling step cap anneals the placement. Identical
    (network, seed, iterations) inputs give identical positions.

    The workspace is allocated once, before the first step (see
    ``Layout``), and repulsion is summed ``LAYOUT_BLOCK`` rows at a time,
    so the call holds O(LAYOUT_BLOCK * n + m) floats rather than n x n
    matrices. Each row's sum is taken whole, so the positions do not
    depend on the block size. No call is BLAS-backed, so they do not
    depend on its thread count either.
    """
    return Layout(network, seed, iterations).run()


def _placed(nodes, positions: np.ndarray) -> np.ndarray:
    if positions.shape != (len(nodes), 2):
        raise ValueError(f"layout has shape {positions.shape}, expected ({len(nodes)}, 2)")
    return positions


def positions_csv(network, positions: np.ndarray) -> str:
    """node_id,x,y per node of ``network``, from its ``layout``."""
    nodes = _drawing(network)[0].nodes
    return csv_text(("node_id", "x", "y"), zip(nodes, *_placed(nodes, positions).T.tolist()))


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` written as XML entities."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """``text`` as a quoted XML attribute value: escaped, with tab, LF and
    CR as character references, in double quotes unless it holds a double
    quote and no single one."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(g: OneModeNetwork, key: str, column: list) -> Iterator[str]:
    quoted = [_dot_quote(node) for node in g.nodes]
    lines = [f"  {node} [{key}={_dot_quote(v) if isinstance(v, str) else v}];\n"
             for node, v in zip(quoted, column)]  # a mode quoted, a size bare
    froms = [f"  {node} -- " for node in quoted]
    ties = tie_lines(froms, quoted, g, lambda weight: f" [weight={weight}];\n")
    return chain(["graph G {\n"], lines, ties, ["}\n"])


def _to_graphml(g: OneModeNetwork, key: str, column: list) -> Iterator[str]:
    quoted = [_quoteattr(node) for node in g.nodes]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="long"/>',
        '  <key id="size" for="node" attr.name="size" attr.type="long"/>',
        '  <key id="mode" for="node" attr.name="mode" attr.type="string"/>',
        '  <graph edgedefault="undirected">',
        *(f'    <node id={node}><data key="{key}">{_escape(str(v))}</data></node>'
          for node, v in zip(quoted, column)),
    ]
    ties = tie_lines(
        [f"    <edge source={node}" for node in quoted],
        [f" target={node}>" for node in quoted],
        g,
        lambda weight: f'<data key="weight">{weight}</data></edge>\n',
    )
    return chain(["\n".join(out) + "\n"], ties, ["  </graph>\n</graphml>\n"])


def _to_svg(g: OneModeNetwork, key: str, column: list, positions: np.ndarray) -> Iterator[str]:
    usable = SVG_SIZE - 2 * SVG_MARGIN
    points = (SVG_MARGIN + _placed(g.nodes, positions) * usable).tolist()
    max_weight = g.weights.max().item() if len(g.weights) else 1
    sizes = g.node_attr.tolist()
    max_size = max(sizes, default=0)
    head = "\n".join((
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'  <rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        '  <g stroke="#8899aa" stroke-opacity="0.55">',
    ))
    ties = tie_lines(
        [f'    <line x1="{x:.2f}" y1="{y:.2f}"' for x, y in points],
        [f' x2="{x:.2f}" y2="{y:.2f}"' for x, y in points],
        g,
        lambda weight: f' stroke-width="{0.6 + 2.4 * weight / max_weight:.2f}"/>\n',
    )
    out = ["  </g>", '  <g fill="#3465a4" stroke="#1f3d66" stroke-width="0.8">']
    for k, node in enumerate(g.nodes):
        x, y = points[k]
        radius = 3.0 + 11.0 * sizes[k] / max_size if max_size > 0 else 6.0
        label = f"<title>{_escape(node)}</title>"
        if column[k] == THREAD_MODE:
            side = 2 * radius
            out.append(
                f'    <rect x="{x - radius:.2f}" y="{y - radius:.2f}"'
                f' width="{side:.2f}" height="{side:.2f}" fill="#cc6644">{label}</rect>'
            )
        else:
            out.append(f'    <circle cx="{x:.2f}" cy="{y:.2f}" r="{radius:.2f}">{label}</circle>')
    out += ["  </g>", "</svg>"]
    return chain([head + "\n"], ties, ["\n".join(out) + "\n"])


def export_graph(
    network, positions: np.ndarray | None = None, format: str = "dot"
) -> Iterator[str]:
    """Serialize a network (one-mode or bipartite) as DOT, GraphML, or SVG,
    in string chunks: the header, the node lines, the ``text.tie_lines``
    chunks and the footer, so no figure is ever one string.

    SVG needs the network's ``layout`` positions. One-mode nodes are
    sized by the network's own ``node_attr``. The arguments are checked
    at the call, before any chunk is taken.
    """
    if format not in EXPORT_FORMATS:
        raise ValueError(f"unknown export format: {format!r}")
    if format == "svg" and positions is None:
        raise ValueError("svg export requires a layout")
    drawing = _drawing(network)
    if format == "svg":
        return _to_svg(*drawing, positions)
    return (_to_dot if format == "dot" else _to_graphml)(*drawing)
