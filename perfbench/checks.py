"""Checks on forumnet's artifacts, made apart from the program.

Nothing here imports ``forumnet``. Every expected value is recomputed from
the workload's input with numpy, scipy and the standard library: the
projections from the incidence-matrix product, path measures from an
independent breadth-first search (``scipy.sparse.csgraph``), the ingest
outcome from the generator's own record of what it planted. Each check
returns a list of problems; an empty list means the artifacts are right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import xml.etree.ElementTree as ET
from collections import Counter
from datetime import datetime
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

REL_TOL = 1e-9
CLOSENESS_SAMPLE = 50
THIN_SD = 1  # the analyze workloads pass --thin-sd 1.0 (strict cutoff)
SVG_NS = "{http://www.w3.org/2000/svg}"


def digest_tree(root: Path) -> dict[str, str]:
    """relative path -> SHA-256 of every file under ``root``."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return (rows[0], rows[1:]) if rows else ([], [])


class Projection:
    """One-mode projection recomputed from the binary incidence matrix B:
    ``B @ B.T`` (users) or ``B.T @ B`` (threads). Off-diagonal entries are
    tie weights (distinct shared events); the diagonal is each node's
    count of distinct opposite-class partners."""

    def __init__(self, nodes: list[str], incidence: csr_matrix):
        product = (incidence @ incidence.T).tocoo()
        self.nodes = nodes
        self.n = len(nodes)
        self.attr = np.zeros(self.n, dtype=np.int64)
        upper = product.row < product.col
        diag = product.row == product.col
        self.attr[product.row[diag]] = product.data[diag]
        i, j, w = product.row[upper], product.col[upper], product.data[upper]
        self.weights = {
            (nodes[a], nodes[b]): int(v) for a, b, v in zip(i.tolist(), j.tolist(), w.tolist())
        }
        self.m = len(self.weights)
        ones = np.ones(len(i), dtype=np.int8)
        adj = csr_matrix((ones, (i, j)), shape=(self.n, self.n))
        self.adjacency = (adj + adj.T).tocsr()
        self.degree = np.diff(self.adjacency.indptr)


def projections_from_input(input_path: Path):
    """(users, threads, incidence pairs, {mode: Projection}) from a dataset JSON."""
    doc = json.loads(input_path.read_text(encoding="utf-8"))
    pairs = {(p["user_id"], p["thread_id"]) for p in doc["posts"]}
    users = sorted({u for u, _ in pairs})
    threads = sorted({t for _, t in pairs})
    uidx = {u: k for k, u in enumerate(users)}
    tidx = {t: k for k, t in enumerate(threads)}
    rows = [uidx[u] for u, _ in pairs]
    cols = [tidx[t] for _, t in pairs]
    b = csr_matrix(
        (np.ones(len(pairs), dtype=np.int64), (rows, cols)), shape=(len(users), len(threads))
    )
    projections = {"user": Projection(users, b), "thread": Projection(threads, b.T.tocsr())}
    return users, threads, pairs, projections


def check_projection(g: Projection, out_dir: Path, mode: str, sample_seed: int) -> list[str]:
    problems: list[str] = []
    n = g.n

    header, rows = _read_csv(out_dir / f"{mode}_edges.csv")
    got = {(a, b): int(w) for a, b, w in rows}
    if header != ["source", "target", "weight"] or len(rows) != len(got):
        problems.append(f"{mode}_edges.csv: bad header or repeated pairs")
    if got != g.weights:
        wrong = sum(1 for k in g.weights.keys() & got.keys() if got[k] != g.weights[k])
        problems.append(
            f"{mode}_edges.csv: {len(g.weights.keys() - got.keys())} ties missing, "
            f"{len(got.keys() - g.weights.keys())} extra, {wrong} with a wrong weight"
        )

    _, rows = _read_csv(out_dir / f"{mode}_nodes.csv")
    if [(r[0], int(r[1])) for r in rows] != list(zip(g.nodes, g.attr.tolist())):
        problems.append(f"{mode}_nodes.csv: node ids or attributes differ from B products")

    _, rows = _read_csv(out_dir / f"{mode}_centrality.csv")
    if [r[0] for r in rows] != g.nodes:
        return problems + [f"{mode}_centrality.csv: node rows differ from the node set"]
    degree = np.array([float(r[1]) for r in rows])
    closeness = np.array([float(r[2]) for r in rows])
    betweenness = np.array([float(r[3]) for r in rows])
    want_degree = g.degree / (n - 1) if n > 1 else np.zeros(n)
    if not np.allclose(degree, want_degree, rtol=0, atol=REL_TOL):
        problems.append(f"{mode}_centrality.csv: degree column differs from deg/(n-1)")

    report = json.loads((out_dir / f"{mode}_structural.json").read_text(encoding="utf-8"))
    d = g.degree
    want = {
        "n": n,
        "m": g.m,
        "density": 2.0 * g.m / (n * (n - 1)) if n > 1 else 0.0,
        "centralization": float((d.max() - d).sum()) / ((n - 1) * (n - 2)) if n >= 3 else 0.0,
        "isolate_count": int((d == 0).sum()),
    }

    dist = shortest_path(g.adjacency, method="D", directed=False, unweighted=True)
    count, labels = connected_components(g.adjacency, directed=False)
    sizes = np.bincount(labels, minlength=count)
    first = np.full(count, n)
    np.minimum.at(first, labels, np.arange(n))
    # largest component; ties go to the one holding the smallest node id
    largest = min(range(count), key=lambda c: (-sizes[c], first[c]))
    members = np.flatnonzero(labels == largest)
    sub = dist[np.ix_(members, members)]
    size = len(members)
    want["component_count"] = int(count)
    want["largest_component_size"] = int(size)
    want["diameter"] = int(sub.max()) if size > 1 else 0
    want["avg_path_length"] = (
        float(np.triu(sub, 1).sum()) / (size * (size - 1) / 2) if size > 1 else 0.0
    )
    for key, value in want.items():
        if not _close(float(report.get(key, float("nan"))), float(value)):
            problems.append(f"{mode}_structural.json: {key} = {report.get(key)}, expected {value}")

    # closeness on a seeded sample of nodes: (r/(n-1)) * (r/s)
    rng = random.Random(sample_seed)
    for k in rng.sample(range(n), min(CLOSENESS_SAMPLE, n)):
        row = dist[k]
        reached = np.isfinite(row) & (row > 0)
        r = int(reached.sum())
        expect = (r / (n - 1)) * (r / float(row[reached].sum())) if r else 0.0
        if not _close(closeness[k], expect):
            problems.append(f"{mode}_centrality.csv: closeness of {g.nodes[k]} = "
                            f"{closeness[k]}, expected {expect}")
            break

    # sum of raw betweenness = sum over reachable unordered pairs of (d - 1)
    if n >= 3:
        finite = np.isfinite(dist) & (dist > 0)
        want_sum = float((dist[finite] - 1).sum()) / 2.0
        got_sum = float(betweenness.sum()) * (n - 1) * (n - 2) / 2.0
        if not _close(got_sum, want_sum) or betweenness.min() < 0:
            problems.append(
                f"{mode}_centrality.csv: raw betweenness sums to {got_sum}, "
                f"expected {want_sum} from path lengths"
            )
    return problems


def _kept_ties(weights: list[int]) -> int:
    """Ties strictly above mean + THIN_SD * sample sd, in exact integer
    arithmetic: with S = sum(w), Q = sum(w^2), a weight w is kept when
    m*w > S and (m*w - S)^2 * (m - 1) > THIN_SD^2 * m * (m*Q - S^2)."""
    m = len(weights)
    if m < 2:
        return m
    total = sum(weights)
    spread = THIN_SD**2 * m * (m * sum(w * w for w in weights) - total * total)
    return sum(
        count for w, count in Counter(weights).items()
        if m * w > total and (m * w - total) ** 2 * (m - 1) > spread
    )


def check_figures(users, threads, pairs, projections, out_dir: Path) -> list[str]:
    problems: list[str] = []
    expected = {"bipartite": (users + threads, len(pairs))}
    for mode, g in projections.items():
        expected[mode] = (g.nodes, _kept_ties(list(g.weights.values())))
    for name, (nodes, ties) in expected.items():
        _, rows = _read_csv(out_dir / "figures" / f"{name}_positions.csv")
        if sorted(r[0] for r in rows) != sorted(nodes):
            problems.append(f"{name}_positions.csv: node set differs")
            continue
        xy = np.array([[float(r[1]), float(r[2])] for r in rows])
        if xy.min() < 0.0 or xy.max() > 1.0:
            problems.append(f"{name}_positions.csv: a position lies outside [0, 1]")
        for axis in range(2):
            lo, hi = xy[:, axis].min(), xy[:, axis].max()
            if lo != hi and (lo != 0.0 or hi != 1.0):
                problems.append(f"{name}_positions.csv: axis {axis} spans [{lo}, {hi}], not [0, 1]")

        try:
            root = ET.parse(out_dir / "figures" / f"{name}.svg").getroot()
        except ET.ParseError as exc:
            problems.append(f"{name}.svg: not XML: {exc}")
            continue
        shapes = [
            el for group in root.iter(SVG_NS + "g") for el in group
            if el.tag in (SVG_NS + "circle", SVG_NS + "rect")
        ]
        titles = sorted(el.findtext(SVG_NS + "title") or "" for el in shapes)
        if titles != sorted(nodes):
            problems.append(f"{name}.svg: {len(shapes)} node shapes for {len(nodes)} nodes")
        lines = sum(1 for _ in root.iter(SVG_NS + "line"))
        if lines != ties:
            problems.append(f"{name}.svg: {lines} lines, expected {ties} kept ties")
    return problems


def check_manifest(out_dir: Path) -> list[str]:
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    listed = set(manifest["artifacts"]) | {"manifest.json"}
    present = set(digest_tree(out_dir))
    if listed != present:
        return [f"manifest.json: lists {sorted(listed ^ present)[:3]} wrongly"]
    return []


def check_analysis(input_path: Path, out_dir: Path, figures: bool, sample_seed: int) -> list[str]:
    """All checks for an ``analyze`` output directory."""
    users, threads, pairs, projections = projections_from_input(input_path)
    problems = check_manifest(out_dir)
    for mode, g in projections.items():
        problems += check_projection(g, out_dir, mode, sample_seed)
    if figures:
        problems += check_figures(users, threads, pairs, projections, out_dir)
    elif (out_dir / "figures").exists():
        problems.append("figures/ written although figures are switched off")
    return problems


def check_ingest(expected, out_dir: Path) -> list[str]:
    """Checks for an ``ingest`` output directory against an ``inputs.IngestInput``."""
    doc = json.loads((out_dir / "dataset.json").read_text(encoding="utf-8"))
    posts, rejected = doc["posts"], doc["rejected"]
    problems: list[str] = []
    if len(posts) + len(rejected) != expected.rows:
        problems.append(
            f"dataset.json: {len(posts)} retained + {len(rejected)} rejected "
            f"!= {expected.rows} rows"
        )
    reasons = Counter(r["reason"] for r in rejected)
    if reasons != Counter(expected.planted):
        diff = {k: (reasons.get(k, 0), v) for k, v in expected.planted.items()
                if reasons.get(k, 0) != v}
        extra = sorted(set(reasons) - set(expected.planted))
        problems.append(f"dataset.json: rejections (got, planted) differ: {diff} {extra}")

    want = expected.expected_posts()
    got = {
        p["post_id"]: (
            p["thread_id"], p["user_id"], p["forum_id"],
            int(datetime.fromisoformat(p["timestamp"]).timestamp()), p["is_thread_start"],
        )
        for p in posts
    }
    if len(got) != len(posts):
        problems.append("dataset.json: a post_id is retained twice")
    if got != want:
        wrong = sum(1 for k in want.keys() & got.keys() if got[k] != want[k])
        problems.append(
            f"dataset.json: {len(want.keys() - got.keys())} posts missing, "
            f"{len(got.keys() - want.keys())} extra, {wrong} differ from the rows written"
        )
    order = [(got[p["post_id"]][3], p["post_id"]) for p in posts]
    if order != sorted(order):
        problems.append("dataset.json: posts are not sorted by (timestamp, post_id)")
    users = [(u["user_id"], u["profession"]) for u in doc["users"]]
    if users != expected.expected_users():
        problems.append("dataset.json: user roster differs from the users CSV plus posting users")
    return problems
