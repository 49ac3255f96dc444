"""Tie thinning, seeded layout, and graph exports."""

import hashlib
import os
import re
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from xml.sax import saxutils
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forumnet import paths, report, viz
from forumnet.viz import (
    LAYOUT_BLOCK,
    ThinningSpec,
    export_graph,
    layout,
    positions_csv,
    thin,
)

from forumnet.errors import ConfigError
from forumnet.graph import build_bipartite
from forumnet.ingest import dataset_to_json
from forumnet.report import PipelineConfig, run_pipeline
from forumnet.synth import SynthConfig, generate

from helpers import (
    bipartite_from_rows,
    dataset_from_posts,
    dense_layout,
    edge_dict,
    edge_key,
    from_rows,
    make_bipartite,
    make_network,
    star_graph,
)


def weighted(weights):
    """One edge per weight, all sharing node a0: a0-b<i> with weight w."""
    return make_network([("a0", f"b{i}", w) for i, w in enumerate(weights)])


def test_thinning_worked_example():
    g = weighted([1, 1, 1, 5])
    thinned = thin(g, ThinningSpec(k_sd=1.0))
    assert list(edge_dict(thinned).values()) == [5]
    assert thinned.nodes == g.nodes


def test_thinning_cutoff_matches_stdlib_statistics():
    weights = [2, 3, 9, 4, 4, 1]
    g = weighted(weights)
    cutoff = statistics.mean(weights) + statistics.stdev(weights)
    thinned = thin(g, ThinningSpec(k_sd=1.0))
    assert set(edge_dict(thinned).values()) == {w for w in weights if w > cutoff}


def test_thinning_all_equal_keeps_nothing_strict():
    g = weighted([3, 3, 3])
    assert edge_dict(thin(g, ThinningSpec(k_sd=1.0))) == {}
    assert edge_dict(thin(g, ThinningSpec(k_sd=0.0))) == {}


def test_thinning_k0_lenient_keeps_at_or_above_mean():
    g = weighted([1, 2, 3])
    thinned = thin(g, ThinningSpec(k_sd=0.0, strict=False))
    assert sorted(edge_dict(thinned).values()) == [2, 3]


def test_thinning_small_graphs_pass_through():
    single = weighted([7])
    assert edge_dict(thin(single, ThinningSpec())) == edge_dict(single)
    empty = make_network([], nodes=["x"])
    assert edge_dict(thin(empty, ThinningSpec())) == {}
    assert thin(empty, ThinningSpec()).nodes == ("x",)


def test_thinning_huge_k_drops_everything():
    g = weighted([1, 5, 9, 14])
    assert edge_dict(thin(g, ThinningSpec(k_sd=1e9))) == {}


def test_thinning_spec_validation():
    for k_sd in (-0.5, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            ThinningSpec(k_sd=k_sd)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=0, max_size=12), st.floats(0, 4))
def test_thinning_subset_property(weights, k_sd):
    g = weighted(weights)
    thinned = thin(g, ThinningSpec(k_sd=k_sd))
    kept, full = edge_dict(thinned), edge_dict(g)
    assert set(kept).issubset(set(full))
    assert thinned.nodes == g.nodes
    for key, value in kept.items():
        assert full[key] == value


def statistics_cutoff(weights, k_sd):
    floats = [float(w) for w in weights]
    return statistics.mean(floats) + k_sd * statistics.stdev(floats)


@st.composite
def thinning_cases(draw):
    """Weights, and a k_sd that is either arbitrary or aimed so the cutoff
    lands on one of the weights, where one ulp decides what is kept.
    Weights up to 2**40 square past int64, so the sums must be exact."""
    top = draw(st.sampled_from([10**6, 2**40]))
    weights = draw(st.lists(st.integers(1, top), min_size=2, max_size=30))
    mean, sd = statistics.mean(weights), statistics.stdev(weights)
    aimed = [(w - mean) / sd for w in weights if sd > 0 and w > mean]
    k_sd = draw(st.sampled_from(aimed) if aimed and draw(st.booleans()) else st.floats(0, 5))
    return weights, k_sd


@settings(max_examples=300, deadline=None)
@given(thinning_cases(), st.booleans())
@example(([1, 2, 3], 1.0), True)  # exact cutoff 3.0: strict drops the 3
@example(([1, 2, 3], 1.0), False)  # and lenient keeps it
@example(([5, 5, 5, 5], 0.0), False)  # zero spread keeps every tie
@example(([2**40, 2**40 - 1, 2**40 - 1, 3], 0.5), True)  # squares past int64
def test_thinning_matches_statistics_reference(case, strict):
    weights, k_sd = case
    cutoff = statistics_cutoff(weights, k_sd)
    want = sorted(w for w in weights if (w > cutoff if strict else w >= cutoff))
    thinned = thin(weighted(weights), ThinningSpec(k_sd=k_sd, strict=strict))
    assert sorted(edge_dict(thinned).values()) == want


def test_layout_single_node_centered():
    g = make_network([], nodes=["solo"])
    assert layout(g, seed=1, iterations=10).tolist() == [[0.5, 0.5]]


def test_layout_deterministic_per_seed():
    g = star_graph(6)
    a = layout(g, seed=7, iterations=60)
    b = layout(g, seed=7, iterations=60)
    assert np.array_equal(a, b)
    c = layout(g, seed=8, iterations=60)
    assert not np.array_equal(a, c)


def test_layout_positions_in_unit_square():
    g = star_graph(9)
    result = layout(g, seed=3, iterations=120)
    for x, y in result.tolist():
        assert 0.0 <= x <= 1.0
        assert 0.0 <= y <= 1.0
    assert result.shape == (len(g.nodes), 2)


def test_layout_star_hub_lands_nearest_centroid():
    g = star_graph(9)
    pts = dict(zip(g.nodes, layout(g, seed=11, iterations=500)))
    centroid = np.mean(list(pts.values()), axis=0)
    dist = {k: float(np.linalg.norm(v - centroid)) for k, v in pts.items()}
    hub = dist.pop("hub")
    assert hub < min(dist.values())


def drawn_network(n: int, bipartite: bool, ties: str, draw):
    """A network of ``n`` nodes: one-mode, or bipartite with its first
    nodes users. ``ties`` is "none", "hub" (every possible tie that
    touches the first node) or "random"."""
    users = draw(st.integers(1, max(1, n - 1))) if bipartite else n
    if bipartite:
        possible = [(u, t) for u in range(users) for t in range(n - users)]
    else:
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if ties == "hub":
        rows = [pair for pair in possible if 0 in pair]
    elif ties == "random" and possible:
        rows = sorted(draw(st.sets(st.sampled_from(possible), max_size=3 * n)))
    else:
        rows = []
    rows = np.array(rows, dtype=np.int64).reshape(-1, 2)
    ones = np.ones(len(rows), dtype=np.int64)
    if bipartite:
        names = tuple(f"u{i}" for i in range(users)), tuple(f"t{i}" for i in range(n - users))
        return bipartite_from_rows(*names, rows, ones)
    return from_rows(tuple(f"n{i}" for i in range(n)), rows, ones)


@pytest.mark.parametrize("ties", ["none", "hub", "random"])
@pytest.mark.parametrize("bipartite", [False, True], ids=["one-mode", "bipartite"])
@pytest.mark.parametrize(
    "n", [1, 2, LAYOUT_BLOCK - 1, LAYOUT_BLOCK, LAYOUT_BLOCK + 1, 2 * LAYOUT_BLOCK + 3]
)
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 25),
    block=st.sampled_from([LAYOUT_BLOCK, 1, 7]),
    data=st.data(),
)
def test_layout_matches_dense_reference(n, bipartite, ties, seed, iterations, block, data):
    """Row-block repulsion and bincount pulls give the positions of the
    whole n x n step with np.add.at exactly, whatever the block size."""
    g = drawn_network(n, bipartite, ties, data.draw)
    with mock.patch.object(viz, "LAYOUT_BLOCK", block):
        positions = layout(g, seed=seed, iterations=iterations)
    assert np.array_equal(positions, dense_layout(g, seed, iterations))


def pin_data():
    return generate(
        SynthConfig(user_count=60, thread_count=80, post_count=400, skew_alpha=1.5, seed=3)
    )


PINNED_FIGURES = {
    "bipartite.svg": "7a6f88cabc202005168dc762dbbd42379071bf140e4c518ad5eebfd9c0328cfa",
    "bipartite_positions.csv": "62095b9aa967e74b2b0e1c65d155141fdea81a1aed157f2ca322610aaec22407",
    "thread.svg": "9b56f96f5849d120198df8dd8816ad15581d10633b3641bd8ac0b3e7072ce262",
    "thread_positions.csv": "c2c314a7eb959581c5ef05f6f2fcd4835f8e1090ed82366b30fb34ac52e233b0",
    "user.svg": "e394c5bc9e03cf662d72a83a06a16c1c62e983d63da8febe575b9a04aab176b4",
    "user_positions.csv": "b708709fc414950e26f0802d7f79d11119d0919cecf51ecde29264587c9aa9b8",
}


def test_written_figures_are_byte_pinned(tmp_path):
    """The positions and SVGs that analyze writes, to the last bit of
    every coordinate."""
    run_pipeline(pin_data(), PipelineConfig(out_dir=tmp_path / "out"))
    figures = tmp_path / "out" / "figures"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in figures.iterdir()}
    assert digests == PINNED_FIGURES


def late_layout():
    """A ``Layout`` whose loop starts late, the later the earlier it was
    built, so that the three figures run side by side finish in reverse
    order. Its ``spaces`` keeps a weak reference to every array of each
    workspace built, and ``finished`` the build index of each loop that
    returned."""

    class LateLayout(viz.Layout):
        spaces, finished = [], []

        def __init__(self, *args):
            super().__init__(*args)
            self.index = len(self.spaces)
            self.spaces.append([weakref.ref(array) for array in self._space])

        def run(self):
            time.sleep(0.1 * (2 - self.index))
            positions = super().run()
            self.finished.append(self.index)
            return positions

    return LateLayout


@pytest.mark.parametrize("workers", [1, 3])
def test_figures_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, workers):
    """The figure pool writes the pinned bytes, and lists them in
    manifest.json in the same order, whatever its size and whichever
    figure finishes first; it leaves no thread running."""
    run_pipeline(pin_data(), PipelineConfig(out_dir=tmp_path / "want"))
    late = late_layout()
    monkeypatch.setattr(paths, "_workers", lambda: workers)
    monkeypatch.setattr(report, "Layout", late)
    threads = threading.active_count()
    run_pipeline(pin_data(), PipelineConfig(out_dir=tmp_path / "got"))
    assert threading.active_count() == threads
    assert late.finished == ([0, 1, 2] if workers == 1 else [2, 1, 0])
    for name in ("manifest.json", *(f"figures/{figure}" for figure in PINNED_FIGURES)):
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()


def test_no_figure_workspace_outlives_its_loop(tmp_path, monkeypatch):
    """Every array of a figure's workspace is freed once its loop returns,
    before the figure is written: none waits for the last export."""
    late = late_layout()
    written = []
    write_positions = report.positions_csv

    def positions_csv(target, positions):
        written.append(len(written))
        for space in late.spaces[: len(written)]:
            assert all(ref() is None for ref in space)
        return write_positions(target, positions)

    monkeypatch.setattr(report, "Layout", late)
    monkeypatch.setattr(report, "positions_csv", positions_csv)
    run_pipeline(pin_data(), PipelineConfig(out_dir=tmp_path / "out"))
    assert len(late.spaces) == len(written) == 3


@pytest.mark.parametrize("empty", ["no-figures", "no-posts"])
def test_no_figure_pool_without_a_figure(tmp_path, monkeypatch, empty):
    started = []
    monkeypatch.setattr(report, "ThreadPoolExecutor", lambda *args: started.append(args))
    if empty == "no-figures":
        run_pipeline(pin_data(), PipelineConfig(out_dir=tmp_path / "out", figures=()))
    else:
        run_pipeline(dataset_from_posts([]), PipelineConfig(out_dir=tmp_path / "out"))
    assert started == []


def test_layout_steps_allocate_no_edge_sized_array():
    """Built, a layout's loop allocates only node-sized arrays and numpy's
    fixed-size loop buffers: the edge spans and pulls are written into the
    workspace. A complete graph has m = n(n - 1)/2 ties."""
    n = 300
    g = make_network([(f"n{i}", f"n{j}") for i in range(n) for j in range(i + 1, n)])
    m = len(g.edges)
    work = viz.Layout(g, seed=3, iterations=2)
    tracemalloc.start()
    try:
        work.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * m


@pytest.mark.parametrize("mode", ["bipartite", "thread"])
def test_layout_bytes_do_not_depend_on_blas_threads(tmp_path, mode):
    """Layout calls nothing BLAS-backed, so the drawing is the same
    whatever thread count BLAS is given."""
    data = tmp_path / "data.json"
    data.write_text(dataset_to_json(pin_data()), encoding="utf-8")
    drawings = []
    for threads in ("1", "2"):
        out = tmp_path / f"{mode}-{threads}.svg"
        result = subprocess.run(
            [sys.executable, "-m", "forumnet", "viz", "--data", str(data), "--mode", mode,
             "--format", "svg", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert result.returncode == 0, result.stderr
        drawings.append(out.read_bytes())
    assert drawings[0] == drawings[1]


def test_analyze_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The path pass sums through scipy's CSR loop, not BLAS, so every
    artifact, betweenness included, is the same whatever thread count
    BLAS is given."""
    synth = SynthConfig(user_count=150, thread_count=180, post_count=1200, skew_alpha=1.5, seed=7)
    data = tmp_path / "data.json"
    data.write_text(dataset_to_json(generate(synth)), encoding="utf-8")
    no_figures = tmp_path / "config.json"
    no_figures.write_text('{"figures": []}', encoding="utf-8")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}"
        result = subprocess.run(
            [sys.executable, "-m", "forumnet", "analyze", "--data", str(data),
             "--out", str(out), "--config", str(no_figures)],
            capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert result.returncode == 0, result.stderr
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert {"user_centrality.csv", "thread_centrality_summary.json"} <= set(runs[0])
    assert runs[0] == runs[1]


def test_layout_rejects_bad_inputs():
    g = star_graph(4)
    with pytest.raises(ValueError):
        layout(g, seed=1, iterations=0)
    with pytest.raises(ValueError):
        layout(make_network([]), seed=1, iterations=5)


def test_layout_settings_out_of_range_name_the_setting():
    """The layout settings are checked by name, as analyze and viz check
    them, before numpy sees the seed."""
    g = star_graph(4)
    for bad in (lambda: layout(g, seed=-1), lambda: viz.Layout(g, -1, 10)):
        with pytest.raises(ConfigError, match="^layout_seed must be >= 0$"):
            bad()
    with pytest.raises(ConfigError, match="^layout_iterations must be >= 1$"):
        viz.Layout(g, 1, 0)


def test_positions_csv_shape():
    g = make_network([("a", "b")])
    text = positions_csv(g, layout(g, seed=2, iterations=5))
    lines = text.splitlines()
    assert lines[0] == "node_id,x,y"
    assert len(lines) == 3
    assert lines[1].startswith("a,")


def test_dot_minimal_graph():
    g = make_network([("a", "b", 2)])
    text = "".join(export_graph(g, format="dot"))
    assert text.count(" -- ") == 1
    assert '"a" -- "b" [weight=2];' in text
    assert text.startswith("graph G {")


def test_dot_quotes_awkward_ids():
    g = make_network([('we"ird', "plain", 1)])
    text = "".join(export_graph(g, format="dot"))
    assert '"we\\"ird"' in text


def test_graphml_empty_graph_is_valid_xml():
    g = make_network([])
    text = "".join(export_graph(g, format="graphml"))
    root = ET.fromstring(text)
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    graph = root.find("g:graph", ns)
    assert graph is not None
    assert graph.get("edgedefault") == "undirected"
    assert graph.findall("g:node", ns) == []


def test_graphml_round_trip_topology_and_weights():
    g = make_network([("a", "b", 3), ("b", "c", 1)], nodes=["d"])
    text = "".join(export_graph(g, format="graphml"))
    root = ET.fromstring(text)
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    graph = root.find("g:graph", ns)
    node_ids = {el.get("id") for el in graph.findall("g:node", ns)}
    assert node_ids == set(g.nodes)
    weight_keys = {
        el.get("id")
        for el in root.findall("g:key", ns)
        if el.get("attr.name") == "weight"
    }
    edges = {}
    for el in graph.findall("g:edge", ns):
        key = edge_key(el.get("source"), el.get("target"))
        data = el.find("g:data", ns)
        assert data.get("key") in weight_keys
        edges[key] = int(data.text)
    assert edges == edge_dict(g)


def test_dot_round_trip_topology_and_weights():
    g = make_network([("a", "b", 3), ("b", "c", 1)])
    text = "".join(export_graph(g, format="dot"))
    edges = {}
    for source, target, weight in re.findall(
        r'"([^"]+)" -- "([^"]+)" \[weight=([0-9.]+)\];', text
    ):
        edges[edge_key(source, target)] = int(float(weight))
    assert edges == edge_dict(g)


def test_svg_triangle_elements():
    g = make_network([("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
    placed = layout(g, seed=5, iterations=40)
    text = "".join(export_graph(g, placed, format="svg"))
    assert text.count("<circle") == 3
    assert text.count("<line") == 3
    assert 'viewBox="0 0 1000 1000"' in text


def test_svg_requires_layout():
    g = make_network([("a", "b")])
    with pytest.raises(ValueError):
        export_graph(g, format="svg")


def test_positions_must_have_one_row_per_node():
    g = make_network([("a", "b")])
    for wrong in (np.zeros((3, 2)), np.zeros((2, 3)), np.zeros(4)):
        with pytest.raises(ValueError, match=r"expected \(2, 2\)"):
            export_graph(g, wrong, format="svg")
        with pytest.raises(ValueError, match=r"expected \(2, 2\)"):
            positions_csv(g, wrong)


def test_svg_node_sizes_scale_radius():
    g = make_network([("a", "b", 1)])
    placed = layout(g, seed=1, iterations=5)
    sized = "".join(export_graph(
        make_network([("a", "b", 1)], node_attr={"a": 10, "b": 1}),
        placed,
        format="svg",
    ))
    radii = [float(r) for r in re.findall(r'r="([0-9.]+)"', sized)]
    assert len(set(radii)) == 2
    plain = "".join(export_graph(g, placed, format="svg"))
    radii_plain = set(re.findall(r'r="([0-9.]+)"', plain))
    assert len(radii_plain) == 1


def test_bipartite_export_marks_modes():
    b = make_bipartite({("u1", "t1"): 2, ("u2", "t1"): 1})
    dot = "".join(export_graph(b, format="dot"))
    assert 'mode="user"' in dot and 'mode="thread"' in dot
    graphml = "".join(export_graph(b, format="graphml"))
    assert "mode" in graphml
    placed = layout(b, seed=4, iterations=30)
    svg = "".join(export_graph(b, placed, format="svg"))
    assert svg.count("<circle") == 2
    assert svg.count("<rect") >= 1  # thread nodes drawn as the second shape


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export_graph(make_network([("a", "b")]), format="png")


def test_layout_result_round_trips_through_csv():
    g = make_network([("a", "b"), ("b", "c")])
    result = layout(g, seed=9, iterations=25)
    text = positions_csv(g, result)
    parsed = {}
    for line in text.splitlines()[1:]:
        node, x, y = line.split(",")
        parsed[node] = [float(x), float(y)]
    assert parsed == dict(zip(g.nodes, result.tolist()))


def test_shared_user_thread_ids_are_mode_qualified():
    """When a user and a thread share an ID, every bipartite node is
    written as user:<id> or thread:<id>, in every format."""
    b = build_bipartite(dataset_from_posts([("1", "1"), ("2", "1"), ("1", "2")]))
    placed = layout(b, seed=1, iterations=5)
    written = [line.split(",")[0] for line in positions_csv(b, placed).splitlines()[1:]]
    assert written == ["user:1", "user:2", "thread:1", "thread:2"]
    dot = "".join(export_graph(b, format="dot"))
    assert '"user:1" -- "thread:2" [weight=1];' in dot
    assert '"thread:2" [mode="thread"];' in dot
    root = ET.fromstring("".join(export_graph(b, format="graphml")))
    ids = [node.get("id") for node in root.iter("{http://graphml.graphdrawing.org/xmlns}node")]
    assert ids == ["user:1", "user:2", "thread:1", "thread:2"]
    svg = "".join(export_graph(b, placed, format="svg"))
    assert re.findall(r"<title>(.*?)</title>", svg) == ids
    # without a shared ID the names are written as they are
    plain = build_bipartite(dataset_from_posts([("u1", "1"), ("u2", "1")]))
    assert '"u1" -- "1" [weight=1];' in "".join(export_graph(plain, format="dot"))


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_xml_escapes_match_saxutils(value):
    assert viz._escape(value) == saxutils.escape(value)
    assert viz._quoteattr(value) == saxutils.quoteattr(value)


def test_cli_import_leaves_urllib_request_out():
    """The XML escapes are local, so no command's start-up loads
    urllib.request (and http.client and email with it)."""
    result = subprocess.run(
        [sys.executable, "-c", "import sys, forumnet.cli; print(*sys.modules)"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "forumnet.viz" in loaded
    assert "urllib.request" not in loaded
