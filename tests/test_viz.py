"""Tie thinning, seeded layout, and graph exports."""

import re
import statistics
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forumnet.viz import (
    LayoutResult,
    ThinningSpec,
    export_graph,
    layout,
    positions_csv,
    thin,
)

from forumnet.graph import build_bipartite

from helpers import (
    dataset_from_posts,
    edge_dict,
    edge_key,
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
    with pytest.raises(ValueError):
        ThinningSpec(k_sd=-0.5)


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
    lands on one of the weights, where one ulp decides what is kept."""
    weights = draw(st.lists(st.integers(1, 10**6), min_size=2, max_size=30))
    mean, sd = statistics.mean(weights), statistics.stdev(weights)
    aimed = [(w - mean) / sd for w in weights if sd > 0 and w > mean]
    k_sd = draw(st.sampled_from(aimed) if aimed and draw(st.booleans()) else st.floats(0, 5))
    return weights, k_sd


@settings(max_examples=300, deadline=None)
@given(thinning_cases(), st.booleans())
@example(([1, 2, 3], 1.0), True)  # exact cutoff 3.0: strict drops the 3
@example(([1, 2, 3], 1.0), False)  # and lenient keeps it
@example(([5, 5, 5, 5], 0.0), False)  # zero spread keeps every tie
def test_thinning_matches_statistics_reference(case, strict):
    weights, k_sd = case
    cutoff = statistics_cutoff(weights, k_sd)
    want = sorted(w for w in weights if (w > cutoff if strict else w >= cutoff))
    thinned = thin(weighted(weights), ThinningSpec(k_sd=k_sd, strict=strict))
    assert sorted(edge_dict(thinned).values()) == want


def test_layout_single_node_centered():
    g = make_network([], nodes=["solo"])
    result = layout(g, seed=1, iterations=10)
    assert result.positions == {"solo": (0.5, 0.5)}


def test_layout_deterministic_per_seed():
    g = star_graph(6)
    a = layout(g, seed=7, iterations=60)
    b = layout(g, seed=7, iterations=60)
    assert a == b
    c = layout(g, seed=8, iterations=60)
    assert a.positions != c.positions


def test_layout_positions_in_unit_square():
    g = star_graph(9)
    result = layout(g, seed=3, iterations=120)
    for x, y in result.positions.values():
        assert 0.0 <= x <= 1.0
        assert 0.0 <= y <= 1.0
    assert set(result.positions) == set(g.nodes)


def test_layout_star_hub_lands_nearest_centroid():
    g = star_graph(9)
    result = layout(g, seed=11, iterations=500)
    pts = {k: np.array(v) for k, v in result.positions.items()}
    centroid = np.mean(list(pts.values()), axis=0)
    dist = {k: float(np.linalg.norm(v - centroid)) for k, v in pts.items()}
    hub = dist.pop("hub")
    assert hub < min(dist.values())


def test_layout_rejects_bad_inputs():
    g = star_graph(4)
    with pytest.raises(ValueError):
        layout(g, seed=1, iterations=0)
    with pytest.raises(ValueError):
        layout(make_network([]), seed=1, iterations=5)


def test_positions_csv_shape():
    g = make_network([("a", "b")])
    text = positions_csv(layout(g, seed=2, iterations=5))
    lines = text.splitlines()
    assert lines[0] == "node_id,x,y"
    assert len(lines) == 3
    assert lines[1].startswith("a,")


def test_dot_minimal_graph():
    g = make_network([("a", "b", 2)])
    text = export_graph(g, format="dot")
    assert text.count(" -- ") == 1
    assert '"a" -- "b" [weight=2];' in text
    assert text.startswith("graph G {")


def test_dot_quotes_awkward_ids():
    g = make_network([('we"ird', "plain", 1)])
    text = export_graph(g, format="dot")
    assert '"we\\"ird"' in text


def test_graphml_empty_graph_is_valid_xml():
    g = make_network([])
    text = export_graph(g, format="graphml")
    root = ET.fromstring(text)
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    graph = root.find("g:graph", ns)
    assert graph is not None
    assert graph.get("edgedefault") == "undirected"
    assert graph.findall("g:node", ns) == []


def test_graphml_round_trip_topology_and_weights():
    g = make_network([("a", "b", 3), ("b", "c", 1)], nodes=["d"])
    text = export_graph(g, format="graphml")
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
    text = export_graph(g, format="dot")
    edges = {}
    for source, target, weight in re.findall(
        r'"([^"]+)" -- "([^"]+)" \[weight=([0-9.]+)\];', text
    ):
        edges[edge_key(source, target)] = int(float(weight))
    assert edges == edge_dict(g)


def test_svg_triangle_elements():
    g = make_network([("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
    placed = layout(g, seed=5, iterations=40)
    text = export_graph(g, layout_result=placed, format="svg")
    assert text.count("<circle") == 3
    assert text.count("<line") == 3
    assert 'viewBox="0 0 1000 1000"' in text


def test_svg_requires_layout():
    g = make_network([("a", "b")])
    with pytest.raises(ValueError):
        export_graph(g, format="svg")


def test_svg_node_sizes_scale_radius():
    g = make_network([("a", "b", 1)])
    placed = layout(g, seed=1, iterations=5)
    sized = export_graph(
        make_network([("a", "b", 1)], node_attr={"a": 10, "b": 1}),
        layout_result=placed,
        format="svg",
    )
    radii = [float(r) for r in re.findall(r'r="([0-9.]+)"', sized)]
    assert len(set(radii)) == 2
    plain = export_graph(g, layout_result=placed, format="svg")
    radii_plain = set(re.findall(r'r="([0-9.]+)"', plain))
    assert len(radii_plain) == 1


def test_bipartite_export_marks_modes():
    b = make_bipartite({("u1", "t1"): 2, ("u2", "t1"): 1})
    dot = export_graph(b, format="dot")
    assert 'mode="user"' in dot and 'mode="thread"' in dot
    graphml = export_graph(b, format="graphml")
    assert "mode" in graphml
    placed = layout(b, seed=4, iterations=30)
    svg = export_graph(b, layout_result=placed, format="svg")
    assert svg.count("<circle") == 2
    assert svg.count("<rect") >= 1  # thread nodes drawn as the second shape


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export_graph(make_network([("a", "b")]), format="png")


def test_layout_result_round_trips_through_csv():
    g = make_network([("a", "b"), ("b", "c")])
    result = layout(g, seed=9, iterations=25)
    text = positions_csv(result)
    parsed = {}
    for line in text.splitlines()[1:]:
        node, x, y = line.split(",")
        parsed[node] = (float(x), float(y))
    assert parsed == result.positions


def test_shared_user_thread_ids_are_mode_qualified():
    """When a user and a thread share an ID, every bipartite node is
    written as user:<id> or thread:<id>, in every format."""
    b = build_bipartite(dataset_from_posts([("1", "1"), ("2", "1"), ("1", "2")]))
    placed = layout(b, seed=1, iterations=5)
    assert sorted(placed.positions) == ["thread:1", "thread:2", "user:1", "user:2"]
    assert positions_csv(placed).splitlines()[1].startswith("user:1,")
    dot = export_graph(b, format="dot")
    assert '"user:1" -- "thread:2" [weight=1];' in dot
    assert '"thread:2" [mode="thread"];' in dot
    root = ET.fromstring(export_graph(b, format="graphml"))
    ids = [node.get("id") for node in root.iter("{http://graphml.graphdrawing.org/xmlns}node")]
    assert ids == ["user:1", "user:2", "thread:1", "thread:2"]
    svg = export_graph(b, layout_result=placed, format="svg")
    assert re.findall(r"<title>(.*?)</title>", svg) == ids
    # without a shared ID the names are written as they are
    plain = build_bipartite(dataset_from_posts([("u1", "1"), ("u2", "1")]))
    assert '"u1" -- "1" [weight=1];' in export_graph(plain, format="dot")
