"""Per-node centrality against enumeration oracles and hand values."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet.centrality import (
    betweenness_centrality,
    bipartite_degree_centrality,
    centrality_table,
    closeness_centrality,
    core_json,
    core_set,
    degree_centrality,
    histogram_csv,
    silent_initiators,
    summaries_json,
    table_csv,
)
from forumnet.graph import project

from helpers import (
    complete_graph,
    cycle_graph,
    edge_dict,
    make_bipartite,
    make_network,
    naive_betweenness,
    naive_betweenness_raw,
    path_graph,
    random_graph,
    star_graph,
)


def test_degree_star_example():
    g = star_graph(5)
    values = degree_centrality(g)
    assert values["hub"] == pytest.approx(1.0)
    for leaf in g.nodes:
        if leaf != "hub":
            assert values[leaf] == pytest.approx(0.25)


def test_degree_isolate_and_singleton():
    g = make_network([("a", "b")], nodes=["c"])
    assert degree_centrality(g)["c"] == 0.0
    assert degree_centrality(make_network([], nodes=["only"])) == {"only": 0.0}


def test_degree_matches_neighbor_enumeration():
    rng = random.Random(21)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        n = len(g.nodes)
        values = degree_centrality(g)
        for node in g.nodes:
            count = sum(1 for (a, b) in edge_dict(g) if node in (a, b))
            assert values[node] == pytest.approx(count / (n - 1))


def test_closeness_path_and_complete():
    values = closeness_centrality(path_graph(3))
    assert values["n00"] == pytest.approx(2 / 3)
    assert values["n01"] == pytest.approx(1.0)
    assert values["n02"] == pytest.approx(2 / 3)
    assert all(v == pytest.approx(1.0) for v in closeness_centrality(complete_graph(4)).values())


def test_closeness_penalizes_disconnection():
    g = make_network([("a", "b"), ("b", "c"), ("a", "c")], nodes=["iso"])
    values = closeness_centrality(g)
    for node in ("a", "b", "c"):
        assert values[node] == pytest.approx((2 / 3) * (2 / 2))
    assert values["iso"] == 0.0


def test_closeness_matches_component_bfs_oracle():
    rng = random.Random(22)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8), 0.35)
        n = len(g.nodes)
        values = closeness_centrality(g)
        from helpers import floyd_warshall

        dist = floyd_warshall(g)
        for node in g.nodes:
            finite = [
                dist[(node, other)]
                for other in g.nodes
                if other != node and dist[(node, other)] != float("inf")
            ]
            r = len(finite)
            if r == 0:
                assert values[node] == 0.0
            else:
                expected = (r / (n - 1)) * (r / sum(finite))
                assert values[node] == pytest.approx(expected)


def test_betweenness_path_example():
    values = betweenness_centrality(path_graph(3))
    assert values["n01"] == pytest.approx(1.0)
    assert values["n00"] == pytest.approx(0.0)
    assert values["n02"] == pytest.approx(0.0)


def test_betweenness_cycle4():
    values = betweenness_centrality(cycle_graph(4))
    for node in cycle_graph(4).nodes:
        assert values[node] == pytest.approx(0.5 / 3)


def test_betweenness_star_center_is_one():
    for n in (4, 6, 8):
        values = betweenness_centrality(star_graph(n))
        assert values["hub"] == pytest.approx(1.0)
        assert all(v == pytest.approx(0.0) for k, v in values.items() if k != "hub")


def test_betweenness_small_graph_conventions():
    assert betweenness_centrality(make_network([("a", "b")])) == {"a": 0.0, "b": 0.0}
    assert betweenness_centrality(make_network([], nodes=["x"])) == {"x": 0.0}


def test_betweenness_matches_enumeration_oracle():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.25, 0.5, 0.75]))
        got = betweenness_centrality(g)
        want = naive_betweenness(g)
        for node in g.nodes:
            assert got[node] == pytest.approx(want[node], abs=1e-9)


def test_raw_betweenness_total_matches_oracle_total():
    rng = random.Random(24)
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        n = len(g.nodes)
        scale = (n - 1) * (n - 2) / 2.0
        got_total = sum(betweenness_centrality(g).values()) * scale
        want_total = sum(naive_betweenness_raw(g).values())
        assert got_total == pytest.approx(want_total, abs=1e-9)


def test_vertex_transitive_graphs_have_uniform_centralities():
    for g in (cycle_graph(6), complete_graph(5)):
        for mapping in (degree_centrality(g), closeness_centrality(g), betweenness_centrality(g)):
            values = list(mapping.values())
            assert max(values) - min(values) < 1e-12


def test_tree_leaves_have_zero_betweenness():
    tree = make_network([("r", "a"), ("r", "b"), ("a", "c"), ("a", "d")])
    values = betweenness_centrality(tree)
    for leaf in ("b", "c", "d"):
        assert values[leaf] == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda ab: ab[0] < ab[1]),
        max_size=15,
    )
)
def test_centralities_bounded_property(pairs):
    g = make_network([(f"n{a}", f"n{b}") for a, b in pairs], nodes=[f"n{i}" for i in range(7)])
    for mapping in (degree_centrality(g), closeness_centrality(g), betweenness_centrality(g)):
        for value in mapping.values():
            assert -1e-12 <= value <= 1.0 + 1e-12


def test_table_summaries_path3():
    table = centrality_table(path_graph(3))
    deg = table.summaries["degree"]
    assert deg.min == pytest.approx(0.5)
    assert deg.median == pytest.approx(0.5)
    assert deg.max == pytest.approx(1.0)
    assert deg.mean == pytest.approx(2 / 3)


def test_table_single_node_all_zero():
    table = centrality_table(make_network([], nodes=["solo"]))
    row = table.rows[0]
    assert (row.degree, row.closeness, row.betweenness) == (0.0, 0.0, 0.0)


def test_table_even_count_median_is_midpoint_mean():
    g = make_network([("a", "b"), ("c", "d")])
    table = centrality_table(g)
    degrees = sorted(row.degree for row in table.rows)
    expected = (degrees[1] + degrees[2]) / 2
    assert table.summaries["degree"].median == pytest.approx(expected)


def test_table_summaries_recomputable_from_rows():
    rng = random.Random(25)
    g = random_graph(rng, 8, 0.4)
    table = centrality_table(g)
    for measure in ("degree", "closeness", "betweenness"):
        values = np.array([getattr(row, measure) for row in table.rows])
        summary = table.summaries[measure]
        assert summary.min == pytest.approx(values.min())
        assert summary.max == pytest.approx(values.max())
        assert summary.mean == pytest.approx(values.mean())
        assert summary.median == pytest.approx(np.median(values))
        assert summary.q1 == pytest.approx(np.quantile(values, 0.25))
        assert summary.q3 == pytest.approx(np.quantile(values, 0.75))


def test_table_histogram_sums_to_node_count():
    g = star_graph(6)
    table = centrality_table(g)
    for measure in ("degree", "closeness", "betweenness"):
        assert sum(table.histograms[measure]) == len(g.nodes)
        assert len(table.histograms[measure]) == 50


def test_table_includes_isolates():
    g = make_network([("a", "b")], nodes=["iso"])
    table = centrality_table(g)
    by_id = {row.node: row for row in table.rows}
    assert by_id["iso"].degree == 0.0
    assert by_id["iso"].closeness == 0.0
    assert by_id["iso"].betweenness == 0.0


def test_core_set_threshold_examples():
    g = make_network(
        [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("b", "c")],
    )
    table = centrality_table(g)
    core = core_set(table, 0.20)
    assert "a" in core.members
    assert core_set(table, 0.0).members == set(g.nodes)
    star = centrality_table(star_graph(6))
    assert core_set(star, 1.0).members == {"hub"}
    with pytest.raises(ValueError):
        core_set(table, 1.5)


def test_core_set_boundary_is_inclusive():
    g = star_graph(5)  # leaves at exactly 0.25
    table = centrality_table(g)
    core = core_set(table, 0.25)
    assert core.members == set(g.nodes)


def test_core_set_roles():
    table = centrality_table(star_graph(4))
    core = core_set(table, 0.5, roles={"hub": "moderator"})
    assert core.roles["hub"] == "moderator"
    assert all(role == "unknown" for node, role in core.roles.items() if node != "hub")


def test_silent_initiators_listed_with_count():
    incidence = {("quiet", f"t{i:02d}"): 1 for i in range(21)}
    incidence[("a", "t99")] = 1
    incidence[("b", "t99")] = 1
    b = make_bipartite(incidence)
    g = project(b, "user")
    assert silent_initiators(b, g, 21) == [("quiet", 21)]


def test_silent_initiators_exclude_connected_users():
    incidence = {}
    for i in range(5):
        incidence[("chatty", f"t{i}")] = 1
        incidence[("other", f"t{i}")] = 1
    b = make_bipartite(incidence)
    g = project(b, "user")
    assert silent_initiators(b, g, 1) == []


def test_silent_initiators_mode_mismatch_raises():
    b = make_bipartite({("u1", "t1"): 1})
    g_thread = project(b, "thread")
    with pytest.raises(ValueError):
        silent_initiators(b, g_thread, 1)


def test_degree_ranking_invariant_under_weighting_flag():
    incidence = {
        ("u1", "t1"): 5,
        ("u2", "t1"): 1,
        ("u2", "t2"): 9,
        ("u3", "t2"): 2,
        ("u3", "t3"): 1,
        ("u1", "t3"): 1,
        ("u4", "t3"): 1,
    }
    b = make_bipartite(incidence)
    by_events = degree_centrality(project(b, "user", "events"))
    by_posts = degree_centrality(project(b, "user", "posts"))
    rank = lambda m: sorted(m, key=lambda k: (-m[k], k))
    assert rank(by_events) == rank(by_posts)
    assert by_events == by_posts


def test_bipartite_degree_centrality():
    b = make_bipartite(
        {("u1", "t1"): 1, ("u1", "t2"): 1, ("u1", "t3"): 1, ("u2", "t1"): 1}
    )
    users = bipartite_degree_centrality(b, "user")
    assert users["u1"] == pytest.approx(1.0)
    assert users["u2"] == pytest.approx(1 / 3)
    threads = bipartite_degree_centrality(b, "thread")
    assert threads["t1"] == pytest.approx(1.0)
    assert threads["t2"] == pytest.approx(0.5)


def test_table_csv_shape():
    text = table_csv(centrality_table(path_graph(3)))
    lines = text.splitlines()
    assert lines[0] == "node_id,degree,closeness,betweenness"
    assert len(lines) == 4
    assert lines[2].startswith("n01,1.0,1.0,1.0")


def test_summaries_json_shape():
    payload = json.loads(summaries_json(centrality_table(path_graph(3)), {"v": 1}))
    assert set(payload["measures"]) == {"degree", "closeness", "betweenness"}
    assert payload["provenance"] == {"v": 1}
    assert payload["mode"] == "user"


def test_histogram_csv_shape():
    text = histogram_csv(centrality_table(path_graph(3)), "degree")
    lines = text.splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 51
    with pytest.raises(ValueError):
        histogram_csv(centrality_table(path_graph(3)), "sway")


def test_core_json_shape():
    core = core_set(centrality_table(star_graph(4)), 0.5, roles={"hub": "moderator"})
    payload = json.loads(core_json(core, {"v": 2}))
    assert payload["threshold"] == 0.5
    assert payload["members"] == ["hub"]
    assert payload["roles"]["hub"] == "moderator"
    assert payload["provenance"] == {"v": 2}
