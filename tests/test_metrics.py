"""Structural measures against closed forms and brute-force oracles."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet.graph import BipartiteNetwork, edge_key
from forumnet.metrics import (
    bipartite_density,
    degree_centralization,
    density,
    format_structural_table,
    report_json,
    structural_report,
)

from helpers import (
    complete_graph,
    cycle_graph,
    make_network,
    oracle_diameter_apl,
    path_graph,
    random_graph,
    star_graph,
)


def test_density_examples():
    assert density(complete_graph(3)) == pytest.approx(1.0)
    assert density(path_graph(3)) == pytest.approx(2 / 3)
    assert density(make_network([], nodes=["a"])) == 0.0
    assert density(make_network([])) == 0.0


def test_density_matches_pair_enumeration():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 8))
        n = len(g.nodes)
        present = sum(
            1 for a, b in itertools.combinations(g.nodes, 2) if edge_key(a, b) in g.edges
        )
        assert density(g) == pytest.approx(present / (n * (n - 1) / 2))


def test_centralization_examples():
    assert degree_centralization(star_graph(5)) == pytest.approx(1.0)
    assert degree_centralization(cycle_graph(5)) == pytest.approx(0.0)
    assert degree_centralization(make_network([("a", "b")])) == 0.0


def test_centralization_matches_degree_sequence_formula():
    rng = random.Random(6)
    for _ in range(25):
        g = random_graph(rng, rng.randint(3, 8))
        degrees = g.degree_map()
        top = max(degrees.values())
        n = len(g.nodes)
        expected = sum(top - d for d in degrees.values()) / ((n - 1) * (n - 2))
        assert degree_centralization(g) == pytest.approx(expected)


def test_diameter_examples():
    assert structural_report(path_graph(5)).diameter == 4
    two_triangles = make_network(
        [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")]
    )
    assert structural_report(two_triangles).diameter == 1
    assert structural_report(make_network([], nodes=["a"])).diameter == 0


def test_avg_path_length_examples():
    assert structural_report(path_graph(3)).avg_path_length == pytest.approx(4 / 3)
    assert structural_report(complete_graph(4)).avg_path_length == pytest.approx(1.0)
    assert structural_report(make_network([], nodes=["a", "b"])).avg_path_length == 0.0


def test_distances_match_floyd_warshall_oracle():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.8]))
        want_diam, want_apl = oracle_diameter_apl(g)
        assert structural_report(g).diameter == want_diam
        assert structural_report(g).avg_path_length == pytest.approx(want_apl)


def test_structural_report_path3():
    report = structural_report(path_graph(3))
    assert report.n == 3
    assert report.m == 2
    assert report.density == pytest.approx(2 / 3)
    assert report.centralization == pytest.approx(1.0)
    assert report.diameter == 2
    assert report.avg_path_length == pytest.approx(4 / 3)
    assert report.component_count == 1
    assert report.largest_component_size == 3
    assert report.isolate_count == 0


def test_structural_report_empty():
    report = structural_report(make_network([]))
    assert (report.n, report.m) == (0, 0)
    assert report.density == 0.0
    assert report.centralization == 0.0
    assert report.diameter == 0
    assert report.avg_path_length == 0.0
    assert report.component_count == 0
    assert report.isolate_count == 0


def test_component_bookkeeping():
    g = make_network([("a", "b"), ("b", "c"), ("x", "y")], nodes=["lone"])
    report = structural_report(g)
    assert report.component_count == 3
    assert report.largest_component_size == 3
    assert report.isolate_count == 1


def test_largest_component_tie_break_is_lexicographic():
    # two same-size components; the one holding the smallest id wins
    g = make_network([("m", "n"), ("n", "o"), ("a", "b"), ("b", "c")])
    assert structural_report(g).diameter == 2
    g2 = make_network([("m", "n"), ("n", "o"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    # larger component wins regardless of labels
    assert structural_report(g2).diameter == 4


def test_report_mode_is_carried():
    assert structural_report(path_graph(3)).mode == "user"


@settings(max_examples=40, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda ab: ab[0] != ab[1]),
        max_size=20,
    ),
    st.integers(2, 8),
)
def test_measures_stay_in_unit_range(pairs, n):
    edges = [(f"n{min(a, b)}", f"n{max(a, b)}") for a, b in pairs if a < n and b < n]
    g = make_network(edges, nodes=[f"n{i}" for i in range(n)])
    assert 0.0 <= density(g) <= 1.0
    assert 0.0 <= degree_centralization(g) <= 1.0
    rep = structural_report(g)
    assert rep.avg_path_length <= rep.diameter or len(g.nodes) < 2


def test_measures_invariant_under_relabeling():
    rng = random.Random(8)
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"), ("e", "a")]
    g = make_network(edges)
    names = list("abcde")
    for _ in range(10):
        shuffled = names[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(names, shuffled))
        relabeled = make_network([(mapping[a], mapping[b]) for a, b in edges])
        assert density(relabeled) == pytest.approx(density(g))
        assert degree_centralization(relabeled) == pytest.approx(degree_centralization(g))
        got, want = structural_report(relabeled), structural_report(g)
        assert got.diameter == want.diameter
        assert got.avg_path_length == pytest.approx(want.avg_path_length)


def test_adding_edge_monotonicity_on_connected_graphs():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(3, 7)
        g = path_graph(n)  # connected baseline
        extra = [
            (a, b)
            for a, b in itertools.combinations(g.nodes, 2)
            if edge_key(a, b) not in g.edges
        ]
        rng.shuffle(extra)
        current = g
        for a, b in extra[:4]:
            grown = make_network(
                list(current.edges) + [(a, b)], nodes=current.nodes
            )
            assert density(grown) >= density(current)
            assert structural_report(grown).diameter <= structural_report(current).diameter
            current = grown


def test_report_json_fields_and_provenance():
    payload = json.loads(report_json(structural_report(path_graph(3)), {"tool": "x"}))
    expected_keys = {
        "mode",
        "n",
        "m",
        "density",
        "centralization",
        "diameter",
        "avg_path_length",
        "component_count",
        "largest_component_size",
        "isolate_count",
        "provenance",
    }
    assert set(payload) == expected_keys
    assert payload["density"] == 2 / 3
    assert payload["provenance"] == {"tool": "x"}


def test_text_table_two_decimal_columns():
    table = format_structural_table(
        [structural_report(path_graph(3)), structural_report(cycle_graph(4))]
    )
    lines = table.splitlines()
    assert "Density" in table and "Average path length" in table
    assert any("0.67" in line for line in lines)
    header = lines[0]
    assert "User (n=3)" in header
    assert "(n=4)" in header


def test_bipartite_density():
    b = BipartiteNetwork(
        user_nodes=("u1", "u2"),
        thread_nodes=("t1", "t2", "t3"),
        incidence={("u1", "t1"): 1, ("u2", "t2"): 4, ("u1", "t3"): 2},
    )
    assert bipartite_density(b) == pytest.approx(3 / 6)
    empty = BipartiteNetwork(user_nodes=(), thread_nodes=(), incidence={})
    assert bipartite_density(empty) == 0.0
