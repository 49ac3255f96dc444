"""Structural measures against closed forms and brute-force oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet import paths
from forumnet.errors import ConfigError
from forumnet.graph import project
from forumnet.metrics import (
    bipartite_report,
    degree_centralization,
    density,
    format_structural_table,
    structural_report,
)
from forumnet.paths import path_stats

from helpers import (
    adjacency_sets,
    complete_graph,
    cycle_graph,
    edge_dict,
    edge_key,
    make_bipartite,
    make_network,
    one_mode,
    oracle_components,
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
            1 for a, b in itertools.combinations(g.nodes, 2) if edge_key(a, b) in edge_dict(g)
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
        degrees = {node: len(ns) for node, ns in adjacency_sets(g).items()}
        top = max(degrees.values())
        n = len(g.nodes)
        expected = sum(top - d for d in degrees.values()) / ((n - 1) * (n - 2))
        assert degree_centralization(g) == pytest.approx(expected)


def test_diameter_examples():
    path5 = path_graph(5)
    assert structural_report(path5, path_stats(path5)).diameter == 4
    two_triangles = make_network(
        [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")]
    )
    assert structural_report(two_triangles, path_stats(two_triangles)).diameter == 1
    single = make_network([], nodes=["a"])
    assert structural_report(single, path_stats(single)).diameter == 0


def test_avg_path_length_examples():
    for g, want in (
        (path_graph(3), 4 / 3),
        (complete_graph(4), 1.0),
        (make_network([], nodes=["a", "b"]), 0.0),
    ):
        assert structural_report(g, path_stats(g)).avg_path_length == pytest.approx(want)


def test_distances_match_floyd_warshall_oracle():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.8]))
        want_diam, want_apl = oracle_diameter_apl(g)
        report = structural_report(g, path_stats(g))
        assert report.diameter == want_diam
        assert report.avg_path_length == pytest.approx(want_apl)


def test_floyd_warshall_oracle_across_several_source_blocks(monkeypatch):
    """Graphs of up to 8 nodes span several blocks of 2 sources."""
    monkeypatch.setattr(paths, "SOURCE_BLOCK", 2)
    test_distances_match_floyd_warshall_oracle()
    test_components_and_isolates_match_oracle()


def test_structural_report_path3():
    g = path_graph(3)
    report = structural_report(g, path_stats(g))
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
    g = make_network([])
    report = structural_report(g, path_stats(g))
    assert (report.n, report.m) == (0, 0)
    assert report.density == 0.0
    assert report.centralization == 0.0
    assert report.diameter == 0
    assert report.avg_path_length == 0.0
    assert report.component_count == 0
    assert report.isolate_count == 0


def test_component_bookkeeping():
    g = make_network([("a", "b"), ("b", "c"), ("x", "y")], nodes=["lone"])
    report = structural_report(g, path_stats(g))
    assert report.component_count == 3
    assert report.largest_component_size == 3
    assert report.isolate_count == 1


def test_largest_component_tie_break_is_lexicographic():
    # two same-size components; the one holding the smallest id wins
    g = make_network([("m", "n"), ("n", "o"), ("a", "b"), ("b", "c")])
    assert structural_report(g, path_stats(g)).diameter == 2
    g2 = make_network([("m", "n"), ("n", "o"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    # larger component wins regardless of labels
    assert structural_report(g2, path_stats(g2)).diameter == 4


@st.composite
def shuffled_components(draw):
    """A graph of small components, often of equal size and with isolates,
    whose node order is shuffled so index order and name order differ."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    names = draw(st.permutations([f"v{i:02d}" for i in range(sum(sizes))]))
    edges, start = {}, 0
    for size in sizes:
        members = names[start:start + size]
        start += size
        # a spanning path keeps the component whole; chords vary its shape
        chords = [pair for pair in itertools.combinations(members, 2) if draw(st.booleans())]
        for a, b in list(zip(members, members[1:])) + chords:
            edges[edge_key(a, b)] = 1
    return one_mode(draw(st.permutations(names)), edges)


@settings(max_examples=60, deadline=None)
@given(shuffled_components())
def test_components_and_isolates_match_oracle(g):
    assert path_stats(g).components == oracle_components(g)
    isolates = sum(1 for neighbors in adjacency_sets(g).values() if not neighbors)
    assert structural_report(g, path_stats(g)).isolate_count == isolates


def test_report_mode_is_carried():
    g = path_graph(3)
    assert structural_report(g, path_stats(g)).mode == "user"


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
    rep = structural_report(g, path_stats(g))
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
        got = structural_report(relabeled, path_stats(relabeled))
        want = structural_report(g, path_stats(g))
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
            if edge_key(a, b) not in edge_dict(g)
        ]
        rng.shuffle(extra)
        current = g
        for a, b in extra[:4]:
            grown = make_network(
                list(edge_dict(current)) + [(a, b)], nodes=current.nodes
            )
            assert density(grown) >= density(current)
            grown_diameter = structural_report(grown, path_stats(grown)).diameter
            assert grown_diameter <= structural_report(current, path_stats(current)).diameter
            current = grown


def test_report_to_dict_fields():
    g = path_graph(3)
    payload = structural_report(g, path_stats(g)).to_dict()
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
    }
    assert set(payload) == expected_keys
    assert payload["density"] == 2 / 3


def test_text_table_two_decimal_columns():
    table = format_structural_table(
        [structural_report(g, path_stats(g)) for g in (path_graph(3), cycle_graph(4))]
    )
    lines = table.splitlines()
    assert "Density" in table and "Average path length" in table
    assert any("0.67" in line for line in lines)
    header = lines[0]
    assert "User (n=3)" in header
    assert "(n=4)" in header


def test_bipartite_density():
    """Density over the user x thread grid, read from the projections."""
    report = lambda b: bipartite_report(project(b, "user"), project(b, "thread"))
    b = make_bipartite({("u1", "t1"): 1, ("u2", "t2"): 4, ("u1", "t3"): 2})
    assert report(b)["density"] == pytest.approx(3 / 6)
    assert report(make_bipartite({})) == {"density": 0.0, "user_degree": {}, "thread_degree": {}}


def test_bipartite_report_takes_the_user_then_the_thread_projection():
    b = make_bipartite({("u1", "t1"): 1, ("u2", "t2"): 4, ("u1", "t3"): 2})
    users, threads = project(b, "user"), project(b, "thread")
    for pair in ((threads, users), (users, users), (threads, threads)):
        with pytest.raises(ConfigError, match="user and thread projections"):
            bipartite_report(*pair)
