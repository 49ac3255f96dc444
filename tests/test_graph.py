"""Bipartite construction, projections, and their matrix-product oracle."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet.graph import (
    BipartiteNetwork,
    build_bipartite,
    edge_key,
    edge_list_csv,
    node_list_csv,
    project,
)
from forumnet.synth import SynthConfig, generate

from helpers import dataset_from_posts, projection_oracle, random_bipartite


def bip(incidence) -> BipartiteNetwork:
    users = tuple(sorted({u for u, _ in incidence}))
    threads = tuple(sorted({t for _, t in incidence}))
    return BipartiteNetwork(user_nodes=users, thread_nodes=threads, incidence=dict(incidence))


def test_edge_key_canonical():
    assert edge_key("b", "a") == ("a", "b")
    assert edge_key("a", "b") == ("a", "b")
    with pytest.raises(ValueError):
        edge_key("a", "a")


def test_build_bipartite_counts_posts():
    data = dataset_from_posts([("u1", "t1"), ("u2", "t1"), ("u2", "t1")])
    b = build_bipartite(data)
    assert b.incidence == {("u1", "t1"): 1, ("u2", "t1"): 2}
    assert b.user_nodes == ("u1", "u2")
    assert b.thread_nodes == ("t1",)


def test_build_bipartite_empty():
    b = build_bipartite(dataset_from_posts([]))
    assert b.user_nodes == ()
    assert b.thread_nodes == ()
    assert b.incidence == {}


def test_incidence_row_sums_match_posts_per_user():
    data = generate(SynthConfig(user_count=25, thread_count=20, post_count=200, seed=4))
    b = build_bipartite(data)
    oracle = Counter(p.user_id for p in data.posts)
    row_sums = Counter()
    for (u, _), count in b.incidence.items():
        row_sums[u] += count
    assert row_sums == oracle


def test_project_chain_example():
    b = bip({("u1", "t1"): 1, ("u2", "t1"): 1, ("u2", "t2"): 1, ("u3", "t2"): 1})
    g_user = project(b, "user")
    assert g_user.edges == {("u1", "u2"): 1, ("u2", "u3"): 1}
    g_thread = project(b, "thread")
    assert g_thread.edges == {("t1", "t2"): 1}


def test_project_single_user_single_thread():
    b = bip({("u1", "t1"): 1})
    for mode in ("user", "thread"):
        g = project(b, mode)
        assert len(g.nodes) == 1
        assert g.edges == {}


def test_tie_weight_counts_distinct_shared_threads():
    b = bip(
        {
            ("u1", "t1"): 1,
            ("u2", "t1"): 1,
            ("u1", "t2"): 1,
            ("u2", "t2"): 1,
            ("u1", "t3"): 1,
        }
    )
    g = project(b, "user")
    assert g.edges == {("u1", "u2"): 2}


def test_multiplicity_does_not_change_event_weights():
    base = {("u1", "t1"): 1, ("u2", "t1"): 1}
    heavy = {("u1", "t1"): 7, ("u2", "t1"): 3}
    assert project(bip(base), "user").edges == project(bip(heavy), "user").edges


def test_posts_weighting_multiplies_multiplicities():
    b = bip({("u1", "t1"): 2, ("u2", "t1"): 3, ("u1", "t2"): 1, ("u2", "t2"): 1})
    g = project(b, "user", weighting="posts")
    assert g.edges == {("u1", "u2"): 7}


def test_unknown_weighting_rejected():
    b = bip({("u1", "t1"): 1})
    with pytest.raises(ValueError):
        project(b, "user", weighting="golden")
    with pytest.raises(ValueError):
        project(b, "forum")


def test_node_attr_user_mode_counts_threads():
    b = bip({("u1", "t1"): 4, ("u1", "t2"): 1, ("u2", "t2"): 1})
    g = project(b, "user")
    assert g.node_attr == {"u1": 2, "u2": 1}


def test_node_attr_thread_mode_counts_participants():
    b = bip({("u1", "t1"): 1, ("u2", "t1"): 5, ("u1", "t2"): 2})
    g = project(b, "thread")
    assert g.node_attr == {"t1": 2, "t2": 1}


def test_solo_poster_stays_as_isolate():
    b = bip({("u1", "t1"): 1, ("u2", "t2"): 1, ("u3", "t2"): 1})
    g = project(b, "user")
    assert "u1" in g.nodes
    assert g.degree_map()["u1"] == 0


def test_projection_invariant_under_post_order():
    rows = [("u1", "t1"), ("u2", "t1"), ("u3", "t2"), ("u1", "t2"), ("u2", "t3")]
    forward = project(build_bipartite(dataset_from_posts(rows)), "user")
    backward = project(build_bipartite(dataset_from_posts(rows[::-1])), "user")
    assert forward.edges == backward.edges
    assert forward.nodes == backward.nodes


def test_degree_sum_parity():
    rng = random.Random(13)
    for _ in range(20):
        b = random_bipartite(rng, 8, 6, 0.4)
        for mode in ("user", "thread"):
            g = project(b, mode)
            assert sum(g.degree_map().values()) % 2 == 0


def test_projection_matches_matrix_oracle_20x15():
    rng = random.Random(99)
    b = random_bipartite(rng, 20, 15, 0.3)
    for mode in ("user", "thread"):
        for weighting in ("events", "posts"):
            got = project(b, mode, weighting).edges
            want = projection_oracle(b, mode, weighting)
            assert got == pytest.approx(want)


def test_edge_list_csv_format():
    b = bip({("u1", "t1"): 1, ("u2", "t1"): 1, ("u1", "t2"): 1, ("u2", "t2"): 1})
    g = project(b, "user")
    assert edge_list_csv(g) == "source,target,weight\nu1,u2,2\n"


def test_node_list_csv_format():
    b = bip({("u1", "t1"): 1, ("u2", "t1"): 1})
    g = project(b, "user")
    assert node_list_csv(g) == "id,attr\nu1,1\nu2,1\n"


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 5), st.integers(1, 3)),
        min_size=1,
        max_size=25,
    )
)
def test_projection_oracle_property(cells):
    incidence = {}
    for u, t, count in cells:
        incidence[(f"u{u}", f"t{t}")] = count
    b = bip(incidence)
    for mode in ("user", "thread"):
        got = project(b, mode).edges
        want = projection_oracle(b, mode, "events")
        assert set(got) == set(want)
        for key, weight in want.items():
            assert got[key] == pytest.approx(weight)
