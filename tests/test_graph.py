"""Bipartite construction, projections, and their matrix-product oracle."""

import hashlib
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forumnet import graph
from forumnet.graph import WEIGHTINGS, build_bipartite, edge_list_csv, node_list_csv, project
from forumnet.synth import SynthConfig, generate
from forumnet.viz import ThinningSpec, _drawing, export_graph, thin

from helpers import (
    adjacency_sets,
    complete_graph,
    csr_rows,
    dataset_from_posts,
    edge_dict,
    edge_key,
    incidence_dict,
    make_bipartite as bip,
    pair_key_projection,
    projection_oracle,
    random_bipartite,
    traced_peak,
)


def test_edge_key_canonical():
    assert edge_key("b", "a") == ("a", "b")
    assert edge_key("a", "b") == ("a", "b")
    with pytest.raises(ValueError):
        edge_key("a", "a")


def test_build_bipartite_counts_posts():
    data = dataset_from_posts([("u1", "t1"), ("u2", "t1"), ("u2", "t1")])
    b = build_bipartite(data)
    assert incidence_dict(b) == {("u1", "t1"): 1, ("u2", "t1"): 2}
    assert b.user_nodes == ("u1", "u2")
    assert b.thread_nodes == ("t1",)


def test_build_bipartite_empty():
    b = build_bipartite(dataset_from_posts([]))
    assert b.user_nodes == ()
    assert b.thread_nodes == ()
    assert incidence_dict(b) == {}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")), max_size=30))
@example([("a", "a"), ("a", "b"), ("b", "a"), ("a", "a")])  # a user and a thread named "a"
def test_build_bipartite_holds_b_csr_rows(posts):
    """B's CSR rows, users by threads: ``indptr`` runs from 0 to k without
    decreasing, each row's threads strictly ascend, and the rows hold the
    posts per (user, thread) pair, k of them. Users and threads draw their
    IDs from one pool, so they often share one."""
    b = build_bipartite(dataset_from_posts(posts))
    k, indptr = len(set(posts)), b.indptr.tolist()
    assert len(b.incidence) == len(b.counts) == k
    assert len(indptr) == len(b.user_nodes) + 1 and indptr[0] == 0 and indptr[-1] == k
    assert all(lo <= hi for lo, hi in zip(indptr, indptr[1:]))
    rows = csr_rows(b.indptr, b.incidence)
    assert rows == sorted(set(rows))  # so each row's threads strictly ascend
    assert incidence_dict(b) == Counter(posts)


def test_incidence_row_sums_match_posts_per_user():
    data = generate(SynthConfig(user_count=25, thread_count=20, post_count=200, seed=4))
    b = build_bipartite(data)
    oracle = Counter(p.user_id for p in data.posts)
    row_sums = Counter()
    for (u, _), count in incidence_dict(b).items():
        row_sums[u] += count
    assert row_sums == oracle


def test_project_chain_example():
    b = bip({("u1", "t1"): 1, ("u2", "t1"): 1, ("u2", "t2"): 1, ("u3", "t2"): 1})
    g_user = project(b, "user")
    assert edge_dict(g_user) == {("u1", "u2"): 1, ("u2", "u3"): 1}
    g_thread = project(b, "thread")
    assert edge_dict(g_thread) == {("t1", "t2"): 1}


def test_project_single_user_single_thread():
    b = bip({("u1", "t1"): 1})
    for mode in ("user", "thread"):
        g = project(b, mode)
        assert len(g.nodes) == 1
        assert edge_dict(g) == {}


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
    assert edge_dict(g) == {("u1", "u2"): 2}


def test_multiplicity_does_not_change_event_weights():
    base = {("u1", "t1"): 1, ("u2", "t1"): 1}
    heavy = {("u1", "t1"): 7, ("u2", "t1"): 3}
    assert edge_dict(project(bip(base), "user")) == edge_dict(project(bip(heavy), "user"))


def test_posts_weighting_multiplies_multiplicities():
    b = bip({("u1", "t1"): 2, ("u2", "t1"): 3, ("u1", "t2"): 1, ("u2", "t2"): 1})
    g = project(b, "user", weighting="posts")
    assert edge_dict(g) == {("u1", "u2"): 7}


def test_unknown_weighting_rejected():
    b = bip({("u1", "t1"): 1})
    with pytest.raises(ValueError):
        project(b, "user", weighting="golden")
    with pytest.raises(ValueError):
        project(b, "forum")


def test_node_attr_user_mode_counts_threads():
    b = bip({("u1", "t1"): 4, ("u1", "t2"): 1, ("u2", "t2"): 1})
    g = project(b, "user")
    assert dict(zip(g.nodes, g.node_attr.tolist())) == {"u1": 2, "u2": 1}


def test_node_attr_thread_mode_counts_participants():
    b = bip({("u1", "t1"): 1, ("u2", "t1"): 5, ("u1", "t2"): 2})
    g = project(b, "thread")
    assert dict(zip(g.nodes, g.node_attr.tolist())) == {"t1": 2, "t2": 1}


def test_solo_poster_stays_as_isolate():
    b = bip({("u1", "t1"): 1, ("u2", "t2"): 1, ("u3", "t2"): 1})
    g = project(b, "user")
    assert "u1" in g.nodes
    assert adjacency_sets(g)["u1"] == set()


def test_projection_invariant_under_post_order():
    rows = [("u1", "t1"), ("u2", "t1"), ("u3", "t2"), ("u1", "t2"), ("u2", "t3")]
    forward = project(build_bipartite(dataset_from_posts(rows)), "user")
    backward = project(build_bipartite(dataset_from_posts(rows[::-1])), "user")
    assert edge_dict(forward) == edge_dict(backward)
    assert forward.nodes == backward.nodes


def test_degree_sum_parity():
    rng = random.Random(13)
    for _ in range(20):
        b = random_bipartite(rng, 8, 6, 0.4)
        for mode in ("user", "thread"):
            g = project(b, mode)
            assert sum(len(ns) for ns in adjacency_sets(g).values()) % 2 == 0


def test_degrees_hold_no_copy_of_the_ends():
    """Each tie counts at both ends, and counting the ends holds far less
    than an int64 copy of all m of them, 8m bytes (1.44 MB here), which
    ``np.bincount`` of the int32 ends takes."""
    g = complete_graph(600)
    assert (g.degrees() == 599).all()
    assert traced_peak(g.degrees) < len(g.edges)


def test_projection_matches_matrix_oracle_20x15():
    rng = random.Random(99)
    b = random_bipartite(rng, 20, 15, 0.3)
    for mode in ("user", "thread"):
        for weighting in ("events", "posts"):
            got = edge_dict(project(b, mode, weighting))
            want = projection_oracle(b, mode, weighting)
            assert got == pytest.approx(want)


def test_edge_list_csv_format():
    b = bip({("u1", "t1"): 1, ("u2", "t1"): 1, ("u1", "t2"): 1, ("u2", "t2"): 1})
    g = project(b, "user")
    assert "".join(edge_list_csv(g)) == "source,target,weight\nu1,u2,2\n"


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
        got = edge_dict(project(b, mode))
        want = projection_oracle(b, mode, "events")
        assert set(got) == set(want)
        for key, weight in want.items():
            assert got[key] == pytest.approx(weight)


# sha256 of each output as written by the name-keyed networks that came
# before the index arrays; no output holds a float, so the digests do not
# depend on the machine
PINNED_DIGESTS = {
    "bipartite.dot": "be70c9de2660c98ec1385877e6ecc9521101b9490d6d425573d9157e770f02a1",
    "user_edges.csv": "979c869dda8e85af9e51481238cf9d217ca62c856a0c635311b00089e31d7b7d",
    "user_nodes.csv": "920565aa0b86b71ea5f312af7a69338ad97528581fc0a71fbba5f74cd37aabc7",
    "user.dot": "d4e58de4ad2ac065f01124df8b873823dd51b80b7ae753548a9cf6219eae0ecf",
    "thread_edges.csv": "addb2af2f48098219c0e5fbb0727887d25575d95859ae1000ccd06d7ff6a75ee",
    "thread_nodes.csv": "c43a81cd50fc8b737f6c024ef3f602d8d5529a23fa04e0fdb50db692860d032e",
    "thread.dot": "551c779d5944bfa6aa3f4a4fa3d24cd259e12b3d6ee5077a8a5eee22f425d99c",
}


def test_written_networks_are_byte_pinned():
    """Node order, edge order and the a < b orientation of every written
    network, thinned projections and the bipartite DOT included."""
    data = generate(
        SynthConfig(user_count=60, thread_count=80, post_count=400, skew_alpha=1.5, seed=3)
    )
    b = build_bipartite(data)
    outputs = {"bipartite.dot": "".join(export_graph(b, format="dot"))}
    for mode in ("user", "thread"):
        g = project(b, mode)
        outputs[f"{mode}_edges.csv"] = "".join(edge_list_csv(g))
        outputs[f"{mode}_nodes.csv"] = node_list_csv(g)
        outputs[f"{mode}.dot"] = "".join(export_graph(thin(g, ThinningSpec()), format="dot"))
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}
    assert digests == PINNED_DIGESTS


INCIDENCES = st.dictionaries(
    st.tuples(st.integers(0, 7).map("u{}".format), st.integers(0, 7).map("t{}".format)),
    st.integers(1, 2**20),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(INCIDENCES, st.one_of(st.integers(1, 40), st.just(graph.PROJECT_BATCH)))
@example({}, graph.PROJECT_BATCH)  # no posts
@example({("u0", "t0"): 3}, graph.PROJECT_BATCH)  # one event of one member
@example({("u0", "t0"): 1, ("u1", "t0"): 2, ("u2", "t0"): 5}, 1)  # one event, a row per batch
@example({("u0", "t0"): 1, ("u1", "t1"): 2, ("u1", "t0"): 1, ("u2", "t2"): 4}, 2)  # isolates
def test_rowwise_projection_is_the_pair_key_projection(cells, batch):
    """Both modes under both weightings give the pair-key oracle's indptr,
    edges, weights and node attributes byte for byte, whether the rows fall in
    one batch or in many: a batch of a few product entries splits the
    rows of any event with more than a couple of members. Post counts up
    to 2**20 give "posts" weights past int32."""
    b = bip(cells)
    with mock.patch.object(graph, "PROJECT_BATCH", batch):
        for mode in ("user", "thread"):
            for weighting in WEIGHTINGS:
                got, want = project(b, mode, weighting), pair_key_projection(b, mode, weighting)
                assert got.nodes == want.nodes
                for name in ("indptr", "edges", "weights", "node_attr"):
                    a, w = getattr(got, name), getattr(want, name)
                    assert (a.dtype, a.shape, a.tobytes()) == (w.dtype, w.shape, w.tobytes()), name


def assert_upper_csr(g) -> None:
    """``g`` holds the CSR rows of an upper triangle: ``indptr`` starts at
    0, never decreases and ends at m, each row's ends rise strictly and lie
    past the row, and ``edges`` is int32, the index dtype at these sizes."""
    n, m, indptr = len(g.nodes), len(g.edges), g.indptr
    assert indptr.dtype == np.int64 and indptr.shape == (n + 1,)
    assert indptr[0] == 0 and (np.diff(indptr) >= 0).all() and indptr[-1] == m
    assert g.edges.dtype == np.int32 and g.edges.shape == g.weights.shape == (m,)
    for i in range(n):
        row = g.edges[indptr[i] : indptr[i + 1]]
        assert (np.diff(row) > 0).all() and (row > i).all() and (row < n).all(), i


@settings(max_examples=100, deadline=None)
@given(INCIDENCES, st.one_of(st.integers(1, 40), st.just(graph.PROJECT_BATCH)),
       st.sampled_from([0.0, 0.5, 1.0]))
@example({}, graph.PROJECT_BATCH, 1.0)  # no posts
def test_every_network_is_an_upper_triangle_csr(cells, batch, k_sd):
    """Projections in both modes under both weightings, in one batch or in
    many, their thinnings, and the one-mode drawing of the bipartite
    network all hold their ties as the CSR rows of an upper triangle."""
    b = bip(cells)
    assert_upper_csr(_drawing(b)[0])
    with mock.patch.object(graph, "PROJECT_BATCH", batch):
        for mode in ("user", "thread"):
            for weighting in WEIGHTINGS:
                g = project(b, mode, weighting)
                assert_upper_csr(g)
                assert_upper_csr(thin(g, ThinningSpec(k_sd=k_sd)))


def test_project_memory_is_the_network_plus_one_batch(monkeypatch):
    """At the paper's skew (α 1.5) the thread projection holds, above the
    network it returns, O(k + n) for the incidence operands and one
    batch's product entries, under 32 bytes each. Holding every pair key
    of every event at once took about 80 bytes per key: 15.0 MB here."""
    b = build_bipartite(generate(
        SynthConfig(user_count=1500, thread_count=1500, post_count=9000, skew_alpha=1.5, seed=7)))
    project(b, "user")  # loading the product loops is not the projection's memory
    monkeypatch.setattr(graph, "PROJECT_BATCH", 1 << 14)
    operands = 64 * (len(b.incidence) + len(b.user_nodes) + len(b.thread_nodes))
    for mode in ("user", "thread"):
        for weighting in WEIGHTINGS:
            g = project(b, mode, weighting)
            held = g.edges.nbytes + g.weights.nbytes + g.node_attr.nbytes
            peak = traced_peak(lambda: project(b, mode, weighting))
            assert peak <= held + operands + 32 * graph.PROJECT_BATCH, (mode, weighting)
