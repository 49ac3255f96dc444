"""Per-node centrality against enumeration oracles and hand values."""

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet import paths
from forumnet.centrality import (
    MEASURES,
    centrality_table,
    core_set,
    histogram_csv,
    silent_initiators,
    summaries,
    table_csv,
)
from forumnet.graph import build_bipartite, project
from forumnet.metrics import bipartite_report
from forumnet.paths import path_stats
from forumnet.report import PipelineConfig, run_pipeline
from forumnet.synth import SynthConfig, generate

from helpers import (
    by_node,
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
    values = by_node(centrality_table(g, path_stats(g)), "degree")
    assert values["hub"] == pytest.approx(1.0)
    for leaf in g.nodes:
        if leaf != "hub":
            assert values[leaf] == pytest.approx(0.25)


def test_degree_isolate_and_singleton():
    g = make_network([("a", "b")], nodes=["c"])
    assert by_node(centrality_table(g, path_stats(g)), "degree")["c"] == 0.0
    only = make_network([], nodes=["only"])
    assert by_node(centrality_table(only, path_stats(only)), "degree") == {"only": 0.0}


def test_degree_matches_neighbor_enumeration():
    rng = random.Random(21)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        n = len(g.nodes)
        values = by_node(centrality_table(g, path_stats(g)), "degree")
        for node in g.nodes:
            count = sum(1 for (a, b) in edge_dict(g) if node in (a, b))
            assert values[node] == pytest.approx(count / (n - 1))


def test_closeness_path_and_complete():
    g = path_graph(3)
    values = by_node(centrality_table(g, path_stats(g)), "closeness")
    assert values["n00"] == pytest.approx(2 / 3)
    assert values["n01"] == pytest.approx(1.0)
    assert values["n02"] == pytest.approx(2 / 3)
    k4 = complete_graph(4)
    complete = by_node(centrality_table(k4, path_stats(k4)), "closeness")
    assert all(v == pytest.approx(1.0) for v in complete.values())


def test_closeness_penalizes_disconnection():
    g = make_network([("a", "b"), ("b", "c"), ("a", "c")], nodes=["iso"])
    values = by_node(centrality_table(g, path_stats(g)), "closeness")
    for node in ("a", "b", "c"):
        assert values[node] == pytest.approx((2 / 3) * (2 / 2))
    assert values["iso"] == 0.0


def test_closeness_matches_component_bfs_oracle():
    rng = random.Random(22)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8), 0.35)
        n = len(g.nodes)
        values = by_node(centrality_table(g, path_stats(g)), "closeness")
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
    g = path_graph(3)
    values = by_node(centrality_table(g, path_stats(g)), "betweenness")
    assert values["n01"] == pytest.approx(1.0)
    assert values["n00"] == pytest.approx(0.0)
    assert values["n02"] == pytest.approx(0.0)


def test_betweenness_cycle4():
    g = cycle_graph(4)
    values = by_node(centrality_table(g, path_stats(g)), "betweenness")
    for node in g.nodes:
        assert values[node] == pytest.approx(0.5 / 3)


def test_betweenness_star_center_is_one():
    for n in (4, 6, 8):
        g = star_graph(n)
        values = by_node(centrality_table(g, path_stats(g)), "betweenness")
        assert values["hub"] == pytest.approx(1.0)
        assert all(v == pytest.approx(0.0) for k, v in values.items() if k != "hub")


def test_betweenness_small_graph_conventions():
    pair = make_network([("a", "b")])
    assert by_node(centrality_table(pair, path_stats(pair)), "betweenness") == {"a": 0.0, "b": 0.0}
    single = make_network([], nodes=["x"])
    assert by_node(centrality_table(single, path_stats(single)), "betweenness") == {"x": 0.0}


def test_betweenness_matches_enumeration_oracle():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.25, 0.5, 0.75]))
        got = by_node(centrality_table(g, path_stats(g)), "betweenness")
        want = naive_betweenness(g)
        for node in g.nodes:
            assert got[node] == pytest.approx(want[node], abs=1e-9)


def test_raw_betweenness_total_matches_oracle_total():
    rng = random.Random(24)
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        n = len(g.nodes)
        scale = (n - 1) * (n - 2) / 2.0
        got = by_node(centrality_table(g, path_stats(g)), "betweenness")
        got_total = sum(got.values()) * scale
        want_total = sum(naive_betweenness_raw(g).values())
        assert got_total == pytest.approx(want_total, abs=1e-9)


def test_oracles_agree_across_several_source_blocks(monkeypatch):
    """Graphs of up to 8 nodes span several blocks of 2 sources."""
    monkeypatch.setattr(paths, "SOURCE_BLOCK", 2)
    test_closeness_matches_component_bfs_oracle()
    test_betweenness_matches_enumeration_oracle()
    test_raw_betweenness_total_matches_oracle_total()


def test_near_complete_graph_keeps_exact_betweenness():
    """K5 minus a-b has more than half of all pairs tied, so its search
    sums over the absent ties; a and b still get exactly 0.0."""
    g = make_network([(x, y) for x, y in itertools.combinations("abcde", 2) if x + y != "ab"])
    assert path_stats(g).betweenness.tolist() == [0.0, 0.0, 1 / 3, 1 / 3, 1 / 3]


def test_structural_only_stats_are_refused():
    """Stats taken without betweenness are not enough for the table, which
    never runs a pass of its own: it refuses them, naming what is missing."""
    data = generate(SynthConfig(user_count=30, thread_count=20, post_count=200, seed=1))
    g = project(build_bipartite(data), "user")
    with pytest.raises(ValueError, match="betweenness"):
        centrality_table(g, path_stats(g, betweenness=False))


def test_vertex_transitive_graphs_have_uniform_centralities():
    for g in (cycle_graph(6), complete_graph(5)):
        table = centrality_table(g, path_stats(g))
        for measure in MEASURES:
            assert np.ptp(table.columns[measure]) < 1e-12


def test_tree_leaves_have_zero_betweenness():
    tree = make_network([("r", "a"), ("r", "b"), ("a", "c"), ("a", "d")])
    values = by_node(centrality_table(tree, path_stats(tree)), "betweenness")
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
    table = centrality_table(g, path_stats(g))
    for measure in MEASURES:
        for value in table.columns[measure].tolist():
            assert -1e-12 <= value <= 1.0 + 1e-12


def test_table_summaries_path3():
    g = path_graph(3)
    deg = summaries(centrality_table(g, path_stats(g)))["measures"]["degree"]
    assert deg["min"] == pytest.approx(0.5)
    assert deg["median"] == pytest.approx(0.5)
    assert deg["max"] == pytest.approx(1.0)
    assert deg["mean"] == pytest.approx(2 / 3)


def test_table_single_node_all_zero():
    g = make_network([], nodes=["solo"])
    table = centrality_table(g, path_stats(g))
    assert [table.columns[measure].tolist() for measure in MEASURES] == [[0.0]] * 3


def test_table_even_count_median_is_midpoint_mean():
    g = make_network([("a", "b"), ("c", "d")])
    table = centrality_table(g, path_stats(g))
    degrees = sorted(table.columns["degree"].tolist())
    expected = (degrees[1] + degrees[2]) / 2
    assert summaries(table)["measures"]["degree"]["median"] == pytest.approx(expected)


def test_table_summaries_recomputable_from_rows():
    rng = random.Random(25)
    g = random_graph(rng, 8, 0.4)
    table = centrality_table(g, path_stats(g))
    for measure in MEASURES:
        values, summary = table.columns[measure], summaries(table)["measures"][measure]
        assert summary["min"] == pytest.approx(values.min())
        assert summary["max"] == pytest.approx(values.max())
        assert summary["mean"] == pytest.approx(values.mean())
        assert summary["median"] == pytest.approx(np.median(values))
        assert summary["q1"] == pytest.approx(np.quantile(values, 0.25))
        assert summary["q3"] == pytest.approx(np.quantile(values, 0.75))


def test_table_histogram_sums_to_node_count():
    g = star_graph(6)
    table = centrality_table(g, path_stats(g))
    for measure in MEASURES:
        counts = [int(line.rsplit(",", 1)[1]) for line in histogram_csv(table, measure).split()[1:]]
        assert sum(counts) == len(g.nodes)
        assert len(counts) == 50


def test_table_includes_isolates():
    g = make_network([("a", "b")], nodes=["iso"])
    table = centrality_table(g, path_stats(g))
    assert [by_node(table, measure)["iso"] for measure in MEASURES] == [0.0] * 3


def test_core_set_threshold_examples():
    g = make_network(
        [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("b", "c")],
    )
    table = centrality_table(g, path_stats(g))
    core = core_set(table, 0.20)
    assert "a" in core.members
    assert core_set(table, 0.0).members == set(g.nodes)
    star_g = star_graph(6)
    star = centrality_table(star_g, path_stats(star_g))
    assert core_set(star, 1.0).members == {"hub"}
    with pytest.raises(ValueError):
        core_set(table, 1.5)


def test_core_set_boundary_is_inclusive():
    g = star_graph(5)  # leaves at exactly 0.25
    table = centrality_table(g, path_stats(g))
    core = core_set(table, 0.25)
    assert core.members == set(g.nodes)


def test_core_set_roles():
    g = star_graph(4)
    table = centrality_table(g, path_stats(g))
    core = core_set(table, 0.5, roles={"hub": "moderator"})
    assert core.roles["hub"] == "moderator"
    assert all(role == "unknown" for node, role in core.roles.items() if node != "hub")


def test_silent_initiators_listed_with_count():
    incidence = {("quiet", f"t{i:02d}"): 1 for i in range(21)}
    incidence[("a", "t99")] = 1
    incidence[("b", "t99")] = 1
    b = make_bipartite(incidence)
    g = project(b, "user")
    assert silent_initiators(g, 21) == [("quiet", 21)]


def test_silent_initiators_exclude_connected_users():
    incidence = {}
    for i in range(5):
        incidence[("chatty", f"t{i}")] = 1
        incidence[("other", f"t{i}")] = 1
    b = make_bipartite(incidence)
    g = project(b, "user")
    assert silent_initiators(g, 1) == []


def test_silent_initiators_mode_mismatch_raises():
    b = make_bipartite({("u1", "t1"): 1})
    g_thread = project(b, "thread")
    with pytest.raises(ValueError):
        silent_initiators(g_thread, 1)


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
    events, posts = project(b, "user", "events"), project(b, "user", "posts")
    by_events = by_node(centrality_table(events, path_stats(events)), "degree")
    by_posts = by_node(centrality_table(posts, path_stats(posts)), "degree")
    rank = lambda m: sorted(m, key=lambda k: (-m[k], k))
    assert rank(by_events) == rank(by_posts)
    assert by_events == by_posts


def test_bipartite_degree_centrality():
    """Each node's two-mode degree is its ties over the opposite class size."""
    b = make_bipartite(
        {("u1", "t1"): 1, ("u1", "t2"): 1, ("u1", "t3"): 1, ("u2", "t1"): 1}
    )
    report = bipartite_report(project(b, "user"), project(b, "thread"))
    users = report["user_degree"]
    assert users["u1"] == pytest.approx(1.0)
    assert users["u2"] == pytest.approx(1 / 3)
    threads = report["thread_degree"]
    assert threads["t1"] == pytest.approx(1.0)
    assert threads["t2"] == pytest.approx(0.5)
    assert threads["t3"] == pytest.approx(0.5)


def test_table_csv_shape():
    g = path_graph(3)
    text = table_csv(centrality_table(g, path_stats(g)))
    lines = text.splitlines()
    assert lines[0] == "node_id,degree,closeness,betweenness"
    assert len(lines) == 4
    assert lines[2].startswith("n01,1.0,1.0,1.0")


def test_summaries_shape():
    g = path_graph(3)
    payload = summaries(centrality_table(g, path_stats(g)))
    assert set(payload["measures"]) == {"degree", "closeness", "betweenness"}
    assert payload["mode"] == "user"


def test_histogram_csv_shape():
    g = path_graph(3)
    table = centrality_table(g, path_stats(g))
    lines = histogram_csv(table, "degree").splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 51
    with pytest.raises(ValueError):
        histogram_csv(table, "sway")


def test_core_to_dict_shape():
    g = star_graph(4)
    core = core_set(centrality_table(g, path_stats(g)), 0.5, roles={"hub": "moderator"})
    payload = core.to_dict()
    assert payload["threshold"] == 0.5
    assert payload["members"] == ["hub"]
    assert payload["roles"]["hub"] == "moderator"


# sha256 of what analyze writes on synth 60/80/400, alpha 1.5, seed 3.
# The centrality files were re-pinned once, for the last bits of
# betweenness, when the path pass stopped summing through BLAS; the
# other digests predate that change.
PINNED_FILES = {
    "core.json": "c54681734afd51e7744187300e2f02fa2e94ed44b8c382b3cb9b13db5501f4e2",
    "thread_centrality.csv": "0895727b87aa212a94dee04b339a335bb66b9198ee45c8ec70f2d528bd6f4689",
    "thread_centrality_summary.json": (
        "b5dc3c659cfbcd1b4c16699b8831deee6444d2c2e5aa5b4641265481e4b808da"
    ),
    "thread_closeness_hist.csv": "f70b25e113445fc9dc09552786047daa986f5ad2719ee7ab07fe9113f4d3c33f",
    "thread_degree_hist.csv": "9b92d25766149844b5c2358fd59790fe1fe766af12bb70def477107eb80bbccc",
    "thread_structural.json": "26dc9da26de1f03dc77b4938d35d4ffcbccebcaa09ee82a2eb98bd0e87d1b231",
    "user_centrality.csv": "003dbac658d6e2e0685d5a40830ec5f8063353b41a72ab57665eac7a548ffd68",
    "user_centrality_summary.json": (
        "8de542c2685170bf5bf0082ec5e5b81a94bedebf8692d72ee82b63fc69d55b26"
    ),
    "user_closeness_hist.csv": "70286306d3df25854699b282de1a32d827fb7dff1334abcb32daed7e70a5ac6b",
    "user_degree_hist.csv": "4a377474f6b392af4c4c55d4f92c19c2c226bfdca0ca1cd0b5dda9dfee35fa64",
    "user_structural.json": "02f32b129416eb0f9f151dd47a9a1a241b45418fe5d740ba825ffa47688c6cf8",
}


def test_written_centrality_artifacts_are_byte_pinned(tmp_path):
    data = generate(
        SynthConfig(user_count=60, thread_count=80, post_count=400, skew_alpha=1.5, seed=3)
    )
    out = tmp_path / "out"
    run_pipeline(data, PipelineConfig(out_dir=out))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_FILES}
    assert digests == PINNED_FILES
