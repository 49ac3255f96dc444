"""Acceptance gate: nine checks, one printed pass/fail line each.

Each test prints `PASS criterion N: ...` (or FAIL) so a plain pytest -s
run doubles as the acceptance report. Tolerances and time limits are
asserted, not just printed.
"""

import random
import subprocess
import sys
import time

import numpy as np
import pytest

from forumnet.centrality import MEASURES, centrality_table, silent_initiators
from forumnet.graph import build_bipartite, project
from forumnet.metrics import (
    degree_centralization,
    density,
    structural_report,
)
from forumnet.paths import path_stats
from forumnet.report import PipelineConfig, run_pipeline
from forumnet.synth import SynthConfig, generate, planted_structure
from forumnet.viz import ThinningSpec, layout, thin

from helpers import (
    by_node,
    complete_graph,
    cycle_graph,
    edge_dict,
    make_network,
    naive_betweenness,
    oracle_diameter_apl,
    path_graph,
    projection_oracle,
    random_bipartite,
    random_graph,
    star_graph,
)

TOL = 1e-9


def report(number: int, ok: bool, description: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def close(a, b) -> bool:
    return abs(a - b) <= TOL


def mapping_close(got: dict, want: dict) -> bool:
    return set(got) == set(want) and all(close(got[k], want[k]) for k in want)


def expected_complete(n, names):
    return {
        "density": 1.0,
        "centralization": 0.0,
        "diameter": 1,
        "apl": 1.0,
        "degree": {v: 1.0 for v in names},
        "closeness": {v: 1.0 for v in names},
        "betweenness": {v: 0.0 for v in names},
    }


def expected_path(n, names):
    pair_count = n * (n - 1) / 2
    apl = sum(d * (n - d) for d in range(1, n)) / pair_count
    dist_sum = lambda i: i * (i + 1) / 2 + (n - 1 - i) * (n - i) / 2
    betw_scale = (n - 1) * (n - 2) / 2
    return {
        "density": 2 / n,
        "centralization": 2 / ((n - 1) * (n - 2)),
        "diameter": n - 1,
        "apl": apl,
        "degree": {
            v: (1 if i in (0, n - 1) else 2) / (n - 1) for i, v in enumerate(names)
        },
        "closeness": {v: (n - 1) / dist_sum(i) for i, v in enumerate(names)},
        "betweenness": {v: i * (n - 1 - i) / betw_scale for i, v in enumerate(names)},
    }


def expected_cycle(n, names):
    k = n // 2
    dist_sum = k * k if n % 2 == 0 else k * (k + 1)
    raw_betw = (k - 1) ** 2 / 2 if n % 2 == 0 else k * (k - 1) / 2
    betw = raw_betw / ((n - 1) * (n - 2) / 2)
    return {
        "density": 2 / (n - 1),
        "centralization": 0.0,
        "diameter": k,
        "apl": dist_sum / (n - 1),
        "degree": {v: 2 / (n - 1) for v in names},
        "closeness": {v: (n - 1) / dist_sum for v in names},
        "betweenness": {v: betw for v in names},
    }


def expected_star(n, names):
    leaf_closeness = (n - 1) / (2 * n - 3)
    return {
        "density": 2 / n,
        "centralization": 1.0,
        "diameter": 2,
        "apl": 2 * (n - 1) / n,
        "degree": {v: (1.0 if v == "hub" else 1 / (n - 1)) for v in names},
        "closeness": {v: (1.0 if v == "hub" else leaf_closeness) for v in names},
        "betweenness": {v: (1.0 if v == "hub" else 0.0) for v in names},
    }


def test_criterion_1_canonical_graphs():
    families = (
        (complete_graph, expected_complete),
        (path_graph, expected_path),
        (cycle_graph, expected_cycle),
        (star_graph, expected_star),
    )
    start = time.perf_counter()
    ok = True
    for build, expect in families:
        for n in range(3, 9):
            g = build(n)
            want = expect(n, g.nodes)
            ok = ok and close(density(g), want["density"])
            ok = ok and close(degree_centralization(g), want["centralization"])
            stats = path_stats(g)
            rep = structural_report(g, stats)
            ok = ok and rep.diameter == want["diameter"]
            ok = ok and close(rep.avg_path_length, want["apl"])
            table = centrality_table(g, stats)
            for measure in MEASURES:
                ok = ok and mapping_close(by_node(table, measure), want[measure])
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"canonical closed forms within 1e-9 in {elapsed:.3f}s (< 1s)")


def test_criterion_2_random_graph_oracles():
    start = time.perf_counter()
    ok = True
    for i in range(200):
        rng = random.Random(1000 + i)
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.2, 0.4, 0.6, 0.8]))
        stats = path_stats(g)
        got = by_node(centrality_table(g, stats), "betweenness")
        want = naive_betweenness(g)
        ok = ok and mapping_close(got, want)
        want_diam, want_apl = oracle_diameter_apl(g)
        rep = structural_report(g, stats)
        ok = ok and rep.diameter == want_diam
        ok = ok and close(rep.avg_path_length, want_apl)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(
        2, ok, f"200 random graphs match enumeration oracles in {elapsed:.2f}s (< 30s)"
    )


def test_criterion_3_projection_oracle():
    start = time.perf_counter()
    ok = True
    for i in range(100):
        rng = random.Random(2000 + i)
        b = random_bipartite(
            rng, rng.randint(1, 30), rng.randint(1, 30), rng.choice([0.05, 0.15, 0.3])
        )
        for mode in ("user", "thread"):
            got = edge_dict(project(b, mode))
            want = projection_oracle(b, mode)
            ok = ok and set(got) == set(want)
            ok = ok and all(close(got[k], want[k]) for k in want)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(3, ok, f"100 bipartite projections match matrix oracle in {elapsed:.2f}s (< 10s)")


def test_criterion_4_thinning():
    g = make_network(
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "e", 5)]
    )
    thinned = thin(g, ThinningSpec(k_sd=1.0))
    ok = edge_dict(thinned) == {("d", "e"): 5} and thinned.nodes == g.nodes
    rng = random.Random(3000)
    for _ in range(100):
        weights = [rng.randint(1, 40) for _ in range(rng.randint(0, 12))]
        net = make_network(
            [("hub", f"x{i}", w) for i, w in enumerate(weights)], nodes=["hub"]
        )
        sub = thin(net, ThinningSpec(k_sd=rng.choice([0.0, 0.5, 1.0, 2.0])))
        ok = ok and set(edge_dict(sub)).issubset(set(edge_dict(net)))
        ok = ok and sub.nodes == net.nodes
    report(4, ok, "weights [1,1,1,5] at 1 sd keep only the 5; thinned edges are a subset")


def test_criterion_5_full_scale_regression():
    data = generate(
        SynthConfig(user_count=621, thread_count=723, post_count=7089,
                    skew_alpha=1.5, seed=1)
    )
    g = project(build_bipartite(data), "user")
    stats = path_stats(g)
    rep = structural_report(g, stats)
    degrees = np.sort(centrality_table(g, stats).columns["degree"])
    med, top = float(np.median(degrees)), float(degrees.max())
    ok = len({p.user_id for p in data.posts}) == 621
    ok = ok and rep.density <= 0.10
    ok = ok and rep.centralization >= 0.40
    ok = ok and rep.diameter >= rep.avg_path_length
    ok = ok and med < 0.05 and top > 0.15
    # regression pins for seed=1
    ok = ok and close(rep.density, 0.05551399927276505)
    ok = ok and close(rep.centralization, 0.9038485590703007)
    ok = ok and rep.diameter == 3
    ok = ok and close(rep.avg_path_length, 1.9548335151420706)
    ok = ok and close(med, 0.03064516129032258)
    ok = ok and close(top, 0.9564516129032258)
    report(
        5,
        ok,
        "621/723/7089 alpha=1.5 seed=1: density "
        f"{rep.density:.3f} <= 0.10, centralization {rep.centralization:.3f} >= 0.40, "
        f"diameter {rep.diameter} >= apl {rep.avg_path_length:.3f}, "
        f"degree median {med:.3f} < 0.05, max {top:.3f} > 0.15, pinned",
    )


def test_criterion_6_pipeline_performance(tmp_path):
    data = generate(
        SynthConfig(user_count=621, thread_count=723, post_count=7089,
                    skew_alpha=1.5, seed=1)
    )
    start = time.perf_counter()
    run_pipeline(data, PipelineConfig(out_dir=tmp_path / "out"))
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report(6, ok, f"full pipeline on the criterion-5 dataset in {elapsed:.2f}s (< 10s)")


def test_criterion_7_determinism(tmp_path):
    data_file = tmp_path / "data.json"
    synth = subprocess.run(
        [sys.executable, "-m", "forumnet", "synth", "--users", "80", "--threads", "60",
         "--posts", "600", "--alpha", "1.4", "--seed", "17", "--out", str(data_file)],
        capture_output=True, text=True,
    )
    ok = synth.returncode == 0
    flags = ["--core-threshold", "0.2", "--thin-sd", "1.0", "--layout-seed", "42"]
    for name in ("a", "b"):
        run = subprocess.run(
            [sys.executable, "-m", "forumnet", "analyze", "--data", str(data_file),
             "--out", str(tmp_path / name), *flags],
            capture_output=True, text=True,
        )
        ok = ok and run.returncode == 0
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    ok = ok and files_a == files_b and len(files_a) > 0
    for rel in files_a:
        ok = ok and (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    report(7, ok, f"two analyze runs produced {len(files_a)} byte-identical files")


def test_criterion_8_silent_initiator_recovery():
    cfg = SynthConfig(
        user_count=80, thread_count=120, post_count=500, skew_alpha=1.5,
        seed=21, silent_initiator_count=3,
    )
    data = generate(cfg)
    b = build_bipartite(data)
    found = silent_initiators(project(b, "user"), 21)
    planted = planted_structure(cfg).silent_initiators
    ok = [uid for uid, _ in found] == list(planted)
    ok = ok and all(count > 20 for _, count in found)
    report(8, ok, f"exactly the 3 planted silent initiators recovered: {found}")


def test_criterion_9_layout_centers_the_hub():
    g = star_graph(9)  # hub plus 8 leaves
    ok = True
    for seed in (1, 2, 3, 4, 5):
        pts = dict(zip(g.nodes, layout(g, seed=seed, iterations=500)))
        centroid = np.mean(list(pts.values()), axis=0)
        dist = {k: float(np.linalg.norm(v - centroid)) for k, v in pts.items()}
        hub = dist.pop("hub")
        ok = ok and hub < min(dist.values())
    report(9, ok, "star hub strictly nearest the position centroid for 5 seeds")
