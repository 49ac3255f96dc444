"""The path pass: its CSR operand, built from the network's CSR rows, its
products over only the rows a level needs, and its thread pool: the same
bits whatever the worker count, a bounded working set, no thread left
behind, a structural-only pass that skips the Brandes sweep, and scipy's
CSR loop loaded on the first search only, without scipy.sparse."""

import importlib.machinery
import importlib.util
import json
import os
import random
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forumnet import cli, graph, paths
from forumnet.errors import InputError
from forumnet.graph import THREAD_MODE, USER_MODE
from forumnet.ingest import dataset_to_json
from forumnet.metrics import StructuralReport, format_structural_table
from forumnet.paths import path_stats
from forumnet.synth import SynthConfig, generate

from helpers import from_rows, one_mode, symmetric_operand, tie_rows, traced_peak

ARRAYS = ("reach", "distance_sum", "eccentricity", "component", "betweenness")


@st.composite
def graphs(draw):
    """Up to three components, each sparse to complete (a lone dense one
    takes the absent-ties product), plus up to three isolates."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parts = draw(st.lists(st.tuples(st.integers(1, 12), st.sampled_from([0.2, 0.6, 0.9, 1.0])),
                          min_size=1, max_size=3))
    n = sum(size for size, _ in parts) + draw(st.integers(0, 3))
    order = list(range(n))
    rng.shuffle(order)  # components interleave in node order
    edges, base = {}, 0
    for size, p in parts:
        for i in range(base, base + size):
            for j in range(i + 1, base + size):
                if rng.random() < p:
                    edges[(f"n{order[i]:02d}", f"n{order[j]:02d}")] = 1
        base += size
    return one_mode([f"n{i:02d}" for i in range(n)], edges)


def _stats_with(monkeypatch, g, workers, rng):
    monkeypatch.setattr(paths, "_workers", lambda: workers)
    search = paths._search

    def late(*args):
        time.sleep(rng.random() * 0.002)  # blocks finish out of order
        return search(*args)

    monkeypatch.setattr(paths, "_search", late)
    try:
        return path_stats(g)
    finally:
        monkeypatch.setattr(paths, "_search", search)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.integers(2, 3), st.integers(2, 3), st.randoms(use_true_random=False))
def test_figures_do_not_depend_on_the_worker_count(g, block, workers, rng):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(paths, "SOURCE_BLOCK", block)
        one = _stats_with(monkeypatch, g, 1, rng)
        many = _stats_with(monkeypatch, g, workers, rng)
    for name in ARRAYS:
        assert getattr(one, name).tobytes() == getattr(many, name).tobytes(), name


def test_many_workers_switching_often_share_no_workspace(monkeypatch):
    """Eight workers, more than the cores, swap threads every microsecond;
    two blocks in one workspace would corrupt the figures."""
    g = _sparse_graph(120, 400, seed=6)
    monkeypatch.setattr(paths, "SOURCE_BLOCK", 4)
    monkeypatch.setattr(paths, "_workers", lambda: 1)
    want = path_stats(g)
    monkeypatch.setattr(paths, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [path_stats(g) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    for stats in got:
        for name in ARRAYS:
            assert getattr(stats, name).tobytes() == getattr(want, name).tobytes(), name


def _write_small_input(tmp_path):
    synth = SynthConfig(user_count=150, thread_count=180, post_count=1200, skew_alpha=1.5, seed=7)
    data = tmp_path / "data.json"
    data.write_text(dataset_to_json(generate(synth)), encoding="utf-8")
    return data


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_analyze_bytes_do_not_depend_on_the_cores(tmp_path):
    """One core gives the pool one worker; the run's bytes stay the same."""
    data = _write_small_input(tmp_path)
    no_figures = tmp_path / "config.json"
    no_figures.write_text('{"figures": []}', encoding="utf-8")
    cpu = min(os.sched_getaffinity(0))
    runs = []
    for pin in (lambda: os.sched_setaffinity(0, {cpu}), None):
        out = tmp_path / f"out-{len(runs)}"
        result = subprocess.run(
            [sys.executable, "-m", "forumnet", "analyze", "--data", str(data),
             "--out", str(out), "--config", str(no_figures)],
            capture_output=True, text=True, preexec_fn=pin,
        )
        assert result.returncode == 0, result.stderr
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert {"user_centrality.csv", "thread_centrality_summary.json"} <= set(runs[0])
    assert runs[0] == runs[1]


def _sparse_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(m, 2))
    names = [f"n{i:04d}" for i in range(n)]
    ties = {(names[min(i, j)], names[max(i, j)]): 1 for i, j in pairs if i != j}
    return one_mode(names, ties)


def _random_graph(n, p, seed):
    """G(n, p), from its ties' sorted rows (i, j), i < j."""
    i, j = np.triu_indices(n, 1)
    keep = np.random.default_rng(seed).random(len(i)) < p
    return from_rows(tuple(f"n{k:04d}" for k in range(n)), np.column_stack([i[keep], j[keep]]),
                     np.ones(keep.sum(), dtype=np.int64))


OPERAND_GRAPHS = {
    "empty": (0, 0.0), "one-node": (1, 0.0), "two-apart": (2, 0.0), "two-tied": (2, 1.0),
    "edgeless": (9, 0.0), "complete": (9, 1.0), "sparse": (40, 0.1), "half": (40, 0.4),
    "dense": (40, 0.6), "near-complete": (60, 0.95), "sparse-larger": (300, 0.02),
}


@pytest.mark.parametrize("n, p", OPERAND_GRAPHS.values(), ids=OPERAND_GRAPHS.keys())
@pytest.mark.parametrize("seed", [1, 2])
def test_operand_is_the_canonical_csr_of_a_or_of_its_absent_ties(n, p, seed):
    """The rule 4m > n(n - 1) picks Ā; either way each half's indptr and
    indices are scipy's canonical CSR of the held matrix's lower or upper
    triangle."""
    from scipy import sparse

    g = _random_graph(n, p, seed)
    dense = np.zeros((n, n))
    i, j = np.array(tie_rows(g), dtype=np.int64).reshape(-1, 2).T
    dense[i, j] = dense[j, i] = 1.0
    adj = paths.adjacency_matrix(g)
    assert adj.absent == (4 * len(g.edges) > n * (n - 1))
    if adj.absent:
        dense = 1.0 - dense - np.eye(n)
    assert adj.n == n
    for (indptr, indices), part in ((adj.lower, np.tril(dense)), (adj.upper, np.triu(dense))):
        want = sparse.csr_array(part)
        assert indptr.dtype == indices.dtype == np.int32
        assert np.array_equal(indptr, want.indptr)
        assert np.array_equal(indices, want.indices)
        assert adj.data.dtype == np.float64 and np.array_equal(adj.data, want.data)


def test_operand_index_dtype_widens_past_int32():
    """indptr and indices stay int32 up to 2**31 - 1 stored entries or
    nodes, and are int64 beyond, where an int32 cast would wrap."""
    assert paths._index_dtype(0) is np.int32
    assert paths._index_dtype(2**31 - 1) is np.int32
    assert paths._index_dtype(2**31) is np.int64
    assert paths._index_dtype(2**40) is np.int64


@pytest.mark.parametrize("p", [0.1, 0.95], ids=["plain", "absent-ties"])
def test_int64_operand_gives_the_same_figures(monkeypatch, p):
    g = _random_graph(150, p, seed=2)
    want = path_stats(g)
    monkeypatch.setattr(paths, "_index_dtype", lambda largest: np.int64)
    adj = paths.adjacency_matrix(g)
    for indptr, indices in (adj.lower, adj.upper):
        assert indptr.dtype == indices.dtype == np.int64
    assert adj.absent == (p > 0.5)
    got = path_stats(g)
    for name in ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_near_complete_operand_never_holds_the_adjacency():
    """Ā's upper half is read row by row from the CSR through an n-byte
    row, with a few bytes per tie on top: less than the n² byte mask that
    clearing a whole square would take, where building A first took about
    80 bytes per tie."""
    g = _random_graph(800, 0.95, seed=8)
    path_stats(_random_graph(3, 1.0, seed=1))  # loading the CSR loop is not the operand's memory
    n, m = len(g.nodes), len(g.edges)
    peak = traced_peak(lambda: paths.adjacency_matrix(g))
    assert peak <= n * n + 8 * m


@pytest.mark.parametrize("absent", [False, True], ids=["plain", "absent-ties"])
def test_operand_holds_the_networks_own_rows(absent):
    """A's upper half is ``g.edges`` itself, not a copy, and Ā's is read
    row by row, so the build allocates little more than the lower half and
    the ones: under 24 bytes per tie of a half, where sorting the keys of
    both directions took about 48 for A, and Ā's n² byte mask about 65."""
    g = _random_graph(800, 0.95, seed=8) if absent else _sparse_graph(1500, 12_000, seed=3)
    path_stats(_random_graph(3, 1.0, seed=1))  # loading the CSR loop is not the operand's memory
    adj, n = paths.adjacency_matrix(g), len(g.nodes)
    assert adj.absent == absent and np.shares_memory(adj.upper[1], g.edges) != absent
    ties = len(adj.upper[1])
    assert traced_peak(lambda: paths.adjacency_matrix(g)) <= 24 * ties + 16 * (n + 1)


def test_pass_memory_is_adjacency_plus_one_workspace_per_worker(monkeypatch):
    """O(m + workers·SOURCE_BLOCK·n): each worker's workspace is under five
    (n x block) float64 arrays, and nothing else grows with n x block."""
    g = _sparse_graph(1500, 12_000, seed=3)
    workers = 2
    monkeypatch.setattr(paths, "_workers", lambda: workers)
    path_stats(g)  # loading the CSR loop is not the pass's memory
    block = len(g.nodes) * paths.SOURCE_BLOCK * 8
    adjacency = traced_peak(lambda: paths.adjacency_matrix(g))
    assert traced_peak(lambda: path_stats(g)) <= adjacency + workers * 5 * block


def test_pass_workers_fit_the_workspace_budget():
    """One worker per core, but no more than there are blocks, nor more
    workspaces than WORKSPACE_BUDGET holds, and never none."""
    per_node = 38 * paths.SOURCE_BLOCK  # bytes of one betweenness workspace per node
    workers = paths._pass_workers(64, 782, 50_000 * per_node)  # n = 50k on 64 cores
    assert workers == 8
    assert workers * 50_000 * per_node <= paths.WORKSPACE_BUDGET
    assert paths._pass_workers(2, 782, 50_000 * per_node) == 2
    assert paths._pass_workers(64, 3, 150 * per_node) == 3
    assert paths._pass_workers(64, 0, 0) == 1
    assert paths._pass_workers(64, 10**6, 2 * paths.WORKSPACE_BUDGET) == 1


def test_pass_starts_no_more_workers_than_the_budget_holds(monkeypatch):
    g = _sparse_graph(300, 1_500, seed=4)
    want = path_stats(g)
    sizes, pool = [], paths.ThreadPoolExecutor

    def sized(workers):
        sizes.append(workers)
        return pool(workers)

    monkeypatch.setattr(paths, "ThreadPoolExecutor", sized)
    monkeypatch.setattr(paths, "_workers", lambda: 4)
    monkeypatch.setattr(paths, "WORKSPACE_BUDGET", 2 * 300 * paths.SOURCE_BLOCK * 38)
    got = path_stats(g)
    assert sizes == [2]
    for name in ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_pass_leaves_no_thread_running():
    g = _sparse_graph(300, 1_500, seed=4)
    before = threading.active_count()
    path_stats(g)
    assert threading.active_count() == before


METRICS_STDOUT = {
    "user": (
        "Measure                User (n=150)\n"
        "-----------------------------------\n"
        "Nodes                           150\n"
        "Edges                          1097\n"
        "Density                        0.10\n"
        "Degree centralization          0.85\n"
        "Diameter                       3.00\n"
        "Average path length            1.93\n"
        "Components                        1\n"
        "Largest component               150\n"
        "Isolates                          0\n"
    ),
    "thread": (
        "Measure                Thread (n=180)\n"
        "-------------------------------------\n"
        "Nodes                             180\n"
        "Edges                           14498\n"
        "Density                          0.90\n"
        "Degree centralization            0.10\n"
        "Diameter                         2.00\n"
        "Average path length              1.10\n"
        "Components                          1\n"
        "Largest component                 180\n"
        "Isolates                            0\n"
    ),
}


def test_metrics_prints_the_same_table_without_the_brandes_sweep(tmp_path, monkeypatch, capsys):
    """The user projection takes the plain product, the near-complete
    thread projection the absent-ties one; neither runs the sweep."""
    data = _write_small_input(tmp_path)
    sweeps = []
    sweep = paths._dependencies
    monkeypatch.setattr(paths, "_dependencies", lambda *args: sweeps.append(sweep(*args)))
    for mode, table in METRICS_STDOUT.items():
        assert cli.main(["metrics", "--data", str(data), "--mode", mode]) == 0
        assert capsys.readouterr().out == table
    assert sweeps == []
    path_stats(_sparse_graph(10, 20, seed=5))
    assert sweeps  # the counter sees the sweep where betweenness is asked for


def test_metrics_prints_the_report_that_analyze_writes(tmp_path, capsys):
    """metrics runs its pass without the sweep and analyze with it, from
    separate call sites; on either operand the printed table is the one of
    the structural report that analyze writes."""
    data = _write_small_input(tmp_path)
    no_figures = tmp_path / "config.json"
    no_figures.write_text('{"figures": []}', encoding="utf-8")
    out = tmp_path / "out"
    argv = ["analyze", "--data", str(data), "--out", str(out), "--config", str(no_figures)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    for mode in (USER_MODE, THREAD_MODE):
        payload = json.loads((out / f"{mode}_structural.json").read_text(encoding="utf-8"))
        payload.pop("provenance")
        # more than half of all pairs tied: the pass takes the absent-ties operand
        assert (payload["density"] > 0.5) == (mode == THREAD_MODE)
        assert cli.main(["metrics", "--data", str(data), "--mode", mode]) == 0
        assert capsys.readouterr().out == format_structural_table([StructuralReport(**payload)])


def test_operand_that_cannot_fit_is_refused():
    """An operand holds 18 bytes per tie at int32 ends: two halves' ends,
    float64 data and two bool operands for the transposition. One byte
    short of that in total memory is refused, exactly that is built; for
    A's ties and for Ā's."""
    sparse = from_rows("abcde", [(0, 1), (1, 2), (2, 3), (3, 4)], [1] * 4, mode="thread")
    dense = from_rows("abcdef", [(i, j) for i in range(6) for j in range(i + 2, 6)], [1] * 10)
    for g, ties, name in ((sparse, 4, "ties operand of the thread"),
                          (dense, 5, "absent-ties operand of the user")):
        for memory in (18 * ties - 1, 18 * ties):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graph, "_total_memory", lambda: memory)
                if memory < 18 * ties:
                    with pytest.raises(InputError, match=(
                        f"^the {name} projection holds {ties} ties, {18 * ties} bytes of arrays, "
                        f"more than this machine's {memory} bytes of memory$"
                    )):
                        paths.adjacency_matrix(g)
                else:
                    assert len(paths.adjacency_matrix(g).upper[1]) == ties


def test_a_run_that_cannot_fit_exits_1(tmp_path, monkeypatch, capsys):
    """metrics and analyze name the projection that does not fit, the
    thread one, exit 1, and analyze publishes nothing."""
    data = _write_small_input(tmp_path)
    monkeypatch.setattr(graph, "_total_memory", lambda: 100_000)
    assert cli.main(["metrics", "--data", str(data), "--mode", "thread"]) == 1
    assert capsys.readouterr().err.startswith("error: the thread projection holds ")
    out = tmp_path / "out"
    assert cli.main(["analyze", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: the thread projection holds ")
    assert not out.exists()


SCIPY_LOADS = """
import sys
from forumnet import cli, graph
from forumnet.graph import build_bipartite, project
from forumnet.ingest import load_dataset
data, out, mode = sys.argv[1:]
loaded = []

def record():
    scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    loaded.append((graph._sparsetools.cache_info().misses, scipy))

for argv in (["synth", "--users", "30", "--threads", "20", "--posts", "150", "--out", data],
             ["ingest", "--posts", data, "--out", out]):
    if cli.main(argv) != 0:
        sys.exit(argv[0] + " failed")
    record()
project(build_bipartite(load_dataset(data)), mode)
record()
if cli.main(["metrics", "--data", data, "--mode", mode]) != 0:
    sys.exit("metrics failed")
record()
loaded.append(graph._sparsetools.cache_info().hits > 0)
import numpy as np
from scipy import sparse
loaded.append((sparse.csr_array(np.eye(2)) @ np.ones((2, 3))).tolist())
sys.stderr.write(repr(loaded))
"""


@pytest.mark.parametrize("mode", ["user", "thread"])
def test_scipy_loads_on_the_first_projection_only(tmp_path, mode):
    """synth and ingest load nothing of scipy; the first projection loads
    the CSR loops alone, once, and the search of ``metrics`` takes them
    from there. No scipy module stays in sys.modules, so a later import
    of scipy.sparse is whole."""
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_LOADS, str(tmp_path / "data.json"), str(tmp_path / "out"),
         mode],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "dataset.json").is_file()
    loads = [(0, []), (0, []), (1, []), (1, []), True, [[1.0] * 3, [1.0] * 3]]
    assert result.stderr == repr(loads)


def test_a_missing_csr_loop_is_an_import_error_naming_its_file(tmp_path, monkeypatch):
    (tmp_path / "scipy" / "sparse").mkdir(parents=True)
    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path / "scipy")]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools", raising=False)
    with pytest.raises(ImportError, match=str(tmp_path / "scipy" / "sparse" / "_sparsetools")):
        graph._sparsetools.__wrapped__()


def _operand(g, absent):
    """The two-half operand of ``g`` from its dense 0/1 matrix, holding the
    absent ties Ā when ``absent``, whatever the 4m > n(n - 1) rule picks:
    the CSR of its lower triangle, then of its upper one."""
    n = len(g.nodes)
    dense = np.zeros((n, n))
    i, j = np.array(tie_rows(g), dtype=np.int64).reshape(-1, 2).T
    dense[i, j] = dense[j, i] = 1.0
    held = 1.0 - dense - np.eye(n) if absent else dense
    halves = [(np.concatenate([[0], np.cumsum(half.sum(axis=1))]).astype(np.int32),
               np.nonzero(half)[1].astype(np.int32)) for half in (np.tril(held), np.triu(held))]
    return dense, paths.Adjacency(*halves, np.ones(len(halves[1][1])), absent)


def _product_input(n, mask, k, rng):
    """A row mask, empty, full or random, and an (n, k) input of path
    counts, their reciprocals and zeros, as the sweeps hand the product."""
    rows = {"empty": np.zeros(n, dtype=bool), "full": np.ones(n, dtype=bool),
            "random": np.array([rng.random() < 0.5 for _ in range(n)], dtype=bool)}[mask]
    x = np.array([[rng.choice([0.0, 0.0, 1.0, 3.0, rng.random(), 1.0 / rng.randint(1, 9)])
                   for _ in range(k)] for _ in range(n)])
    return rows, x


@settings(max_examples=100, deadline=None)
@given(graphs(), st.booleans(), st.sampled_from(["empty", "full", "random"]),
       st.integers(1, 5), st.randoms(use_true_random=False))
def test_masked_product_rows_are_the_full_products_rows(g, absent, mask, k, rng):
    """Where the row mask is set, the product has the full product's bits,
    for A and for Ā; elsewhere it holds finite non-negative values, which
    the Brandes sweep multiplies by 0.0."""
    dense, adj = _operand(g, absent)
    n = adj.n
    rows, x = _product_input(n, mask, k, rng)
    product = paths._product(adj)
    full, masked = np.empty((n, k)), np.full((n, k), np.nan)
    product(x.copy(), full, np.ones(n, dtype=bool))
    product(x.copy(), masked, rows)
    assert masked[rows].tobytes() == full[rows].tobytes()
    assert np.isfinite(masked).all() and (masked[~rows] >= 0.0).all()
    np.testing.assert_allclose(full, dense @ x, rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.booleans(), st.sampled_from(["empty", "full", "random"]),
       st.integers(1, 5), st.randoms(use_true_random=False))
# Ā on 9 nodes, one column: a pairwise 1ᵀx would sum in another order
@example(g=_random_graph(9, 0.0, 1), absent=True, mask="full", k=1, rng=random.Random(1))
def test_two_half_product_has_the_symmetric_operands_bits(g, absent, mask, k, rng):
    """The lower half, then the upper, sum each row's ties in the index
    order of the symmetric canonical CSR, so where the row mask is set the
    product has the bits of ``csr_matvecs`` over that CSR, for A and Ā."""
    _, adj = _operand(g, absent)
    n = adj.n
    rows, x = _product_input(n, mask, k, rng)
    got = np.full((n, k), np.nan)
    paths._product(adj)(x.copy(), got, rows)
    csr_matvecs, (indptr, indices, data) = paths._sparsetools().csr_matvecs, symmetric_operand(g, absent)
    want = np.zeros((n, k))
    csr_matvecs(n, n, k, indptr, indices, data, x.ravel(), want.ravel())
    if absent:  # 1ᵀx - x - Ā @ x, 1ᵀx by the same loop
        total = np.zeros(k)
        csr_matvecs(1, n, k, np.array([0, n], dtype=indptr.dtype), np.arange(n, dtype=indptr.dtype),
                    np.ones(n), x.ravel(), total)
        want = total - x - want
    assert got[rows].tobytes() == want[rows].tobytes()


def test_level_products_visit_under_half_the_ties_of_full_ones(monkeypatch):
    """On a 300-node path, one pass's products read fewer than half of the
    ties a half stores that products over every row of it would read."""
    names = [f"n{i:03d}" for i in range(300)]
    g = one_mode(names, {(a, b): 1 for a, b in zip(names, names[1:])})
    stored = len(paths.adjacency_matrix(g).upper[1])  # ties per half
    tools, visited = paths._sparsetools(), []

    def counting(rows, cols, k, indptr, *rest):
        visited.append(int(indptr[rows]))
        tools.csr_matvecs(rows, cols, k, indptr, *rest)

    stub = SimpleNamespace(csr_matvecs=counting, csr_tocsc=tools.csr_tocsc)
    monkeypatch.setattr(paths, "_sparsetools", lambda: stub)
    stats = path_stats(g)
    assert stats.eccentricity.max() == 299
    assert visited and sum(visited) < 0.5 * len(visited) * stored
