"""Per-layer figures for one workload, in a child process of the benchmark.

Two modes, both run from the root of a checkout by ``run.py``:

``python3 perfbench/traced.py spans TRACE.json -- ARGS...``
    Runs ``forumnet ARGS...`` in this process, the same way the
    ``forumnet`` command does, after wrapping the layer functions that
    ``forumnet.cli`` and ``forumnet.report`` import with spans. Only the
    names in those two module namespaces are replaced, in this process;
    the package on disk is untouched. The spans (name, start, end, parent,
    counts) are kept in memory and written to TRACE.json at exit.

``python3 perfbench/traced.py layers OUT.json KIND FIGURES DATA [USERS]``
    Measures what spans cannot: the ``forumnet.paths`` functions timed
    one by one on each projection, and tracemalloc peaks of the ingest,
    paths and layout layers, each in a pass of its own so the tracing of
    allocations slows none of the timings.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from forumnet import cli, report  # noqa: E402
from forumnet.graph import (  # noqa: E402
    THREAD_MODE,
    USER_MODE,
    BipartiteNetwork,
    build_bipartite,
    project,
)
from forumnet.ingest import dataset_to_json, load_dataset  # noqa: E402
from forumnet.paths import (  # noqa: E402
    adjacency_matrix,
    all_pairs_distances,
    betweenness_raw,
    connected_components,
)
from forumnet.viz import layout  # noqa: E402

MB = 1024.0 * 1024.0


def _mode_of(network) -> str:
    return "bipartite" if isinstance(network, BipartiteNetwork) else network.mode


def _network_size(network) -> dict:
    if isinstance(network, BipartiteNetwork):
        return {"nodes": len(network.user_nodes) + len(network.thread_nodes),
                "edges": len(network.incidence)}
    return {"nodes": len(network.nodes), "edges": len(network.edges)}


def _dataset_size(data) -> dict:
    return {"rows": len(data.posts) + len(data.rejected), "retained": len(data.posts),
            "rejected": len(data.rejected)}


# name in cli/report -> (span name from the call's arguments, counts from its result)
LAYER_CALLS = {
    "load_dataset": (lambda a, k: "ingest.parse", lambda a, r: _dataset_size(r)),
    "dataset_to_json": (lambda a, k: "ingest.serialize", None),
    "activity_overview": (lambda a, k: "ingest.overview", None),
    "build_bipartite": (lambda a, k: "graph.bipartite",
                        lambda a, r: {"incidences": len(r.incidence)}),
    "project": (lambda a, k: f"graph.project_{a[1] if len(a) > 1 else k['mode']}",
                lambda a, r: {"n": len(r.nodes), "m": len(r.edges)}),
    "structural_report": (lambda a, k: f"metrics.structural_{a[0].mode}", None),
    "centrality_table": (lambda a, k: f"centrality.table_{a[0].mode}", None),
    "thin": (lambda a, k: f"viz.thin_{a[0].mode}", None),
    "layout": (lambda a, k: f"viz.layout_{_mode_of(a[0])}", lambda a, r: _network_size(a[0])),
    "export_graph": (lambda a, k: "viz.export", None),
    "run_pipeline": (lambda a, k: "report.pipeline", None),
}


class Tracer:
    """Spans of one process, parent-linked through a call stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str) -> None:
        fn = getattr(module, attr)
        name_of, counts_of = LAYER_CALLS[attr]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name_of(args, kwargs),
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts_of is not None:
                span["counts"] = counts_of(args, result)
            return result

        setattr(module, attr, traced)


def run_spans(trace_path: Path, argv: list[str]) -> int:
    tracer = Tracer()
    for module in (cli, report):
        for attr in LAYER_CALLS:
            if hasattr(module, attr):
                tracer.wrap(module, attr)
    try:
        return cli.main(argv)
    finally:
        trace_path.write_text(json.dumps({"spans": tracer.spans}), encoding="utf-8")


def _peak_mb(fn) -> float:
    """tracemalloc peak of ``fn()``, above what was allocated before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_layers(out_path: Path, kind: str, figures: bool, data_path: str,
               users_path: str | None) -> None:
    figs: dict[str, float] = {}
    if kind == "ingest":
        figs["ingest.peak_mb"] = _peak_mb(
            lambda: dataset_to_json(load_dataset(data_path, users_path)))
        out_path.write_text(json.dumps(figs), encoding="utf-8")
        return

    figs["ingest.peak_mb"] = _peak_mb(lambda: load_dataset(data_path))
    data = load_dataset(data_path)
    b = build_bipartite(data)
    for mode in (USER_MODE, THREAD_MODE):
        g = project(b, mode)
        n = len(g.nodes)
        adj, figs[f"paths.adjacency_{mode}_s"] = _timed(lambda: adjacency_matrix(g))
        dist, figs[f"paths.distances_{mode}_s"] = _timed(lambda: all_pairs_distances(adj))
        _, figs[f"paths.betweenness_{mode}_s"] = _timed(lambda: betweenness_raw(adj))
        _, figs[f"paths.components_{mode}_s"] = _timed(lambda: connected_components(g))
        figs[f"paths.levels_{mode}"] = int(dist.max()) if n else 0
        # one dense n x n float64 matrix, from its size alone (not measured)
        figs[f"paths.dense_mb_{mode}"] = n * n * 8 / MB
        del adj, dist

        def paths_pass(g=g):
            adj = adjacency_matrix(g)
            all_pairs_distances(adj)
            betweenness_raw(adj)
            connected_components(g)

        figs[f"paths.peak_mb_{mode}"] = _peak_mb(paths_pass)
    if figures:
        figs["viz.peak_mb_bipartite"] = _peak_mb(lambda: layout(b))
    out_path.write_text(json.dumps(figs), encoding="utf-8")


def main(argv: list[str]) -> int:
    if argv[:1] == ["spans"] and argv[2:3] == ["--"]:
        return run_spans(Path(argv[1]), argv[3:])
    if argv[:1] == ["layers"] and len(argv) in (5, 6):
        run_layers(Path(argv[1]), argv[2], argv[3] == "1", argv[4],
                   argv[5] if len(argv) == 6 else None)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
