"""Benchmark forumnet end to end through its command-line interface.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The benchmark generates the workload's
inputs from ``--seed`` (set-up), then runs the workload's ``forumnet``
command as a user would, one child process per operation, cycling
through the inputs for ``--seconds`` seconds, and checks every output
against values computed apart from the program (``checks.py``). All
executions on one input in one invocation must write byte-identical
artifacts; an operation whose artifacts differ from the first one's on
that input counts as failed.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced executions and reports the per-layer
metrics (see README.md). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_analysis, check_ingest, digest_tree
from inputs import make_ingest_input

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
TRACES = BENCH / "_traces"

SETUP_REPEATS = 3
# Inputs drawn from different seeds differ in work: at paper scale the
# incidence count ranges from 2.6k to 6.2k and an execution's time by
# about 20%. A run cycles through this many inputs, drawn from sub-seeds
# of --seed, and averages them, so one seed's draw sways a run less.
INPUTS_PER_RUN = 3
STARTUP_REPEATS = 5
DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s

# One BLAS thread: the commands are mostly single-threaded Python, and on
# a 2-core host a second BLAS thread only competes with the host's other
# load. PYTHONHASHSEED=0 gives every execution the same string hashes, so
# the same dict and set layouts (the artifacts do not depend on them).
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(ROOT / "src"),
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    PYTHONHASHSEED="0",
)
FORUMNET = [sys.executable, "-m", "forumnet"]


@dataclass(frozen=True)
class Workload:
    kind: str  # "analyze" or "ingest"
    users: int = 0
    threads: int = 0
    posts: int = 0
    alpha: float = 1.0
    figures: bool = True


# BENCHMARK.json lists paper and sparse-large. ingest runs the same way by
# hand: its executions vary more than twice as much as the analyze ones on a
# shared host, too much for a 25% bound on ten runs (README, "Noise and
# bounds").
WORKLOADS = {
    "paper": Workload("analyze", users=621, threads=723, posts=7089, alpha=1.5),
    "sparse-large": Workload("analyze", users=1863, threads=1500, posts=9000, alpha=1.0,
                             figures=False),
    "ingest": Workload("ingest"),
}

END_TO_END = {"run_s": "s", "posts_per_s": "posts/s", "peak_rss_mb": "MB", "setup_s": "s"}

# Every per-layer metric, reported on every workload; a layer that does no
# work on a workload reads 0 there.
PER_LAYER = {
    "ingest.parse_s": "s", "ingest.serialize_s": "s", "ingest.overview_s": "s",
    "ingest.peak_mb": "MB", "ingest.rows": "count", "ingest.retained": "count",
    "ingest.rejected": "count",
    "graph.bipartite_s": "s", "graph.project_user_s": "s", "graph.project_thread_s": "s",
    "graph.incidences": "count", "graph.user_n": "count", "graph.user_m": "count",
    "graph.thread_n": "count", "graph.thread_m": "count",
    **{f"paths.{what}_{mode}_s": "s" for mode in ("user", "thread")
       for what in ("adjacency", "distances", "betweenness", "components")},
    **{f"paths.{what}_{mode}": unit for mode in ("user", "thread")
       for what, unit in (("peak_mb", "MB"), ("levels", "count"), ("dense_mb", "MB"))},
    "metrics.structural_user_s": "s", "metrics.structural_thread_s": "s",
    "centrality.table_user_s": "s", "centrality.table_thread_s": "s",
    **{f"viz.layout_{net}_s": "s" for net in ("bipartite", "user", "thread")},
    "viz.thin_user_s": "s", "viz.thin_thread_s": "s", "viz.export_s": "s",
    "viz.peak_mb_bipartite": "MB",
    **{f"viz.layout_{what}_{net}": "count" for what in ("nodes", "edges")
       for net in ("bipartite", "user", "thread")},
    "report.pipeline_s": "s", "report.self_s": "s", "report.artifacts": "count",
    "report.artifact_bytes": "bytes",
    "cli.startup_s": "s",
    "trace.run_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Op:
    wall_s: float
    rss_mb: float
    ok: bool


class Runner:
    """Spawns children from the checkout root under one shared deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawned = 0

    def spawn(self, cmd: list[str]) -> Op:
        """Run ``cmd`` to its end; wall time from spawn to exit and the
        child's own peak RSS (``wait4``, not RUSAGE_CHILDREN)."""
        self.spawned += 1
        log = self.work / f"child{self.spawned}.log"
        with log.open("wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"exit {proc.returncode}: {' '.join(cmd)}\n{tail}", file=sys.stderr)
        return Op(wall, usage.ru_maxrss / 1024.0, proc.returncode == 0)


class Workspace:
    """Inputs, the command under test and its checks for one workload."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.name, self.seed, self.runner = name, seed, runner
        self.spec = WORKLOADS[name]
        self.work = runner.work
        self.ingest_inputs = []
        self.problems: list[str] = []

    def seeds(self) -> range:
        return range(self.seed * INPUTS_PER_RUN, (self.seed + 1) * INPUTS_PER_RUN)

    def setup_once(self) -> None:
        spec, work = self.spec, self.work
        if spec.kind == "ingest":
            self.ingest_inputs = [make_ingest_input(seed) for seed in self.seeds()]
            for k, made in enumerate(self.ingest_inputs):
                (work / f"posts{k}.csv").write_text(made.posts_csv, encoding="utf-8")
                (work / f"users{k}.csv").write_text(made.users_csv, encoding="utf-8")
            return
        for k, seed in enumerate(self.seeds()):
            op = self.runner.spawn(FORUMNET + [
                "synth", "--users", str(spec.users), "--threads", str(spec.threads),
                "--posts", str(spec.posts), "--alpha", str(spec.alpha), "--seed", str(seed),
                "--out", str(work / f"input{k}.json"),
            ])
            if not op.ok:
                self.problems.append("forumnet synth failed during set-up")
        (work / "config.json").write_text(
            json.dumps({} if spec.figures else {"figures": []}), encoding="utf-8")

    def setup(self) -> list[float]:
        """Generate and write the inputs SETUP_REPEATS times; the copies must agree."""
        times, digests = [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - start)
            digests.add(tuple(sorted(
                (k, v) for k, v in digest_tree(self.work).items() if not k.endswith(".log"))))
        if len(digests) != 1:
            self.problems.append("set-up wrote different inputs for the same seed")
        return times

    def posts(self, k: int) -> int:
        return self.ingest_inputs[k].rows if self.spec.kind == "ingest" else self.spec.posts

    def data(self, k: int) -> list[str]:
        if self.spec.kind == "ingest":
            return [str(self.work / f"posts{k}.csv"), str(self.work / f"users{k}.csv")]
        return [str(self.work / f"input{k}.json")]

    def args(self, out_dir: Path, k: int) -> list[str]:
        if self.spec.kind == "ingest":
            posts, users = self.data(k)
            return ["ingest", "--posts", posts, "--users", users, "--out", str(out_dir)]
        return ["analyze", "--data", *self.data(k), "--out", str(out_dir), "--thin-sd", "1.0",
                "--layout-seed", "42", "--config", str(self.work / "config.json")]

    def check(self, out_dir: Path, k: int) -> list[str]:
        if self.spec.kind == "ingest":
            return check_ingest(self.ingest_inputs[k], out_dir)
        return check_analysis(Path(self.data(k)[0]), out_dir, self.spec.figures, self.seed)


class Ops:
    """Executions of the workload's command; for each input, the first
    success is the reference every later execution's artifacts must equal."""

    def __init__(self, workspace: Workspace):
        self.ws = workspace
        self.done: list[tuple[int, Op]] = []  # (input, execution)
        self.references: dict[int, tuple[Path, dict[str, str]]] = {}

    def run(self, k: int, cmd_for) -> Op:
        out_dir = self.ws.work / f"out{len(self.done)}"
        op = self.ws.runner.spawn(cmd_for(out_dir, k))
        if op.ok:
            digest = digest_tree(out_dir)
            reference, reference_digest = self.references.setdefault(k, (out_dir, digest))
            if digest != reference_digest:
                op.ok = False
                print(f"{out_dir.name}: artifacts differ from {reference.name}",
                      file=sys.stderr)
        if out_dir != self.references.get(k, (None,))[0]:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.done.append((k, op))
        return op

    @property
    def failed(self) -> int:
        return sum(1 for _, op in self.done if not op.ok)

    def per_input_mean(self, value) -> float:
        """Mean over the inputs of the mean of ``value(op)`` over that
        input's successful executions (all executions if none succeeded)."""
        by_input: dict[int, list[Op]] = {}
        for k, op in self.done:
            by_input.setdefault(k, []).append(op)
        return statistics.fmean(
            statistics.fmean(value(op) for op in ([op for op in ops if op.ok] or ops))
            for ops in by_input.values())


def _layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Sum span time per layer metric; counts from the spans' results;
    report.self_s is the pipeline span minus its children."""
    out: dict[str, float] = {}
    for span in spans:
        name = span["name"]
        out[name + "_s"] = out.get(name + "_s", 0.0) + span["end"] - span["start"]
        counts = span.get("counts", {})
        if name == "ingest.parse":
            out.update({f"ingest.{k}": v for k, v in counts.items()})
        elif name == "graph.bipartite":
            out["graph.incidences"] = counts["incidences"]
        elif name.startswith("graph.project_"):
            mode = name.rsplit("_", 1)[1]
            out[f"graph.{mode}_n"], out[f"graph.{mode}_m"] = counts["n"], counts["m"]
        elif name.startswith("viz.layout_"):
            net = name.rsplit("_", 1)[1]
            out[f"viz.layout_nodes_{net}"] = counts["nodes"]
            out[f"viz.layout_edges_{net}"] = counts["edges"]
    for span in spans:
        if span["name"] == "report.pipeline":
            children = sum(s["end"] - s["start"] for s in spans if s["parent"] == span["id"])
            out["report.self_s"] = out.get("report.self_s", 0.0) + (
                span["end"] - span["start"] - children)
    return out


def time_is_up(start: float, seconds: float, rounds: int) -> bool:
    """Whole rounds only: stop when one more round of average length would
    end further past ``seconds`` than the run now falls short of it, so a
    run ends within half a round of ``seconds``, on either side."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds / 2 >= seconds


def run_timed(ws: Workspace, seconds: float) -> tuple[Ops, dict]:
    ops = Ops(ws)
    start = time.perf_counter()
    while True:
        ops.run(len(ops.done) % INPUTS_PER_RUN, lambda out, k: FORUMNET + ws.args(out, k))
        if time_is_up(start, seconds, len(ops.done)):
            return ops, {}


def run_traced(ws: Workspace, seconds: float) -> tuple[Ops, dict]:
    """Pairs of (untraced, traced) executions, then the layer passes."""
    ops = Ops(ws)
    untraced, traced, executions, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        k = len(traced) % INPUTS_PER_RUN  # both executions of a pair read the same input
        untraced.append(ops.run(k, lambda out, k: FORUMNET + ws.args(out, k)))
        trace_file = ws.work / f"spans{len(traced)}.json"
        traced.append(ops.run(k, lambda out, k: [sys.executable, str(BENCH / "traced.py"),
                                                 "spans", str(trace_file), "--"]
                              + ws.args(out, k)))
        spans = (json.loads(trace_file.read_text(encoding="utf-8"))["spans"]
                 if trace_file.is_file() else [])
        executions.append(spans)
        layers.append(_layer_metrics(spans))
        if time_is_up(start, seconds, len(traced)):
            break

    figs = {name: statistics.median_low([m.get(name, 0) for m in layers]) for name in PER_LAYER}
    startup = [ws.runner.spawn(FORUMNET + ["--version"]).wall_s for _ in range(STARTUP_REPEATS)]
    figs["cli.startup_s"] = statistics.median(startup)
    figs["trace.run_s"] = statistics.fmean(op.wall_s for op in traced)
    figs["trace.overhead_s"] = figs["trace.run_s"] - statistics.fmean(op.wall_s for op in untraced)

    layer_file = ws.work / "layers.json"
    if ws.runner.spawn([sys.executable, str(BENCH / "traced.py"), "layers", str(layer_file),
                        ws.spec.kind, "1" if ws.spec.figures else "0", *ws.data(0)]).ok:
        figs.update(json.loads(layer_file.read_text(encoding="utf-8")))
    else:
        ws.problems.append("layer pass failed")

    if 0 in ops.references:
        files = [p for p in ops.references[0][0].rglob("*") if p.is_file()]
        figs["report.artifacts"] = len(files)
        figs["report.artifact_bytes"] = sum(p.stat().st_size for p in files)

    TRACES.mkdir(exist_ok=True)
    (TRACES / f"{ws.name}-seed{ws.seed}.json").write_text(
        json.dumps({"workload": ws.name, "seed": ws.seed, "executions": executions,
                    "layers": figs}, indent=1), encoding="utf-8")
    return ops, figs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "forumnet" / "cli.py").is_file():
        print(f"error: no forumnet sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        ws = Workspace(args.workload, args.seed, runner)
        # compile the package once, as an installed copy would be
        runner.spawn(FORUMNET + ["--version"])
        setup_times = ws.setup()
        measure = run_traced if args.trace else run_timed
        ops, layer_figs = measure(ws, args.seconds)

        for k in sorted({k for k, _ in ops.done}):
            if k in ops.references:
                ws.problems += ws.check(ops.references[k][0], k)
            else:
                ws.problems.append(f"no execution on input {k} succeeded")
        for problem in ws.problems:
            print(f"check failed: {problem}", file=sys.stderr)

        if args.trace:
            metrics = {name: {"value": layer_figs.get(name, 0.0), "unit": unit}
                       for name, unit in PER_LAYER.items()}
        else:
            # means over the run's executions, not their median: the
            # host's speed moves in phases of 20-60 s, and the median of a
            # few executions follows one phase where the mean averages them
            run_s = ops.per_input_mean(lambda op: op.wall_s)
            posts = statistics.fmean(ws.posts(k) for k in range(INPUTS_PER_RUN))
            values = {
                "run_s": run_s,
                "posts_per_s": posts / run_s,
                "peak_rss_mb": ops.per_input_mean(lambda op: op.rss_mb),
                "setup_s": statistics.median(setup_times),
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
        for name, metric in metrics.items():
            print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
        print(json.dumps({
            "correct": not ws.problems,
            "attempted": len(ops.done),
            "failed": ops.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
