"""Self-tests of the benchmark: every check accepts forumnet's real output
and rejects a copy with one planted fault, so that no check is vacuous.

    python3 perfbench/selftest.py

Runs on a small forum in a few seconds, from the root of a checkout. The
file is not named ``test_*.py``, so the repository's own pytest run does
not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import unittest
from pathlib import Path

import run as bench
from checks import check_analysis, check_ingest, digest_tree
from inputs import make_ingest_input

SCRATCH = bench.WORK / "selftest"


def forumnet(*args: str) -> None:
    subprocess.run(bench.FORUMNET + list(args), cwd=bench.ROOT, env=bench.CHILD_ENV,
                   check=True, stdout=subprocess.DEVNULL)


def corrupt(out_dir: Path, relative: str, edit) -> Path:
    """Copy ``out_dir`` and rewrite one file of the copy with ``edit(text)``."""
    copy = SCRATCH / f"corrupt-{relative.replace('/', '-')}"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out_dir, copy)
    path = copy / relative
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return copy


def edit_csv_cell(row: int, column: int, change):
    """Editor for CSV text: apply ``change`` to one data cell."""
    def edit(text: str) -> str:
        lines = text.splitlines()
        cells = lines[row + 1].split(",")
        cells[column] = change(cells[column])
        lines[row + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


class AnalysisChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)
        cls.input = SCRATCH / "input.json"
        cls.out = SCRATCH / "out"
        forumnet("synth", "--users", "30", "--threads", "25", "--posts", "160",
                 "--alpha", "1.2", "--seed", "5", "--out", str(cls.input))
        forumnet("analyze", "--data", str(cls.input), "--out", str(cls.out),
                 "--thin-sd", "1.0", "--layout-seed", "42")

    def problems(self, out_dir: Path) -> list[str]:
        return check_analysis(self.input, out_dir, figures=True, sample_seed=1)

    def assertRejected(self, out_dir: Path, artifact: str) -> None:
        found = self.problems(out_dir)
        self.assertTrue(any(artifact in p for p in found), found)

    def test_accepts_real_output(self):
        self.assertEqual(self.problems(self.out), [])

    def test_rejects_changed_edge_weight(self):
        bad = corrupt(self.out, "user_edges.csv", edit_csv_cell(0, 2, lambda w: str(int(w) + 1)))
        self.assertRejected(bad, "user_edges.csv")

    def test_rejects_changed_node_attribute(self):
        bad = corrupt(self.out, "thread_nodes.csv", edit_csv_cell(3, 1, lambda a: str(int(a) + 1)))
        self.assertRejected(bad, "thread_nodes.csv")

    def test_rejects_doubled_betweenness(self):
        def double(text: str) -> str:
            lines = text.splitlines()
            rows = [line.split(",") for line in lines[1:]]
            for cells in rows:
                cells[3] = repr(2 * float(cells[3]))
            return "\n".join([lines[0]] + [",".join(c) for c in rows]) + "\n"
        self.assertRejected(corrupt(self.out, "user_centrality.csv", double), "betweenness")

    def test_rejects_changed_closeness(self):
        bad = corrupt(self.out, "user_centrality.csv",
                      edit_csv_cell(0, 2, lambda c: repr(float(c) * 0.9 + 0.01)))
        self.assertRejected(bad, "closeness")

    def test_rejects_changed_degree(self):
        bad = corrupt(self.out, "thread_centrality.csv",
                      edit_csv_cell(1, 1, lambda d: repr(float(d) + 0.01)))
        self.assertRejected(bad, "degree")

    def test_rejects_wrong_structural_measure(self):
        def shift(text: str) -> str:
            doc = json.loads(text)
            doc["diameter"] += 1
            return json.dumps(doc)
        self.assertRejected(corrupt(self.out, "user_structural.json", shift), "diameter")

    def test_rejects_position_outside_unit_square(self):
        bad = corrupt(self.out, "figures/user_positions.csv", edit_csv_cell(2, 1, lambda x: "1.5"))
        self.assertRejected(bad, "user_positions.csv")

    def test_rejects_missing_svg_line(self):
        def drop_line(text: str) -> str:
            lines = text.splitlines()
            first = next(i for i, line in enumerate(lines) if "<line " in line)
            return "\n".join(lines[:first] + lines[first + 1:]) + "\n"
        self.assertRejected(corrupt(self.out, "figures/thread.svg", drop_line), "thread.svg")

    def test_rejects_svg_that_is_not_xml(self):
        bad = corrupt(self.out, "figures/bipartite.svg", lambda text: text[: len(text) // 2])
        self.assertRejected(bad, "bipartite.svg")

    def test_rejects_unlisted_artifact(self):
        bad = corrupt(self.out, "manifest.json", lambda text: text)
        (bad / "stray.txt").write_text("x", encoding="utf-8")
        self.assertRejected(bad, "manifest.json")

    def test_digest_sees_one_changed_byte(self):
        bad = corrupt(self.out, "core.json", lambda text: text.replace("0", "1", 1))
        self.assertNotEqual(digest_tree(self.out), digest_tree(bad))


class IngestChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        cls.expected = make_ingest_input(seed=3, rows=4000, users=120, threads=300, forums=3,
                                         idle_users=10)
        posts, users = SCRATCH / "posts.csv", SCRATCH / "users.csv"
        posts.write_text(cls.expected.posts_csv, encoding="utf-8")
        users.write_text(cls.expected.users_csv, encoding="utf-8")
        cls.out = SCRATCH / "ingested"
        forumnet("ingest", "--posts", str(posts), "--users", str(users), "--out", str(cls.out))

    def edited(self, change) -> Path:
        def edit(text: str) -> str:
            doc = json.loads(text)
            change(doc)
            return json.dumps(doc)
        return corrupt(self.out, "dataset.json", edit)

    def test_accepts_real_output(self):
        self.assertEqual(check_ingest(self.expected, self.out), [])

    def test_rejects_dropped_rejection(self):
        bad = self.edited(lambda doc: doc["rejected"].pop())
        self.assertTrue(check_ingest(self.expected, bad))

    def test_rejects_relabelled_rejection(self):
        def relabel(doc):
            doc["rejected"][0]["reason"] = "bad timestamp" if (
                doc["rejected"][0]["reason"] != "bad timestamp") else "missing user_id"
        self.assertTrue(check_ingest(self.expected, self.edited(relabel)))

    def test_rejects_changed_post(self):
        def move(doc):
            doc["posts"][5]["user_id"] = "u99999"
        self.assertTrue(check_ingest(self.expected, self.edited(move)))

    def test_rejects_moved_thread_start(self):
        def flip(doc):
            doc["posts"][0]["is_thread_start"] = not doc["posts"][0]["is_thread_start"]
        self.assertTrue(check_ingest(self.expected, self.edited(flip)))


class BenchmarkFile(unittest.TestCase):
    def test_declares_what_run_reports(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [w["name"] for w in spec["workloads"]]
        self.assertLessEqual(set(names), set(bench.WORKLOADS))
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, bench.PER_LAYER)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
