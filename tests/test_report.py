"""Pipeline orchestration, artifact layout, provenance, and the CLI."""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet import cli, report, text
from forumnet.centrality import MEASURES, centrality_table, core_set
from forumnet.errors import ConfigError
from forumnet.graph import USER_MODE, build_bipartite, project
from forumnet.ingest import (
    POSTS_COLUMNS, START_COLUMN, activity_overview, dataset_to_json, load_dataset, posts_csv,
)
from forumnet.metrics import structural_report
from forumnet.paths import path_stats
from forumnet.report import PipelineConfig, run_pipeline
from forumnet.synth import SynthConfig, generate
from forumnet.text import json_text
from forumnet.viz import ThinningSpec, export_graph, layout, thin

from helpers import dataset_from_posts

TOY_ROWS = [("u1", "t1"), ("u2", "t1"), ("u2", "t2"), ("u3", "t2")]
SMALL_CSV = (
    "post_id,thread_id,user_id,forum_id,timestamp\n"
    "p1,t1,u1,f1,2012-01-01T00:00:00Z\n"
    "p2,t1,u2,f1,2012-01-02T00:00:00Z\n"
)
REJECTED_CSV = "post_id,thread_id,user_id,forum_id,timestamp\np1,t1,u1,f1,nonsense\n"
HEADER_ONLY_CSV = "post_id,thread_id,user_id,forum_id,timestamp\n"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "forumnet", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def tree(root):
    """Every file under ``root`` by relative path, with its bytes."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def boom(*_, **__):
    raise RuntimeError("forced failure")


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def centrality_rows(path):
    """The rows of a written centrality CSV, each measure as a float."""
    with path.open(encoding="utf-8", newline="") as file:
        return [
            {key: value if key == "node_id" else float(value) for key, value in row.items()}
            for row in csv.DictReader(file)
        ]


def test_toy_bundle_composition(tmp_path):
    data = dataset_from_posts(TOY_ROWS)
    out = tmp_path / "out"
    artifacts = run_pipeline(data, PipelineConfig(out_dir=out))
    assert read_json(out / "user_structural.json")["n"] == 3
    assert read_json(out / "thread_structural.json")["n"] == 2
    assert len(centrality_rows(out / "user_centrality.csv")) == 3
    assert len(centrality_rows(out / "thread_centrality.csv")) == 2
    figures = [a for a in artifacts if a.startswith("figures/")]
    assert figures
    for artifact in artifacts:
        assert (out / artifact).is_file()


def test_empty_dataset_zero_reports_no_figures(tmp_path):
    out = tmp_path / "out"
    artifacts = run_pipeline(dataset_from_posts([]), PipelineConfig(out_dir=out))
    assert read_json(out / "user_structural.json")["n"] == 0
    assert read_json(out / "thread_structural.json")["n"] == 0
    assert read_json(out / "core.json")["members"] == []
    assert read_json(out / "silent.json")["users"] == []
    assert not [a for a in artifacts if a.startswith("figures/")]
    assert (out / "overview.json").is_file()


def test_fixed_artifact_names(tmp_path):
    data = dataset_from_posts(TOY_ROWS)
    artifacts = run_pipeline(data, PipelineConfig(out_dir=tmp_path / "out"))
    names = set(artifacts)
    for expected in (
        "overview.json",
        "user_structural.json",
        "thread_structural.json",
        "user_centrality.csv",
        "thread_centrality.csv",
        "core.json",
        "manifest.json",
        "silent.json",
    ):
        assert expected in names
    manifest = read_json(tmp_path / "out" / "manifest.json")
    # run_pipeline returns the manifest's entries, in order, then the manifest
    assert artifacts == [*manifest["artifacts"], "manifest.json"]


def test_bundle_internal_consistency(tmp_path):
    data = generate(SynthConfig(user_count=25, thread_count=15, post_count=150, seed=12))
    out = tmp_path / "out"
    run_pipeline(data, PipelineConfig(out_dir=out))
    for mode in ("user", "thread"):
        rows = centrality_rows(out / f"{mode}_centrality.csv")
        assert len(rows) == read_json(out / f"{mode}_structural.json")["n"]
        summaries = read_json(out / f"{mode}_centrality_summary.json")["measures"]
        for measure in MEASURES:
            values, summary = np.array([row[measure] for row in rows]), summaries[measure]
            assert summary["min"] == pytest.approx(values.min())
            assert summary["max"] == pytest.approx(values.max())
            assert summary["mean"] == pytest.approx(values.mean())
            assert summary["median"] == pytest.approx(np.median(values))


def test_structural_json_matches_bundle(tmp_path):
    data = dataset_from_posts(TOY_ROWS)
    run_pipeline(data, PipelineConfig(out_dir=tmp_path / "out"))
    payload = read_json(tmp_path / "out" / "user_structural.json")
    payload.pop("provenance")
    g = project(build_bipartite(data), USER_MODE)
    assert payload == structural_report(g, path_stats(g)).to_dict()


def test_provenance_embedded_everywhere(tmp_path):
    data = dataset_from_posts(TOY_ROWS)
    config = PipelineConfig(out_dir=tmp_path / "out", bipartite_norm=True)
    artifacts = run_pipeline(data, config)
    provenance = report._provenance(data, config)
    checksum = hashlib.sha256(dataset_to_json(data).encode()).hexdigest()
    assert provenance["input_sha256"] == checksum
    written = [artifact for artifact in artifacts if artifact.endswith(".json")]
    assert len(written) == 9  # overview, 2 structural, 2 summaries, core, silent, bipartite, manifest
    for artifact in written:
        payload = read_json(tmp_path / "out" / artifact)
        assert payload["provenance"] == provenance
        assert payload["provenance"]["input_sha256"] == checksum
        assert payload["provenance"]["tool"] == "forumnet"


# sha256 of the JSON artifacts that no other pin covers, as analyze writes
# them with bipartite_norm on synth 60/80/400, alpha 1.5, seed 3. None
# holds a BLAS-dependent float. Each embeds the provenance block, so a new
# version or config default moves them all.
PINNED_JSON = {
    "bipartite.json": "147b452df93e9ae217ec9cc7564b6a49e76de30f1e1af26c550ebba6f6274299",
    "manifest.json": "f1d1539be719984f03e0d040db04651989e448d90889b708bc1cce665042603b",
    "overview.json": "5834115efbb52e648f4419c863a912ec8f4f0371cc0c38f5460665e4247f85fe",
    "silent.json": "e28dcc6715f274f488380d8fe95f2100abf03a5a8122904cbe51b6974059ce1b",
}


def test_written_json_artifacts_are_byte_pinned(tmp_path):
    data = generate(
        SynthConfig(user_count=60, thread_count=80, post_count=400, skew_alpha=1.5, seed=3)
    )
    out = tmp_path / "out"
    run_pipeline(data, PipelineConfig(out_dir=out, bipartite_norm=True))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_JSON}
    assert digests == PINNED_JSON


def test_reruns_are_byte_identical(tmp_path):
    data = generate(SynthConfig(user_count=12, thread_count=9, post_count=60, seed=13))
    first = run_pipeline(data, PipelineConfig(out_dir=tmp_path / "a"))
    second = run_pipeline(data, PipelineConfig(out_dir=tmp_path / "b"))
    assert first == second
    for artifact in first:
        assert (tmp_path / "a" / artifact).read_bytes() == (
            tmp_path / "b" / artifact
        ).read_bytes()


def test_artifacts_do_not_depend_on_the_write_chunks(tmp_path, monkeypatch):
    """Edge lists and figures written a few ties to a chunk give the same
    bytes, multi-byte UTF-8 names included."""
    rows = [("ü1", "字1"), ("ü2", "字1"), ("é3", "字1"), ("ü2", "t2"), ("é3", "t2"), ("u4", "t2")]
    data = dataset_from_posts(rows)
    run_pipeline(data, PipelineConfig(out_dir=tmp_path / "whole"))
    monkeypatch.setattr(text, "TIE_CHUNK", 2)
    run_pipeline(data, PipelineConfig(out_dir=tmp_path / "chunked"))
    whole = tree(tmp_path / "whole")
    assert "字1" in whole["thread_nodes.csv"].decode("utf-8")
    assert whole == tree(tmp_path / "chunked")


def test_one_shortest_path_pass_per_projection(tmp_path, monkeypatch):
    import forumnet.paths as paths_module

    calls = Counter()

    def counted(name):
        original = getattr(paths_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(paths_module, name, wrapper)

    counted("_source_blocks")
    passes = []

    def counted_pass(g, betweenness=True):
        passes.append(betweenness)
        return path_stats(g, betweenness)

    monkeypatch.setattr(report, "path_stats", counted_pass)
    run_pipeline(dataset_from_posts(TOY_ROWS), PipelineConfig(out_dir=tmp_path / "out"))
    # both toy projections are non-empty: one full pass and one search each,
    # read by both the structural report and the centrality table
    assert passes == [True, True]
    assert calls == {"_source_blocks": 2}


def test_failure_rolls_back_partial_output(tmp_path, monkeypatch):
    import forumnet.report as report_module

    def boom(*_):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(report_module, "centrality_table", boom)
    out_dir = tmp_path / "doomed"
    with pytest.raises(RuntimeError):
        run_pipeline(dataset_from_posts(TOY_ROWS), PipelineConfig(out_dir=out_dir))
    assert not out_dir.exists()


def test_rerun_publishes_only_the_new_artifact_set(tmp_path):
    data = dataset_from_posts(TOY_ROWS)
    out_dir = tmp_path / "out"
    run_pipeline(data, PipelineConfig(out_dir=out_dir, bipartite_norm=True))
    assert (out_dir / "bipartite.json").is_file()
    artifacts = run_pipeline(data, PipelineConfig(out_dir=out_dir))
    assert not (out_dir / "bipartite.json").exists()
    assert sorted(tree(out_dir)) == sorted(artifacts)
    assert os.listdir(tmp_path) == ["out"]  # no stage or old directory beside it


def test_failed_rerun_leaves_previous_output_untouched(tmp_path, monkeypatch):
    import forumnet.report as report_module

    out_dir = tmp_path / "out"
    run_pipeline(dataset_from_posts(TOY_ROWS), PipelineConfig(out_dir=out_dir))
    before = tree(out_dir)
    monkeypatch.setattr(report_module, "centrality_table", boom)
    with pytest.raises(RuntimeError):
        run_pipeline(
            dataset_from_posts(TOY_ROWS[:3]),
            PipelineConfig(out_dir=out_dir, bipartite_norm=True),
        )
    assert tree(out_dir) == before
    assert os.listdir(tmp_path) == ["out"]


def test_failed_first_run_keeps_only_created_ancestors(tmp_path, monkeypatch):
    import forumnet.report as report_module

    monkeypatch.setattr(report_module, "export_graph", boom)
    out_dir = tmp_path / "a" / "b" / "out"
    with pytest.raises(RuntimeError):
        run_pipeline(dataset_from_posts(TOY_ROWS), PipelineConfig(out_dir=out_dir))
    assert os.listdir(tmp_path / "a" / "b") == []


def test_figure_failing_mid_stream_leaves_previous_output_untouched(tmp_path, monkeypatch):
    """A figure is written chunk by chunk as its exporter yields them, so
    it can fail with its file open and half written; the stage goes, and
    the previous output stays as it was."""
    out_dir = tmp_path / "out"
    run_pipeline(dataset_from_posts(TOY_ROWS), PipelineConfig(out_dir=out_dir))
    before = tree(out_dir)
    taken = []

    def half_written(*_, **__):
        taken.append("head")
        yield "<svg>\n"
        raise RuntimeError("figure failed mid-stream")

    monkeypatch.setattr(report, "export_graph", half_written)
    with pytest.raises(RuntimeError, match="mid-stream"):
        run_pipeline(dataset_from_posts(TOY_ROWS[:3]), PipelineConfig(out_dir=out_dir))
    assert taken == ["head"]
    assert tree(out_dir) == before
    assert os.listdir(tmp_path) == ["out"]


def test_failed_swap_puts_the_previous_output_back(tmp_path, monkeypatch):
    """When the stage cannot be renamed to ``out_dir``, the previous
    output, already moved aside, is renamed back and the box goes."""
    out_dir = tmp_path / "out"
    run_pipeline(dataset_from_posts(TOY_ROWS), PipelineConfig(out_dir=out_dir))
    before = tree(out_dir)
    rename = Path.rename

    def refused(self, target):
        if self.name == "new" and Path(target) == out_dir.resolve():
            raise OSError("forced rename failure")
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", refused)
    with pytest.raises(OSError, match="forced rename failure"):
        run_pipeline(dataset_from_posts(TOY_ROWS[:3]), PipelineConfig(out_dir=out_dir))
    assert tree(out_dir) == before
    assert os.listdir(tmp_path) == ["out"]


def test_published_directory_has_plain_mkdir_mode(tmp_path):
    probe = tmp_path / "probe"
    probe.mkdir()
    expected = stat.S_IMODE(probe.stat().st_mode)
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    existing.mkdir(mode=0o700)
    for out_dir in (fresh, existing):
        run_pipeline(dataset_from_posts(TOY_ROWS), PipelineConfig(out_dir=out_dir))
        for directory in (out_dir, out_dir / "figures"):
            assert stat.S_IMODE(directory.stat().st_mode) == expected


@pytest.mark.parametrize("occupant", ["notes.txt", "subdir"])
def test_cli_refuses_foreign_output_directory(tmp_path, occupant):
    data = tmp_path / "posts.csv"
    data.write_text(SMALL_CSV, encoding="utf-8")
    out_dir = tmp_path / "mine"
    out_dir.mkdir()
    if occupant == "subdir":
        (out_dir / occupant).mkdir()
        (out_dir / occupant / "keep.txt").write_text("keep", encoding="utf-8")
    else:
        (out_dir / occupant).write_text("keep", encoding="utf-8")
    before = tree(out_dir)
    result = run_cli("analyze", "--data", str(data), "--out", str(out_dir))
    assert result.returncode == 2
    assert "manifest.json" in result.stderr
    assert tree(out_dir) == before
    assert sorted(os.listdir(tmp_path)) == ["mine", "posts.csv"]


def test_cli_refuses_output_path_that_is_a_file(tmp_path):
    data = tmp_path / "posts.csv"
    data.write_text(SMALL_CSV, encoding="utf-8")
    result = run_cli("analyze", "--data", str(data), "--out", str(data))
    assert result.returncode == 2
    assert "not a directory" in result.stderr
    assert data.read_text(encoding="utf-8") == SMALL_CSV


def test_out_dir_is_checked_where_a_symlink_and_dotdot_lead(tmp_path):
    """``link/../res`` names the ``res`` beside the link's target, not the
    one beside the link: a foreign directory there is refused and kept."""
    (tmp_path / "x" / "sub").mkdir(parents=True)
    (tmp_path / "w").mkdir()
    (tmp_path / "w" / "link").symlink_to(tmp_path / "x" / "sub", target_is_directory=True)
    foreign = tmp_path / "x" / "res"
    foreign.mkdir()
    (foreign / "keep.txt").write_text("keep", encoding="utf-8")
    config = PipelineConfig(out_dir=tmp_path / "w" / "link" / ".." / "res")
    with pytest.raises(ConfigError, match="holds no manifest.json"):
        run_pipeline(dataset_from_posts(TOY_ROWS[:3]), config)
    assert tree(foreign) == {"keep.txt": b"keep"}
    assert sorted(os.listdir(tmp_path / "x")) == ["res", "sub"]
    assert os.listdir(tmp_path / "w") == ["link"]


def test_cli_refuses_output_path_that_is_a_symlink(tmp_path, capsys):
    data = tmp_path / "posts.csv"
    data.write_text(SMALL_CSV, encoding="utf-8")
    target, link = tmp_path / "real", tmp_path / "link"
    target.mkdir()
    (target / "keep.txt").write_text("keep", encoding="utf-8")
    link.symlink_to(target, target_is_directory=True)
    assert cli.main(["analyze", "--data", str(data), "--out", str(link)]) == 2
    assert "is a file or a symlink" in capsys.readouterr().err
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert tree(target) == {"keep.txt": b"keep"}
    assert sorted(os.listdir(tmp_path)) == ["link", "posts.csv", "real"]


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(core_threshold=1.2).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(thin_sd=-1).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(layout_iterations=0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(weighting="golden").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(figure_format="png").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(figures=("user", "mystery")).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(period="decade").validate()
    for thin_sd in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="thin_sd"):
            PipelineConfig(thin_sd=thin_sd).validate()
    with pytest.raises(ConfigError, match="repeated figure networks"):
        PipelineConfig(figures=("user", "thread", "user")).validate()
    with pytest.raises(ConfigError, match="silent_min_threads"):
        PipelineConfig(silent_min_threads=-1).validate()


def toy_user_table():
    g = project(build_bipartite(dataset_from_posts(TOY_ROWS)), USER_MODE)
    return centrality_table(g, path_stats(g))


@pytest.mark.parametrize(
    "setting, value, library_call, command, message",
    [
        ("thin_sd", -1, lambda: ThinningSpec(k_sd=-1), ["viz", "--mode", "user", "--format", "dot"],
         "thin_sd must be a finite number >= 0"),
        ("core_threshold", 1.5, lambda: core_set(toy_user_table(), 1.5), ["analyze"],
         "core_threshold must be in [0, 1]"),
    ],
    ids=["thin_sd", "core_threshold"],
)
def test_a_range_has_one_check_that_names_the_setting(
    tmp_path, setting, value, library_call, command, message
):
    """The library call, the pipeline config and the CLI flag refuse an
    out-of-range value with the same message, which names the setting."""
    for refused in (library_call, PipelineConfig(**{setting: value}).validate):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            refused()
    data = tmp_path / "posts.csv"
    data.write_text(SMALL_CSV, encoding="utf-8")
    flag = "--" + setting.replace("_", "-")
    result = run_cli(*command, "--data", str(data), "--out", str(tmp_path / "out"),
                     flag, str(value))
    assert (result.returncode, result.stderr) == (2, f"error: {message}\n")


def test_library_defaults_draw_what_a_default_run_draws(tmp_path):
    """A default run takes the library calls' defaults: its overview is
    ``activity_overview``'s, and its user figure is ``thin`` and ``layout``
    of the default projection, byte for byte."""
    data = generate(SynthConfig(user_count=40, thread_count=30, post_count=300, seed=7))
    run_pipeline(data, PipelineConfig(out_dir=tmp_path / "out"))
    overview = json.loads((tmp_path / "out" / "overview.json").read_text(encoding="utf-8"))
    overview.pop("provenance")
    assert overview == activity_overview(data).to_dict()
    g = thin(project(build_bipartite(data), USER_MODE))
    assert 0 < len(g.edges)
    drawn = "".join(export_graph(g, layout(g), format="svg"))
    assert drawn == (tmp_path / "out" / "figures" / "user.svg").read_text(encoding="utf-8")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_json_text_refuses_values_json_cannot_hold(value):
    with pytest.raises(ValueError):
        json_text({"thin_sd": value})


def test_bipartite_norm_flag_adds_report(tmp_path):
    data = dataset_from_posts(TOY_ROWS)
    artifacts = run_pipeline(
        data, PipelineConfig(out_dir=tmp_path / "out", bipartite_norm=True)
    )
    assert "bipartite.json" in artifacts
    payload = json.loads((tmp_path / "out" / "bipartite.json").read_text())
    assert payload["density"] == pytest.approx(4 / 6)


def test_cli_version():
    result = run_cli("--version")
    assert result.returncode == 0
    assert result.stdout.strip().startswith("forumnet ")


def test_cli_synth_ingest_analyze_metrics_viz(tmp_path):
    data_file = tmp_path / "data.json"
    result = run_cli(
        "synth", "--users", "10", "--threads", "6", "--posts", "40",
        "--alpha", "1.2", "--seed", "3", "--out", str(data_file),
    )
    assert result.returncode == 0, result.stderr
    assert data_file.is_file()

    ingest_dir = tmp_path / "ingested"
    result = run_cli("ingest", "--posts", str(data_file), "--out", str(ingest_dir))
    assert result.returncode == 0, result.stderr
    assert (ingest_dir / "dataset.json").is_file()
    assert "40 posts" in result.stdout

    out_dir = tmp_path / "run"
    result = run_cli("analyze", "--data", str(data_file), "--out", str(out_dir))
    assert result.returncode == 0, result.stderr
    assert (out_dir / "overview.json").is_file()
    assert (out_dir / "figures" / "user.svg").is_file()

    result = run_cli("metrics", "--data", str(data_file), "--mode", "user")
    assert result.returncode == 0, result.stderr
    for label in ("Density", "Degree centralization", "Diameter", "Average path length"):
        assert label in result.stdout

    dot_file = tmp_path / "user.dot"
    result = run_cli(
        "viz", "--data", str(data_file), "--mode", "user", "--format", "dot",
        "--out", str(dot_file),
    )
    assert result.returncode == 0, result.stderr
    assert dot_file.read_text().startswith("graph G {")


def test_cli_ingest_csv_reports_rejects(tmp_path):
    posts = tmp_path / "posts.csv"
    posts.write_text(
        "post_id,thread_id,user_id,forum_id,timestamp\n"
        "p1,t1,u1,f1,2012-01-01T00:00:00Z\n"
        "p2,t1,u2,f1,nonsense\n",
        encoding="utf-8",
    )
    result = run_cli("ingest", "--posts", str(posts), "--out", str(tmp_path / "out"))
    assert result.returncode == 0
    doc = json.loads((tmp_path / "out" / "dataset.json").read_text())
    assert len(doc["posts"]) == 1
    assert doc["rejected"][0]["reason"] == "bad timestamp"


# two posts kept, one bad timestamp and two rows with a column too many
MIXED_CSV = SMALL_CSV + (
    "p3,t1,u3,f1,notadate\n"
    "p4,t2,u1,f1,2012-01-03T00:00:00Z,x\n"
    "p5,t2,u2,f1,2012-01-04T00:00:00Z,y\n"
)
READERS = {
    "ingest": ["ingest", "--posts", "{data}", "--out", "{tmp}/clean"],
    "analyze": ["analyze", "--data", "{data}", "--out", "{tmp}/out"],
    "metrics": ["metrics", "--data", "{data}", "--mode", "user"],
    "viz": ["viz", "--data", "{data}", "--mode", "user", "--format", "dot", "--out", "{tmp}/g.dot"],
}


@pytest.mark.parametrize("command", sorted(READERS))
@pytest.mark.parametrize(
    "csv_text, logged",
    [
        (MIXED_CSV, "rejected 1 row: bad timestamp\nrejected 2 rows: wrong column count\n"),
        (SMALL_CSV, ""),
    ],
    ids=["rejections", "clean"],
)
def test_cli_reports_rejected_rows_on_stderr(tmp_path, capsys, command, csv_text, logged):
    """Every command that reads a posts file logs its rejected rows, one
    stderr line per reason with its count, and nothing when none was."""
    data = tmp_path / "posts.csv"
    data.write_text(csv_text, encoding="utf-8")
    argv = [arg.format(data=data, tmp=tmp_path) for arg in READERS[command]]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == logged
    assert not any(line in out for line in logged.splitlines())


def test_analyze_parses_the_bytes_it_hashes(tmp_path, monkeypatch):
    """analyze opens --data once, so input_sha256 describes the bytes analysed."""
    data = tmp_path / "posts.csv"
    data.write_text(SMALL_CSV, encoding="utf-8")
    opened = []
    real_open = Path.open

    def counted_open(self, *args, **kwargs):
        if self == data:
            opened.append(args)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counted_open)
    assert cli.main(["analyze", "--data", str(data), "--out", str(tmp_path / "out")]) == 0
    assert len(opened) == 1
    overview = json.loads((tmp_path / "out" / "overview.json").read_text(encoding="utf-8"))
    checksum = hashlib.sha256(SMALL_CSV.encode()).hexdigest()
    assert overview["provenance"]["input_sha256"] == checksum


def test_library_and_cli_write_the_same_bytes(tmp_path):
    """run_pipeline(load_dataset(p)) and analyze --data p stamp the posts
    file's sha256 as input_sha256, so every artifact matches."""
    data = tmp_path / "posts.csv"
    data.write_text(posts_csv(generate(SynthConfig(user_count=12, thread_count=9,
                                                   post_count=60, seed=5))), encoding="utf-8")
    run_pipeline(load_dataset(data), PipelineConfig(out_dir=tmp_path / "lib"))
    stamped = read_json(tmp_path / "lib" / "overview.json")["provenance"]["input_sha256"]
    assert stamped == hashlib.sha256(data.read_bytes()).hexdigest()
    assert cli.main(["analyze", "--data", str(data), "--out", str(tmp_path / "cli")]) == 0
    assert tree(tmp_path / "lib") == tree(tmp_path / "cli")


@pytest.mark.parametrize("name", ["data.dat", "data"])
def test_dataset_json_of_any_name_is_read_as_json(tmp_path, capsys, name):
    """A dataset JSON that forumnet wrote goes through analyze, metrics
    and viz under any file name: the content gives the format."""
    data = tmp_path / name
    data.write_text(dataset_to_json(dataset_from_posts(TOY_ROWS)), encoding="utf-8")
    for argv in (["analyze", "--data", str(data), "--out", str(tmp_path / "out")],
                 ["metrics", "--data", str(data), "--mode", "user"],
                 ["viz", "--data", str(data), "--mode", "user", "--format", "dot",
                  "--out", str(tmp_path / "g.dot")]):
        assert cli.main(argv) == 0, capsys.readouterr().err
    overview = json.loads((tmp_path / "out" / "overview.json").read_text(encoding="utf-8"))
    assert overview["post_count"] == len(TOY_ROWS)
    assert overview["provenance"]["input_sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()


def test_cli_synth_refuses_an_overflowing_alpha(tmp_path, capsys):
    argv = ["synth", "--users", "50", "--threads", "50", "--posts", "500", "--alpha", "200",
            "--out", str(tmp_path / "data.json")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "skew_alpha" in err
    assert os.listdir(tmp_path) == []


def test_cli_exit_code_input_error(tmp_path):
    result = run_cli("analyze", "--data", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    assert "error:" in result.stderr


def test_cli_exit_code_schema_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("who,what\n1,2\n", encoding="utf-8")
    result = run_cli("metrics", "--data", str(bad), "--mode", "user")
    assert result.returncode == 1
    assert "header" in result.stderr


def test_cli_exit_code_config_error(tmp_path):
    data_file = tmp_path / "data.json"
    run_cli("synth", "--users", "4", "--threads", "2", "--posts", "8",
            "--out", str(data_file))
    result = run_cli("analyze", "--data", str(data_file),
                     "--out", str(tmp_path / "out"), "--core-threshold", "7")
    assert result.returncode == 2
    result = run_cli("synth", "--users", "2", "--threads", "5", "--posts", "3",
                     "--out", str(tmp_path / "x.json"))
    assert result.returncode == 2


def test_cli_non_utf8_data_exits_1(tmp_path):
    bad = tmp_path / "posts.csv"
    bad.write_bytes(b"post_id,thread_id,user_id,forum_id,timestamp\n"
                    b"p1,t1,J\xf6rg,f1,2012-01-01T00:00:00Z\n")
    result = run_cli("analyze", "--data", str(bad), "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    assert "UTF-8" in result.stderr


def test_cli_config_string_bool_rejected(tmp_path):
    data = tmp_path / "posts.csv"
    data.write_text("post_id,thread_id,user_id,forum_id,timestamp\n"
                    "p1,t1,u1,f1,2012-01-01T00:00:00Z\n"
                    "p2,t1,u2,f1,2012-01-02T00:00:00Z\n", encoding="utf-8")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bipartite_norm": "false"}), encoding="utf-8")
    out = tmp_path / "out"
    result = run_cli("analyze", "--data", str(data), "--out", str(out), "--config", str(cfg))
    assert result.returncode == 2
    assert "bipartite_norm" in result.stderr
    assert not (out / "bipartite.json").exists()


def test_cli_synth_config_values_coerced(tmp_path):
    """Config-file strings take their field's type, as in analyze, and an
    integral number such as 1e3 is an int option's integer; a value that
    cannot take it exits 2 with a message, not a traceback."""
    flags = ["synth", "--users", "5", "--threads", "3", "--posts", "10"]
    cfg = tmp_path / "c.json"
    cases = ((["--alpha", "1.5"], '{"alpha": "1.5"}'), (["--seed", "1000"], '{"seed": 1e3}'))
    for flag, config in cases:
        assert run_cli(*flags, *flag, "--out", str(tmp_path / "flag.json")).returncode == 0
        cfg.write_text(config, encoding="utf-8")
        result = run_cli(*flags, "--out", str(tmp_path / "cfg.json"), "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "cfg.json").read_bytes() == (tmp_path / "flag.json").read_bytes()
    for bad in ({"alpha": "steep"}, {"seed": [1]}):
        cfg.write_text(json.dumps(bad), encoding="utf-8")
        result = run_cli(*flags, "--out", str(tmp_path / "bad.json"), "--config", str(cfg))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


def test_cli_usage_errors_exit_2(tmp_path):
    assert run_cli("explode").returncode == 2
    assert run_cli("metrics", "--data", "x.json", "--mode", "forum").returncode == 2
    # required option missing entirely
    assert run_cli("metrics", "--mode", "user").returncode == 2


def test_cli_config_file_merge_and_override(tmp_path):
    data_file = tmp_path / "data.json"
    run_cli("synth", "--users", "10", "--threads", "6", "--posts", "40",
            "--seed", "3", "--out", str(data_file))
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps({"data": str(data_file), "out": str(tmp_path / "from_config"),
                    "core_threshold": 0.5}),
        encoding="utf-8",
    )
    result = run_cli("analyze", "--config", str(cfg))
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "from_config" / "core.json").read_text())
    assert payload["threshold"] == 0.5

    result = run_cli("analyze", "--config", str(cfg),
                     "--out", str(tmp_path / "flag_wins"), "--core-threshold", "0.9")
    assert result.returncode == 0, result.stderr
    assert not (tmp_path / "flag_wins" / "x").exists()
    payload = json.loads((tmp_path / "flag_wins" / "core.json").read_text())
    assert payload["threshold"] == 0.9


def test_cli_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"zaps": 1}), encoding="utf-8")
    result = run_cli("analyze", "--config", str(cfg))
    assert result.returncode == 2
    assert "unknown config keys" in result.stderr


def test_cli_viz_svg_and_graphml(tmp_path):
    data_file = tmp_path / "data.json"
    run_cli("synth", "--users", "8", "--threads", "5", "--posts", "30",
            "--seed", "2", "--out", str(data_file))
    svg = tmp_path / "net.svg"
    result = run_cli("viz", "--data", str(data_file), "--mode", "bipartite",
                     "--format", "svg", "--out", str(svg))
    assert result.returncode == 0, result.stderr
    assert "<svg" in svg.read_text()
    gml = tmp_path / "net.graphml"
    result = run_cli("viz", "--data", str(data_file), "--mode", "thread",
                     "--format", "graphml", "--out", str(gml))
    assert result.returncode == 0, result.stderr
    assert "graphml" in gml.read_text()


def test_cli_viz_writes_the_figures_analyze_writes(tmp_path, capsys):
    """viz with analyze's thinning (thin_sd 1, the projections only) and
    layout defaults writes each figure's SVG with analyze's bytes."""
    data = tmp_path / "data.json"
    synth = SynthConfig(user_count=60, thread_count=50, post_count=400, seed=5)
    data.write_text(dataset_to_json(generate(synth)), encoding="utf-8")
    assert cli.main(["analyze", "--data", str(data), "--out", str(tmp_path / "out")]) == 0
    for mode in ("bipartite", "user", "thread"):
        thinning = [] if mode == "bipartite" else ["--thin-sd", "1"]
        out = tmp_path / f"{mode}.svg"
        argv = ["viz", "--data", str(data), "--mode", mode, "--format", "svg", "--out", str(out)]
        assert cli.main([*argv, *thinning]) == 0, capsys.readouterr().err
        assert out.read_bytes() == (tmp_path / "out" / "figures" / f"{mode}.svg").read_bytes()


def test_cli_viz_refuses_thinning_the_bipartite_network(tmp_path, capsys):
    """--thin-sd thins a projection only: with --mode bipartite it is a
    configuration fault, refused before --data is read."""
    data = tmp_path / "posts.csv"
    data.write_text("who,what\n1,2\n", encoding="utf-8")
    argv = ["viz", "--data", str(data), "--mode", "bipartite", "--format", "dot",
            "--out", str(tmp_path / "b.dot"), "--thin-sd", "5"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: thin_sd ")
    assert os.listdir(tmp_path) == ["posts.csv"]


def test_cli_viz_failing_mid_stream_leaves_the_previous_file(tmp_path, monkeypatch):
    """viz writes its figure chunk by chunk into a box beside --out, which
    replaces --out only once the whole figure is written."""
    data, out = tmp_path / "posts.csv", tmp_path / "user.dot"
    data.write_text(SMALL_CSV, encoding="utf-8")
    out.write_text("PREVIOUS", encoding="utf-8")

    def half_written(*_, **__):
        yield "graph G {\n"
        raise RuntimeError("figure failed mid-stream")

    monkeypatch.setattr(cli, "export_graph", half_written)
    with pytest.raises(RuntimeError, match="mid-stream"):
        cli.main(["viz", "--data", str(data), "--mode", "user", "--format", "dot",
                  "--out", str(out)])
    assert out.read_text(encoding="utf-8") == "PREVIOUS"
    assert sorted(os.listdir(tmp_path)) == ["posts.csv", "user.dot"]


def test_cli_viz_through_a_symlink_replaces_its_target(tmp_path):
    """--out is resolved: the symlink stays, and its target is replaced by
    the figure and keeps its mode; a new file gets the mode a plain open
    gives it."""
    data, probe = tmp_path / "posts.csv", tmp_path / "probe"
    data.write_text(SMALL_CSV, encoding="utf-8")
    probe.write_text("", encoding="utf-8")
    target, link, plain = tmp_path / "real.dot", tmp_path / "link.dot", tmp_path / "plain.dot"
    target.write_text("PREVIOUS", encoding="utf-8")
    target.chmod(0o640)
    link.symlink_to(target)
    for out in (link, plain):
        argv = ["viz", "--data", str(data), "--mode", "user", "--format", "dot", "--out", str(out)]
        assert cli.main(argv) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == plain.read_bytes()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert stat.S_IMODE(plain.stat().st_mode) == stat.S_IMODE(probe.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["link.dot", "plain.dot", "posts.csv", "probe", "real.dot"]


def test_cli_viz_into_a_pipe_writes_it_in_place(tmp_path):
    """A pipe, which no rename can replace, is written in place: it stays a
    pipe, its reader gets the bytes a plain --out gets, and no box is made
    beside it."""
    data, plain, pipe = tmp_path / "posts.csv", tmp_path / "plain.dot", tmp_path / "pipe"
    data.write_text(SMALL_CSV, encoding="utf-8")
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open returns
    try:
        for out in (pipe, plain):
            argv = ["viz", "--data", str(data), "--mode", "user", "--format", "dot"]
            assert cli.main([*argv, "--out", str(out)]) == 0
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert received == plain.read_bytes()
    assert stat.S_ISFIFO(pipe.lstat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["pipe", "plain.dot", "posts.csv"]


@pytest.mark.parametrize("command", ["viz", "synth", "ingest"])
def test_cli_file_output_that_is_a_directory_is_refused(tmp_path, capsys, command):
    """A file a command would replace that exists as a directory exits 1,
    and the directory, what it holds and its parent stay as they were."""
    data = tmp_path / "posts.csv"
    data.write_text(SMALL_CSV, encoding="utf-8")
    occupied = tmp_path / "out" / "dataset.json" if command == "ingest" else tmp_path / "out"
    occupied.mkdir(parents=True)
    (occupied / "keep.txt").write_text("keep", encoding="utf-8")
    argv = {
        "viz": ["--data", str(data), "--mode", "user", "--format", "dot", "--out", str(occupied)],
        "synth": ["--users", "4", "--threads", "3", "--posts", "9", "--out", str(occupied)],
        "ingest": ["--posts", str(data), "--out", str(tmp_path / "out")],
    }[command]
    listing = lambda: sorted(map(str, tmp_path.rglob("*")))
    before, files = listing(), tree(tmp_path)
    assert cli.main([command, *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot replace {occupied.resolve()} ")
    assert listing() == before and tree(tmp_path) == files


@pytest.mark.parametrize(
    "command, flags, config, csv_text, code",
    [
        ("analyze", ["--out", "{tmp}/out"], {"period": "decade"}, SMALL_CSV, 2),
        ("metrics", ["--mode", "user"], {"weighting": "golden"}, SMALL_CSV, 2),
        ("ingest", ["--out", "{tmp}/out"], {"format": "xml"}, SMALL_CSV, 2),
        ("viz", ["--mode", "user", "--format", "svg", "--out", "{tmp}/g.svg",
                 "--layout-iterations", "0"], {}, SMALL_CSV, 2),
        ("viz", ["--mode", "user", "--format", "dot", "--out", "{tmp}/g.dot",
                 "--thin-sd", "-1"], {}, SMALL_CSV, 2),
        ("viz", ["--mode", "user", "--format", "dot", "--out", "{tmp}/g.dot"],
         {"thin_sd": "wide"}, SMALL_CSV, 2),
        ("metrics", ["--mode", "user"], b"\xff{}", SMALL_CSV, 2),
        ("viz", ["--mode", "user", "--format", "svg", "--out", "{tmp}/g.svg"], {},
         REJECTED_CSV, 1),
        ("viz", ["--mode", "user", "--format", "svg", "--out", "{tmp}/g.svg",
                 "--layout-iterations", "0"], {}, HEADER_ONLY_CSV, 2),
        ("viz", ["--mode", "user", "--format", "dot", "--out", "{tmp}/g.dot",
                 "--thin-sd", "-1"], {}, "who,what\n1,2\n", 2),
        ("analyze", ["--out", "{tmp}/out"], {"layout_seed": -1}, SMALL_CSV, 2),
        ("viz", ["--mode", "user", "--format", "svg", "--out", "{tmp}/g.svg",
                 "--layout-seed", "-1"], {}, "who,what\n1,2\n", 2),
    ],
    ids=["period", "metrics-weighting-unknown-key", "ingest-format-unknown-key",
         "layout-iterations", "negative-thin-sd",
         "string-thin-sd", "config-not-utf8", "no-post-to-draw",
         "layout-iterations-before-data", "negative-thin-sd-before-data",
         "negative-layout-seed", "negative-layout-seed-before-data"],
)
def test_cli_exit_code_names_the_fault(tmp_path, command, flags, config, csv_text, code):
    """Configuration faults exit 2 and data faults exit 1, each with a
    message and no traceback."""
    data = tmp_path / "posts.csv"
    data.write_text(csv_text, encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    source = "--posts" if command == "ingest" else "--data"
    args = [flag.format(tmp=tmp_path) for flag in flags]
    result = run_cli(command, source, str(data), *args, "--config", str(cfg))
    assert result.returncode == code, result.stderr
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


ANALYZE_FLAGS = ["--data", "{data}", "--out", "{tmp}/out"]


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("analyze", ["--data", "{data}"], {"out": 5}),
        ("ingest", ["--out", "{tmp}/x"], {"posts": 7}),
        ("viz", ["--data", "{data}", "--mode", "user", "--format", "dot", "--out", "{tmp}/g.dot"],
         {"layout_seed": "abc"}),
        ("metrics", ["--mode", "user"], {"data": ["x"]}),
        ("analyze", ANALYZE_FLAGS, {"layout_seed": 1.7}),
        ("synth", ["--users", "5", "--threads", "3", "--posts", "10", "--out", "{tmp}/s.json"],
         {"seed": 1.5}),
        ("analyze", ANALYZE_FLAGS, {"silent_min_threads": True}),
        ("analyze", ANALYZE_FLAGS, {"thin_sd": True}),
        ("viz", ["--data", "{data}", "--mode", "user", "--format", "dot", "--out", "{tmp}/g.dot",
                 "--thin-sd", "nan"], {}),
        ("analyze", ANALYZE_FLAGS, {"thin_sd": float("nan")}),
        ("analyze", ANALYZE_FLAGS, {"thin_sd": float("inf")}),
        ("analyze", ANALYZE_FLAGS, {"roles": ["ab"]}),
        ("analyze", ANALYZE_FLAGS, {"roles": {"u0001": 5}}),
    ],
    ids=["analyze-out", "ingest-posts", "viz-layout-seed", "metrics-data",
         "fractional-int", "synth-fractional-int", "bool-int", "bool-float", "nan-flag",
         "nan-config", "inf-config", "roles-list", "roles-non-string-value"],
)
def test_cli_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, flags, config):
    """A config value of the wrong type is refused before any file is
    read or written, whether or not the command would have used it."""
    data = tmp_path / "posts.csv"
    data.write_text(SMALL_CSV, encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    args = [flag.format(tmp=tmp_path, data=data) for flag in flags]
    assert cli.main([command, *args, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "posts.csv"]


@pytest.mark.parametrize("fault", ["foreign-out", "period"])
def test_cli_config_fault_wins_over_input_fault(tmp_path, capsys, fault):
    """analyze validates its configuration and --out before it reads --data."""
    data = tmp_path / "posts.csv"
    data.write_text("who,what\n1,2\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"period": "decade"} if fault == "period" else {}), encoding="utf-8")
    if fault == "foreign-out":
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("keep", encoding="utf-8")
    args = ["--data", str(data), "--out", str(out_dir), "--config", str(cfg)]
    assert cli.main(["analyze", *args]) == 2
    assert "header" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "figures", ["user", {"user": 1}, ["user", 1], 5], ids=["string", "object", "mixed-list", "number"]
)
def test_cli_figures_must_be_a_list_of_names(tmp_path, capsys, figures):
    """figures takes only a JSON list of strings: a lone string is not
    split into characters, nor an object read as its keys."""
    data = tmp_path / "posts.csv"
    data.write_text(SMALL_CSV, encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"figures": figures}), encoding="utf-8")
    args = ["--data", str(data), "--out", str(tmp_path / "out"), "--config", str(cfg)]
    assert cli.main(["analyze", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: figures must be a list of strings")
    assert repr(figures) in err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "posts.csv"]


def test_cli_figures_must_not_repeat(tmp_path, capsys):
    """A figure named twice would be laid out twice and written once."""
    data = tmp_path / "posts.csv"
    data.write_text(SMALL_CSV, encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"figures": ["user", "user"]}), encoding="utf-8")
    args = ["--data", str(data), "--out", str(tmp_path / "out"), "--config", str(cfg)]
    assert cli.main(["analyze", *args]) == 2
    assert capsys.readouterr().err.startswith("error: repeated figure networks: ['user', 'user']")
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "posts.csv"]


# each subcommand's flags and config-file keys; the option tables add and drop none
CLI_FLAGS = {
    "ingest": ["--config", "--out", "--posts", "--users"],
    "synth": ["--alpha", "--config", "--forums", "--moderators", "--out", "--posts", "--seed",
              "--silent-initiators", "--threads", "--users"],
    "analyze": ["--bipartite-norm", "--config", "--core-threshold", "--data", "--layout-seed",
                "--out", "--thin-sd", "--weighting"],
    "metrics": ["--config", "--data", "--mode"],
    "viz": ["--config", "--data", "--format", "--layout-iterations", "--layout-seed", "--mode",
            "--out", "--thin-sd"],
}
CLI_CONFIG_KEYS = {
    "ingest": ["out", "posts", "users"],
    "synth": ["alpha", "forums", "moderators", "out", "posts", "seed", "silent_initiators",
              "threads", "users"],
    "analyze": ["bipartite_norm", "core_threshold", "data", "figure_format", "figures",
                "layout_iterations", "layout_seed", "out", "period", "roles",
                "silent_min_threads", "thin_sd", "thin_strict", "weighting"],
    "metrics": ["data", "mode"],
    "viz": ["data", "format", "layout_iterations", "layout_seed", "mode", "out", "thin_sd"],
}


def test_cli_flag_and_config_key_sets():
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        command: sorted(s for a in parser._actions for s in a.option_strings
                        if s not in ("-h", "--help"))
        for command, parser in sub.choices.items()
    }
    assert flags == CLI_FLAGS
    assert {command: sorted(table) for command, (_, table, _) in cli.COMMANDS.items()} == (
        CLI_CONFIG_KEYS
    )


def test_cli_shared_user_thread_ids(tmp_path):
    data = tmp_path / "posts.csv"
    data.write_text(
        "post_id,thread_id,user_id,forum_id,timestamp\n"
        "p1,1,1,f1,2012-01-01T00:00:00Z\n"
        "p2,1,2,f1,2012-01-02T00:00:00Z\n"
        "p3,2,1,f1,2012-01-03T00:00:00Z\n",
        encoding="utf-8",
    )
    result = run_cli("analyze", "--data", str(data), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    positions = (tmp_path / "out" / "figures" / "bipartite_positions.csv").read_text()
    assert [line.split(",")[0] for line in positions.splitlines()[1:]] == [
        "user:1", "user:2", "thread:1", "thread:2"
    ]
    result = run_cli("viz", "--data", str(data), "--mode", "bipartite", "--format", "dot",
                     "--out", str(tmp_path / "b.dot"))
    assert result.returncode == 0, result.stderr
    assert '"user:2" -- "thread:1"' in (tmp_path / "b.dot").read_text()


# IDs drawn from one small pool, so users and threads share some
IDS = st.sampled_from(["1", "2", "3", " 2 ", "", "a,b", 'q"t', "thread:1"])
TIMESTAMPS = st.sampled_from([
    "2012-01-01T00:00:00Z",
    "2013-06-30 12:00:00",
    "2012-03-01T00:00:00+05:30",
    "2099-12-31T23:59:59Z",  # future-dated
    "1985-01-01T00:00:00Z",  # before the 1990 floor
    "9999-12-31T23:00:00-05:00",  # past year 9999 in UTC
    "not a date",
    "",
])
POST_ROWS = st.tuples(
    st.sampled_from(["p1", "p2", "p3", "p4", "p5"]),
    IDS,
    IDS,
    st.sampled_from(["f1", "f2"]),
    TIMESTAMPS,
    st.sampled_from(["true", "false", "", "maybe"]),
).map(list)
ODD_ROWS = st.lists(IDS, min_size=1, max_size=8)  # mostly the wrong column count


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.lists(st.one_of(POST_ROWS, ODD_ROWS), max_size=12))
def test_any_valid_header_csv_goes_through_ingest_and_analyze(has_start, rows):
    """Every row is retained or logged as rejected, and analyze publishes
    a complete artifact set for whatever was retained."""
    header = list(POSTS_COLUMNS) + ([START_COLUMN] if has_start else [])
    rows = [row[: len(header)] if len(row) == 6 else row for row in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with tempfile.TemporaryDirectory() as tmp:
        posts, clean, out = Path(tmp) / "posts.csv", Path(tmp) / "clean", Path(tmp) / "out"
        posts.write_text(buf.getvalue(), encoding="utf-8")
        assert cli.main(["ingest", "--posts", str(posts), "--out", str(clean)]) == 0
        doc = json.loads((clean / "dataset.json").read_text(encoding="utf-8"))
        assert len(doc["posts"]) + len(doc["rejected"]) == len(rows)
        assert cli.main(["analyze", "--data", str(clean / "dataset.json"), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(tree(out)) == sorted(manifest["artifacts"] + ["manifest.json"])
