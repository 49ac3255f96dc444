"""Pipeline orchestration, artifact layout, provenance, and the CLI."""

import hashlib
import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from forumnet.centrality import MEASURES
from forumnet.errors import ConfigError
from forumnet.ingest import dataset_to_json
from forumnet.report import PipelineConfig, run_pipeline
from forumnet.synth import SynthConfig, generate

from helpers import dataset_from_posts

TOY_ROWS = [("u1", "t1"), ("u2", "t1"), ("u2", "t2"), ("u3", "t2")]


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "forumnet", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_toy_bundle_composition(tmp_path):
    data = dataset_from_posts(TOY_ROWS)
    bundle = run_pipeline(data, PipelineConfig(out_dir=tmp_path / "out"))
    assert bundle.user_report.n == 3
    assert bundle.thread_report.n == 2
    assert len(bundle.user_centrality.rows) == 3
    assert len(bundle.thread_centrality.rows) == 2
    figures = [a for a in bundle.artifacts if a.startswith("figures/")]
    assert figures
    for artifact in bundle.artifacts:
        assert (tmp_path / "out" / artifact).is_file()


def test_empty_dataset_zero_reports_no_figures(tmp_path):
    bundle = run_pipeline(dataset_from_posts([]), PipelineConfig(out_dir=tmp_path / "out"))
    assert bundle.user_report.n == 0
    assert bundle.thread_report.n == 0
    assert bundle.core.members == set()
    assert bundle.silent == []
    assert not [a for a in bundle.artifacts if a.startswith("figures/")]
    assert (tmp_path / "out" / "overview.json").is_file()


def test_fixed_artifact_names(tmp_path):
    data = dataset_from_posts(TOY_ROWS)
    bundle = run_pipeline(data, PipelineConfig(out_dir=tmp_path / "out"))
    names = set(bundle.artifacts)
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
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == names - {"manifest.json"}


def test_bundle_internal_consistency(tmp_path):
    data = generate(SynthConfig(user_count=25, thread_count=15, post_count=150, seed=12))
    bundle = run_pipeline(data, PipelineConfig(out_dir=tmp_path / "out"))
    for table, report in (
        (bundle.user_centrality, bundle.user_report),
        (bundle.thread_centrality, bundle.thread_report),
    ):
        assert len(table.rows) == report.n
        for measure in MEASURES:
            values = np.array([getattr(row, measure) for row in table.rows])
            summary = table.summaries[measure]
            assert summary.min == pytest.approx(values.min())
            assert summary.max == pytest.approx(values.max())
            assert summary.mean == pytest.approx(values.mean())
            assert summary.median == pytest.approx(np.median(values))


def test_structural_json_matches_bundle(tmp_path):
    data = dataset_from_posts(TOY_ROWS)
    bundle = run_pipeline(data, PipelineConfig(out_dir=tmp_path / "out"))
    payload = json.loads((tmp_path / "out" / "user_structural.json").read_text())
    assert payload["n"] == bundle.user_report.n
    assert payload["m"] == bundle.user_report.m
    assert payload["density"] == bundle.user_report.density


def test_provenance_embedded_everywhere(tmp_path):
    data = dataset_from_posts(TOY_ROWS)
    bundle = run_pipeline(data, PipelineConfig(out_dir=tmp_path / "out"))
    checksum = hashlib.sha256(dataset_to_json(data).encode()).hexdigest()
    assert bundle.provenance["input_sha256"] == checksum
    for artifact in bundle.artifacts:
        if artifact.endswith(".json"):
            payload = json.loads((tmp_path / "out" / artifact).read_text())
            assert payload["provenance"]["input_sha256"] == checksum
            assert payload["provenance"]["tool"] == "forumnet"


def test_reruns_are_byte_identical(tmp_path):
    data = generate(SynthConfig(user_count=12, thread_count=9, post_count=60, seed=13))
    first = run_pipeline(data, PipelineConfig(out_dir=tmp_path / "a"))
    second = run_pipeline(data, PipelineConfig(out_dir=tmp_path / "b"))
    assert first.artifacts == second.artifacts
    for artifact in first.artifacts:
        assert (tmp_path / "a" / artifact).read_bytes() == (
            tmp_path / "b" / artifact
        ).read_bytes()


def test_one_shortest_path_pass_per_projection(tmp_path, monkeypatch):
    import forumnet.paths as paths_module

    calls = Counter()

    def counted(name):
        original = getattr(paths_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(paths_module, name, wrapper)

    counted("_bfs_levels")
    counted("connected_components")
    run_pipeline(dataset_from_posts(TOY_ROWS), PipelineConfig(out_dir=tmp_path / "out"))
    # both toy projections are non-empty: one search and one component scan each
    assert calls == {"_bfs_levels": 2, "connected_components": 2}


def test_failure_rolls_back_partial_output(tmp_path, monkeypatch):
    import forumnet.report as report_module

    def boom(*_):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(report_module, "centrality_table", boom)
    out_dir = tmp_path / "doomed"
    with pytest.raises(RuntimeError):
        run_pipeline(dataset_from_posts(TOY_ROWS), PipelineConfig(out_dir=out_dir))
    assert not out_dir.exists()


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


def test_bipartite_norm_flag_adds_report(tmp_path):
    data = dataset_from_posts(TOY_ROWS)
    bundle = run_pipeline(
        data, PipelineConfig(out_dir=tmp_path / "out", bipartite_norm=True)
    )
    assert "bipartite.json" in bundle.artifacts
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
    result = run_cli("ingest", "--posts", str(data_file), "--format", "json",
                     "--out", str(ingest_dir))
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
