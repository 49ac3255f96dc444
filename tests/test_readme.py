"""README's Quick start and Library examples run as written."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """README's text from the heading ``## title`` to the next heading."""
    after = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return after.split("\n## ", 1)[0]


def test_readme_quick_start_metrics_table(tmp_path):
    """Quick start's synth and metrics commands print the table shown
    under them, character for character."""
    quick = section("Quick start")
    commands = {
        line.split()[1]: shlex.split(line)[1:]
        for line in re.search(r"```sh\n(.*?)```", quick, re.S).group(1).splitlines()
        if line.startswith("forumnet ")
    }
    table = re.search(r"prints a fixed-width table:\n\n```\n(.*?)```", quick, re.S).group(1)
    for command in ("synth", "metrics"):
        result = subprocess.run(
            [sys.executable, "-m", "forumnet", *commands[command]],
            cwd=tmp_path, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
    assert result.stdout == table


def test_readme_library_example_runs(tmp_path):
    """The python block under "## Library", run in a directory that holds
    the data.json of README's Quick start, with warnings as errors."""
    code = re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)
    synth = subprocess.run(
        [sys.executable, "-m", "forumnet", "synth", "--users", "40", "--threads", "30",
         "--posts", "300", "--seed", "7", "--out", "data.json"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert synth.returncode == 0, synth.stderr
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], cwd=tmp_path, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("\n") == 2  # the report line and the top node's line
