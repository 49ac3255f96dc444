"""README's Library example runs as written."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(tmp_path):
    """The python block under "## Library", run in a directory that holds
    the data.json of README's Quick start, with warnings as errors."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
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
