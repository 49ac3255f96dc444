"""Let the CLI tests' ``python -m forumnet`` child processes import the
package from this checkout, installed or not."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
