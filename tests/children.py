"""Running the package in a child interpreter, from a plain checkout."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
# the child finds the package in src/ without an install, ahead of any
# PYTHONPATH the tests were started with
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
)


def run_python(*args):
    """The completed interpreter run on args, its output captured."""
    return subprocess.run([sys.executable, *args], capture_output=True, env=ENV)
