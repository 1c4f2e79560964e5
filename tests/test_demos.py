"""The demos run as scripts and leave the working directory as they found it."""

import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_graph_demo_leaves_no_files(tmp_path, agfit_env):
    subprocess.run(
        [sys.executable, str(DEMOS / "01_graphs_and_separation.py")],
        cwd=tmp_path, env=agfit_env, check=True, capture_output=True, timeout=120,
    )
    assert list(tmp_path.iterdir()) == []
