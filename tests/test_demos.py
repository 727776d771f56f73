"""Smoke test: every script in `demos/` runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_single_deletion_names_virtual_graph_nodes(tmp_path):
    """Demo 01 spells virtual-graph nodes "r3" / "v12", not as their ints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_single_deletion.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    helpers = [line for line in result.stdout.splitlines() if line.startswith("  helper ")]
    assert helpers == [
        "  helper v0 simulated by processor 2; edges to r1, r2, v2",
        "  helper v1 simulated by processor 4; edges to r3, r4, v2",
        "  helper v2 simulated by processor 3; edges to v0, v1, v3",
        "  helper v3 simulated by processor 5; edges to r5, v2",
    ]
