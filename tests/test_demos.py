"""The demo scripts run cleanly, and qbg exports every name they import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbg

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def names_imported_from_qbg(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "qbg"
            for alias in node.names}


def test_there_are_four_demos():
    assert [path.name for path in DEMOS] == [
        "classical_payoff_tables.py", "equilibrium_atlas.py",
        "equilibrium_scenarios.py", "quantum_payoff_surfaces.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_every_export_resolves():
    assert len(set(qbg.__all__)) == len(qbg.__all__)
    for name in qbg.__all__:
        assert getattr(qbg, name) is not None


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports_only_exported_names(path):
    imported = names_imported_from_qbg(path)
    assert imported
    assert imported <= set(qbg.__all__)
