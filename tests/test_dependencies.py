"""The declared runtime dependencies are exactly the third-party modules the
package imports, and the package runs without scipy."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "taccompress"


def imported_top_level_modules() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"taccompress"}


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}


def test_declared_dependencies_are_the_imported_ones():
    assert declared_dependencies() == imported_top_level_modules() == {"numpy"}


# Blocks scipy, then scores a pair and runs a one-trace lossy suite.
NO_SCIPY = """
import sys
sys.modules["scipy"] = None

import numpy as np
from taccompress import bench, ms_ssim
from taccompress.layout import GraspPose
from taccompress.simulate import PhasePlan

rng = np.random.default_rng(0)
a = rng.integers(0, 256, (16, 40, 3), dtype=np.uint8)
assert 0 < ms_ssim(a, a // 2) < 1
report = bench.run_lossy_suite(bench.BenchConfig(
    objects=("egg",), poses=(GraspPose.PINCH,), reps=1,
    plan=PhasePlan(0.02, 0.04, 0.02, 0.06, 0.02), codecs=("tlc1-lossy",),
    tile_height=16, jobs=1, quality_ladders={"tlc1-lossy": (8, 64)}))
assert [c["quality"] for c in report.cells] == [8, 64]
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod))
"""


def test_package_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
