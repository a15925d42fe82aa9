"""Smoke runs of the example scripts, which use the public API end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["reproduce_numbers.py", "width_tradeoffs.py"])
def test_script_prints_headline_slice(script):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    # a subprocess does not inherit pytest's filterwarnings
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "19.03" in proc.stdout  # the 19 um slice of a 10 us pulse at 25 G/cm


def test_readme_python_api_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    # the values its comments quote
    assert names["dz"] == pytest.approx(1.9034e-5, rel=1e-4)
    assert names["dv"] == pytest.approx(1.3596e-3, rel=1e-4)
    assert names["cell"].v_center == pytest.approx(-4.8986e-3, rel=1e-3)
    assert names["result"].summary()["n_total"] == 20000
