import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_demo_runs():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 6
    path = os.pathsep.join([str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = dict(os.environ, PYTHONPATH=path)
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, f"{demo.name} failed:\n{proc.stderr}"
