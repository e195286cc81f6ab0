"""The traced mode of the benchmark harness still runs on the package.

perfbench/tracer.py wraps every package function after import and refuses
to run (IncompleteTrace) when one stays reachable unwrapped, so a refactor
that adds, moves or re-exports a function can break the traced benchmark
without failing any other test.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_build_job_completes(tmp_path):
    argv = [sys.executable, str(ROOT / "perfbench" / "job.py"), "run",
            "--trace", str(tmp_path / "spans.jsonl"), "--",
            "build", "--p", "5", "--i", "7", "--m", "16", "--coeff", "1", "--format", "json"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    counts = result["trace"]["counts"]
    assert counts["frame.s_group_lcs.calls"] == 1
    assert counts["liering.lcs_profile.calls"] >= 1
