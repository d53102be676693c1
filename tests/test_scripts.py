import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ADAPTER = f"{sys.executable} {ROOT / 'scripts' / 'greedy_adapter.py'}"


@pytest.mark.parametrize("script, extra, written", [
    ("run_mapper_comparison.py", ["--svg"],
     ["circuit_hillclimb.csv", "circuit_hillclimb.svg"]),
    ("run_feedback_ablation.py", ["--adapter", ADAPTER],
     ["circuit_system.csv", "circuit_system_explain.csv",
      "circuit_system_explain_suggest.csv"]),
])
def test_experiment_script_runs(tmp_path, script, extra, written):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--apps", "circuit",
         "--iters", "2", "--seeds", "1", "--outdir", str(tmp_path), *extra],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == written
    for name in written:
        if name.endswith(".csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0].startswith("seed,iteration,") and len(lines) == 3
