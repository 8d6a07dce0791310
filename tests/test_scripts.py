import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_offdiagonal_experiment_defaults():
    # the script drives poisson_check_s5, j_decay_report and the assembly
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "offdiagonal_experiment.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert sum(line.startswith("[PASS]") for line in run.stdout.splitlines()) == 3
