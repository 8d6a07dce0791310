import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_offdiagonal_experiment_defaults():
    # the script drives poisson_check_s5, j_decay_report and the assembly
    out = _run_script("offdiagonal_experiment.py")
    assert sum(line.startswith("[PASS]") for line in out.splitlines()) == 3


def test_exponent_scan_experiment_short_range(tmp_path):
    # the scan's thread pool, the contour fit and the CSV and plot writers
    csv = tmp_path / "scan.csv"
    out = _run_script(
        "exponent_scan_experiment.py",
        "--t-min", "20", "--t-max", "22", "--step", "0.5", "--out", str(csv),
        cwd=tmp_path,
    )
    assert "5 records" in out and "(0 flagged)" in out
    assert csv.exists() and (tmp_path / "scan.csv.plot").exists()


def test_ksum_suppression_profile_small_K():
    # direct Bessel sums over the x ladder, on the series and recurrence routes
    out = _run_script("ksum_suppression_profile.py", "--K", "8")
    assert out.startswith("K = 8;")
    assert len(out.splitlines()) == 2 + 9
