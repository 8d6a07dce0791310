import json
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


def test_ksum_suppression_profile_small_K():
    # direct Bessel sums over the x ladder, on the series and recurrence routes
    out = _run_script("ksum_suppression_profile.py", "--K", "8")
    assert out.startswith("K = 8;")
    assert len(out.splitlines()) == 2 + 9


def _fake_result(directory, workload, wall_s, commit="abc"):
    directory.mkdir(exist_ok=True)
    result = {
        "env": {"commit": commit, "workload": workload, "seed": 0, "trace": 0},
        "correct": True,
        "attempted": 4,
        "failed": 0,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "pass_share": {"value": 1.0, "unit": "ratio"},
        },
    }
    path = directory / f"result-{workload}-seed0-trace0.json"
    path.write_text(json.dumps(result))


def test_bench_snapshot_medians(tmp_path):
    # three change runs and one parent run of all four workloads
    workloads = ("scan-high", "scan-low", "dualchain", "exact")
    runs = [tmp_path / f"run{i}" for i in range(3)]
    for run, wall in zip(runs, (3.0, 1.0, 2.0)):
        for w in workloads:
            _fake_result(run, w, wall)
    for w in workloads:
        _fake_result(tmp_path / "parent", w, 5.0)
    out = tmp_path / "BENCH.json"
    _run_script(
        "bench_snapshot.py", "--tier1-wall-s", "56.5", "--out", str(out),
        "--runs", *map(str, runs), "--parent-runs", str(tmp_path / "parent"),
    )
    snap = json.loads(out.read_text())
    assert snap["tier1_wall_s"] == 56.5
    assert snap["env"] == {"commit": "abc", "seed": 0, "trace": 0}
    assert set(snap["workloads"]) == set(workloads)
    high = snap["workloads"]["scan-high"]
    assert (high["runs"], high["attempted"], high["correct"]) == (3, 12, True)
    assert high["metrics"]["wall_s"] == {"value": 2.0, "unit": "s", "q1": 1.5, "q3": 2.5}
    assert snap["parent"]["workloads"]["exact"]["metrics"]["wall_s"] == {
        "value": 5.0, "unit": "s"
    }
    # runs of an uncommitted tree carry a label in place of their parent's HEAD
    _run_script(
        "bench_snapshot.py", "--tier1-wall-s", "56.5", "--out", str(out),
        "--runs", *map(str, runs), "--parent-runs", str(tmp_path / "parent"),
        "--commit", "abc + tree",
    )
    snap = json.loads(out.read_text())
    assert snap["env"]["commit"] == "abc + tree"
    assert snap["parent"]["env"]["commit"] == "abc"


def test_bench_snapshot_relabels_the_parent_side(tmp_path):
    # a parent run from an exported tree stamps `unknown`; --parent-commit
    # names it, as --commit names the change side
    workloads = ("scan-high", "scan-low", "dualchain", "exact")
    for w in workloads:
        _fake_result(tmp_path / "run", w, 1.0)
        _fake_result(tmp_path / "parent", w, 2.0, commit="unknown")
    out = tmp_path / "BENCH.json"
    _run_script(
        "bench_snapshot.py", "--tier1-wall-s", "40.0", "--out", str(out),
        "--runs", str(tmp_path / "run"), "--parent-runs", str(tmp_path / "parent"),
        "--commit", "abc + tree", "--parent-commit", "abc",
    )
    snap = json.loads(out.read_text())
    assert (snap["env"]["commit"], snap["parent"]["env"]["commit"]) == ("abc + tree", "abc")
    assert snap["parent"]["workloads"]["dualchain"]["metrics"]["wall_s"]["value"] == 2.0
