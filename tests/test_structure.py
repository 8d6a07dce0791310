"""Each numerical mechanism has one home in the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weylbound"


def _modules_matching(pattern):
    return sorted(
        path.stem for path in SRC.glob("*.py") if re.search(pattern, path.read_text())
    )


def test_gauss_legendre_nodes_come_from_oscint():
    # every other module builds its panels with oscint.panel_rule
    assert _modules_matching(r"\broots_legendre\b") == ["oscint"]


def test_chebyshev_interpolation_lives_in_special():
    # every other module fits through special.chebyshev_fit
    pattern = r"\bchebinterpolate\b|\bchebval\b|numpy\.polynomial"
    assert _modules_matching(pattern) == ["special"]


def test_package_import_leaves_heavy_modules_unloaded():
    # scipy.interpolate is loaded on the first phi_hat spline; mpmath is test-only
    code = (
        "import sys, weylbound, weylbound.cli; "
        "print(sorted(m for m in ('scipy.interpolate', 'mpmath') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    ))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
