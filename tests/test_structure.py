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


def test_check_results_are_built_in_acceptance():
    # the CLI maps its parameters to acceptance checks and decides no verdict
    assert _modules_matching(r"\bCheckResult\(") == ["acceptance"]
    assert '"PASS" if' not in (SRC / "cli.py").read_text()


def test_balance_tolerance_is_one_lfunc_constant():
    # criterion 9, the afe check and each scan record's gate read lfunc.BALANCE_TOL
    assert _modules_matching(r"(?m)^BALANCE_TOL = 1e-6$") == ["lfunc"]
    assert _modules_matching(r"\b(worst\w*|gap)\s*<=\s*1e-6") == []
    assert _modules_matching(r"\bBALANCE_TOL\b") == ["acceptance", "lfunc"]


def test_package_reexports_nothing():
    # callers import the submodules; the package carries only its version
    assert not re.search(r"(?m)^\s*(from|import)\s", (SRC / "__init__.py").read_text())


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
