"""Each numerical mechanism has one home in the package."""

import re
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
