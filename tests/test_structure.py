"""Each numerical mechanism has one home in the package."""

import ast
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
    # oscint builds the rules (Newton on the Legendre recurrence); every
    # other module builds its panels with oscint.panel_rule
    assert _modules_matching(r"\b_gl\(|\b_legendre_pair\b") == ["oscint"]
    assert _modules_matching(r"\broots_legendre\b|\bleggauss\b") == []


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


def test_s5_tolerance_is_one_pipeline_constant():
    # criterion 7 and the CLI's S5 check read the verdict poisson_check_s5
    # takes at pipeline.S5_TOL; no caller carries a tolerance of its own
    assert _modules_matching(r"(?m)^S5_TOL = 1e-6$") == ["pipeline"]
    assert _modules_matching(r"\w*S5_TOL\b") == ["pipeline"]


def test_s5_scale_and_fat_tail_are_stated_in_pipeline():
    # the S5 scale max(|direct|, 1e-3 trivial bound) and the fat-tail rule
    # are formed in poisson_check_s5 alone; no caller reads their inputs
    assert _modules_matching(r"\btrivial_bound\b|\btail_mass\b") == ["pipeline"]


def test_characters_are_built_only_in_characters():
    # characters exist only for odd prime moduli, where every non-principal
    # one is primitive; a character built elsewhere could break that
    root = SRC.parents[1]
    files = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"),
             *(root / "scripts").glob("*.py"), *(root / "benchmark").glob("*.py")]
    builders = sorted(
        path.relative_to(root).as_posix()
        for path in files
        if re.search(r"\bDirichletCharacter\(", path.read_text())
    )
    assert builders == ["src/weylbound/characters.py"]


def test_package_reexports_nothing():
    # callers import the submodules; the package carries only its version
    assert not re.search(r"(?m)^\s*(from|import)\s", (SRC / "__init__.py").read_text())


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_package_import_leaves_heavy_modules_unloaded():
    # the runtime needs numpy alone; scipy and mpmath are test-only
    code = (
        "import sys, weylbound, weylbound.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    )
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_exact_criteria_leave_numpy_ma_unloaded():
    # criteria 1-3 and 6 never reach np.unique, whose first call imports
    # numpy.ma (about 13 ms of a fresh process)
    code = (
        "import sys\n"
        "from weylbound import acceptance as a\n"
        "for check in (a.criterion_charsums, a.criterion_twisted_factorization,\n"
        "              a.criterion_psi_average, a.criterion_stationary_phase):\n"
        "    assert check().status == 'PASS'\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_commands_run_without_scipy():
    # an install with only the declared dependencies: any scipy import
    # raises, and each command and the kernel k-sum still run
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from weylbound import cli, oscint\n"
        "for argv in (['afe', '--t-list', '0,10'], "
        "['scan', '--t-min', '10', '--t-max', '11', '--step', '0.5', '--prec', '2000'], "
        "['oscint']):\n"
        "    code = cli.main(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "oscint.bessel_weighted_k_sum(8, 10.0, 'kernel')\n"
    )
    run = _run_python(code)
    assert run.returncode == 0, run.stderr


# top-level functions and classes that no other code in src/ names; each
# is kept for a reason outside the package's own calls
UNNAMED_ALLOWED = {
    "lfunc.afe_weight": "the dense V oracle the cutoff table is tested against",
    "lfunc.sn_sum": "the paper's S(N) sum, checked against its trivial bound",
    "oscint._phi_hat": "phi_hat with its cut, the oracle of the folded kernel's tests",
    "pipeline.i_integral_batch": "the dense I oracle of the profile and window tests",
    "oscint.nonstationary_decay_check": "the nonstationary decay lemma's check",
    "oscint.sum_over_orders_check": "the mod-4 sum-over-orders identity, both sides",
    "special.gamma_ratio_phase": "the paper's Gamma-ratio phase and its two slips",
}


def _names(node):
    """Every identifier a statement names as code: variables, attributes
    and imports (docstrings and other strings do not count)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def _top_level_users(name):
    """The top-level statements in src/ that name `name`, apart from its
    own definition and the imports of it, as module.function (or
    module.<statement type>)."""
    users = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            targets = getattr(stmt, "targets", ())
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(stmt, "name", None) == name or any(
                isinstance(t, ast.Name) and t.id == name for t in targets
            ):
                continue
            if name in _names(stmt):
                users.append(f"{path.stem}.{getattr(stmt, 'name', type(stmt).__name__)}")
    return sorted(users)


def test_j_integrand_is_formed_in_j_integral_batch():
    # the J grid, the profiles and the U weight meet in j_integral_batch
    # alone (j_integral_work sizes its grid from the panel count), so no
    # caller forms J again
    assert _top_level_users("_outer_nodes") == ["pipeline.j_integral_batch"]
    assert _top_level_users("_outer_panels") == [
        "pipeline._outer_nodes", "pipeline.j_integral_work"]
    assert _top_level_users("_i_profile") == ["pipeline.j_integral_batch"]
    assert _top_level_users("_U") == ["pipeline.j_integral_batch"]


def test_jacobi_anger_tables_are_signed_in_special():
    # closed-form Chebyshev coefficients of exponential sums: the scan's
    # cutoff table and the J kernel's profiles read them from one signed
    # Bessel table, whose odd rows only special signs
    assert _top_level_users("jacobi_anger_coefficients") == [
        "lfunc._cutoff_table", "pipeline._i_profile"]
    assert _modules_matching(r"\[1::2\]") == ["special"]
    assert _top_level_users("bessel_j_table") == [
        "special.bessel_j_many", "special.signed_bessel_table"]


def test_phase_arithmetic_lives_in_special():
    # one double-double toolkit: Dekker's split and two-product, the
    # two-sum, the log n table (the one long-double pass) and the one
    # Cody-Waite reduction mod 2 pi, which the scan's unit phases, the S5
    # direct side and the Hankel route share.  No other module holds the
    # Cody-Waite parts (by name or value), 2 pi's double-double low part,
    # long double or Dekker's constant 2^27 + 1
    split = r"\b_CW\d\b|\b6\.28125\b|0\.0019353071|1\.0253376489|1\.1650928224|2\.4492935982"
    assert _modules_matching(split) == ["special"]
    assert _modules_matching(r"np\.longdouble|134217729") == ["special"]
    assert _top_level_users("longdouble") == ["special._log_n"]
    helpers = r"def (_split|_two_product|_two_sum|_log_n|_reduce_two_pi)\b"
    assert _modules_matching(helpers) == ["special"]
    assert _modules_matching(r"\bTWO_PI_LD\b|_TWO_PI_CW|_two_difference") == []
    assert _top_level_users("_reduce_two_pi") == [
        "lfunc._unit_phases", "pipeline.poisson_check_s5", "special._bessel_hankel"]


def test_unnamed_definitions_are_allowlisted():
    # code that no gate, oracle or CLI path reaches is deleted or moved to
    # the tests, unless listed above
    stmts = [
        (path.stem, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    named = [_names(stmt) for _, stmt in stmts]
    unnamed = [
        f"{module}.{stmt.name}"
        for i, (module, stmt) in enumerate(stmts)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for j, names in enumerate(named) if j != i)
    ]
    assert sorted(unnamed) == sorted(UNNAMED_ALLOWED)


# defaulted parameters that no call in src/ sets; each is set from outside
# the package, and every other setting is a module constant (tests
# monkeypatch those) or is passed by its callers
UNSET_DEFAULTS_ALLOWED = {
    "lfunc.exponent_scan.parallelism": "the benchmark's scan-high pool passes it",
    "cli.main.argv": "the program's entry point; tests pass an argv",
    "acceptance.criterion_poisson_s5.t_list": "the benchmark's small variant passes it",
    "acceptance.criterion_twisted_factorization.c_max":
        "the benchmark's small variant passes it",
}


def _callee(func):
    return getattr(func, "id", None) or getattr(func, "attr", None)


def test_defaulted_parameters_are_set_or_allowlisted():
    # a default that no caller overrides is a setting with one value: it
    # becomes a constant.  Calls resolve by name (a class call reaches
    # __init__, a method call skips self), and functools.partial(f, ...)
    # counts as a call of f
    defs = []  # (qualified name, callee name, definition, leading self)
    trees = [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    for module, tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                defs.append((f"{module}.{stmt.name}", stmt.name, stmt, 0))
            elif isinstance(stmt, ast.ClassDef):
                defs += [
                    (f"{module}.{stmt.name}.{fn.name}",
                     stmt.name if fn.name == "__init__" else fn.name, fn, 1)
                    for fn in stmt.body if isinstance(fn, ast.FunctionDef)
                ]
    set_by_a_call = set()
    for _, tree in trees:
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name, args = _callee(call.func), call.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            for qual, callee, fn, skip in defs:
                if callee != name:
                    continue
                params = [a.arg for a in fn.args.posonlyargs + fn.args.args][skip:]
                for i, arg in enumerate(args):
                    # a starred argument may fill every later position
                    reached = params[i:] if isinstance(arg, ast.Starred) else params[i:i + 1]
                    set_by_a_call.update((qual, p) for p in reached)
                for kw in call.keywords:
                    names = params + [a.arg for a in fn.args.kwonlyargs]
                    set_by_a_call.update((qual, p) for p in ([kw.arg] if kw.arg else names))
    unset = []
    for qual, _, fn, _ in defs:
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):] + [
            p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        unset += [f"{qual}.{p.arg}" for p in defaulted if (qual, p.arg) not in set_by_a_call]
    assert sorted(unset) == sorted(UNSET_DEFAULTS_ALLOWED)


def _declared_test_extras():
    """The import names of the `test` extra in pyproject.toml."""
    text = (SRC.parents[1] / "pyproject.toml").read_text()
    block = re.search(r"(?ms)^test = \[(.*?)^\]", text).group(1)
    return set(re.findall(r'(?m)^\s*"([A-Za-z0-9_]+)', block))


def test_tests_and_scripts_import_only_declared_packages():
    # a clean `.[test]` install runs every test and script: each import is
    # the standard library, numpy, weylbound or a declared test extra, and
    # the one module loaded from a file is benchmark/workloads.py
    root = SRC.parents[1]
    extras = _declared_test_extras()
    assert {"pytest", "hypothesis", "mpmath", "scipy"} <= extras
    allowed = set(sys.stdlib_module_names) | {"numpy", "weylbound"} | extras
    undeclared, file_loads = [], []
    for path in sorted([*(root / "tests").glob("*.py"), *(root / "scripts").glob("*.py")]):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                if isinstance(node, ast.Attribute) and node.attr == "spec_from_file_location":
                    file_loads.append(path.relative_to(root).as_posix())
                continue
            undeclared += [
                f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed
            ]
    assert undeclared == []
    assert file_loads == ["tests/test_acceptance.py"]
    source = (root / "tests" / "test_acceptance.py").read_text()
    assert '/ "benchmark" / "workloads.py"' in source
