import json
import re
import sys

import pytest

from weylbound import acceptance, lfunc
from weylbound.cli import (
    COMMANDS,
    ConfigError,
    EXIT_CHECK_FAILURE,
    EXIT_PASS,
    EXIT_USAGE,
    _COMMAND_TABLE,
    build_config,
    emit_plotdata,
    main,
    make_parser,
    parse_config_file,
)
from weylbound.lfunc import ScanRecord


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("t_min = 5.0\n# note\nt_max = 9.0  # inline\n\nstep = 1.0\n")
    got = parse_config_file(str(p))
    assert got == {"t_min": "5.0", "t_max": "9.0", "step": "1.0"}


def test_config_file_diagnostics(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("t_min 5.0\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_file(str(p))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        build_config("scan", {"bogus": "1"}, {}, None)


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        build_config("scan", {"t_min": "abc"}, {}, None)


def test_flags_override_file():
    cfg = build_config("scan", {"t_min": "5.0"}, {"t_min": "7.0"}, None)
    assert cfg.params["t_min"] == 7.0
    # defaults fill the rest
    assert cfg.params["step"] == 0.25


def test_usage_error_exit_code(tmp_path):
    assert main(["scan", "--config", str(tmp_path / "missing.cfg")]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--parallelism", "2"],
        ["all", "--seed", "7"],
        ["petersson", "--format", "json"],
    ],
    ids=["scan-parallelism", "all-seed", "petersson-format"],
)
def test_removed_options_refused(argv, tmp_path, capsys):
    # argparse refuses a flag the command's schema lacks before any check
    # runs or artifact is written
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(out)])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in captured.err


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_takes_only_schema_options(command):
    # no global option a command's checks ignore: only --config, --output
    # and the command's own schema keys
    sub = make_parser()._subparsers._group_actions[0].choices[command]
    options = {opt for action in sub._actions for opt in action.option_strings}
    keys = {f"--{key.replace('_', '-')}" for key in _COMMAND_TABLE[command][0]}
    assert options == {"-h", "--help", "--config", "--output"} | keys


def test_seed_and_format_belong_to_their_commands(tmp_path, capsys):
    schemas = {c: schema for c, (schema, _) in _COMMAND_TABLE.items()}
    assert [c for c in COMMANDS if "seed" in schemas[c]] == ["kloosterman", "oscint"]
    assert [c for c in COMMANDS if "format" in schemas[c]] == ["scan"]
    cfg_file = tmp_path / "seed.cfg"
    cfg_file.write_text("seed = 7\n")
    file_params = parse_config_file(str(cfg_file))
    assert build_config("oscint", file_params, {}, None).params["seed"] == 7
    assert build_config("oscint", {}, {}, None).params["seed"] == 20240801
    out = tmp_path / "pet.json"
    assert main(["petersson", "--config", str(cfg_file), "--output", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("configuration error: unknown key 'seed'")
    assert main(["scan", "--format", "xml"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("configuration error: bad value for 'format'")


def test_petersson_command_exit_zero(capsys):
    assert main(["petersson", "--k", "10", "--grid", "4"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_petersson_dim2_runs_without_mpmath(monkeypatch, capsys):
    # mpmath is a test-only dependency; the dim-2 eigenforms must not need it
    monkeypatch.setitem(sys.modules, "mpmath", None)
    assert main(["petersson", "--k", "24"]) == EXIT_PASS
    assert "[PASS] Petersson k=24: dim 2" in capsys.readouterr().out


def test_scan_determinism_across_runs(tmp_path):
    # one configuration, run twice, writes the same bytes: header, records
    # and plot data
    out = tmp_path / "scan.csv"
    argv = ["scan", "--t-min", "10", "--t-max", "12", "--step", "0.5",
            "--prec", "600", "--output", str(out)]
    assert main(argv) == EXIT_PASS
    first = out.read_bytes(), (tmp_path / "scan.csv.plot").read_bytes()
    assert main(argv) == EXIT_PASS
    assert (out.read_bytes(), (tmp_path / "scan.csv.plot").read_bytes()) == first
    header = json.loads(first[0].split(b"\n", 1)[0][len(b"# config: "):])
    assert sorted(header) == ["command", "output_path", "params"]
    assert header["params"]["format"] == "csv"


def test_scan_csv_roundtrip(tmp_path):
    out = tmp_path / "scan.csv"
    args = ["scan", "--t-min", "10", "--t-max", "12", "--step", "0.5",
            "--prec", "600", "--output", str(out)]
    assert main(args) == EXIT_PASS
    header = out.read_text().splitlines()[0]
    cfg_json = json.loads(header[len("# config: "):])
    # re-running with the embedded config reproduces the records
    args2 = [
        "scan",
        "--t-min", str(cfg_json["params"]["t_min"]),
        "--t-max", str(cfg_json["params"]["t_max"]),
        "--step", str(cfg_json["params"]["step"]),
        "--prec", str(cfg_json["params"]["prec"]),
        "--output", str(tmp_path / "again.csv"),
    ]
    assert main(args2) == EXIT_PASS
    assert (
        out.read_text().split("\n", 1)[1]
        == (tmp_path / "again.csv").read_text().split("\n", 1)[1]
    )


def _fake_records(n, flagged=0):
    recs = []
    for i in range(n):
        t = 10.0 + i
        recs.append(
            ScanRecord(
                t=t, modulus=1.0 + 0.1 * i, afe_length=50,
                consistency_gap=1e-9 if i >= flagged else 1.0,
                convexity_ratio=0.3, weyl_ratio=0.4,
                accepted=i >= flagged,
            )
        )
    return recs


def test_emit_plotdata_blocks(tmp_path):
    path = tmp_path / "plot.dat"
    emit_plotdata(_fake_records(10), str(path))
    text = path.read_text()
    assert text.count("# reference curve") == 2
    assert "# records: 10 (excluded: 0)" in text


def test_emit_plotdata_single_record_flagged(tmp_path):
    path = tmp_path / "plot.dat"
    emit_plotdata(_fake_records(1), str(path))
    assert "fit skipped" in path.read_text()


def test_emit_plotdata_excludes_flagged(tmp_path):
    path = tmp_path / "plot.dat"
    emit_plotdata(_fake_records(6, flagged=2), str(path))
    assert "# records: 4 (excluded: 2)" in path.read_text()


def test_json_output_embeds_config(tmp_path):
    out = tmp_path / "pet.json"
    assert main(["petersson", "--k", "10", "--grid", "3",
                 "--output", str(out)]) == EXIT_PASS
    payload = json.loads(out.read_text())
    # the header records only what the command reads
    assert payload["config"] == {
        "command": "petersson",
        "params": {"grid": 3, "k": 10, "tol": 1e-6},
        "output_path": str(out),
    }
    assert payload["results"][0]["status"] == "PASS"


def test_afe_command(capsys):
    assert main(["afe", "--form", "delta", "--t-list", "0,10"]) == EXIT_PASS
    assert "[PASS]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pipeline", "--t", "100", "--weight-scale", "50"], "need K <= sqrt(t)"),
        (["pipeline", "--q-scale", "200"], "desk-scale limits"),
        (["scan", "--step", "0", "--prec", "600"], "step must be positive"),
        # an empty case set must not print a passing verdict
        (["charsum", "--c-max", "0"], "no character-sum cases"),
        (["charsum", "--cc-max", "0"], "no character-sum cases"),
        (["charsum", "--q-max", "2"], "charsum needs an odd prime q <= q_max"),
        (["kloosterman", "--p-exhaustive", "1", "--p-max", "1"], "no Kloosterman cases"),
        (["besselsum", "--x-list", ""], "besselsum needs at least one K"),
        (["besselsum", "--k-list", ""], "besselsum needs at least one K"),
        # petersson: past the dim <= 2 eigenforms, and grids too small to read
        (["petersson", "--k", "36"], "got dim S_36 = 3"),
        (["petersson", "--grid", "1"], "need grid >= 2 at dim S_12 = 1"),
        (["petersson", "--k", "24", "--grid", "1"], "need grid >= 2 at dim S_24 = 2"),
        (["petersson", "--grid", "0"], "need grid >= 2 at dim S_12 = 1"),
        (["petersson", "--k", "10", "--grid", "0"], "need grid >= 1 at dim S_10 = 0"),
        # no coefficients past lambda(0)
        (["scan", "--prec", "0"], "need coefficients"),
        (["scan", "--prec", "-5"], "need coefficients"),
        (["scan", "--form", "holomorphic:16", "--prec", "0"], "need coefficients"),
        # a form longer than any desk-scale scan needs, refused before it is built
        (["scan", "--prec", "50001"], "desk-scale scan limited to prec <= 50000"),
        # a non-finite height or step
        (["afe", "--t-list", "inf"], "t must be finite"),
        (["scan", "--step", "inf", "--prec", "600"], "finite t_min, t_max and step"),
        (["scan", "--t-min", "nan", "--prec", "600"], "finite t_min, t_max and step"),
        (["scan", "--t-max", "nan", "--prec", "600"], "finite t_min, t_max and step"),
        (["scan", "--step", "nan", "--prec", "600"], "finite t_min, t_max and step"),
        # afe: a height past the desk scale is refused before the form is
        # sized for it, and an empty list before its largest length is taken
        (["afe", "--t-list", "1e9"], "desk-scale AFE limited to |t| <= 5000"),
        (["afe", "--t-list", "-6000"], "desk-scale AFE limited to |t| <= 5000"),
        (["afe", "--t-list", ""], "afe needs at least one t"),
        # a 10^12-point grid, refused before the grid is formed
        (["scan", "--t-min", "10", "--t-max", "11", "--step", "1e-12", "--prec", "600"],
         "exceeds the desk-scale limit of 1000000"),
        # a missing form file; an artifact path in a missing directory,
        # refused before any check runs
        (["scan", "--form", "maass:/nonexistent/maass.txt"], "No such file or directory"),
        (["petersson", "--output", "/nonexistent/dir/x.json"], "No such file or directory"),
        # an empty cusp space, and one past the dim <= 2 eigenforms
        (["scan", "--form", "holomorphic:10"], "got dim S_10 = 0"),
        (["scan", "--form", "holomorphic:13"], "got dim S_13 = 0"),
        (["scan", "--form", "holomorphic:14"], "got dim S_14 = 0"),
        (["scan", "--form", "holomorphic:36"], "got dim S_36 = 3"),
    ],
    ids=["k-above-sqrt-t", "modulus-past-desk-scale", "zero-step",
         "charsum-no-grid", "charsum-no-congruence", "charsum-no-primes",
         "kloosterman-no-primes", "besselsum-empty-x-list", "besselsum-empty-k-list",
         "petersson-k36-dim3", "petersson-k12-grid-1", "petersson-k24-grid-1",
         "petersson-grid-0", "petersson-k10-grid-0",
         "prec-zero", "prec-negative", "k16-prec-zero", "prec-past-desk-scale",
         "afe-t-inf",
         "step-inf", "t-min-nan", "t-max-nan", "step-nan",
         "afe-t-past-desk-scale", "afe-negative-t-past-desk-scale", "afe-empty-t-list",
         "scan-grid-too-large", "maass-file-missing", "output-dir-missing",
         "holomorphic-k10-empty", "holomorphic-k13-odd", "holomorphic-k14-empty",
         "holomorphic-k36-dim3"],
)
def test_rejected_parameters_exit_usage(argv, message, capsys):
    # exit 1 is reserved for a failed gate; a rejected input is a usage error
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["petersson", "all"])
def test_missing_output_directory_refused_before_any_check(command, monkeypatch, capsys):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(acceptance, "run_all", no_check)
    assert main([command, "--output", "/nonexistent/dir/x.json"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "No such file or directory" in captured.err


def test_charsum_without_odd_prime_refused_before_any_check(monkeypatch, capsys):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(acceptance, "run_all", no_check)
    assert main(["charsum", "--q-max", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: charsum needs an odd prime q <= q_max, got q_max = 2\n"


def test_besselsum_past_kernel_budget_exits_usage(capsys):
    # the direct side at x = 1e7 takes the asymptotic route; the kernel
    # side refuses instead of reporting a clipped quadrature as a FAIL
    assert main(["besselsum", "--k-list", "8", "--x-list", "10000000"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: kernel quadrature at K = 8, x = 1e+07 needs 17944739 panels "
        "on [0, 1/2], over the budget of 2000000\n"
    )


@pytest.mark.parametrize("form", ["delta", "holomorphic:24"])
def test_scan_prec_past_desk_scale_refused_before_any_coefficient(form, monkeypatch, capsys):
    def no_form(*args, **kwargs):
        raise AssertionError("a form was built")

    monkeypatch.setattr(lfunc, "delta_spec", no_form)
    monkeypatch.setattr(lfunc, "holomorphic_spec", no_form)
    assert main(["scan", "--form", form, "--prec", "10000000000"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: desk-scale scan limited to prec <= 50000, got 10000000000\n"
    )


@pytest.mark.parametrize("t_max", ["10", "50"], ids=["reversed", "empty"])
def test_scan_rejects_empty_range(t_max, capsys):
    assert main(["scan", "--t-min", "50", "--t-max", t_max]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out
    assert captured.err.startswith("error: empty scan range")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code, n_lines",
    [
        (["charsum", "--c-max", "6", "--cc-max", "4", "--q-max", "5"], EXIT_PASS, 3),
        (["kloosterman", "--p-exhaustive", "7", "--p-max", "40"], EXIT_PASS, 1),
        (["petersson", "--k", "12", "--grid", "4"], EXIT_PASS, 1),
        # dim S_10 = 0: a single pair is enough to see Delta vanish
        (["petersson", "--k", "10", "--grid", "1"], EXIT_PASS, 1),
        # the third line is criterion 5b, the deliberate red
        (["besselsum", "--k-list", "8", "--x-list", "10"], EXIT_CHECK_FAILURE, 3),
        (["oscint"], EXIT_PASS, 1),
        (["afe", "--t-list", "0,10"], EXIT_PASS, 1),
        (["pipeline"], EXIT_PASS, 3),
        (["scan", "--t-min", "20", "--t-max", "22", "--step", "0.5"], EXIT_PASS, 1),
    ],
    ids=["charsum", "kloosterman", "petersson", "petersson-k10-grid-1", "besselsum",
         "oscint", "afe", "pipeline", "scan"],
)
def test_every_command_runs(argv, code, n_lines, capsys):
    assert main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == n_lines
    for line in lines:
        assert re.fullmatch(r"\[(PASS|FAIL)\] [^:]+: .+ \(\d+\.\ds\)", line), line
    failed = [line for line in lines if line.startswith("[FAIL]")]
    if code == EXIT_PASS:
        assert not failed
    else:
        assert failed == [lines[-1]]
        assert "sub-threshold suppression" in lines[-1]


def test_scan_short_range_writes_csv_and_plot(tmp_path, capsys):
    # the scan's blocks, the contour fit and the CSV and plot writers
    csv = tmp_path / "scan.csv"
    argv = ["scan", "--t-min", "20", "--t-max", "22", "--step", "0.5",
            "--output", str(csv)]
    assert main(argv) == EXIT_PASS
    out = capsys.readouterr().out
    assert "5 records, 0 flagged" in out
    assert len(csv.read_text().splitlines()) == 2 + 5
    assert (tmp_path / "scan.csv.plot").exists()


def test_scan_json_output(tmp_path):
    # each record's accepted flag is a plain bool, so the JSON writer takes it
    out = tmp_path / "scan.json"
    argv = ["scan", "--t-min", "10", "--t-max", "12", "--step", "0.5",
            "--prec", "600", "--output", str(out), "--format", "json"]
    assert main(argv) == EXIT_PASS
    payload = json.loads(out.read_text())
    assert payload["summary"]["n_records"] == 5
    assert [r["accepted"] for r in payload["records"]] == [True] * 5
