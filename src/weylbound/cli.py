"""Command-line entry point: each command maps its typed parameters to
acceptance checks, prints one line per result and writes the artifacts;
every verdict is decided in `acceptance`.

A command takes `--config`, `--output` and its schema's keys, nothing
else: `seed` only where a check draws samples, `format` only on `scan`.
Every run embeds its resolved configuration in the output header,
reductions are fixed-order, sampled sweeps take their generator from
the seed and the scan runs in one thread, so identical configurations
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import acceptance, lfunc

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2


def _record_format(raw: str) -> str:
    if raw not in ("csv", "json"):
        raise ValueError("expected csv or json")
    return raw


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)
    output_path: str | None = None

    def resolved(self) -> dict:
        return {
            "command": self.command,
            "params": dict(sorted(self.params.items())),
            "output_path": self.output_path,
        }


class ConfigError(ValueError):
    pass


def parse_config_file(path: str) -> dict:
    """One `key = value` per line; '#' comments; returns raw strings."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def build_config(command: str, file_params: dict, flag_params: dict,
                 output_path) -> RunConfig:
    schema = _COMMAND_TABLE[command][0]
    params = {}
    merged = dict(file_params)
    merged.update({k: v for k, v in flag_params.items() if v is not None})
    for key, raw in merged.items():
        if key not in schema:
            raise ConfigError(
                f"unknown key {key!r} for command {command!r}; "
                f"known: {sorted(schema)}"
            )
        typ, _ = schema[key]
        try:
            params[key] = typ(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
    for key, (typ, default) in schema.items():
        params.setdefault(key, default)
    return RunConfig(command=command, params=params, output_path=output_path)


def _list(text: str, typ) -> list:
    return [typ(x) for x in text.split(",") if x.strip()]


# ----------------------------------------------------------------------
# suites: each maps cfg.params to (label, check) pairs of acceptance checks


def _unlabelled(*checks):
    return [(None, check) for check in checks]


def _suite_charsum(cfg: RunConfig):
    from .arith import primes_up_to

    primes = tuple(p for p in primes_up_to(cfg.params["q_max"]) if p >= 3)
    if not primes:
        raise ConfigError(
            f"charsum needs an odd prime q <= q_max, got q_max = {cfg.params['q_max']}"
        )
    c_max, cc_max = cfg.params["c_max"], cfg.params["cc_max"]
    return _unlabelled(
        partial(acceptance.criterion_charsums, c_max, cc_max),
        partial(acceptance.criterion_twisted_factorization, primes),
        partial(acceptance.criterion_psi_average, primes),
    )


def _suite_kloosterman(cfg: RunConfig):
    return _unlabelled(partial(
        acceptance.criterion_kloosterman,
        cfg.params["p_exhaustive"], cfg.params["p_max"], cfg.params["seed"],
    ))


def _suite_petersson(cfg: RunConfig):
    return _unlabelled(partial(
        acceptance.criterion_petersson_weight,
        cfg.params["k"], cfg.params["grid"], cfg.params["tol"],
    ))


def _suite_besselsum(cfg: RunConfig):
    ks = tuple(_list(cfg.params["k_list"], int))
    xs = tuple(_list(cfg.params["x_list"], float))
    if not ks or not xs:
        raise ConfigError("besselsum needs at least one K in k_list and one x in x_list")
    return _unlabelled(
        partial(acceptance.criterion_bessel_sum_identity, ks, xs),
        partial(acceptance.criterion_ksum_asymptotic_scale, ks),
        partial(acceptance.criterion_bessel_sum_suppression, ks),
    )


def _suite_oscint(cfg: RunConfig):
    return _unlabelled(partial(acceptance.criterion_stationary_phase, cfg.params["seed"]))


def _spec_for(name: str, prec: int):
    if name == "delta":
        return lfunc.delta_spec(prec)
    if name.startswith("holomorphic:"):
        return lfunc.holomorphic_spec(int(name.split(":", 1)[1]), prec)
    if name.startswith("maass:"):
        spec, _ = lfunc.load_maass_file(name.split(":", 1)[1])
        return spec
    raise ConfigError(f"unknown form {name!r}")


def _suite_afe(cfg: RunConfig):
    ts = _list(cfg.params["t_list"], float)
    if not ts:
        raise ConfigError("afe needs at least one t in t_list")
    # afe_lengths rejects a non-finite t; the form is sized only past both checks
    need = max(
        lfunc.afe_lengths(lfunc.delta_spec(100), t, 0.5)[0] for t in ts
    )
    if max(abs(t) for t in ts) > lfunc.T_MAX:
        raise ConfigError(f"desk-scale AFE limited to |t| <= {lfunc.T_MAX:g}")
    spec = _spec_for(cfg.params["form"], max(2000, int(need * 1.2)))
    return _unlabelled(
        partial(acceptance.criterion_afe_balance, spec, ts, cfg.params["form"])
    )


def format_scan_csv(records, cfg: RunConfig) -> str:
    lines = [f"# config: {json.dumps(cfg.resolved(), sort_keys=True)}"]
    lines.append("t,modulus,afe_length,consistency_gap,convexity_ratio,weyl_ratio")
    for r in records:
        lines.append(
            f"{r.t:.6f},{r.modulus:.12e},{r.afe_length},"
            f"{r.consistency_gap:.6e},{r.convexity_ratio:.12e},{r.weyl_ratio:.12e}"
        )
    return "\n".join(lines) + "\n"


def emit_plotdata(records, path: str, cfg: RunConfig | None = None) -> None:
    """Two-column scan data plus fitted reference curves c t^(1/3) and
    c t^(1/2); flagged records are excluded and counted in the header."""
    if not records:
        raise ValueError("no records to plot")
    ok = [r for r in records if r.accepted]
    excluded = len(records) - len(ok)
    lines = []
    if cfg is not None:
        lines.append(f"# config: {json.dumps(cfg.resolved(), sort_keys=True)}")
    lines.append(f"# records: {len(ok)} (excluded: {excluded})")
    for r in ok:
        lines.append(f"{r.t:.6f} {r.modulus:.12e}")
    if len(ok) >= 2:
        ts = np.array([r.t for r in ok])
        ms = np.array([r.modulus for r in ok])
        for label, expo in (("t^(1/3)", 1.0 / 3.0), ("t^(1/2)", 0.5)):
            basis = ts**expo
            c = float(np.dot(ms, basis) / np.dot(basis, basis))
            lines.append(f"# reference curve c*{label}, c = {c:.6e}")
            for r in ok:
                lines.append(f"{r.t:.6f} {c * r.t**expo:.12e}")
    else:
        lines.append("# fit skipped: fewer than two accepted records")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_scan(cfg: RunConfig, records, summary) -> list[str]:
    """The CSV or JSON record file and its plot data; returns their paths."""
    if not cfg.output_path:
        return []
    with open(cfg.output_path, "w", encoding="utf-8") as fh:
        if cfg.params["format"] == "csv":
            fh.write(format_scan_csv(records, cfg))
        else:
            payload = {
                "config": cfg.resolved(),
                "summary": asdict(summary),
                "records": [asdict(r) for r in records],
            }
            json.dump(payload, fh, indent=1, sort_keys=True)
    emit_plotdata(records, cfg.output_path + ".plot", cfg)
    return [cfg.output_path, cfg.output_path + ".plot"]


def _suite_scan(cfg: RunConfig):
    if cfg.params["t_max"] <= cfg.params["t_min"]:
        raise ConfigError(
            f"empty scan range: t_max {cfg.params['t_max']} <= "
            f"t_min {cfg.params['t_min']}"
        )
    if cfg.params["prec"] > lfunc.PREC_MAX:
        raise ConfigError(
            f"desk-scale scan limited to prec <= {lfunc.PREC_MAX}, "
            f"got {cfg.params['prec']}"
        )
    spec = _spec_for(cfg.params["form"], cfg.params["prec"])
    return _unlabelled(partial(
        acceptance.criterion_scan,
        spec, cfg.params["t_min"], cfg.params["t_max"], cfg.params["step"],
        write=partial(_write_scan, cfg),
    ))


def _suite_pipeline(cfg: RunConfig):
    from .pipeline import PipelineParams

    p = PipelineParams(
        N=cfg.params["n_len"],
        t=cfg.params["t"],
        K=cfg.params["weight_scale"],
        Q=cfg.params["q_scale"],
    )
    return _unlabelled(*acceptance.pipeline_checks(p))


def _suite_all(cfg: RunConfig):
    return acceptance.ALL_CRITERIA


# command -> (typed parameter schema: name -> (type, default), suite)
_COMMAND_TABLE = {
    "charsum": ({"c_max": (int, 40), "cc_max": (int, 12), "q_max": (int, 13)}, _suite_charsum),
    "kloosterman": (
        {"p_exhaustive": (int, 50), "p_max": (int, 499), "seed": (int, 20240801)},
        _suite_kloosterman,
    ),
    "petersson": ({"k": (int, 12), "grid": (int, 8), "tol": (float, 1e-6)}, _suite_petersson),
    "besselsum": (
        {"k_list": (str, "8,16,32"), "x_list": (str, "10,100,1000,10000")},
        _suite_besselsum,
    ),
    "oscint": ({"seed": (int, 20240801)}, _suite_oscint),
    "afe": ({"form": (str, "delta"), "t_list": (str, "0,10,100")}, _suite_afe),
    "scan": (
        {
            "form": (str, "delta"),
            "t_min": (float, 10.0),
            "t_max": (float, 50.0),
            "step": (float, 0.25),
            "prec": (int, 12000),
            "format": (_record_format, "csv"),
        },
        _suite_scan,
    ),
    "pipeline": (
        {
            "n_len": (float, 2500.0),
            "t": (float, 400.0),
            "weight_scale": (float, 10.0),
            "q_scale": (float, 25.0),
        },
        _suite_pipeline,
    ),
    "all": ({}, _suite_all),
}
COMMANDS = tuple(_COMMAND_TABLE)


def run(cfg: RunConfig) -> int:
    """Execute the configured suite; 0 iff every gated check passes.

    A missing artifact directory is refused before any check runs.
    """
    if cfg.output_path:
        out_dir = os.path.dirname(cfg.output_path) or "."
        if not os.path.isdir(out_dir):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_dir)
    suite = _COMMAND_TABLE[cfg.command][1]
    results = acceptance.run_all(suite(cfg), emit=lambda line: print(line, flush=True))
    n_inconclusive = sum(1 for r in results if r.status == "INCONCLUSIVE")
    failed = [r for r in results if r.status == "FAIL"]
    if cfg.output_path and cfg.command != "scan":
        payload = {
            "config": cfg.resolved(),
            "results": [asdict(r) for r in results],
        }
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    if failed:
        print(
            f"{len(failed)} gated check(s) FAILED, "
            f"{n_inconclusive} inconclusive",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILURE
    return EXIT_PASS


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylbound",
        description="verification suites for the GL(2) subconvexity machinery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--output", help="artifact path")
        for key, (typ, default) in _COMMAND_TABLE[command][0].items():
            p.add_argument(
                f"--{key.replace('_', '-')}",
                dest=f"param_{key}",
                type=str,
                default=None,
                help=f"default: {default}",
            )
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        file_params = parse_config_file(args.config) if args.config else {}
        flag_params = {
            k[len("param_") :]: v
            for k, v in vars(args).items()
            if k.startswith("param_")
        }
        cfg = build_config(args.command, file_params, flag_params, args.output)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(cfg)
    except (ValueError, OSError) as exc:
        # out-of-range parameters, an unreadable form file, an unwritable artifact
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
