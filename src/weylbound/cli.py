"""Command-line entry point: dispatch to the verification suites,
machine-readable output, and the exponent-scan orchestration.

Every run embeds its fully resolved configuration in the output header,
reductions are fixed-order, and sampled sweeps take their generator
from the seed, so identical configurations produce byte-identical
artifacts regardless of parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import acceptance, lfunc
from .acceptance import CheckResult

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2

COMMANDS = (
    "charsum",
    "kloosterman",
    "petersson",
    "besselsum",
    "oscint",
    "afe",
    "scan",
    "pipeline",
    "all",
)

# typed parameter schema per command: name -> (type, default)
_SCHEMAS: dict[str, dict[str, tuple]] = {
    "charsum": {"c_max": (int, 40), "cc_max": (int, 12), "q_max": (int, 13)},
    "kloosterman": {"p_exhaustive": (int, 50), "p_max": (int, 499)},
    "petersson": {"k": (int, 12), "grid": (int, 8), "tol": (float, 1e-6)},
    "besselsum": {
        "k_list": (str, "8,16,32"),
        "x_list": (str, "10,100,1000,10000"),
    },
    "oscint": {},
    "afe": {"form": (str, "delta"), "t_list": (str, "0,10,100")},
    "scan": {
        "form": (str, "delta"),
        "t_min": (float, 10.0),
        "t_max": (float, 50.0),
        "step": (float, 0.25),
        "prec": (int, 12000),
    },
    "pipeline": {
        "n_len": (float, 2500.0),
        "t": (float, 400.0),
        "weight_scale": (float, 10.0),
        "q_scale": (float, 25.0),
    },
    "all": {},
}


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)
    output_path: str | None = None
    format: str = "csv"
    parallelism: int = 1
    seed: int = 20240801

    def resolved(self) -> dict:
        return {
            "command": self.command,
            "params": dict(sorted(self.params.items())),
            "output_path": self.output_path,
            "format": self.format,
            "parallelism": self.parallelism,
            "seed": self.seed,
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
                 output_path, fmt, parallelism, seed) -> RunConfig:
    schema = _SCHEMAS[command]
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
    return RunConfig(
        command=command,
        params=params,
        output_path=output_path,
        format=fmt,
        parallelism=parallelism,
        seed=seed,
    )


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


# ----------------------------------------------------------------------
# suites


def _suite_charsum(cfg: RunConfig) -> list[CheckResult]:
    from .arith import primes_up_to

    primes = tuple(p for p in primes_up_to(cfg.params["q_max"]) if p >= 3)
    return [
        acceptance.criterion_charsums(cfg.params["c_max"], cfg.params["cc_max"]),
        acceptance.criterion_twisted_factorization(primes),
        acceptance.criterion_psi_average(primes),
    ]


def _suite_kloosterman(cfg: RunConfig) -> list[CheckResult]:
    import time

    from .arith import primes_up_to
    from .expsums import kloosterman, kloosterman_crt

    t0 = time.perf_counter()
    worst_weil = 0.0
    worst_imag = 0.0
    for p in primes_up_to(cfg.params["p_exhaustive"]):
        for m in range(1, p):
            for n in range(1, p):
                s = kloosterman(m, n, p)
                worst_weil = max(worst_weil, abs(s) / (2 * math.sqrt(p)))
                worst_imag = max(worst_imag, abs(s.imag))
    rng = np.random.default_rng(cfg.seed)
    sampled = [
        p
        for p in primes_up_to(cfg.params["p_max"])
        if p > cfg.params["p_exhaustive"]
    ]
    for p in sampled[:: max(1, len(sampled) // 12)]:
        for _ in range(6):
            m = int(rng.integers(1, p))
            n = int(rng.integers(1, p))
            s = kloosterman(m, n, p)
            worst_weil = max(worst_weil, abs(s) / (2 * math.sqrt(p)))
    worst_crt = 0.0
    for c1, c2 in [(3, 4), (5, 6), (7, 9), (8, 15), (16, 27), (25, 29)]:
        for m, n in [(1, 1), (2, 5), (0, 1)]:
            worst_crt = max(
                worst_crt,
                abs(kloosterman(m, n, c1 * c2) - kloosterman_crt(m, n, c1, c2)),
            )
    ok = worst_weil <= 1.0 + 1e-12 and worst_imag < 1e-9 and worst_crt < 1e-9
    return [
        CheckResult(
            "Kloosterman sums",
            "PASS" if ok else "FAIL",
            f"Weil ratio max {worst_weil:.6f}; imag max {worst_imag:.2e}; "
            f"CRT worst {worst_crt:.2e}",
            time.perf_counter() - t0,
        )
    ]


def _suite_petersson(cfg: RunConfig) -> list[CheckResult]:
    import time

    from .trace import trace_consistency

    t0 = time.perf_counter()
    k = cfg.params["k"]
    grid = cfg.params["grid"]
    rep = trace_consistency(k, grid, tol=cfg.params["tol"])
    if rep.dim == 0:
        detail = f"dim 0: worst |Delta| = {rep.max_abs_delta:.2e} on {grid}^2 pairs"
    elif rep.dim == 1:
        detail = (
            f"dim 1: lambda err {rep.lambda_max_err:.2e}, "
            f"rank ratio {rep.rank_ratio:.2e}"
        )
    else:
        detail = (
            f"dim 2: residual {rep.max_residual:.2e}, "
            f"weights positive {rep.weights_positive}"
        )
    return [
        CheckResult(f"Petersson k={k}", rep.status, detail, time.perf_counter() - t0)
    ]


def _suite_besselsum(cfg: RunConfig) -> list[CheckResult]:
    import time

    from .oscint import bessel_weighted_k_sum

    ks = tuple(_int_list(cfg.params["k_list"]))
    xs = tuple(_float_list(cfg.params["x_list"]))
    out = [acceptance.criterion_bessel_sum_identity(ks, xs)]
    t0 = time.perf_counter()
    worst_as = 0.0
    for K in ks:
        x = float(4 * K * K)
        d = bessel_weighted_k_sum(K, x, "direct")
        a = bessel_weighted_k_sum(K, x, "asymptotic")
        worst_as = max(worst_as, abs(a.value - d.value) / abs(d.value))
    out.append(
        CheckResult(
            "k-sum asymptotic scale",
            "PASS" if worst_as <= 0.10 else "FAIL",
            f"worst relative error at x = 4K^2: {worst_as:.3f}",
            time.perf_counter() - t0,
        )
    )
    out.append(acceptance.criterion_bessel_sum_suppression(ks))
    return out


def _suite_oscint(cfg: RunConfig) -> list[CheckResult]:
    return [acceptance.criterion_stationary_phase(cfg.seed)]


def _spec_for(name: str, prec: int):
    if name == "delta":
        return lfunc.delta_spec(prec)
    if name.startswith("holomorphic:"):
        return lfunc.holomorphic_spec(int(name.split(":", 1)[1]), prec)
    if name.startswith("maass:"):
        spec, _ = lfunc.load_maass_file(name.split(":", 1)[1])
        return spec
    raise ConfigError(f"unknown form {name!r}")


def _suite_afe(cfg: RunConfig) -> list[CheckResult]:
    import time

    t0 = time.perf_counter()
    ts = _float_list(cfg.params["t_list"])
    need = max(
        lfunc.afe_lengths(lfunc.delta_spec(100), t, 0.5)[0] for t in ts
    )
    spec = _spec_for(cfg.params["form"], max(2000, int(need * 1.2)))
    worst = 0.0
    for t in ts:
        contour = lfunc._AfeContour(spec, t)
        vals = [
            lfunc.central_value(spec, t, b, _contour=contour).value
            for b in (0.5, 1.0, 2.0)
        ]
        worst = max(
            worst, max(abs(v - vals[1]) for v in vals) / max(1.0, abs(vals[1]))
        )
    return [
        CheckResult(
            f"AFE balance invariance ({cfg.params['form']})",
            "PASS" if worst <= 1e-6 else "FAIL",
            f"worst relative spread {worst:.2e} at t in {ts}",
            time.perf_counter() - t0,
        )
    ]


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


def _suite_scan(cfg: RunConfig) -> list[CheckResult]:
    import time

    if cfg.params["t_max"] <= cfg.params["t_min"]:
        raise ConfigError(
            f"empty scan range: t_max {cfg.params['t_max']} <= "
            f"t_min {cfg.params['t_min']}"
        )
    t0 = time.perf_counter()
    spec = _spec_for(cfg.params["form"], cfg.params["prec"])
    records = lfunc.exponent_scan(
        spec,
        cfg.params["t_min"],
        cfg.params["t_max"],
        cfg.params["step"],
        parallelism=cfg.parallelism,
    )
    summary = lfunc.scan_summary(records)
    artifacts = []
    if cfg.output_path:
        if cfg.format == "csv":
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(format_scan_csv(records, cfg))
            artifacts.append(cfg.output_path)
        else:
            payload = {
                "config": cfg.resolved(),
                "summary": asdict(summary),
                "records": [asdict(r) for r in records],
            }
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
            artifacts.append(cfg.output_path)
        if records:
            plot_path = cfg.output_path + ".plot"
            emit_plotdata(records, plot_path, cfg)
            artifacts.append(plot_path)
    status = "PASS" if summary.n_flagged == 0 else "FAIL"
    slope = f"{summary.fit_slope:.3f}" if summary.fit_slope is not None else "n/a"
    detail = (
        f"{summary.n_records} records, {summary.n_flagged} flagged, "
        f"fitted peak exponent {slope}, max Weyl ratio "
        f"{summary.max_weyl_ratio:.3f}"
        + (f"; wrote {', '.join(artifacts)}" if artifacts else "")
    )
    return [CheckResult("exponent scan", status, detail, time.perf_counter() - t0)]


def _suite_pipeline(cfg: RunConfig) -> list[CheckResult]:
    import time

    from . import pipeline

    p = pipeline.PipelineParams(
        N=cfg.params["n_len"],
        t=cfg.params["t"],
        K=cfg.params["weight_scale"],
        Q=cfg.params["q_scale"],
    )
    out = []
    t0 = time.perf_counter()
    rep = pipeline.poisson_check_s5(1, max(2, int(p.Q // 2)), p, tol=1e-6)
    out.append(
        CheckResult(
            "S5 Poisson identity",
            rep.status,
            f"m=1 c={rep.c}: scaled diff "
            f"{rep.abs_diff / max(abs(rep.direct), 1e-3 * rep.trivial_bound):.2e}",
            time.perf_counter() - t0,
        )
    )
    t0 = time.perf_counter()
    c_mid = int(p.Q)
    n_star = pipeline.stationary_dual_index(p, c_mid)
    dec = pipeline.j_decay_report(p, n_star, c_mid)
    out.append(
        CheckResult(
            "J-decay",
            dec.status,
            f"a0 {dec.a0:.2f}, a1 {dec.worst_a1:.2f}, ratio {dec.decay_ratio:.1e}",
            time.perf_counter() - t0,
        )
    )
    t0 = time.perf_counter()
    cs = tuple(int(p.Q) + d for d in (-2, -1, 0, 1))
    asm = pipeline.offdiagonal_assembly(p, cs, n_half_width=2, m_window=60)
    out.append(
        CheckResult(
            "off-diagonal assembly",
            asm.status,
            f"diag const {asm.diag_constant:.3f}, offdiag const "
            f"{asm.offdiag_constant:.3f} (alt {asm.offdiag_constant_alt:.3e}), "
            f"sparsity {asm.sparsity_ratio:.2f}",
            time.perf_counter() - t0,
        )
    )
    return out


def _suite_all(cfg: RunConfig) -> list[CheckResult]:
    return acceptance.run_all(emit=lambda line: print(line, flush=True))


_SUITES = {
    "charsum": _suite_charsum,
    "kloosterman": _suite_kloosterman,
    "petersson": _suite_petersson,
    "besselsum": _suite_besselsum,
    "oscint": _suite_oscint,
    "afe": _suite_afe,
    "scan": _suite_scan,
    "pipeline": _suite_pipeline,
    "all": _suite_all,
}


def run(cfg: RunConfig) -> int:
    """Execute the configured suite; 0 iff every gated check passes."""
    results = _SUITES[cfg.command](cfg)
    n_inconclusive = sum(1 for r in results if r.status == "INCONCLUSIVE")
    failed = [r for r in results if r.status == "FAIL"]
    if cfg.command != "all":  # `all` already streams its lines
        for r in results:
            print(f"[{r.status:4s}] {r.name}: {r.detail} ({r.elapsed:.1f}s)")
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
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--parallelism", type=int, default=1)
        p.add_argument("--seed", type=int, default=20240801)
        for key, (typ, default) in _SCHEMAS[command].items():
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
        cfg = build_config(
            args.command,
            file_params,
            flag_params,
            args.output,
            args.format,
            args.parallelism,
            args.seed,
        )
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(cfg)
    except ValueError as exc:  # out-of-range parameters the suites reject
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
