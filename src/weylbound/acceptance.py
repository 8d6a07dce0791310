"""The gated verification suites, one per headline claim.

Each criterion function measures one family of identities or bounds at
its pinned tolerance and returns a CheckResult.  Every CLI command and
the acceptance test module drive these, so the gate is the same
everywhere: `ALL_CRITERIA` is the headline set that `weylbound all`
runs, and the single-parameter checks after it serve the other
commands.  Statuses: PASS, FAIL, INCONCLUSIVE (counted, not failing).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import characters as chars
from . import arith, expsums, lfunc, modforms, oscint, pipeline, trace


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str
    elapsed: float

    def line(self, label: str | None = None) -> str:
        """One report line: status, label (the name by default), detail, time."""
        name = label or self.name
        return f"[{self.status:4s}] {name}: {self.detail} ({self.elapsed:.1f}s)"


def _timed(fn):
    def wrapper(*args, **kwargs) -> CheckResult:
        t0 = time.perf_counter()
        name, status, detail = fn(*args, **kwargs)
        return CheckResult(name, status, detail, time.perf_counter() - t0)

    return wrapper


def _units(c: int) -> np.ndarray:
    """The n in 1..c with gcd(n, c) = 1."""
    return np.array([n for n in range(1, c + 1) if math.gcd(n, c) == 1])


@_timed
def criterion_charsums(c_max: int = 40, cc_max: int = 12):
    """Exact closed forms of the two complete character sums: one call
    per modulus c (every m and unit n) and per coprime pair (c1, c2)
    (every m and units n1, n2); an empty case set is a usage error."""
    if c_max < 1 or cc_max < 1:
        raise ValueError(
            f"no character-sum cases: c_max = {c_max}, cc_max = {cc_max} (need >= 1)"
        )
    worst_grid = 0.0
    for c in range(1, c_max + 1):
        r = expsums.charsum_grid(np.arange(c), _units(c)[:, None], c)
        worst_grid = max(worst_grid, float(np.max(r.abs_diff)))
    worst_cong = 0.0
    for c1 in range(1, cc_max + 1):
        for c2 in range(1, cc_max + 1):
            if math.gcd(c1, c2) != 1:
                continue
            r = expsums.charsum_congruence(
                np.arange(c1 * c2), _units(c1)[:, None, None], _units(c2)[:, None], c1, c2
            )
            worst_cong = max(worst_cong, float(np.max(r.abs_diff)))
    ok = worst_grid < 1e-9 and worst_cong < 1e-9
    return (
        "charsum closed forms",
        "PASS" if ok else "FAIL",
        f"grid worst {worst_grid:.2e}, congruence worst {worst_cong:.2e}",
    )


@_timed
def criterion_twisted_factorization(
    primes: tuple[int, ...] = (3, 5, 7, 11, 13), c_max: int = 20
):
    """Twisted Kloosterman factorization with the sign-corrected final
    form, one call per (q, c) over the odd characters and the (nu, n, m')
    rows; any deviation is itemized with its smallest counterexample."""
    worst_corr = 0.0
    worst_middle = 0.0
    displayed_fails = []
    cases = 0
    for q in primes:
        psis = [
            ch for ch in chars.enumerate_characters(q) if ch.primitive and ch.is_odd
        ]
        # rows: nu = 0, 1, each with the pairs (n, m') = (1, 1), (2, q - 1)
        nus, ns, mps = [0, 0, 1, 1], [1, 2, 1, 2], [1, q - 1, 1, q - 1]
        fails = []  # (psi, c, row) of every displayed-form deviation mod q
        for c in range(1, c_max + 1):
            if math.gcd(c, q) != 1:
                continue
            rep = expsums.verify_twisted_factorization(psis, n=ns, mprime=mps, nu=nus, c=c)
            cases += rep.lhs.size
            worst_middle = max(worst_middle, float(np.max(rep.diff_lhs_middle)))
            worst_corr = max(worst_corr, float(np.max(rep.diff_lhs_corrected)))
            fails += [(j, c, i) for j, i in zip(*np.nonzero(rep.diff_lhs_displayed > 1e-9))]
        for _, c, i in sorted(fails)[: 3 - len(displayed_fails)]:
            displayed_fails.append((q, c, nus[i], ns[i], mps[i]))
    if not cases:
        raise ValueError(f"no twisted-factorization cases: primes {primes}, c_max = {c_max}")
    ok = worst_corr < 1e-9 and worst_middle < 1e-9
    detail = (
        f"{cases} cases; lhs=middle worst {worst_middle:.2e}; corrected-final "
        f"worst {worst_corr:.2e}; displayed form (no psi(-1)) first "
        f"counterexamples {displayed_fails}"
    )
    return ("twisted factorization", "PASS" if ok else "FAIL", detail)


@_timed
def criterion_psi_average(primes: tuple[int, ...] = (3, 5, 7, 11, 13)):
    """Odd-character average against the discovered closed form for all
    admissible arguments, one convention per modulus; each modulus's
    (c, ell, m') cases are one array call."""
    worst = 0.0
    conventions = {}
    for q in primes:
        conv = chars.discover_average_convention(q)
        conventions[q] = (conv.sign, conv.arg_choice)
        units = np.arange(1, q)
        c, ell, mp_ = np.meshgrid(units, units, units, indexing="ij")
        lhs = chars.odd_character_average(q, c, ell, mp_)
        rhs = chars.closed_form_candidate(q, c, ell, conv.sign, conv.arg_choice)
        worst = max(worst, float(np.max(arith.complex_abs(lhs - rhs))))
    if not conventions:
        raise ValueError(f"no psi-average cases: primes {primes}")
    consistent = len(set(conventions.values())) == 1
    ok = worst < 1e-9 and consistent
    return (
        "psi-average closed form",
        "PASS" if ok else "FAIL",
        f"worst {worst:.2e}; convention {conventions}",
    )


@_timed
def criterion_petersson():
    """Empty-space cancellation, rank-one structure, eigenvalue
    recovery, and the dimension-two weight solve."""
    mat10 = trace.petersson_matrix(10, 5)
    empty_worst = float(np.max(np.abs(mat10)))
    rank_fail = []
    for k in (12, 16, 18, 20, 22, 26):
        rep = trace.trace_consistency(k, 8, tol=1e-6)
        if rep.status != "PASS":
            rank_fail.append(k)
    rep12 = trace.trace_consistency(12, 8, tol=1e-7)
    lam2_err = abs(rep12.recovered_lambda2 - (-24 / 2**5.5))
    rep24 = trace.trace_consistency(24, 6, tol=1e-6)
    ok = (
        empty_worst <= 1e-8
        and not rank_fail
        and lam2_err <= 1e-7
        and rep24.status == "PASS"
    )
    detail = (
        f"k=10 worst |Delta| {empty_worst:.2e}; rank fails {rank_fail or 'none'}; "
        f"lambda(2) err {lam2_err:.2e}; k=24 residual {rep24.max_residual:.2e} "
        f"weights>0 {rep24.weights_positive}"
    )
    return ("Petersson trace formula", "PASS" if ok else "FAIL", detail)


@_timed
def criterion_bessel_sum_identity(
    k_list: tuple[int, ...] = (8, 16, 32),
    x_list: tuple[float, ...] = (10.0, 100.0, 1000.0, 10000.0),
):
    """Sum-over-weights identity: direct vs kernel to 1e-8.  The direct
    sums at one x share one Miller pass over all their orders."""
    worst = 0.0
    for x in x_list:
        for K, d in zip(k_list, oscint._direct_k_sums(k_list, x)):
            kv = oscint.bessel_weighted_k_sum(K, x, "kernel")
            worst = max(worst, abs(d.value - kv.value))
    return (
        "Bessel k-sum identity",
        "PASS" if worst <= 1e-8 else "FAIL",
        f"worst |direct - kernel| {worst:.2e} over {len(k_list)*len(x_list)} pairs",
    )


@_timed
def criterion_bessel_sum_suppression(k_list: tuple[int, ...] = (8, 16, 32)):
    """Sub-threshold suppression ratio of the direct sum, as stated:
    |S1| at x = K^2/16 must sit six orders below |S1| at x = 4 K^2.

    The alternating sum over a compactly supported weight retains mass
    of order exp(-c sqrt(K)) at x = K^2/16 (the quarter-shifted dual
    points of the weight's Fourier transform), so the literal criterion
    is not attainable at these K; the measurement is reported honestly.
    """
    ratios = {}
    for K in k_list:
        hi = abs(oscint.bessel_weighted_k_sum(K, float(4 * K * K), "direct").value)
        lo = abs(oscint.bessel_weighted_k_sum(K, K * K / 16.0, "direct").value)
        ratios[K] = lo / hi if hi > 0 else float("inf")
    ok = all(r <= 1e-6 for r in ratios.values())
    detail = "measured |S1(K^2/16)| / |S1(4K^2)|: " + ", ".join(
        f"K={K}: {r:.3g}" for K, r in ratios.items()
    )
    return ("Bessel k-sum sub-threshold suppression", "PASS" if ok else "FAIL", detail)


def _offdiag_phase_cases(p: pipeline.PipelineParams):
    """Deterministic corpus of dual-chain phases with a unique interior
    critical point: log-quadratic-bilinear in the first square-root
    variable, on a bump straddling the critical point."""
    cases = []
    for c1 in (90, 100, 120):
        for x3 in (1.0, 1.2):
            for n1 in (8, 9):
                a = p.N * n1 / c1
                b = math.sqrt(p.N * p.N_dual) / c1
                t = p.t

                def h(x, a=a, b=b, t=t):
                    return 2 * t * np.log(x) - a * x**2 - b * x * x3

                def dh(x, a=a, b=b, t=t):
                    return 2 * t / x - 2 * a * x - b * x3

                def d2h(x, a=a, t=t):
                    return -2 * t / x**2 - 2 * a * np.ones_like(x)

                # critical point of dh: locate and keep cases with one
                lo, hi = 0.7, 1.7
                xs = np.linspace(lo, hi, 257)
                sgn = np.sign(dh(xs))
                flips = np.sum(sgn[:-1] * sgn[1:] < 0)
                if flips != 1:
                    continue
                x0 = xs[np.argmin(np.abs(dh(xs)))]
                w = oscint.bump_weight(max(lo, x0 - 0.35), min(hi, x0 + 0.35))
                phase = oscint.PhaseSpec(
                    evaluator=h, deriv=dh, deriv2=d2h, Y=p.t, Q=1.0
                )
                cases.append((w, phase))
    return cases


def _vdc_corpus(seed: int):
    """Criterion 6's randomized 200-case second-derivative corpus: f = a x^2 +
    b x + d log x against a bump or a plateau weight on [1, 2], drawn in
    turn from one generator.  Returns the weight family, the phase
    family and the draws (kind, a, b, d, amp), bumps first.

    f'' = 2a - d/x^2 >= 0.1 a > 0 on [1, 2], since |d| < 1.9 a, so
    every draw is a case.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(200):
        a = float(10 ** rng.uniform(-0.3, 1.7))
        d = float(rng.uniform(-1.9, 1.9)) * a
        b = float(rng.uniform(-20, 20))
        amp = float(rng.uniform(0.5, 3.0))
        draws.append((int(rng.integers(0, 2)), a, b, d, amp))
    draws.sort(key=lambda case: case[0])  # bumps, then plateaus
    kind, a, b, d, amp = (np.array(col) for col in zip(*draws))
    bumps = int(np.sum(kind == 0))
    g = oscint.WeightFamily.stack([
        oscint.bump_weight(1.0, 2.0, amp[:bumps]),
        oscint.plateau_weight(1.0, 1.25, 1.75, 2.0, amp[bumps:]),
    ])
    f = oscint.PhaseFamily(
        evaluator=lambda x, k: a[k] * x**2 + b[k] * x + d[k] * np.log(x),
        deriv=lambda x, k: 2 * a[k] * x + b[k] + d[k] / x,
        deriv2=lambda x, k: 2 * a[k] - d[k] / x**2,
    )
    return g, f, draws


@_timed
def criterion_stationary_phase(seed: int = 20240801):
    """Order-0 stationary phase within 2% of quadrature on the dual-
    chain phase corpus, plus the second-derivative bound on a 200-case
    randomized corpus; each corpus's integrals are one quadrature
    family."""
    p = pipeline.PipelineParams(N=1e4, t=1e3, K=10.0, Q=100.0)
    worst_rel = 0.0
    n_cases = 0
    cases = _offdiag_phase_cases(p)
    refs = oscint.oscillatory_quadrature(
        oscint.WeightFamily.stack([w for w, _ in cases]),
        oscint.PhaseFamily.stack([phase for _, phase in cases]),
        tol=1e-12,
    )
    for (w, phase), ref in zip(cases, refs):
        try:
            sp = oscint.stationary_phase_eval(w, phase)
        except oscint.StationaryPointError:
            continue
        n_cases += 1
        worst_rel = max(worst_rel, abs(sp.value - ref.value) / abs(ref.value))

    reports = oscint.second_derivative_bound_check(*_vdc_corpus(seed)[:2])
    violations = sum(rep.status == "FAIL" for rep in reports)
    ok = worst_rel <= 0.02 and violations == 0 and n_cases >= 6
    detail = (
        f"{n_cases} phase cases, worst order-0 rel {worst_rel:.4f}; "
        f"vdC bound violations {violations}/{len(reports)}"
    )
    return ("stationary phase + 8M/sqrt(r)", "PASS" if ok else "FAIL", detail)


def _s5_fat_tail(rep: pipeline.S5Report) -> bool:
    """Where the dual sum is not negligible (above 1e-3 of the trivial
    bound), more than 1e-8 of it lies past the nominal n-cutoff."""
    return abs(rep.dual) > 1e-3 * rep.trivial_bound and rep.tail_mass > 1e-8 * abs(rep.dual)


def _j_decay_ok(rep: pipeline.JDecayReport) -> bool:
    """The J(0) and J(m) constants and the collapse pass, and |J| does
    not grow by more than 2x from one octave of m to the next."""
    return rep.status == "PASS" and rep.octave_trend_ok


@_timed
def criterion_poisson_s5(t_list: tuple[float, ...] = (0.0, 100.0, 500.0)):
    """Poisson identity for S5 at N = 600 and every (m <= 3, selected
    c <= 10, t)."""
    fails = []
    worst_scaled = 0.0
    tail_bad = []
    for t in t_list:
        t_eff = max(t, 1e-12)
        k_par = max(min(math.sqrt(t_eff) / 2.0, 10.0), 1e-7)
        p = pipeline.PipelineParams(N=600.0, t=t_eff, K=k_par, Q=20.0)
        for m in (1, 2, 3):
            for c in (1, 2, 3, 5, 7, 10):
                rep = pipeline.poisson_check_s5(m, c, p)
                scale = max(abs(rep.direct), 1e-3 * rep.trivial_bound)
                worst_scaled = max(worst_scaled, rep.abs_diff / scale)
                if rep.status != "PASS":
                    fails.append((t, m, c))
                if _s5_fat_tail(rep):
                    tail_bad.append((t, m, c))
    ok = not fails and not tail_bad
    detail = (
        f"worst scaled diff {worst_scaled:.2e}; fails {fails or 'none'}; "
        f"fat tails {tail_bad or 'none'}"
    )
    return ("Poisson identity for S5", "PASS" if ok else "FAIL", detail)


@_timed
def criterion_j_decay():
    """J(0) ~ 1/t, J(m) ~ 1/(t K), collapse past 16 N / K^2."""
    p = pipeline.PipelineParams(N=1e4, t=1e3, K=10.0, Q=100.0)
    n = pipeline.stationary_dual_index(p, 100)
    rep = pipeline.j_decay_report(p, n, 100)
    detail = (
        f"|J(0)| t = {rep.a0:.2f}; worst |J(m)| t K = {rep.worst_a1:.2f}; "
        f"decay ratio at m = {rep.decay_threshold}: {rep.decay_ratio:.2e}; "
        f"octave trend ok {rep.octave_trend_ok}"
    )
    return ("J-integral decay", "PASS" if _j_decay_ok(rep) else "FAIL", detail)


def _balance_spread(spec: lfunc.LFunctionSpec, ts) -> float:
    """Worst relative spread of L(1/2 + it) over the balances 0.5, 1, 2."""
    worst = 0.0
    balances = (0.5, 1.0, 2.0)
    for t in ts:
        row = lfunc._block_values(spec, [t], balances)[0]
        vals = [lfunc.central_value(spec, t, b, _row=row).value for b in balances]
        worst = max(
            worst, max(abs(v - vals[1]) for v in vals) / max(1.0, abs(vals[1]))
        )
    return worst


def _scan_verdict(summary: lfunc.ScanSummary) -> tuple[str, str]:
    """Status and detail of an exponent scan: it passes with no flagged record."""
    slope = "n/a" if summary.fit_slope is None else f"{summary.fit_slope:.3f}"
    detail = (
        f"{summary.n_records} records, {summary.n_flagged} flagged; "
        f"fitted peak exponent {slope} (reported; convexity would be 0.5); "
        f"max Weyl ratio {summary.max_weyl_ratio:.3f}"
    )
    return ("PASS" if summary.n_flagged == 0 else "FAIL"), detail


@_timed
def criterion_l_values(scan_step: float = 0.5):
    """Balance invariance, conjugate symmetry, and the exponent scan."""
    spec = lfunc.delta_spec(12000)
    worst_balance = _balance_spread(spec, (0.0, 10.0, 100.0, 500.0))
    worst_conj = 0.0
    for t in (10.0, 250.0):
        vp = lfunc.central_value(spec, t).value
        vm = lfunc.central_value(spec, -t).value
        worst_conj = max(worst_conj, abs(vp - np.conj(vm)))
    records = lfunc.exponent_scan(spec, 100.0, 1000.0, scan_step)
    scan_status, scan_detail = _scan_verdict(lfunc.scan_summary(records))
    ok = worst_balance <= lfunc.BALANCE_TOL and worst_conj <= 1e-9 and scan_status == "PASS"
    detail = (
        f"balance worst {worst_balance:.2e}; conj worst {worst_conj:.2e}; "
        + scan_detail
    )
    return ("L central values + exponent scan", "PASS" if ok else "FAIL", detail)


@_timed
def criterion_coefficient_bounds():
    """Deligne ratio and the mean-square partial sums for the tau
    coefficients to n = 10^4."""
    f = modforms.delta_eigenform(10000)
    rep = modforms.coefficient_bound_report(f, 10000)
    in_band = all(0.1 <= r <= 10.0 for r in rep.partial_sum_ratios)
    ok = rep.max_deligne_ratio <= 1 + 1e-10 and in_band
    detail = (
        f"max |lambda(n)|/d(n) = {rep.max_deligne_ratio:.12f} at n = {rep.argmax_n}; "
        f"mean-square ratios in [{min(rep.partial_sum_ratios):.3f}, "
        f"{max(rep.partial_sum_ratios):.3f}]"
    )
    return ("coefficient bounds", "PASS" if ok else "FAIL", detail)


ALL_CRITERIA = [
    ("1 charsum suite", criterion_charsums),
    ("2 twisted factorization suite", criterion_twisted_factorization),
    ("3 psi-average suite", criterion_psi_average),
    ("4 Petersson suite", criterion_petersson),
    ("5a Bessel-sum identity", criterion_bessel_sum_identity),
    ("5b Bessel-sum suppression", criterion_bessel_sum_suppression),
    ("6 stationary phase suite", criterion_stationary_phase),
    ("7 Poisson identity suite", criterion_poisson_s5),
    ("8 J-decay suite", criterion_j_decay),
    ("9 L-value suite", criterion_l_values),
    ("10 coefficient-bound suite", criterion_coefficient_bounds),
]


def run_all(checks=ALL_CRITERIA, emit=print) -> list[CheckResult]:
    """Run `(label, check)` pairs in order and emit each result's line as
    soon as its check returns; a None label prints the result's name."""
    results = []
    for label, check in checks:
        res = check()
        results.append(res)
        emit(res.line(label))
    return results


# ----------------------------------------------------------------------
# single-parameter checks of the other CLI commands (not in ALL_CRITERIA)


@_timed
def criterion_kloosterman(
    p_exhaustive: int = 50, p_max: int = 499, seed: int = 20240801
):
    """Weil's bound and real values at every (m, n) mod p <= p_exhaustive,
    Weil's bound at seeded pairs for sampled primes up to p_max, and the
    CRT twisted multiplicativity: one array call per modulus.  An empty
    Weil set is a usage error."""
    exhaustive = arith.primes_up_to(p_exhaustive)
    sampled = [p for p in arith.primes_up_to(p_max) if p > p_exhaustive]
    sampled = sampled[:: max(1, len(sampled) // 12)]
    if not exhaustive and not sampled:
        raise ValueError(
            f"no Kloosterman cases: no prime <= p_exhaustive = {p_exhaustive} "
            f"or p_max = {p_max}"
        )

    def weil_ratio(s, p):
        return float(np.max(arith.complex_abs(s) / (2 * math.sqrt(p))))

    worst_weil = 0.0
    worst_imag = 0.0
    for p in exhaustive:
        r = np.arange(1, p)
        s = expsums.kloosterman(r[:, None], r, p)
        worst_weil = max(worst_weil, weil_ratio(s, p))
        worst_imag = max(worst_imag, float(np.max(np.abs(s.imag))))
    rng = np.random.default_rng(seed)
    for p in sampled:
        m, n = np.array([(rng.integers(1, p), rng.integers(1, p)) for _ in range(6)]).T
        worst_weil = max(worst_weil, weil_ratio(expsums.kloosterman(m, n, p), p))
    ms, ns = [1, 2, 0], [1, 5, 1]
    worst_crt = max(
        float(np.max(arith.complex_abs(
            expsums.kloosterman(ms, ns, c1 * c2) - expsums.kloosterman_crt(ms, ns, c1, c2)
        )))
        for c1, c2 in [(3, 4), (5, 6), (7, 9), (8, 15), (16, 27), (25, 29)]
    )
    ok = worst_weil <= 1.0 + 1e-12 and worst_imag < 1e-9 and worst_crt < 1e-9
    return (
        "Kloosterman sums",
        "PASS" if ok else "FAIL",
        f"Weil ratio max {worst_weil:.6f}; imag max {worst_imag:.2e}; "
        f"CRT worst {worst_crt:.2e}",
    )


@_timed
def criterion_petersson_weight(k: int = 12, grid: int = 8, tol: float = 1e-6):
    """The trace formula at one weight on a grid x grid set of (m, n)."""
    rep = trace.trace_consistency(k, grid, tol=tol)
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
    return f"Petersson k={k}", rep.status, detail


@_timed
def criterion_ksum_asymptotic_scale(k_list: tuple[int, ...] = (8, 16, 32)):
    """The k-sum's asymptotic form within 10% of the direct sum at x = 4 K^2."""
    worst = 0.0
    for K in k_list:
        x = float(4 * K * K)
        d = oscint.bessel_weighted_k_sum(K, x, "direct")
        a = oscint.bessel_weighted_k_sum(K, x, "asymptotic")
        worst = max(worst, abs(a.value - d.value) / abs(d.value))
    return (
        "k-sum asymptotic scale",
        "PASS" if worst <= 0.10 else "FAIL",
        f"worst relative error at x = 4K^2: {worst:.3f}",
    )


@_timed
def criterion_afe_balance(spec: lfunc.LFunctionSpec, ts, form: str = "delta"):
    """Balance invariance of the smoothed AFE at each t of ts."""
    worst = _balance_spread(spec, ts)
    return (
        f"AFE balance invariance ({form})",
        "PASS" if worst <= lfunc.BALANCE_TOL else "FAIL",
        f"worst relative spread {worst:.2e} at t in {list(ts)}",
    )


@_timed
def criterion_scan(
    spec: lfunc.LFunctionSpec, t_min: float, t_max: float, step: float, write=None,
):
    """The exponent scan, gated by `_scan_verdict`.  `write(records,
    summary)`, when given, saves artifacts and returns their paths."""
    records = lfunc.exponent_scan(spec, t_min, t_max, step)
    summary = lfunc.scan_summary(records)
    status, detail = _scan_verdict(summary)
    written = write(records, summary) if write else []
    if written:
        detail += f"; wrote {', '.join(written)}"
    return "exponent scan", status, detail


@_timed
def _s5_check(p: pipeline.PipelineParams):
    c = max(2, int(p.Q // 2))
    rep = pipeline.poisson_check_s5(1, c, p)
    scaled = rep.abs_diff / max(abs(rep.direct), 1e-3 * rep.trivial_bound)
    fat = _s5_fat_tail(rep)
    return (
        "S5 Poisson identity",
        "PASS" if rep.status == "PASS" and not fat else "FAIL",
        f"m=1 c={rep.c}: |direct| {abs(rep.direct):.4e}, scaled diff {scaled:.2e}"
        + ("; fat tail" if fat else ""),
    )


@_timed
def _j_decay_check(p: pipeline.PipelineParams):
    c = int(p.Q)
    n_star = pipeline.stationary_dual_index(p, c)
    dec = pipeline.j_decay_report(p, n_star, c)
    return (
        "J-decay",
        "PASS" if _j_decay_ok(dec) else "FAIL",
        f"n*={n_star} c={c}: a0 {dec.a0:.2f}, a1 {dec.worst_a1:.2f}, "
        f"ratio {dec.decay_ratio:.1e} at m = {dec.decay_threshold}"
        + ("" if dec.octave_trend_ok else "; octave trend broken"),
    )


@_timed
def _assembly_check(p: pipeline.PipelineParams):
    cs = tuple(int(p.Q) + d for d in (-2, -1, 0, 1))
    asm = pipeline.offdiagonal_assembly(p, cs)
    return (
        "off-diagonal assembly",
        asm.status,
        f"diag const {asm.diag_constant:.3f}, offdiag const "
        f"{asm.offdiag_constant:.3f} (alt {asm.offdiag_constant_alt:.3e}), "
        f"sparsity {asm.sparsity_ratio:.2f}",
    )


def pipeline_checks(p: pipeline.PipelineParams) -> list:
    """The dual off-diagonal chain at one scale, as three zero-argument
    checks run in order: the S5 Poisson identity at m = 1,
    c = max(2, Q // 2); the J-decay fits at the stationary dual index for
    c = Q; the assembled second moment over c near Q."""
    return [
        functools.partial(check, p)
        for check in (_s5_check, _j_decay_check, _assembly_check)
    ]
