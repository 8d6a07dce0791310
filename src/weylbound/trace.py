"""Level-1 Petersson trace formula, verified numerically.

Delta_k(m, n) = delta_{m=n} + 2 pi i^(-k) sum_c S(m, n; c)/c J_{k-1}(4
pi sqrt(mn) / c) must reproduce the harmonically weighted spectral
average over the weight-k eigenbasis: identically zero when the cusp
space is empty, a rank-one matrix at dimension one, and a two-term
positive combination at dimension two.  The c-sum is truncated only
once a small-argument Bessel bound certifies the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expsums import kloosterman_reals
from .modforms import dim_cusp, hecke_eigenforms
from .special import bessel_j_many


@dataclass(frozen=True)
class PeterssonSide:
    """Geometric side of the trace formula at one coefficient pair."""

    k: int
    m: int
    n: int
    delta_term: int
    kloosterman_sum_value: float
    tail_bound: float
    c_max: int

    @property
    def value(self) -> float:
        sign = -1.0 if (self.k // 2) % 2 else 1.0  # i^{-k} for even k
        return self.delta_term + 2.0 * math.pi * sign * self.kloosterman_sum_value


def _tail_log_bound(k: int, A: float, c_max: int) -> float:
    """log of sum_{c > c_max} c * (A/(2c))^(k-1) / (k-1)! / c.

    Valid once A / c_max <= sqrt(k): each Bessel term is dominated by
    its leading series term and the c-sum is a convergent zeta tail.
    """
    lg = (k - 1) * math.log(A / 2.0) - math.lgamma(k)
    lg += -(k - 2) * math.log(c_max) - math.log(k - 2)
    return lg


def _truncation(k: int, m: int, n: int, tol: float) -> tuple[float, int]:
    """A = 4 pi sqrt(mn) and the c_max past which the tail is below tol."""
    if k < 4 or k % 2:
        raise ValueError("weight must be even and >= 4")
    if m < 1 or n < 1 or m * n > 10**6:
        raise ValueError("need positive m, n with m n <= 10^6")
    A = 4.0 * math.pi * math.sqrt(m * n)
    c_max = max(16, int(A / math.sqrt(k)) + 1)
    while _tail_log_bound(k, A, c_max) > math.log(tol):
        c_max *= 2
        if c_max > 10**6:
            raise ArithmeticError(f"tail below {tol} needs c beyond 10^6")
    return A, c_max


@lru_cache(maxsize=1 << 12)
def _kloosterman_real(c: int) -> dict[tuple[int, int], float]:
    """Re S(a, b; c) by residue pair a <= b < c, filled by `_kloosterman_terms`.

    S(m, n; c) depends on m and n only through their residues mod c, and
    S(m, n; c) = S(n, m; c) sums the same terms in another order, which
    the exactly rounded sums of `expsums` do not see, so every pair
    (m, n) reads the value its own `kloosterman` call would give, bit
    for bit.
    """
    return {}


def _kloosterman_terms(pairs: list[tuple[int, int]], c_maxes: list[int]) -> list[np.ndarray]:
    """Re S(m, n; c) / c for c = 1..c_max, per pair (m, n).  At each c the
    residue pairs that no earlier call computed go to one
    `kloosterman_reals` batch."""
    terms = [np.empty(c_max) for c_max in c_maxes]
    for c in range(1, max(c_maxes) + 1):
        table = _kloosterman_real(c)
        live = [i for i, c_max in enumerate(c_maxes) if c_max >= c]
        keys = [tuple(sorted((pairs[i][0] % c, pairs[i][1] % c))) for i in live]
        new = sorted(set(keys).difference(table))
        if new:
            a, b = np.array(new).T
            table.update(zip(new, kloosterman_reals(a, b, c).tolist()))
        for i, key in zip(live, keys):
            terms[i][c - 1] = table[key] / c
    return terms


def _side(k: int, m: int, n: int, A: float, re_terms, bessel) -> PeterssonSide:
    """The side from re_terms[c - 1] = Re S(m, n; c) / c and bessel[c - 1]
    = J_(k-1)(A / c), c <= c_max."""
    c_max = len(re_terms)
    total = float(np.dot(re_terms, bessel))
    return PeterssonSide(
        k=k,
        m=m,
        n=n,
        delta_term=1 if m == n else 0,
        kloosterman_sum_value=total,
        tail_bound=math.exp(_tail_log_bound(k, A, c_max)),
        c_max=c_max,
    )


def petersson_delta(
    k: int, m: int, n: int, tol: float = 1e-12
) -> PeterssonSide:
    """Geometric side with the c-sum truncated at certified accuracy."""
    A, c_max = _truncation(k, m, n, tol)
    cs = np.arange(1, c_max + 1, dtype=float)
    (re_terms,) = _kloosterman_terms([(m, n)], [c_max])
    return _side(k, m, n, A, re_terms, bessel_j_many(k - 1, A / cs))


def petersson_matrix(k: int, size: int) -> np.ndarray:
    """Matrix [Delta_k(m, n)] for 1 <= m, n <= size (symmetric), each
    c-sum truncated at tail 1e-12.

    Every pair's J_(k-1)(A / c) comes from one `bessel_j_many` call, so
    the midrange arguments of the whole matrix share one Miller pass.
    """
    pairs = [(m, n) for m in range(1, size + 1) for n in range(m, size + 1)]
    cuts = [_truncation(k, m, n, 1e-12) for m, n in pairs]
    args = [A / np.arange(1, c_max + 1, dtype=float) for A, c_max in cuts]
    bessel = bessel_j_many(k - 1, np.concatenate(args))
    c_maxes = [c_max for _, c_max in cuts]
    ends = np.cumsum(c_maxes)
    kloos = _kloosterman_terms(pairs, c_maxes)
    out = np.zeros((size, size))
    for (m, n), (A, c_max), end, re_terms in zip(pairs, cuts, ends, kloos):
        v = _side(k, m, n, A, re_terms, bessel[end - c_max : end]).value
        out[m - 1, n - 1] = v
        out[n - 1, m - 1] = v
    return out


@dataclass
class TraceConsistencyReport:
    k: int
    dim: int
    status: str
    max_abs_delta: float | None = None
    lambda_max_err: float | None = None
    recovered_lambda2: float | None = None
    rank_ratio: float | None = None
    weights: tuple | None = None
    weights_positive: bool | None = None
    max_residual: float | None = None


def trace_consistency(
    k: int, grid_size: int, tol: float = 1e-6
) -> TraceConsistencyReport:
    """Check the geometric side against the eigenbasis prediction.

    dim 0: all Delta vanish.  dim 1: Delta is rank one and recovers the
    eigenform's lambda values.  dim 2: the two harmonic weights are
    solved from (1,1) and (2,1), must be positive, and must predict the
    rest of the grid.  A grid of fewer than one pair, or of fewer than
    two where dim >= 1 reads Delta(2, 1), and dim > 2 raise ValueError.
    """
    d = dim_cusp(k)
    if d > 2:
        raise ValueError(f"the trace check covers dim S_k <= 2, got dim S_{k} = {d}")
    need = 2 if d else 1
    if grid_size < need:
        raise ValueError(f"need grid >= {need} at dim S_{k} = {d}, got grid = {grid_size}")
    mat = petersson_matrix(k, grid_size)
    if d == 0:
        worst = float(np.max(np.abs(mat)))
        return TraceConsistencyReport(
            k=k, dim=0, status="PASS" if worst <= tol else "FAIL",
            max_abs_delta=worst,
        )
    forms = hecke_eigenforms(k, max(grid_size + 2, 16))
    if d == 1:
        f = forms[0]
        lam_err = 0.0
        for mm in range(1, grid_size + 1):
            rec = mat[mm - 1, 0] / mat[0, 0]
            lam_err = max(lam_err, abs(rec - f.lam(mm)))
        sv = np.linalg.svd(mat, compute_uv=False)
        ratio = float(sv[1] / sv[0]) if len(sv) > 1 else 0.0
        status = "PASS" if (lam_err <= tol and ratio <= 1e-6) else "FAIL"
        return TraceConsistencyReport(
            k=k, dim=1, status=status,
            lambda_max_err=lam_err,
            recovered_lambda2=float(mat[1, 0] / mat[0, 0]),
            rank_ratio=ratio,
        )
    f1, f2 = forms
    a = np.array([[1.0, 1.0], [f1.lam(2), f2.lam(2)]])
    b = np.array([mat[0, 0], mat[1, 0]])
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det) < 1e-10 * np.abs(a).max() ** 2:
        return TraceConsistencyReport(
            k=k, dim=2, status="FAIL", max_residual=float("inf"),
            weights=None, weights_positive=None,
        )
    w = np.linalg.solve(a, b)
    resid = 0.0
    for mm in range(1, grid_size + 1):
        for nn in range(1, grid_size + 1):
            pred = w[0] * f1.lam(mm) * f1.lam(nn) + w[1] * f2.lam(mm) * f2.lam(nn)
            resid = max(resid, abs(pred - mat[mm - 1, nn - 1]))
    positive = bool(w[0] > 0 and w[1] > 0)
    status = "PASS" if (resid <= tol and positive) else "FAIL"
    return TraceConsistencyReport(
        k=k, dim=2, status=status,
        weights=(float(w[0]), float(w[1])),
        weights_positive=positive,
        max_residual=resid,
    )
