"""Level-1 holomorphic cusp forms with exact integer q-expansions.

Two independent routes give the coefficients.  Ramanujan's tau comes
from the eta product: Jacobi's identity writes prod (1 - q^n)^3 as a
sparse series, and three squarings raise it to the 24th power.  Every
weight-k cusp space is echelonized from monomials in the Eisenstein
series E4 and E6 (the Victor-Miller basis), which for k = 12 is the
independent check on tau.  All coefficient arithmetic is exact big
integers: a polynomial product is an FFT convolution of base-256 digit
rows, bounded before the transform and checked near integers after it.
The dim-2 Hecke eigenvalues live in a real quadratic field and are
rounded to 50 digits with the standard-library decimal module.
Floating point enters only at the final normalization
lambda(n) = a(n) / n^((k-1)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .arith import divisor_counts


# ----------------------------------------------------------------------
# integer polynomial arithmetic (coefficient lists, index = q-power)

# digit-row convolution entries stay below this, where float64 FFT error is
# far under 1/2 (Percival, Math. Comp. 72, 2003); past it a product is refused
_CONV_LIMIT = 2**40


def _digit_spectra(coeffs: list[int], width: int, size: int) -> np.ndarray:
    """Length-size real FFTs of the rows of two's-complement base-256
    digits of coeffs: 0..255 below the top row, -128..127 in it."""
    raw = b"".join(c.to_bytes(width, "little", signed=True) for c in coeffs)
    digits = np.frombuffer(raw, dtype=np.uint8).reshape(len(coeffs), width)
    spectra = np.empty((width, size // 2 + 1), dtype=complex)
    for r in range(width):  # one padded row alive at a time
        row = digits[:, r].view(np.int8) if r == width - 1 else digits[:, r]
        spectra[r] = np.fft.rfft(row, size)
    return spectra


def _conv_bound(width_a: int, width_b: int, len_a: int, len_b: int) -> int:
    """Bound on an output digit row: min(width) row pairs of min(len) digit products."""
    return min(width_a, width_b) * min(len_a, len_b) * 255**2


def poly_mul(a: list[int], b: list[int], prec: int) -> list[int]:
    """Product of integer polynomials truncated past degree prec, exact
    for arbitrarily large coefficients: output digit row j is the inverse
    FFT of sum_i A_i B_(j-i) over the spectra of each side's base-256
    digit rows (shared when a is b), and carries run up the rows.
    ValueError when `_conv_bound` passes `_CONV_LIMIT`, before any
    transform; ArithmeticError when an entry lies more than 1/8 from an
    integer after it, so a wrong integer is never returned."""
    square, a = a is b, a[: prec + 1]
    b = a if square else b[: prec + 1]
    if not any(a) or not any(b):
        return [0] * (prec + 1)
    max_a = max(map(abs, a))
    max_b = max_a if square else max(map(abs, b))
    width_a, width_b = max_a.bit_length() // 8 + 1, max_b.bit_length() // 8 + 1
    if _conv_bound(width_a, width_b, len(a), len(b)) > _CONV_LIMIT:
        raise ValueError("digit convolution past the exact limit 2^40")
    n_full, n_out = len(a) + len(b) - 1, min(len(a) + len(b) - 1, prec + 1)
    size = 1 << (n_full - 1).bit_length()  # no wrap-around
    size = size * 3 // 4 if size * 3 // 4 >= n_full else size
    spec_a = _digit_spectra(a, width_a, size)
    spec_b = spec_a if square else _digit_spectra(b, width_b, size)
    # bytes for every coefficient, so the carry out of the top row is 0 or -1
    n_rows = (max_a * max_b * min(len(a), len(b))).bit_length() // 8 + 1
    digits = np.empty((max(width_a + width_b - 1, n_rows), n_out), dtype=np.uint8)
    carry = np.zeros(n_out, dtype=np.int64)
    for j in range(len(digits)):  # one output spectrum alive at a time
        if j < width_a + width_b - 1:
            lo, hi = max(0, j - width_b + 1), min(j, width_a - 1)
            acc = spec_a[lo] * spec_b[j - lo]
            for i in range(lo + 1, hi + 1):
                acc += spec_a[i] * spec_b[j - i]
            row = np.fft.irfft(acc, size)[:n_out]
            exact = np.rint(row)
            if not np.abs(row - exact).max() <= 0.125:
                raise ArithmeticError(f"digit row {j} of a product is not near integers")
            carry += exact.astype(np.int64)
        digits[j] = carry & 255
        carry >>= 8
    raw, w = digits.T.tobytes(), len(digits)
    out = [int.from_bytes(raw[i : i + w], "little", signed=True) for i in range(0, len(raw), w)]
    return out + [0] * (prec + 1 - n_out)


def poly_pow(base: list[int], e: int, prec: int) -> list[int]:
    """base^e truncated past degree prec, by squaring; the result starts
    from the first factor, so no product is taken with the polynomial 1."""
    if e == 0:
        return [1] + [0] * prec
    acc = base[: prec + 1] + [0] * (prec + 1 - len(base))
    result = None
    while True:
        if e & 1:
            result = acc if result is None else poly_mul(result, acc, prec)
        e >>= 1
        if not e:
            return result
        acc = poly_mul(acc, acc, prec)


def _sigma_list(r: int, prec: int) -> list[int]:
    """sigma_r(n) for 0 <= n <= prec (index 0 unused, set to 0)."""
    out = [0] * (prec + 1)
    for d in range(1, prec + 1):
        dr = d**r
        for m in range(d, prec + 1, d):
            out[m] += dr
    return out


def eisenstein_qexp(k: int, prec: int) -> list[int]:
    """Normalized E_k with constant term 1, for k in {4, 6}."""
    if k == 4:
        mult = 240
    elif k == 6:
        mult = -504
    else:
        raise ValueError("only E4 and E6 are needed here")
    sig = _sigma_list(k - 1, prec)
    return [1] + [mult * sig[n] for n in range(1, prec + 1)]


def eta_power24(prec: int) -> list[int]:
    """Coefficients of prod (1 - q^n)^24 up to q^prec.

    Jacobi's identity prod (1 - q^n)^3 = sum_m (-1)^m (2m + 1) q^(m(m+1)/2)
    gives the cube with O(sqrt(prec)) nonzero terms; three squarings
    (cube -> 6th -> 12th -> 24th power) finish it.
    """
    cube = [0] * (prec + 1)
    m = 0
    while m * (m + 1) // 2 <= prec:
        cube[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
        m += 1
    power = cube
    for _ in range(3):
        power = poly_mul(power, power, prec)
    return power


def delta_qexp(prec: int) -> list[int]:
    """Ramanujan tau expansion: q prod (1-q^n)^24, coefficients a(0..prec)."""
    body = eta_power24(prec - 1) if prec >= 1 else []
    return [0] + body[:prec]


# ----------------------------------------------------------------------
# spaces of cusp forms

def dim_modular(k: int) -> int:
    if k < 0 or k % 2 == 1:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


def dim_cusp(k: int) -> int:
    """Dimension of the level-1 weight-k cusp space."""
    if k < 4 or k % 2 == 1:
        return 0
    return max(dim_modular(k) - 1, 0)


@dataclass(frozen=True)
class QExpansion:
    """A cusp form as an exact integer q-expansion a(0..prec)."""

    weight: int
    coefficients: tuple
    prec: int

    def a(self, n: int) -> int:
        if n > self.prec:
            raise IndexError(
                f"coefficient a({n}) beyond computed precision {self.prec}"
            )
        return self.coefficients[n]


def victor_miller_basis(k: int, prec: int) -> list[QExpansion]:
    """Echelonized integer basis of the weight-k cusp space.

    Expands every monomial E4^a E6^b of weight k, eliminates the
    Eisenstein direction, and reduces the rest so that the i-th basis
    form has a(j) = delta_ij for 1 <= j <= dim.  All steps stay in
    exact rational arithmetic and the result is verified integral.
    """
    if k % 2 == 1 or k < 4:
        raise ValueError("weight must be an even integer >= 4")
    d = dim_cusp(k)
    if d == 0:
        return []
    if prec < d + 2:
        raise ValueError(f"prec must be at least dim+2 = {d + 2}")
    e4 = eisenstein_qexp(4, prec)
    e6 = eisenstein_qexp(6, prec)
    monomials = []
    for a_exp in range(k // 4 + 1):
        rem = k - 4 * a_exp
        if rem % 6 == 0:
            b_exp = rem // 6
            # a pure power of E4 or E6 is not multiplied by the other's 0th power
            powers = [poly_pow(g, e, prec) for g, e in ((e4, a_exp), (e6, b_exp)) if e]
            monomials.append(poly_mul(*powers, prec) if len(powers) == 2 else powers[0])
    if len(monomials) != d + 1:
        raise ArithmeticError(f"{len(monomials)} monomials at weight {k}, but dim M_k = {d + 1}")
    rows = [[Fraction(c) for c in m] for m in monomials]
    # eliminate the constant term (every monomial starts with 1)
    head = rows[0]
    cusp = [
        [rc - hc for rc, hc in zip(row, head)] for row in rows[1:]
    ]
    # echelonize on columns 1..d
    for i in range(d):
        col = i + 1
        pivot_row = next(
            (r for r in range(i, d) if cusp[r][col] != 0), None
        )
        if pivot_row is None:
            raise ArithmeticError("unexpected rank deficiency in cusp space")
        cusp[i], cusp[pivot_row] = cusp[pivot_row], cusp[i]
        piv = cusp[i][col]
        cusp[i] = [c / piv for c in cusp[i]]
        for r in range(d):
            if r != i and cusp[r][col] != 0:
                f = cusp[r][col]
                cusp[r] = [c - f * p for c, p in zip(cusp[r], cusp[i])]
    basis = []
    for row in cusp:
        ints = []
        for c in row:
            if c.denominator != 1:
                raise ArithmeticError("echelon basis failed integrality")
            ints.append(int(c))
        basis.append(QExpansion(weight=k, coefficients=tuple(ints), prec=prec))
    return basis


def hecke_operator_matrix(k: int, n: int, basis: list[QExpansion]) -> list[list[int]]:
    """Matrix of T_n in the echelon basis (columns act on basis forms).

    Needs coefficients up to n * dim; fails loudly if the basis was
    built too short rather than truncating.
    """
    d = len(basis)
    if d == 0:
        return []
    if basis[0].prec < n * d:
        raise ValueError(
            f"basis precision {basis[0].prec} too small for T_{n} on dim {d}"
        )
    mat = [[0] * d for _ in range(d)]
    for i, f in enumerate(basis):
        for m in range(1, d + 1):
            b = 0
            for dd in range(1, math.gcd(m, n) + 1):
                if m % dd == 0 and n % dd == 0:
                    b += dd ** (k - 1) * f.a(m * n // (dd * dd))
            mat[m - 1][i] = b
    return mat


@dataclass(frozen=True)
class Eigenform:
    """A normalized Hecke eigenform of level 1.

    arithmetic_coeffs holds a(n) with a(1) = 1 (exact integers when the
    form is rational, floats rounded from 50-digit values for the
    quadratic pair at dim 2);
    normalized[n] = a(n) / n^((k-1)/2) as float64.
    """

    weight: int
    arithmetic_coeffs: tuple
    normalized: tuple
    space_dim: int
    prec: int

    def lam(self, n: int) -> float:
        if n > self.prec:
            raise IndexError(
                f"lambda({n}) beyond computed precision {self.prec}"
            )
        return self.normalized[n]


def _normalize(weight: int, coeffs, prec: int, dim: int) -> Eigenform:
    lam = [0.0] * (prec + 1)
    for n in range(1, prec + 1):
        lam[n] = float(coeffs[n]) / float(n) ** ((weight - 1) / 2.0)
    return Eigenform(
        weight=weight,
        arithmetic_coeffs=tuple(coeffs),
        normalized=tuple(lam),
        space_dim=dim,
        prec=prec,
    )


def hecke_eigenforms(k: int, prec: int) -> list[Eigenform]:
    """Eigenforms of T_2 on the weight-k cusp space, a(1) = 1.

    Supports dim <= 2 (all weights k <= 30 and several beyond).  The
    dim-2 quadratic eigenvalues are computed to 50 significant digits
    with integers and the standard-library decimal module before
    normalization; a repeated T_2 eigenvalue raises.
    """
    d = dim_cusp(k)
    if d == 0:
        return []
    if d > 2:
        raise NotImplementedError("dim S_k > 2 is out of scope")
    basis_prec = max(prec, 2 * d + 2, d + 2)
    basis = victor_miller_basis(k, basis_prec)
    if d == 1:
        f = basis[0]
        return [_normalize(k, list(f.coefficients[: prec + 1]), prec, 1)]
    t2 = hecke_operator_matrix(k, 2, basis)
    m00, m01 = t2[0]
    m10, m11 = t2[1]
    disc = (m00 - m11) ** 2 + 4 * m01 * m10
    if disc == 0:
        raise ArithmeticError(f"T_2 has a repeated eigenvalue at weight {k}")
    # beta lies in Q(sqrt(disc)); the basis coefficients and the matrix
    # are exact integers, so only the arithmetic with sqrt(disc) rounds,
    # each step to 50 significant digits.
    out = []
    with localcontext() as ctx:
        ctx.prec = 50
        root = Decimal(disc).sqrt()
        for sign in (+1, -1):
            beta = (Decimal(m11 - m00) + sign * root) / (2 * m01)
            coeffs = [0.0] * (prec + 1)
            for n in range(1, prec + 1):
                coeffs[n] = float(basis[0].a(n) + beta * basis[1].a(n))
            out.append(_normalize(k, coeffs, prec, 2))
    return out


def delta_eigenform(prec: int) -> Eigenform:
    """The weight-12 form from the eta product, normalized.

    Independent of the Victor-Miller route; tests compare the two.
    """
    coeffs = delta_qexp(prec)
    return _normalize(12, coeffs, prec, 1)


@dataclass(frozen=True)
class CoefficientBoundReport:
    weight: int
    X: int
    max_deligne_ratio: float
    argmax_n: int
    grid: tuple
    partial_sum_ratios: tuple


def coefficient_bound_report(f: Eigenform, X: int) -> CoefficientBoundReport:
    """Deligne ratio max |lambda(n)|/d(n) and mean-square partial sums.

    The second sequence, sum_{n<=x} lambda(n)^2 / x on a geometric grid,
    should stabilize near a constant for a genuine eigenform.
    """
    if X > f.prec:
        raise ValueError(f"X = {X} exceeds available coefficients ({f.prec})")
    d = divisor_counts(X)
    lam = np.array(f.normalized[: X + 1])
    ratios = np.abs(lam[1:]) / d[1:]
    argmax = int(np.argmax(ratios)) + 1
    grid = []
    x = 1
    while x < X:
        x = min(max(x * 2, x + 1), X)
        grid.append(x)
    csum = np.cumsum(lam**2)
    ps = tuple(float(csum[x] / x) for x in grid)
    return CoefficientBoundReport(
        weight=f.weight,
        X=X,
        max_deligne_ratio=float(ratios.max()),
        argmax_n=argmax,
        grid=tuple(grid),
        partial_sum_ratios=ps,
    )
