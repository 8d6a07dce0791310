"""Dirichlet characters, Gauss sums, and the odd-character average.

Characters are built from discrete logarithms on generators of the unit
group: prime-power factors get an explicit generator (the two-generator
form for 2^e, e >= 3), and composite moduli are glued by CRT.  A
character stores one exact exponent per unit residue, so that
multiplicativity and parity checks are integer arithmetic; complex
values are materialized only at evaluation time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product

from .arith import (
    euler_phi,
    factorize,
    inv_mod,
    primitive_root,
    unit_roots,
)


@lru_cache(maxsize=512)
def _unit_group(q: int):
    """Generators of (Z/q)* with their orders and discrete-log tables.

    Returns (gens, orders, dlogs) where dlogs[i] maps each unit residue
    x mod q to the exponent of gens[i] in the factor-component of x.
    """
    if q == 1:
        return (), (), ()
    gens: list[int] = []
    orders: list[int] = []
    dlogs: list[dict[int, int]] = []
    factors = factorize(q)
    for p, e in factors:
        pe = p**e
        cof = q // pe
        # local generators of (Z/p^e)*
        if p == 2:
            if e == 1:
                local = []
            elif e == 2:
                local = [(3, 2)]
            else:
                local = [(pe - 1, 2), (3, 2 ** (e - 2))]
        else:
            local = [(primitive_root(pe), euler_phi(pe))]
        for g_local, d in local:
            # dlog of every unit mod q through its residue mod p^e
            table_pe: dict[int, int] = {}
            acc = 1
            for j in range(d):
                table_pe[acc] = j
                acc = acc * g_local % pe
            if p == 2 and e >= 3 and g_local == 3:
                # residues mod 2^e split as (-1)^a 3^b; index by both signs
                full = {}
                for r, j in table_pe.items():
                    full[r] = j
                    full[(pe - r) % pe] = j
                table_pe = full
            elif p == 2 and e >= 3 and g_local == pe - 1:
                full = {}
                acc = 1
                # sign component: x = (-1)^a 3^b, a = 0 iff x is a power of 3
                pow3 = {1}
                v = 3 % pe
                for _ in range(2 ** (e - 2) - 1):
                    pow3.add(v)
                    v = v * 3 % pe
                for x in range(1, pe, 2):
                    full[x] = 0 if x in pow3 else 1
                table_pe = full
            dlog = {}
            for x in range(q):
                if math.gcd(x, q) == 1:
                    dlog[x] = table_pe[x % pe]
            # lift generator to a residue mod q that is 1 mod the cofactor
            if cof == 1:
                g_global = g_local % q
            else:
                g_inv = inv_mod(pe, cof)
                # g = g_local (mod pe), 1 (mod cof)
                g_global = (g_local + (1 - g_local) * g_inv % cof * pe) % q
            gens.append(g_global)
            orders.append(d)
            dlogs.append(dlog)
    return tuple(gens), tuple(orders), tuple(dlogs)


def _lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q as an exact exponent table.

    exponents[x] is None for gcd(x, q) > 1 and otherwise an integer a
    with chi(x) = e(a / exponent_den).  The denominator is the unit
    group exponent, shared by all characters of the modulus.
    """

    modulus: int
    exponents: tuple
    exponent_den: int

    def value(self, n: int) -> complex:
        a = self.exponents[n % self.modulus]
        if a is None:
            return 0.0 + 0.0j
        return complex(unit_roots(self.exponent_den)[a % self.exponent_den])

    def __call__(self, n: int) -> complex:
        return self.value(n)

    @property
    def values(self) -> list[complex]:
        return [self.value(n) for n in range(self.modulus)]

    @property
    def is_principal(self) -> bool:
        return all(a in (None, 0) for a in self.exponents)

    @property
    def parity(self) -> str:
        """'even' when chi(-1) = 1, 'odd' when chi(-1) = -1."""
        if self.modulus <= 2:
            return "even"
        a = self.exponents[self.modulus - 1]
        return "even" if a % self.exponent_den == 0 else "odd"

    @property
    def is_odd(self) -> bool:
        return self.parity == "odd"

    @property
    def order(self) -> int:
        g = self.exponent_den
        for a in self.exponents:
            if a:
                g = math.gcd(g, a)
        return self.exponent_den // g

    @property
    def conductor(self) -> int:
        """Smallest f | q with chi trivial on units = 1 mod f."""
        q = self.modulus
        for f in sorted(d for d in range(1, q + 1) if q % d == 0):
            if self._trivial_on_kernel(f):
                return f
        return q

    def _trivial_on_kernel(self, f: int) -> bool:
        q = self.modulus
        for x in range(1, q):
            if x % f == 1 % f and math.gcd(x, q) == 1:
                if self.exponents[x] % self.exponent_den != 0:
                    return False
        return True

    @property
    def primitive(self) -> bool:
        return self.conductor == self.modulus

    def conj(self) -> "DirichletCharacter":
        exps = tuple(
            None if a is None else (-a) % self.exponent_den for a in self.exponents
        )
        return DirichletCharacter(self.modulus, exps, self.exponent_den)


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters mod q, principal first.

    Exponent tables are assembled from every choice of character values
    on the unit-group generators; results are cached (characters are
    immutable) and returned as a fresh list.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    return list(_characters(q))


@cache
def _characters(q: int) -> tuple[DirichletCharacter, ...]:
    if q == 1:
        return (DirichletCharacter(1, (0,), 1),)
    gens, orders, dlogs = _unit_group(q)
    den = _lcm(orders) if orders else 1
    units = [x for x in range(q) if math.gcd(x, q) == 1]
    out = []
    for choice in product(*(range(d) for d in orders)):
        exps: list = [None] * q
        for x in units:
            a = 0
            for m_i, d_i, dl in zip(choice, orders, dlogs):
                a += m_i * dl[x] * (den // d_i)
            exps[x] = a % den
        out.append(DirichletCharacter(q, tuple(exps), den))
    out.sort(key=lambda ch: not ch.is_principal)
    return tuple(out)


@dataclass(frozen=True)
class GaussSumResult:
    """g = sum_a chi(a) e(a/q) together with epsilon = g / sqrt(q).

    abs_defect = | |g| - sqrt(q) |, meaningful for primitive characters
    (it must vanish up to rounding there).
    """

    g: complex
    epsilon: complex
    abs_defect: float


@lru_cache(maxsize=8192)
def gauss_sum(chi: DirichletCharacter) -> GaussSumResult:
    """Gauss sum by exact root-of-unity accumulation.

    chi(a) e(a/q) = e((num*q + a*den) / (den*q)) keeps every term an
    exact root of unity; the final sum is compensated (and cached, the
    character being immutable).
    """
    q = chi.modulus
    den = chi.exponent_den
    big = den * q
    roots = unit_roots(big)
    re, im = [], []
    for a in range(q):
        na = chi.exponents[a % q]
        if na is None:
            continue
        w = roots[(na * q + a * den) % big]
        re.append(w.real)
        im.append(w.imag)
    g = complex(math.fsum(re), math.fsum(im))
    eps = g / math.sqrt(q)
    return GaussSumResult(g=g, epsilon=eps, abs_defect=abs(abs(g) - math.sqrt(q)))


def odd_character_average(q: int, c: int, ell: int, mprime: int) -> complex:
    """Brute-force average over odd characters mod q.

    Computes (1/2) * sum over all psi mod q of
      (1 - psi(-1)) * eps_psi^2 * conj(eps_psi) * psi(mprime * cbar)
        * conj(psi(mprime * ell)),
    with eps_psi = g_psi / sqrt(q).  The (1 - psi(-1))/2 projector keeps
    exactly the odd characters; the psi(mprime) factors cancel, which is
    asserted separately as the m'-invariance property.
    """
    if q < 3:
        raise ValueError("need q >= 3 for odd characters to exist")
    for name, v in (("c", c), ("ell", ell), ("mprime", mprime)):
        if math.gcd(v, q) != 1:
            raise ValueError(f"{name} = {v} must be coprime to q = {q}")
    cbar = inv_mod(c, q)
    total = 0.0 + 0.0j
    for psi in enumerate_characters(q):
        if not psi.is_odd:
            continue
        gs = gauss_sum(psi)
        eps = gs.epsilon
        total += (
            eps * eps * eps.conjugate()
            * psi.value(mprime * cbar)
            * psi.value(mprime * ell).conjugate()
        )
    return total


@dataclass(frozen=True)
class AverageConvention:
    """Discovered closed form of the odd-character average.

    value = sign * phi(q)/(2 sqrt(q)) * (e(x/q) - e(-x/q)) where x is
    c*ell mod q (arg_choice='product') or its inverse mod q
    (arg_choice='inverse'), fixed across all admissible inputs.
    """

    q: int
    sign: int
    arg_choice: str
    max_abs_error: float
    cases: int


def closed_form_candidate(q: int, c: int, ell: int, sign: int, arg_choice: str) -> complex:
    x = c * ell % q
    if arg_choice == "inverse":
        x = inv_mod(x, q)
    phi = euler_phi(q)
    val = cmath.exp(2j * math.pi * x / q) - cmath.exp(-2j * math.pi * x / q)
    return sign * phi / (2.0 * math.sqrt(q)) * val


def discover_average_convention(q: int, tol: float = 1e-9) -> AverageConvention:
    """Try all four (sign, argument) conventions against brute force.

    A convention must hold for every admissible (c, ell, mprime) with a
    single fixed choice; the first that does is returned.  Raises if
    none survives, so a failure is loud rather than a silent pick.
    """
    units = [x for x in range(1, q) if math.gcd(x, q) == 1]
    cases = [(c, l, m) for c in units for l in units for m in units[:2]]
    best = None
    for sign in (+1, -1):
        for arg_choice in ("product", "inverse"):
            worst = 0.0
            ok = True
            for c, l, m in cases:
                lhs = odd_character_average(q, c, l, m)
                rhs = closed_form_candidate(q, c, l, sign, arg_choice)
                err = abs(lhs - rhs)
                worst = max(worst, err)
                if err > tol:
                    ok = False
                    break
            if ok:
                conv = AverageConvention(q, sign, arg_choice, worst, len(cases))
                if best is None:
                    best = conv
    if best is None:
        raise ArithmeticError(
            f"no (sign, argument) convention matches the odd average mod {q}"
        )
    return best
