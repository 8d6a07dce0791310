import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from weylbound.special import (
    ComplexEstimate,
    RangeError,
    bessel_j,
    bessel_j_many,
    bessel_j_orders,
    bessel_j_table,
    bessel_kernel_ca,
    chebyshev_block,
    chebyshev_degree,
    chebyshev_fit,
    jacobi_anger_coefficients,
    gamma_ratio_phase,
    log_gamma,
    log_gamma_vec,
    signed_bessel_table,
)
from weylbound import lfunc, oscint, pipeline, special

mp.mp.dps = 40


def ref_j(n, x):
    return float(mp.besselj(n, mp.mpf(x)))


def test_bessel_j0_at_zero():
    r = bessel_j(0, 0.0)
    assert r.value == 1.0 and r.abs_error == 0.0


def test_bessel_j11_4pi_reference():
    ref = ref_j(11, 4 * math.pi)
    got = bessel_j(11, 4 * math.pi)
    assert abs(got.value - ref) <= 1e-12 * abs(ref)


def test_bessel_three_term_recurrence():
    x = 7.3
    j4 = bessel_j(4, x).value
    j5 = bessel_j(5, x).value
    j6 = bessel_j(6, x).value
    resid = j4 + j6 - (10.0 / x) * j5
    assert abs(resid) < 1e-11 * max(abs(j5), 1.0)


def test_bessel_recurrence_residual_grid():
    # relative three-term residual across a log grid of orders and arguments
    for n in (1, 3, 10, 30, 100):
        for x in (0.5, 2.0, 8.0, 40.0, 300.0, 2500.0, 10000.0):
            jm = bessel_j(n - 1, x).value
            j0 = bessel_j(n, x).value
            jp = bessel_j(n + 1, x).value
            resid = jm + jp - (2.0 * n / x) * j0
            scale = max(abs(jm), abs(j0), abs(jp), 1e-280)
            assert abs(resid) <= 1e-10 * scale, (n, x)


def test_bessel_accuracy_claims_on_grid():
    # rel err <= 1e-12 when x <= 50*order, <= 1e-10 otherwise
    for n in (0, 1, 2, 5, 11, 25, 60, 100):
        for x in (0.1, 1.0, 4.0, 9.0, 25.0, 100.0, 1000.0, 20000.0):
            got = bessel_j(n, x)
            ref = ref_j(n, x)
            tol = 1e-12 if x <= 50 * max(n, 1) else 1e-10
            denom = max(abs(ref), 1e-300)
            if abs(ref) < 1e-280:
                continue
            assert abs(got.value - ref) <= tol * denom + 1e-300, (n, x, got.method)


def test_bessel_reported_error_is_honest():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(0, 40))
        x = float(10 ** rng.uniform(-1, 4))
        got = bessel_j(n, x)
        ref = ref_j(n, x)
        assert abs(got.value - ref) <= max(got.abs_error * 8, 4e-16 * abs(ref) + 1e-300), (
            n, x, got.method,
        )


def test_bessel_small_argument_domination():
    # |J_{k-1}(x)| <= (x/2)^{k-1} / (k-1)! for x <= k
    for k in (6, 10, 16, 24):
        for x in np.linspace(0.3, k, 12):
            bound = (x / 2) ** (k - 1) / math.factorial(k - 1)
            assert abs(bessel_j(k - 1, float(x)).value) <= bound * (1 + 1e-9), (k, x)


def test_bessel_methods_cover_regimes():
    assert bessel_j(3, 1.0).method == "series"
    assert bessel_j(5, 60.0).method == "recurrence"
    assert bessel_j(2, 2.0e6).method == "asymptotic"


def test_bessel_asymptotic_vs_reference():
    for n in (0, 1, 7):
        for x in (6.0e5, 3.3e6, 9.9e7):
            got = bessel_j(n, x)
            ref = ref_j(n, x)
            assert abs(got.value - ref) <= 1e-10 * abs(ref) + 1e-16, (n, x)


def test_bessel_range_signalling():
    with pytest.raises(RangeError):
        bessel_j(-1, 1.0)
    with pytest.raises(RangeError):
        bessel_j(20000, 1.0)
    with pytest.raises(RangeError):
        bessel_j(0, 2.0e8)
    with pytest.raises(RangeError):
        bessel_j(5000, 2.0e6)  # recurrence too long, asymptotic invalid


def test_bessel_many_matches_scalar():
    xs = np.array([0.0, 0.5, 3.0, 9.5, 77.0, 1234.5])
    for n in (0, 4, 13):
        got = bessel_j_many(n, xs)
        for x, g in zip(xs, got):
            assert abs(g - bessel_j(n, float(x)).value) < 1e-13


def test_bessel_many_raises_where_scalar_does():
    # one router: over orders and arguments in and out of range (negative,
    # non-finite, past 1e8, the gap where neither the recurrence nor the
    # Hankel expansion is certified), bessel_j_many raises RangeError on
    # an array exactly where bessel_j raises on one of its arguments, and
    # elsewhere agrees with it
    xs = [-3.0, -0.0, 0.0, 0.5, 8.5, 9.0, 77.0, 1234.5, 2e4, 6e5, 1e8, 1.1e8,
          math.nan, math.inf, -math.inf]
    for n in (-1, 0, 5, 13, 800, 10**4, 10**4 + 1, 20000):
        want = {}
        for x in xs:
            try:
                want[x] = bessel_j(n, x).value
            except RangeError:
                want[x] = None
        for x, v in want.items():
            if v is None:
                with pytest.raises(RangeError):
                    bessel_j_many(n, np.array([x]))
        ok = [x for x, v in want.items() if v is not None]
        if len(ok) < len(xs):
            with pytest.raises(RangeError):
                bessel_j_many(n, np.array(xs))
        got = bessel_j_many(n, np.array(ok))
        assert np.all(np.abs(got - [want[x] for x in ok]) <= 1e-13), n
    assert bessel_j_many(5, np.array([])).shape == (0,)


def test_bessel_many_one_table_pass_for_recurrence_arguments(monkeypatch):
    # series arguments go to the vectorized series, the recurrence ones
    # share one table pass, and only the Hankel argument calls bessel_j
    xs = np.array([0.5, 3.0, 9.5, 77.0, 1234.5, 40.0, 6.0e5])
    want = [bessel_j(11, float(x)).value for x in xs]
    calls = {"table": 0, "miller": 0, "scalar": 0}
    table, miller, scalar = special.bessel_j_table, special._bessel_miller, special.bessel_j

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(special, "bessel_j_table", counted("table", table))
    monkeypatch.setattr(special, "_bessel_miller", counted("miller", miller))
    monkeypatch.setattr(special, "bessel_j", counted("scalar", scalar))
    got = bessel_j_many(11, xs)
    assert calls == {"table": 1, "miller": 0, "scalar": 1}
    assert np.max(np.abs(got - want)) < 1e-13


def test_bessel_table_against_mpmath():
    # every order 0..kmax, within the Miller error model of bessel_j.  At
    # x = 0.01 the column spans J_0 ~ 1 down to J_240 ~ 1e-1000 and grows
    # by far more than the double range on its way down from the start
    # value 1e-290, so it must pass through the per-column rescale.
    kmax = 240
    xs = np.array([0.01, 0.5, 8.5, 77.0, 138.0])
    tab = bessel_j_table(kmax, xs)
    assert tab.shape == (kmax + 1, len(xs))
    for i, x in enumerate(xs):
        for k in range(kmax + 1):
            ref = ref_j(k, x)
            envelope = math.sqrt(2.0 / (math.pi * x)) if x >= k else abs(ref)
            claim = (abs(ref) + envelope) * 5e-14 + 1e-305
            assert abs(tab[k, i] - ref) <= claim, (k, x)
    # each column is computed as it would be alone
    for i, x in enumerate(xs):
        alone = bessel_j_table(kmax, np.array([x]))[:, 0]
        assert np.max(np.abs(alone - tab[:, i]) / (np.abs(tab[:, i]) + 1e-300)) < 1e-13
    with pytest.raises(ValueError):
        bessel_j_table(4, np.array([1.0, 0.0]))


def test_signed_bessel_table_on_negative_and_zero_arguments():
    # J_k(-r) = (-1)^k J_k(r), and J_k(0) = (1, 0, 0, ...) exactly, where
    # bessel_j_table refuses a zero argument; both checked row by row
    # against bessel_j_many at |z| and mpmath at z, within the Miller
    # error model of bessel_j
    kmax = 60
    zs = np.array([-41.5, -7.25, -0.5, -1e-3, 0.0, 1e-3, 0.5, 7.25, 41.5])
    tab = signed_bessel_table(kmax, zs)
    assert tab.shape == (kmax + 1, len(zs))
    zero = zs == 0.0
    assert tab[0, zero] == 1.0 and not tab[1:, zero].any()
    sign = np.where(zs < 0, -1.0, 1.0)
    for k in range(kmax + 1):
        many = bessel_j_many(k, np.abs(zs)) * sign**k
        for i, z in enumerate(zs):
            ref = ref_j(k, z)
            r = abs(z)
            envelope = math.sqrt(2.0 / (math.pi * r)) if 0 < r and k <= r else abs(ref)
            claim = (abs(ref) + envelope) * 5e-14 + 1e-305
            assert abs(tab[k, i] - ref) <= claim, (k, z)
            assert abs(tab[k, i] - many[i]) <= 2 * claim, (k, z)
    # positive arguments alone are bessel_j_table's pass, bit for bit
    pos = zs[zs > 0]
    assert np.array_equal(signed_bessel_table(kmax, pos), bessel_j_table(kmax, pos))
    with pytest.raises(ValueError):
        signed_bessel_table(4, np.array([1.0, np.nan]))


def test_jacobi_anger_coefficients_match_dense_interpolation(monkeypatch):
    rng = np.random.default_rng(3)
    tau = np.concatenate([rng.uniform(-30.0, -0.01, 40), rng.uniform(0.01, 30.0, 40)])
    # two columns: a Gaussian envelope and the same reflected in tau
    amp = (rng.normal(size=(80, 2)) + 1j * rng.normal(size=(80, 2))) * np.exp(
        -((tau[:, None] * np.array([1.0, -1.0]) / 12.0 - 0.5) ** 2)
    )

    def g(y):
        return np.exp(-1j * np.outer(y, tau)) @ amp

    deg = chebyshev_degree(np.abs(tau).max() / 2.0)
    # the signed table J_k(tau_j) = (-1)^k J_k(|tau_j|)
    table = signed_bessel_table(deg, tau)
    coef = jacobi_anger_coefficients(table, amp)
    assert coef.shape == (deg + 1, 2)
    # a column's coefficients do not depend on the others: the batched
    # product is one GEMM per column, bit for bit a column computed alone
    for b in range(2):
        alone = jacobi_anger_coefficients(table, amp[:, b : b + 1])
        assert np.array_equal(alone[:, 0], coef[:, b])
    scale = np.sum(np.abs(amp))
    for b in range(2):
        want = np.polynomial.chebyshev.chebinterpolate(lambda y: g(y)[:, b], deg)
        assert np.max(np.abs(coef[:, b] - want)) <= 1e-13 * scale
    # the block evaluator matches Clenshaw in its own panels and chunks, and
    # in panels of seven rows over chunks of 1000 arguments, which carry the
    # recurrence across panels and leave a short last chunk
    xs = np.linspace(-1.0, 2.0, 3001)
    ys = (xs - 0.5) / 1.5
    for rows, chunk in ((special._PANEL_ROWS, special._BASIS_CHUNK), (7, 1000)):
        monkeypatch.setattr(special, "_PANEL_ROWS", rows)
        monkeypatch.setattr(special, "_BASIS_CHUNK", chunk)
        got = chebyshev_block(coef, -1.0, 2.0, xs)
        assert got.shape == (len(xs), 2)
        assert np.max(np.abs(got - g(ys))) <= 1e-13 * scale
        for b in range(2):
            want = np.polynomial.chebyshev.chebval(ys, coef[:, b])
            assert np.max(np.abs(got[:, b] - want)) <= 1e-13 * scale
        # a value does not depend on the other arguments or columns of the call
        alone = chebyshev_block(coef[:, 1:], -1.0, 2.0, xs[5::7])
        assert np.array_equal(alone[:, 0], got[5::7, 1])
        # written into a row slice of a larger array, the values are the same
        into = np.zeros((len(xs) + 20, 2), dtype=complex)
        assert chebyshev_block(coef, -1.0, 2.0, xs, out=into[10:-10]).base is into
        assert np.array_equal(into[10:-10], got) and not into[:10].any() and not into[-10:].any()
    # a narrower valid range is checked on its own
    narrow = chebyshev_block(coef, -1.0, 2.0, xs[:9], (-1.0, 0.0))
    assert np.max(np.abs(narrow - got[:9])) <= 1e-13 * scale
    for x, valid in ((2.01, None), (0.5, (-1.0, 0.0))):
        with pytest.raises(ValueError, match="outside the fitted range"):
            chebyshev_block(coef, -1.0, 2.0, np.array([0.0, x]), valid)


# the (K, x) pairs of criterion 5a; its direct sums need J_(k-1)(2 pi x), k <= 2K + 1
_KSUM_PAIRS = [(K, x) for K in (8, 16, 32) for x in (10.0, 100.0, 1000.0, 10000.0)]


@pytest.mark.parametrize("K, x", _KSUM_PAIRS)
def test_bessel_orders_within_claim_at_ksum_pairs(K, x):
    y = 2 * math.pi * x
    orders = list(range(2 * K + 2))
    for n, got in zip(orders, bessel_j_orders(orders, y)):
        assert got.method == "recurrence"
        assert abs(got.value - float(mp.besselj(n, mp.mpf(y)))) <= got.abs_error, n


@pytest.mark.parametrize(
    "x, orders",
    [
        # oscillatory below n = x, decaying above it
        (50.0, list(range(121))),
        # J_600(150) ~ 7e-288 is kept long before the pass ends, so the
        # overflow rescaling must carry it along
        (150.0, [0, 1, 75, 150, 300, 600]),
    ],
    ids=["straddle-x", "rescaled"],
)
def test_bessel_orders_within_claim_across_the_turning_point(x, orders):
    got = bessel_j_orders(orders, x)
    assert {r.method for r in got} == {"recurrence"}
    for n, r in zip(orders, got):
        assert abs(r.value - ref_j(n, x)) <= r.abs_error, n


def test_bessel_orders_route_each_order_like_bessel_j():
    # series, recurrence and Hankel orders in one call, unsorted and repeated
    for x, orders in [(3.0, [5, 0, 3, 3]), (30.0, [40, 2, 0, 31, 2]), (1.0e6, [7, 0, 200])]:
        got = bessel_j_orders(orders, x)
        for n, r in zip(orders, got):
            one = bessel_j(n, x)
            assert r.method == one.method, (n, x)
            if r.method == "recurrence":
                assert abs(r.value - one.value) <= r.abs_error + one.abs_error
            else:
                assert (r.value, r.abs_error) == (one.value, one.abs_error)


def test_bessel_j_is_the_one_order_miller_pass():
    for n, x in [(0, 9.0), (5, 60.0), (40, 30.0), (150, 100.0), (64, 2e4)]:
        values, errors = special._bessel_miller([n], x)
        got = bessel_j(n, x)
        assert got.method == "recurrence"
        assert (got.value, got.abs_error) == (values[0], errors[0])


@pytest.mark.parametrize(
    "n, x, value, error, method",
    [
        (3, 3.0, "0x1.3c7af031ff036p-2", "0x1.0e2432f048a38p-49", "series"),
        (40, 30.0, "0x1.7abf853c74027p-12", "0x1.4d267f025f175p-55", "recurrence"),
        (5, 2 * math.pi * 10, "-0x1.ca5f17f6c1ae6p-5", "0x1.1a2086202f3d3p-47", "recurrence"),
        (64, 2 * math.pi * 10, "0x1.531223aa91449p-4", "0x1.2a3ff81d79eb0p-47", "recurrence"),
        (150, 100.0, "0x1.39ede31fcbf67p-52", "0x1.142294fbb5ffbp-95", "recurrence"),
        (0, 2e4, "0x1.6cc5902fe83f0p-8", "0x1.430b7d4067a13p-51", "recurrence"),
        (7, 1e6, "0x1.7c9cc1cea17e9p-11", "0x1.05738c7318d3ep-58", "asymptotic"),
        (200, 1e8, "0x1.0cd193f1a2062p-15", "0x1.a2525133ca1d2p-62", "asymptotic"),
    ],
)
def test_bessel_j_values_pinned(n, x, value, error, method):
    # bit patterns of the per-order engine that preceded the all-orders pass
    got = bessel_j(n, x)
    assert (got.value.hex(), got.abs_error.hex(), got.method) == (value, error, method)


def test_ksum_direct_makes_one_miller_pass(monkeypatch):
    calls = []
    miller = special._bessel_miller

    def counted(orders, x):
        calls.append(len(orders))
        return miller(orders, x)

    monkeypatch.setattr(special, "_bessel_miller", counted)
    oscint.bessel_weighted_k_sum(32, 1e4, "direct")
    # one pass for the 15 orders with a nonzero weight, where each order had its own
    assert calls == [15]


def test_log_gamma_factorial():
    g = cmath.exp(log_gamma(5.0 + 0j).value)
    assert abs(g - 24.0) < 1e-12 * 24


def test_gamma_reflection_identity():
    s = 0.3 + 11.0j
    lhs = cmath.exp(log_gamma(s).value) * cmath.exp(log_gamma(1 - s).value)
    rhs = math.pi / cmath.sin(math.pi * s)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_log_gamma_against_mpmath_grid():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        sig = float(rng.uniform(-3, 8))
        t = float(rng.uniform(5, 300)) * (1 if rng.random() < 0.5 else -1)
        s = complex(sig, t)
        got = log_gamma(s)
        ref = complex(mp.loggamma(mp.mpc(sig, t)))
        err = abs(got.value - ref)
        worst = max(worst, err)
        assert err <= got.abs_error + 1e-11 * (1 + abs(ref)), s
    assert worst < 1e-9


def test_log_gamma_error_decreases_with_terms(monkeypatch):
    s = complex(2.0, 9.0)
    ref = complex(mp.loggamma(mp.mpc(2.0, 9.0)))
    errs = []
    for k in (1, 2, 4, 8):
        monkeypatch.setattr(special, "_STIRLING_TERMS", k)
        errs.append(abs(log_gamma(s).value - ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[3] < 1e-12


def test_log_gamma_pole():
    with pytest.raises(ZeroDivisionError):
        log_gamma(0.0 + 0j)
    with pytest.raises(ZeroDivisionError):
        log_gamma(-3.0 + 0j)


def test_log_gamma_vec_matches_scalar():
    zs = np.array([2 + 9j, 0.5 + 40j, -1.5 + 7j, 6.0 + 0.5j])
    got = log_gamma_vec(zs)
    for z, g in zip(zs, got):
        assert abs(g - log_gamma(complex(z)).value) < 1e-12


def test_log_gamma_vec_deep_lift_against_mpmath():
    # these need over 64 recursion lifts before Stirling applies
    zs = np.array([-100.5 + 0.3j, -70.5 + 1.0j])
    got = log_gamma_vec(zs)
    for z, g in zip(zs, got):
        ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        assert abs(g - ref) < 1e-9, z


def test_log_gamma_vec_on_scan_lines_against_mpmath():
    # the lines the scans' gamma passes use: s + w and s (+ 11/2) for Delta,
    # the same for k = 16 (+ 15/2), and the Maass shifts (s +- i nu) / 2;
    # dense near Im z = 0, where the recursion lift works, and out to the
    # largest |Im z| a scan can form.  The bound on the worst error
    # relative to max(1, |ref|) lies below the 1.33e-14 (at Re z = 0.75)
    # that a lift to |z| >= 18 with the tail summed term by term gives
    ims = np.concatenate([np.linspace(-12.0, 12.0, 49), np.geomspace(12.5, 5000.0, 60)])
    ims = np.concatenate([ims, -ims[49:]])
    worst = 0.0
    with mp.workdps(30):
        for re in (6.0, 7.0, 8.0, 8.5, 0.25, 0.75):
            zs = re + 1j * ims
            ref = np.array([complex(mp.loggamma(mp.mpc(z.real, z.imag))) for z in zs])
            err = np.abs(log_gamma_vec(zs) - ref) / np.maximum(1.0, np.abs(ref))
            worst = max(worst, float(err.max()))
    assert worst <= 1e-14, worst


def test_stirling_radius_from_sector_remainder():
    # 12 terms leave B_26 / (26 * 25 z^25) times sec^26(arg z / 2) (DLMF
    # 5.11(ii)).  Over |z| >= R, Re z >= R cos(a) that is largest at
    # R e^(i a): the lift's two regions take a = pi / 3 and a = pi / 2,
    # each with the least integer radius where it is below 2^-56
    terms = special._STIRLING_TERMS

    def bound(r, angle):
        n = terms + 1
        term = abs(mp.bernoulli(2 * n)) / (2 * n * (2 * n - 1) * mp.mpf(r) ** (2 * n - 1))
        return term * mp.sec(angle / 2) ** (2 * n)

    for radius, angle in (
        (special._STIRLING_RADIUS, mp.pi / 3),
        (special._STIRLING_RADIUS_AXIS, mp.pi / 2),
    ):
        assert bound(radius, angle) <= mp.mpf(2) ** -56 < bound(radius - 1, angle)
        corner = special._stirling_remainder(terms, radius * cmath.exp(1j * float(angle)))
        assert abs(corner - float(bound(radius, angle))) <= 1e-12 * corner
        # the region's other points bound no larger
        for z in (radius + 0j, radius * cmath.exp(0.5j * float(angle)) + 1, 3 * radius + 2j * radius):
            assert special._stirling_remainder(terms, z) <= corner
    assert (special._STIRLING_RADIUS, special._STIRLING_RADIUS_AXIS) == (8, 10)
    # every lifted argument lies in one of the two regions; near the
    # imaginary axis a large |z| needs no lift
    zs = np.array([0.25 + 0.1j, 6.0 - 3.0j, 0.75 + 4000j, -3.5 + 1j, 7.0 + 7.0j, 0.25 - 12.0j])
    lifted = special._stirling(zs, terms)[2]
    r = np.abs(lifted)
    assert np.all(((r >= 8) & (lifted.real >= 4)) | ((r >= 10) & (lifted.real >= 0)))
    assert lifted[2] == zs[2] and lifted[5] == zs[5]


def test_log_gamma_claim_includes_sector_factor(monkeypatch):
    # off the real axis the first omitted term alone can understate the
    # remainder: with three terms at z = 4 + 7.125i (arg z near pi / 3, no
    # lift) the error is 1 % above it, and the sector factor
    # sec^8(arg z / 2) = 3.2 restores the claim
    z = 4.0 + 7.125j
    monkeypatch.setattr(special, "_STIRLING_TERMS", 3)
    got = log_gamma(z)
    err = abs(got.value - complex(mp.loggamma(mp.mpc(z.real, z.imag))))
    bare = abs(special._BERNOULLI[3]) / (8 * 7 * abs(z) ** 7)
    assert bare < err <= got.abs_error
    assert got.abs_error >= 3.0 * bare


def test_log_gamma_lift_limit_raises_in_both_paths():
    z = -450.5 + 0.5j  # needs more than 400 lifts
    with pytest.raises(RangeError):
        log_gamma(z)
    with pytest.raises(RangeError):
        log_gamma_vec(np.array([2.0 + 1j, z]))


def test_chebyshev_fit_band_limited_and_range():
    freq = np.array([5.0, -11.0])
    amp = np.array([1.0, 0.25j])

    def g(x):
        return np.exp(1j * np.outer(x, freq)) @ amp

    fit = chebyshev_fit(g, -0.5, 2.5, np.abs(freq).max())
    xs = np.linspace(-0.5, 2.5, 301)
    assert np.max(np.abs(fit(xs) - g(xs))) < 1e-13
    for bad in (-0.51, 2.51):
        with pytest.raises(ValueError):
            fit(np.array([bad]))


def test_chebyshev_fit_extra_degree_for_a_flat_edge():
    # e^(i 40 x) times the canonical bump's flat edge e^(1 - 1/(4x)) on
    # [0, 1/60], as the S5 fold meets it: the band's degree alone misses
    # the edge by 1.5e-11, 26 more degrees by under 1e-20
    def g(x):
        return np.exp(1.0 - 1.0 / np.maximum(4.0 * x, 1e-300) + 40j * x)

    sampled = []

    def counted(x):
        sampled.append(np.size(x))
        return g(x)

    xs = np.linspace(0.0, 1.0 / 60.0, 1001)
    bare = chebyshev_fit(g, 0.0, 1.0 / 60.0, 40.0)
    fit = chebyshev_fit(counted, 0.0, 1.0 / 60.0, 40.0, 26)
    assert sampled == [chebyshev_degree(40.0 / 240.0) + 27]
    assert np.max(np.abs(bare(xs) - g(xs))) > 1e-12
    assert np.max(np.abs(fit(xs) - g(xs))) < 1e-17


def test_gamma_ratio_tau_zero():
    r = gamma_ratio_phase(100.0, 0.0)
    assert abs(r.ratio.value - 1.0) < 1e-14


def test_gamma_ratio_unit_modulus_and_phase():
    for K, tau in [(100.0, 0.5), (200.0, 2.0), (1000.0, 5.0), (50.0, 12.0)]:
        r = gamma_ratio_phase(K, tau)
        assert abs(abs(r.ratio.value) - 1.0) < 1e-10
        # corrected phase lands within the omitted cubic term (4/3) tau^3/K^2
        tol = 10 * tau**2 / K**2 + 1.5 * tau**3 / K**2 + 1e-9
        assert r.diff_corrected <= tol, (K, tau)
        # displayed form misses by ~|tau| (1 - 2 log 2) plus the log 2 slip
        envelope = abs(2 * tau * math.log(2)) + 10 * tau**2 / K**2 + abs(tau) / K
        assert r.diff_displayed <= envelope, (K, tau)
        assert r.diff_displayed >= 0.1 * abs(tau) * (2 * math.log(2) - 1), (K, tau)
    # at the documented benchmark the quadratic envelope alone suffices
    r = gamma_ratio_phase(1000.0, 5.0)
    assert r.diff_corrected <= 10 * 25.0 / 1000.0**2


def test_gamma_ratio_against_mpmath():
    for K, tau in [(120.0, 3.0), (640.0, 11.0)]:
        r = gamma_ratio_phase(K, tau)
        ref = complex(mp.gamma(mp.mpc(K / 2, tau)) / mp.gamma(mp.mpc(K / 2, -tau)))
        assert abs(r.ratio.value - ref) < 1e-11


def test_reduce_two_pi_against_mpmath():
    # the one reduction mod 2 pi of a double-double phase p + e.  Its
    # callers' largest quotients: the Hankel route at x <= 1e8, the scan at
    # |t| log n <= T_MAX log PREC_MAX, and the S5 direct side at t <= 2000,
    # n < 2N <= 2e5, plus under 2 pi from sqrt(nm) / c less multiples of c.
    # Each q C_i of the first three parts is exact only if its bits fit
    from fractions import Fraction

    def bits(v):
        num = Fraction(v).numerator
        return (num // (num & -num)).bit_length()

    # Hankel, scan, S5
    phases = (1e8, lfunc.T_MAX * math.log(lfunc.PREC_MAX), 2000 * math.log(2e5) + 2 * math.pi)
    q_max = max(round(x / (2 * math.pi)) for x in phases)
    widths = [bits(c) for c in (special._CW1, special._CW2, special._CW3)]
    assert widths == [8, 23, 26] and max(widths) + q_max.bit_length() <= 53
    parts = (special._CW1, special._CW2, special._CW3, special._CW4)
    assert abs(mp.fsum(map(mp.mpf, parts)) - 2 * mp.pi) < mp.mpf(10) ** -35
    pair = mp.mpf(special._TWO_PI) + mp.mpf(special._TWO_PI_LO)
    assert abs(pair - 2 * mp.pi) < mp.mpf(10) ** -31

    def worst(r, ref):
        # each r in [-pi, pi] up to rounding, and its distance from ref mod 2 pi
        assert np.all(np.abs(r) <= math.pi + 4 * special.EPS)
        out = 0.0
        for got, want in zip(r.tolist(), ref):
            d = mp.mpf(got) - want
            out = max(out, float(abs(d - 2 * mp.pi * mp.nint(d / (2 * mp.pi)))))
        return out

    # e = 0 over the Hankel range: the phase is x itself
    xs = np.concatenate([np.geomspace(1.0, 1e8, 300), [6e5, 3.3e6, 9.9e7, 1e8]])
    ref = [mp.mpf(x) for x in xs.tolist()]
    assert worst(special._reduce_two_pi(xs, 0.0), ref) <= 4 * special.EPS
    # pairs p + e, e up to half an ulp of p, over the scan's and S5's range
    # and past the Hankel route's
    rng = np.random.default_rng(7)
    p = np.concatenate([rng.uniform(-q, q, 100) for q in (10.0, 3e4, 1e8, 8e8)])
    e = rng.uniform(-0.5, 0.5, p.size) * np.spacing(p)
    ref = [mp.mpf(a) + mp.mpf(b) for a, b in zip(p.tolist(), e.tolist())]
    assert worst(special._reduce_two_pi(p, e), ref) <= 4 * special.EPS


def test_kernel_ca_examples():
    assert abs(bessel_kernel_ca(1, 0.0, math.pi) - 0.0) < 1e-15
    want = -2j * math.sin(2.0)
    assert abs(bessel_kernel_ca(1, 0.25, 2.0) - want) < 1e-12
    s = math.sin(math.sqrt(2) / 2)
    want = (-2j - 2) * s
    assert abs(bessel_kernel_ca(3, 0.125, 1.0) - want) < 1e-12


def test_complex_estimate_rejects_nonfinite():
    with pytest.raises(ValueError):
        ComplexEstimate(1.0, float("inf"), "series")


def _assert_smallest_below_floor(ratio):
    """chebyshev_degree(ratio) is the least k >= 1 at which the bound
    2 ratio^k / k! falls below 2^(-52), the bound taken in mpmath."""
    deg = chebyshev_degree(ratio)

    def bound(k):
        return 2 * mp.mpf(ratio) ** k / mp.factorial(k)

    assert deg >= 1
    assert bound(deg) < 2.0**-52 <= bound(deg - 1), ratio


@pytest.mark.parametrize(
    # past ~710 the terms ratio^k / k! exceed the double range
    "ratio", [33.3, 1000.0],
)
def test_chebyshev_degree_is_smallest_below_floor(ratio):
    _assert_smallest_below_floor(ratio)


def test_chebyshev_degree_is_smallest_below_floor_on_contours():
    # the scan asks for two degrees, one per Bessel table: the bound
    # chebyshev_degree(TMAX h / 2) at the half-widths h of the remainder
    # [log 1/4, F] and of an octave, whatever the form or t
    halves = (0.5 * (lfunc._OCTAVE_FLOOR - math.log(0.25)), 0.5 * lfunc._OCTAVE)
    for half in halves:
        ratio = lfunc._CONTOUR_TMAX * half / 2.0
        _assert_smallest_below_floor(ratio)
        assert len(lfunc._bessel_table(half)) == chebyshev_degree(ratio) + 1


def test_chebyshev_degree_is_smallest_below_floor_on_random_ratios():
    rng = np.random.default_rng(7)
    for ratio in 10.0 ** rng.uniform(-3, 3, size=200):
        _assert_smallest_below_floor(ratio)
