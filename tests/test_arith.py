import math

import numpy as np
import pytest

from weylbound.arith import divisor_counts, inv_mod, require_inv
from weylbound.expsums import units_and_inverses


def test_inv_mod_against_brute_force():
    # every residue of every modulus c <= 300, with negative and
    # out-of-range representatives: the inverse is the one x in [0, c)
    # with a x = 1 mod c, and None for a non-unit; c = 1 inverts to 0
    for c in range(1, 301):
        r = np.arange(c)
        hits = np.outer(r, r) % c == 1 % c
        brute = [int(np.argmax(row)) if row.any() else None for row in hits]
        for a in range(c):
            for rep in (a, a - c, a - 7 * c, a + 3 * c):
                assert inv_mod(rep, c) == brute[a], (rep, c)
        units = [a for a in range(c) if brute[a] is not None]
        assert units == [a for a in range(c) if math.gcd(a, c) == 1]
        xs, invs = units_and_inverses(c)
        assert xs.tolist() == units and invs.tolist() == [brute[a] for a in units]
    assert inv_mod(5, 1) == 0 and inv_mod(-5, 1) == 0
    assert inv_mod(6, 9) is None and inv_mod(-3, 9) is None and inv_mod(0, 7) is None


def test_require_inv_raises_on_non_units():
    assert require_inv(-2, 7) == 3
    with pytest.raises(ValueError, match="4 is not invertible modulo 6"):
        require_inv(4, 6)


def test_divisor_counts_against_the_slice_loop():
    # one bincount over every multiple gives the integers of one slice
    # update per k: at n = 10^4, and at smaller n as prefixes of it
    n_max = 10**4
    loop = np.zeros(n_max + 1, dtype=np.int64)
    for k in range(1, n_max + 1):
        loop[k::k] += 1
    got = divisor_counts(n_max)
    assert got.dtype == np.int64 and np.array_equal(got, loop)
    for n in (0, 1, 2, 3, 12, 97, 360, 9999):
        assert np.array_equal(divisor_counts(n), loop[: n + 1]), n
