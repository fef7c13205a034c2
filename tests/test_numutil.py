import random
from fractions import Fraction

from hypothesis import given, strategies as st

from clustersol.numutil import (cyclotomic_poly, factorint, is_prime, lowest_terms,
                                mult_order, poly_deriv, poly_divmod_monic, poly_eval,
                                poly_trim, rational_str, resultant, vp)


def poly_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly_trim(out)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(2, 42):
        assert is_prime(n) == (n in primes)


@given(st.integers(min_value=2, max_value=10 ** 9))
def test_factorint_reconstructs(n):
    fac = factorint(n)
    prod = 1
    for q, e in fac.items():
        assert is_prime(q)
        prod *= q ** e
    assert prod == n


def test_mult_order():
    assert mult_order(17, 12) == 2
    assert mult_order(7, 3) == 1
    assert mult_order(2, 7) == 3
    assert mult_order(5, 1) == 1


def test_vp():
    assert vp(7 ** 3 * 5, 7) == 3
    assert vp(-98, 7) == 2


def test_cyclotomic():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@given(st.lists(st.integers(-50, 50), max_size=12),
       st.lists(st.integers(-50, 50), max_size=6))
def test_divmod_by_a_monic_polynomial_reconstructs(f, low):
    g = low + [1]
    quot, rem = poly_divmod_monic(f, g)
    assert len(rem) == min(len(f), len(g) - 1)
    total = poly_mul(quot, g) + [0] * len(f)
    assert poly_trim([a + b for a, b in zip(total, rem + [0] * len(total))]) == poly_trim(f)


def test_resultant_vs_root_product():
    # res(f, g) = lc(f)^deg g * prod g(root_i) for f = prod (x - r_i)
    rng = random.Random(0)
    for _ in range(40):
        roots = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        f = [1]
        for r in roots:
            f = poly_mul(f, [-r, 1])
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 5)]
        expected = 1
        for r in roots:
            expected *= poly_eval(g, r)
        assert resultant(f, g) == expected


def test_resultant_detects_common_root():
    f = poly_mul([1, 1], [2, 1])        # (x+1)(x+2)
    g = poly_mul([1, 1], [-3, 1])       # (x+1)(x-3)
    assert resultant(f, g) == 0
    assert resultant(f, poly_deriv(f)) != 0


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=96))
def test_rational_str_writes_n_over_d_as_fraction_does(n, d):
    q = Fraction(n, d)
    assert rational_str(n, d) == str(q)
    assert lowest_terms(n, d) == (q.numerator, q.denominator)
