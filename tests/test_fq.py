import hashlib
import itertools
import random
import time

import pytest

from conftest import reference_canonical_sqrt
from clustersol.errors import NonOddPrime
from clustersol.fq import FqField, _inverse, _is_irreducible, _mulmod, _powmod, get_field
from clustersol.numutil import factorint, is_prime
from clustersol.tame import Tower
from test_numutil import poly_mul
from test_tame_field import TOWERS

FIELDS = [(7, 1), (7, 2), (11, 2), (13, 3), (17, 2), (17, 4), (7, 6), (13, 8)]


def add(F, a, b):
    return tuple((x + y) % F.p for x, y in zip(a, b))


def is_square(F, a):
    """Euler's criterion in F_q."""
    if a == F.zero:
        return True
    return F.pow(a, (F.q - 1) // 2) == F.one


def rand_elt(F, rng):
    while True:
        a = tuple(rng.randrange(F.p) for _ in range(F.d))
        if a != F.zero:
            return a


@pytest.mark.parametrize("p,d", FIELDS)
def test_field_axioms(p, d):
    F = get_field(p, d)
    rng = random.Random(p * 100 + d)
    for _ in range(60):
        a, b, c = (rand_elt(F, rng) for _ in range(3))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert add(F, a, add(F, b, c)) == add(F, add(F, a, b), c)
        assert F.mul(a, add(F, b, c)) == add(F, F.mul(a, b), F.mul(a, c))
        assert F.mul(a, F.inv(a)) == F.one


@pytest.mark.parametrize("p,d", FIELDS)
def test_generator_order(p, d):
    F = get_field(p, d)
    assert F.pow(F.omega, F.q - 1) == F.one
    for ell in F.q1_factors:
        assert F.pow(F.omega, (F.q - 1) // ell) != F.one


# Every (p, d) with p < 400 at d <= 4, and with p <= 13 at d <= 8, and the
# sha256 of their (p, d, modulus) reprs, recorded while the search still ran
# its root pre-filter and tested primitivity at every prime ell | q - 1
MODULUS_GRID = ([(p, d) for p in range(3, 400) if is_prime(p) for d in range(1, 5)]
                + [(p, d) for p in (3, 5, 7, 11, 13) for d in range(5, 9)])
MODULUS_DIGEST = "73a7bbe9d8d455d74e1809ff231a9a5b695839edc4a40552f0543f07c826b5c9"


def test_the_moduli_on_the_grid_are_the_recorded_ones():
    h = hashlib.sha256()
    for p, d in MODULUS_GRID:
        h.update(repr((p, d, FqField(p, d).modulus)).encode())
    assert len(MODULUS_GRID) == 328 and h.hexdigest() == MODULUS_DIGEST


@pytest.mark.parametrize("p", [10**6 + 3, 10**9 + 7, 2**61 - 1])
def test_a_quadratic_field_at_a_large_prime_builds_within_a_second(p):
    # no step of the modulus search runs over the elements of F_p
    t0 = time.perf_counter()
    F = FqField(p, 2)
    assert time.perf_counter() - t0 < 1.0
    assert F.pow(F.omega, F.q - 1) == F.one
    assert all(F.pow(F.omega, (F.q - 1) // ell) != F.one for ell in F.q1_factors)


def test_modulus_deterministic():
    # construction is cached; a fresh instance must find the same modulus
    for p, d in [(7, 2), (17, 4)]:
        assert FqField(p, d).modulus == get_field(p, d).modulus


@pytest.mark.parametrize("p,d", FIELDS)
def test_sqrt_and_nth_roots(p, d):
    F = get_field(p, d)
    rng = random.Random(d * 31 + p)
    for _ in range(40):
        a = rand_elt(F, rng)
        s = F.canonical_sqrt(a)
        if s is None:
            assert not is_square(F, a)
        else:
            assert F.mul(s, s) == a
            assert s == min([s, F.neg(s)])  # lexicographically least root
        for n in (2, 3, 4, 6):
            roots = F.nth_roots(a, n)
            assert roots == sorted(roots)
            for r in roots:
                assert F.pow(r, n) == a


def _is_sqrt_pair(F, a, pair, root):
    """Whether pair is (root, 0), root the least square root of a, or where a has
    none, (r, 1) with r the least square root of a/omega."""
    r, alpha = pair
    if root is not None:
        return pair == (root, 0)
    return alpha == 1 and F.mul(F.mul(r, r), F.omega) == a and r == min(r, F.neg(r))


@pytest.mark.parametrize("d", range(1, 7))
def test_canonical_sqrt_matches_reference_on_every_small_field(d):
    """Tonelli-Shanks against the least of all square roots: every element, q <= 2000;
    ``sqrt_pair``'s run, turned to a/omega on a non-square, against the same."""
    fields = 0
    for p in filter(is_prime, range(3, 2001)):
        if p ** d > 2000:
            break
        F = get_field(p, d)
        for a in itertools.product(range(p), repeat=d):
            root = reference_canonical_sqrt(F, a)
            assert F.canonical_sqrt(a) == root, (p, d, a)
            assert _is_sqrt_pair(F, a, F.sqrt_pair(a), root), (p, d, a)
        fields += 1
    assert fields == {1: 302, 2: 13, 3: 4, 4: 2, 5: 1, 6: 1}[d]


@pytest.mark.parametrize("p,d,s", [(17, 4, 6), (97, 1, 5), (97, 3, 5), (257, 2, 9),
                                   (12289, 1, 12)])
def test_canonical_sqrt_matches_reference_with_a_large_two_part(p, d, s):
    """Samples, and their squares, where 2^s exactly divides q - 1: many Tonelli-Shanks steps."""
    F = get_field(p, d)
    assert (F.q - 1) % 2 ** s == 0 and (F.q - 1) // 2 ** s % 2 == 1
    rng = random.Random(p * 10 + d)
    for _ in range(300):
        a = rand_elt(F, rng)
        for x in (a, F.mul(a, a), F.mul(a, F.omega)):
            root = reference_canonical_sqrt(F, x)
            assert F.canonical_sqrt(x) == root, (p, d, x)
            assert _is_sqrt_pair(F, x, F.sqrt_pair(x), root), (p, d, x)


def test_euler_criterion_against_enumeration():
    F = get_field(11, 1)
    squares = {F.mul((x,), (x,)) for x in range(1, 11)}
    for x in range(1, 11):
        assert is_square(F, (x,)) == ((x,) in squares)


# --- the one extended Euclid: inverses and the irreducibility sieve ---

def moebius(k):
    fac = factorint(k)
    return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)


@pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7) for d in range(1, 5)]
                         + [(11, d) for d in range(1, 4)])
def test_the_sieve_accepts_gauss_count_of_monic_polynomials(p, d):
    # (1/d) sum_{k | d} mu(k) p^(d/k) monic irreducibles of degree d over F_p
    gauss = sum(moebius(k) * p ** (d // k) for k in range(1, d + 1) if d % k == 0) // d
    accepted = sum(_is_irreducible(low, p) for low in itertools.product(range(p), repeat=d))
    assert accepted == gauss


@pytest.mark.parametrize("p,low", [(7, (6, 0)), (5, (0, 0, 0))])
def test_inverse_is_none_exactly_where_a_reducible_modulus_has_no_inverse(p, low):
    # t^2 - 1 over F_7 and t^3 over F_5: a has an inverse iff some b has a*b = 1
    d = len(low)
    one = (1,) + (0,) * (d - 1)
    elements = list(itertools.product(range(p), repeat=d))
    for a in elements:
        found = [b for b in elements if _mulmod(a, b, low, p) == one]
        assert _inverse(a, low, p) == (found[0] if found else None)


def test_rejects_even_or_composite():
    with pytest.raises(NonOddPrime):
        FqField(2, 1)
    with pytest.raises(NonOddPrime):
        FqField(15, 1)


# --- the shared F_q / W kernel against an independent computation ---

def reference_mulmod(f, g, low, m):
    """Integer product, long division by t^d + low(t), then reduction mod m."""
    d = len(low)
    divisor = list(low) + [1]
    rem = poly_mul(list(f), list(g)) + [0] * d
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        for j in range(d + 1):
            rem[k - d + j] -= c * divisor[j]
    return tuple(c % m for c in rem[:d])


def reference_powmod(f, n, low, m):
    """Left-to-right binary powering over reference_mulmod."""
    r = (1,) + (0,) * (len(low) - 1)
    for bit in bin(n)[2:]:
        r = reference_mulmod(r, r, low, m)
        if bit == "1":
            r = reference_mulmod(r, f, low, m)
    return r


# FIELDS, the towers' W, and every other field with p <= 17 and d <= 6
KERNEL_CASES = ([(p, d, None) for p, d in FIELDS]
                + [(p, d, (p, d, e, prec)) for p, d, e, prec in TOWERS]
                + [(p, d, None) for p in (3, 5, 7, 11, 13, 17) for d in range(1, 7)
                   if (p, d) not in FIELDS])


@pytest.mark.parametrize("p,d,tower", KERNEL_CASES)
def test_kernel_matches_reference(p, d, tower):
    # m = p is F_q; m = p^M is W, at the tower's M or the floor M = 8.  The
    # closed forms at d = 1 and 2 and the loops above; n = 0 to 3 reach the
    # power's first product and its last squaring
    F = get_field(p, d)
    t = Tower(*tower) if tower else None
    low = F.modulus
    rng = random.Random(p * 1000 + d)
    for m in (p, t.pM if t else p ** 8):
        for _ in range(20):
            f, g = (tuple(rng.randrange(m) for _ in range(d)) for _ in range(2))
            want = reference_mulmod(f, g, low, m)
            assert _mulmod(f, g, low, m) == want
            for n in (0, 1, 2, 3, F.q - 2, rng.randrange(F.q, F.q ** 3),
                      rng.getrandbits(200)):
                assert _powmod(f, n, low, m) == reference_powmod(f, n, low, m)
            if m == p:
                assert F.mul(f, g) == want
                if f != F.zero:
                    assert F.inv(f) == reference_powmod(f, F.q - 2, low, p)
                if f != F.zero:
                    n = rng.randrange(1, F.q ** 2)
                    assert F.pow(f, n) == reference_powmod(f, n, low, p)
                    assert reference_mulmod(F.pow(f, -n), reference_powmod(f, n, low, p),
                                            low, p) == F.one
            elif t:
                assert t.w_mul(f, g) == want
                n = rng.getrandbits(100)
                assert t.w_pow(f, n) == reference_powmod(f, n, low, m)


def test_a_negative_exponent_raises_on_both_branches():
    # FqField.pow inverts before it exponentiates; the kernel takes n >= 0
    # only: at d > 1 halving -1 would never reach 0
    for d in (1, 2):
        with pytest.raises(ValueError, match="negative exponent"):
            _powmod((3,) * d, -1, get_field(7, d).modulus, 7)
    with pytest.raises(ValueError, match="negative exponent"):
        Tower(7, 2, 1, 8).w_pow((3, 1), -1)
