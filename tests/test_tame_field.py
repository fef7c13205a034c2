import functools
import random
from collections import Counter
from fractions import Fraction

import pytest

import clustersol.decision as decision_mod
from conftest import (EX1, clear_lift_stores, decide_with_doubled_recheck, elt_inv, frob,
                      frob_t_image, pi_shift, tau, word_compose, zeta_e_res)
from clustersol.clusters import analyse
from clustersol.curves import parse_expr
from clustersol.errors import (InternalError, NonOddPrime, PrecisionExhausted,
                               WildRamification, ZeroElement)
from clustersol.fq import FqField
from clustersol.tame import FROB, TAU, Elt, GaloisWord, Tower, _lifts
from test_epsilon_reference import NON_STABLE

TOWERS = [(7, 1, 1, 24), (7, 2, 3, 36), (11, 2, 2, 32), (13, 1, 4, 40),
          (17, 2, 12, 96), (7, 1, 3, 30)]


def rand_elt(t, rng, max_val=3):
    cols = []
    for _ in range(t.e):
        cols.append(tuple(rng.randrange(t.pM) for _ in range(t.d)))
    x = t.zero()
    for i, c in enumerate(cols):
        x = x + pi_shift(t.from_w(c, 0), i)
    return pi_shift(x, t.e * rng.randint(-max_val, max_val))


def close(a, b, margin=4):
    try:
        d = a - b
    except PrecisionExhausted:
        return True  # difference vanishes below the trusted precision
    if d.is_zero:
        return True
    bound = min(x.vL + x.tower.e * x.rel for x in (a, b) if not x.is_zero)
    return d.vL >= bound - margin


def uniformiser(t):
    """pi as an element of the tower t."""
    return Elt(t, 1, (t.w_one(),) + (t.w_zero(),) * (t.e - 1), t.M)


def teichmuller(t, res):
    """Teichmueller lift of a nonzero residue, by Newton on X^(q-1) - 1."""
    assert res != t.fq.zero
    q1 = t.q - 1
    invq1 = pow(q1, -1, t.pM)
    z = tuple(res)  # integer lift, correct mod p
    k = 1
    while k < t.M:
        g = t.w_sub(t.w_pow(z, q1), t.w_one())
        corr = t.w_scale(t.w_mul(z, g), invq1)
        z = t.w_sub(z, t.w_mul(corr, t.w_sub(t.w_one(), g)))
        k *= 2
    assert t.w_pow(z, q1) == t.w_one()
    return z


def apply_word(word, x):
    """tau^a o frob^b applied to x, one generator at a time."""
    for _ in range(word.b):
        x = frob(x)
    for _ in range(word.a):
        x = tau(x)
    return x


def teichmuller_digits(x, n):
    """First n Teichmueller pi-digits of the unit part, as residue elements."""
    t = x.tower
    if x.is_zero:
        return []
    digits = []
    x = Elt(t, 0, x.unit, x.rel)
    for _ in range(n):
        if x.is_zero:
            digits.append(t.fq.zero)
            continue
        if x.vL > 0:
            digits.append(t.fq.zero)
            x = pi_shift(x, -1)
            continue
        a = x.residue()
        digits.append(a)
        lift = Elt(t, 0, (teichmuller(t, a),) + (t.w_zero(),) * (t.e - 1), t.M)
        try:
            y = x - lift
        except PrecisionExhausted:
            break
        x = pi_shift(y, -1) if not y.is_zero else t.zero()
    return digits


# --- creation ---

def test_create_base_field():
    t = Tower(7, 1, 1, 20)
    assert t.q == 7 and t.e == 1


def test_create_ramified():
    t = Tower(7, 2, 3, 20)
    assert t.q == 49
    assert uniformiser(t).valuation() == Fraction(1, 3)


def test_create_rejections():
    with pytest.raises(WildRamification):
        Tower(7, 1, 7, 20)
    with pytest.raises(NonOddPrime):
        Tower(2, 1, 1, 20)
    with pytest.raises(NonOddPrime):
        Tower(9, 1, 1, 20)


# --- arithmetic ---

def test_pi_power_is_p():
    t = Tower(7, 2, 3, 30)
    pi = uniformiser(t)
    assert (pi * pi * pi - t.from_int(7)).is_zero
    assert (pi * pi * pi).valuation() == 1


def test_inv_pi():
    t = Tower(7, 2, 3, 30)
    assert elt_inv(uniformiser(t)).valuation() == Fraction(-1, 3)


def test_cancellation_tracks_precision():
    t = Tower(7, 1, 1, 20)
    y = t.from_int(1 + 7 ** 10) - t.from_int(1)
    assert y.valuation() == 10
    assert y.rel == 10
    # y is 7^10 + O(7^20): subtracting 7^10 leaves a zero known only below
    # 7^20, which is not the zero element; 7^10 - 7^10 at full precision is
    with pytest.raises(PrecisionExhausted, match="zero known only below pi\\^20"):
        y - t.from_int(7 ** 10)
    assert (t.from_int(7 ** 10) - t.from_int(7 ** 10)).is_zero


@pytest.mark.parametrize("p,d,e,prec", TOWERS)
def test_subtraction_is_addition_of_the_negative(p, d, e, prec):
    t = Tower(p, d, e, prec)
    rng = random.Random(p * e + 3)
    for _ in range(30):
        x, y = rand_elt(t, rng), rand_elt(t, rng)
        for a, b in ((x, y), (t.zero(), y), (x, t.zero())):
            diff, ref = a - b, a + (-b)
            assert diff.vL == ref.vL and diff.unit == ref.unit and diff.rel == ref.rel
        assert (t.zero() - x).residue() == t.fq.neg(x.residue())


def test_precision_exhausted_on_deep_cancellation():
    t = Tower(7, 1, 1, 8)
    x = (t.from_int(1 + 7 ** 5) - t.from_int(1)) * t.from_int(1 + 7 ** 5)
    # x = 7^5 + 7^10 with only 3 trusted digits; subtracting 7^5 cancels
    # past the trusted precision
    with pytest.raises(PrecisionExhausted):
        x - t.from_int(7 ** 5)


@pytest.mark.parametrize("p,d,e,prec", TOWERS)
def test_field_axioms_random(p, d, e, prec):
    t = Tower(p, d, e, prec)
    rng = random.Random(p + e)
    for _ in range(60):
        x, y, z = (rand_elt(t, rng) for _ in range(3))
        assert close((x + y) + z, x + (y + z))
        assert close(x * (y + z), x * y + x * z)
        assert close((x * y) * z, x * (y * z))
        if not x.is_zero:
            assert close(x * elt_inv(x), t.from_int(1))


def test_thousand_case_axiom_suite():
    # the large flat suite: associativity, inverses, distributivity
    t = Tower(11, 2, 2, 32)
    rng = random.Random(99)
    for _ in range(1000):
        x, y, z = (rand_elt(t, rng, max_val=2) for _ in range(3))
        assert close((x + y) + z, x + (y + z))
        assert close(x * (y + z), x * y + x * z)
        if not x.is_zero:
            assert close(x * elt_inv(x), t.from_int(1))


@pytest.mark.parametrize("p,d,e,prec", TOWERS)
def test_valuation_laws(p, d, e, prec):
    t = Tower(p, d, e, prec)
    rng = random.Random(e * 13 + p)
    for _ in range(100):
        x, y = rand_elt(t, rng), rand_elt(t, rng)
        assert (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        if not s.is_zero:
            assert s.valuation() >= min(x.valuation(), y.valuation())
            if x.valuation() != y.valuation():
                assert s.valuation() == min(x.valuation(), y.valuation())


# --- residues ---

def test_residue_examples():
    t = Tower(7, 1, 1, 20)
    assert t.from_int(3 + 7 * 5).residue() == (3,)
    t3 = Tower(7, 1, 3, 30)
    assert t3.from_int(7).residue() == (1,)  # p = pi^3 exactly
    with pytest.raises(ZeroElement):
        t.zero().residue()


def test_residue_multiplicative():
    t = Tower(11, 2, 2, 32)
    rng = random.Random(5)
    for _ in range(100):
        x, y = rand_elt(t, rng), rand_elt(t, rng)
        assert t.fq.mul(x.residue(), y.residue()) == (x * y).residue()


# --- galois ---

@pytest.mark.parametrize("p,d,e,prec", TOWERS)
def test_tame_relation(p, d, e, prec):
    t = Tower(p, d, e, prec)
    rng = random.Random(p * e)
    for _ in range(50):
        x = rand_elt(t, rng)
        lhs = frob(tau(x))
        rhs = frob(x)
        for _ in range(p % max(e, 1) if e > 1 else 0):
            rhs = tau(rhs)
        assert close(lhs, rhs)


def test_thousand_case_galois_relation():
    t = Tower(7, 2, 3, 36)
    rng = random.Random(1234)
    for _ in range(1000):
        x = rand_elt(t, rng, max_val=1)
        rhs = frob(x)
        for _ in range(t.p):
            rhs = tau(rhs)
        assert close(frob(tau(x)), rhs)


def test_tau_order_and_frob_order():
    t = Tower(7, 2, 3, 36)
    rng = random.Random(8)
    for _ in range(25):
        x = rand_elt(t, rng)
        y = x
        for _ in range(t.e):
            y = tau(y)
        assert close(y, x)
        z = x
        for _ in range(t.d):
            z = frob(z)
        assert close(z, x)


def test_galois_fixes_rationals():
    t = Tower(13, 2, 4, 40)
    for n in (1, 5, -3, 13, 13 ** 2 * 9):
        x = t.from_int(n)
        assert (tau(x) - x).is_zero
        assert (frob(x) - x).is_zero


def test_galois_is_ring_hom():
    t = Tower(11, 2, 2, 32)
    rng = random.Random(77)
    for _ in range(50):
        x, y = rand_elt(t, rng), rand_elt(t, rng)
        assert close(tau(x * y), tau(x) * tau(y))
        assert close(frob(x + y), frob(x) + frob(y))


def test_chi_values():
    # the ramification character chi(s) = s(pi)/pi mod m
    t = Tower(7, 1, 3, 30)
    pi = uniformiser(t)

    def chi(word):
        return (apply_word(word, pi) * elt_inv(pi)).residue()

    assert chi(TAU) == zeta_e_res(t)
    assert chi(FROB) == t.fq.one
    assert chi(GaloisWord(2, 0)) == t.fq.mul(zeta_e_res(t), zeta_e_res(t))


def test_word_compose_relation():
    t = Tower(7, 2, 3, 30)
    w = word_compose(t, FROB, TAU)       # frob o tau
    assert (w.a - t.p) % t.e == 0 and w.b % t.d == 1


def test_galois_word_is_an_immutable_value():
    assert GaloisWord(1, 0) == TAU and hash(GaloisWord(1, 0)) == hash(TAU)
    assert GaloisWord() == GaloisWord(a=0, b=0) != FROB
    with pytest.raises(AttributeError):
        TAU.a = 2


# --- digit view ---

def test_teichmuller_digit_view_tau_semantics():
    # tau multiplies the i-th pi-digit by zeta_e^i and fixes the digits
    t = Tower(7, 2, 3, 30)
    rng = random.Random(21)
    zeta = zeta_e_res(t)
    for _ in range(15):
        x = rand_elt(t, rng, max_val=0)
        digits = teichmuller_digits(x, 6)
        tau_digits = teichmuller_digits(tau(x), 6)
        shift = x.vL % t.e
        scale = t.fq.pow(zeta, shift)
        for i, (a, b) in enumerate(zip(digits, tau_digits)):
            expected = t.fq.mul(a, t.fq.pow(zeta, i))
            assert b == t.fq.mul(expected, scale)


def test_teichmuller_digit_view_reconstructs():
    t = Tower(11, 1, 2, 24)
    x = t.from_int(5 + 3 * 11 + 7 * 11 ** 2)
    digits = teichmuller_digits(x, 8)
    acc = t.zero()
    for i, a in enumerate(digits):
        if a != t.fq.zero:
            acc = acc + pi_shift(t.from_w(teichmuller(t, a), 0), i)
    assert close(pi_shift(acc, x.vL), x, margin=t.e * t.M - 8)


def test_galois_word_application():
    t = Tower(7, 2, 3, 30)
    rng = random.Random(31)
    for _ in range(20):
        x = rand_elt(t, rng)
        w = GaloisWord(2, 1)
        assert close(apply_word(w, x), tau(tau(frob(x))))
        wc = word_compose(t, TAU, FROB)     # tau o frob
        assert close(apply_word(wc, x), tau(frob(x)))


# --- the Hensel lifts against Newton steps that invert in W ---

def reference_w_inv(t, a):
    """Inverse of a unit of W: Newton from the residue inverse a^(q-2)."""
    res = t.w_residue(a)
    assert res != t.fq.zero
    z = tuple(t.fq.pow(res, t.q - 2))
    k = 1
    while k < t.M:
        z = t.w_sub(t.w_scale(z, 2), t.w_mul(a, t.w_mul(z, z)))
        k *= 2
    return z


def reference_unit_nth_root(t, u, n):
    """Newton on z^n - u, inverting n z^(n-1) in W at every step."""
    z = tuple(t.fq.canonical_nth_root(t.fq.from_int(u), n))
    uu = t.w_from_int(u)
    k = 1
    while k < t.M:
        zn1 = t.w_pow(z, n - 1) if n > 1 else t.w_one()
        fz = t.w_sub(t.w_mul(zn1, z), uu)
        z = t.w_sub(z, t.w_mul(fz, reference_w_inv(t, t.w_scale(zn1, n))))
        k *= 2
    assert t.w_vp(t.w_sub(t.w_pow(z, n), uu)) is None
    return z


def reference_zeta(t, m):
    """The Teichmueller lift of omega^((q-1)/m), lifted on X^(q-1) - 1."""
    return teichmuller(t, t.fq.pow(t.fq.omega, (t.q - 1) // m))


def reference_frob_t_image(t):
    """Plain Newton on Ptilde from t^p, inverting Ptilde'(z) in W at every step."""
    d, low = t.d, t.fq.modulus
    if d == 1:
        return [t.w_one()]

    def ptilde(z):
        acc = t.w_from_int(low[0])
        zp = z
        for j in range(1, d):
            acc = t.w_add(acc, t.w_scale(zp, low[j]))
            zp = t.w_mul(zp, z)
        return t.w_add(acc, zp)  # + z^d

    def ptilde_deriv(z):
        acc = t.w_from_int(low[1])
        zp = z
        for j in range(2, d):
            acc = t.w_add(acc, t.w_scale(zp, j * low[j]))
            zp = t.w_mul(zp, z)
        return t.w_add(acc, t.w_scale(zp, d))  # + d z^{d-1}

    z = t.w_pow((0, 1) + (0,) * (d - 2), t.p)
    k = 1
    while k < t.M:
        z = t.w_sub(z, t.w_mul(ptilde(z), reference_w_inv(t, ptilde_deriv(z))))
        k *= 2
    assert t.w_vp(ptilde(z)) is None
    pows = [t.w_one()]
    for _ in range(d - 1):
        pows.append(t.w_mul(pows[-1], z))
    return pows


@pytest.mark.parametrize("p,d,e,prec", TOWERS)
def test_lifts_match_reference(p, d, e, prec):
    t = Tower(p, d, e, prec)
    assert frob_t_image(t) == reference_frob_t_image(t)
    divisors = [m for m in range(1, 25) if (t.q - 1) % m == 0]
    for m in divisors:
        assert t.zeta(m) == reference_zeta(t, m)
    with pytest.raises(InternalError):
        t.zeta(t.q)                              # q does not divide q - 1
    checked = 0
    for n in (1, 2, 3, 4, 6, 12):
        for u in (1, -1, 2, -2, 3, 5, -6, 50, 1 + p ** 3):
            if t.fq.canonical_nth_root(t.fq.from_int(u), n) is None:
                with pytest.raises(InternalError):
                    t.unit_nth_root(u, n)
                continue
            assert t.unit_nth_root(u, n) == reference_unit_nth_root(t, u, n)
            checked += 1
    assert checked >= 10


# --- the per-(p, d, M) lift store ---

STORE_ORDERS = {"ascending": (8, 16, 40), "descending": (40, 16, 8),
                "interleaved": (16, 8, 40)}


@functools.cache
def reference_lifts(p, d, e, M):
    """Reference frob_t_image, zeta(m) for m <= 24 and unit radicals at M digits."""
    t = Tower(p, d, e, e * M)
    zetas = {m: reference_zeta(t, m) for m in range(1, 25) if (t.q - 1) % m == 0}
    radicals = {(u, n): reference_unit_nth_root(t, u, n)
                for n in (2, 3, 12) for u in (1, -1, 2, 5, 1 + p ** 3)
                if t.fq.canonical_nth_root(t.fq.from_int(u), n) is not None}
    return reference_frob_t_image(t), zetas, radicals


def _counting_newton_lifts(monkeypatch):
    """Record (p, d, M, u, n) for each Newton lift taken (``Tower._inverse_root``)."""
    lifted = []
    real_lift = Tower._inverse_root

    def counting(t, u, n, r):
        lifted.append((t.p, t.d, t.M, u, n))
        return real_lift(t, u, n, r)

    monkeypatch.setattr(Tower, "_inverse_root", counting)
    return lifted


@pytest.mark.parametrize("order", sorted(STORE_ORDERS))
def test_lift_store_matches_reference(order, monkeypatch):
    """Towers over shared rings, built in any order of M, get the reference lifts.

    Each M lifts from its own residues, and towers over one ring at one M
    but of different e, such as (7, 1, 1) and (7, 1, 3), share each lift.
    """
    clear_lift_stores()
    lifted = _counting_newton_lifts(monkeypatch)
    for M in STORE_ORDERS[order]:
        for p, d, e, _ in TOWERS:
            t = Tower(p, d, e, e * M)
            assert t.M == M
            frob_pows, zetas, radicals = reference_lifts(p, d, e, M)
            assert frob_t_image(t) == frob_pows
            for m, z in zetas.items():
                assert t.zeta(m) == z
            for (u, n), y in radicals.items():
                assert t.unit_nth_root(u, n) == y
    monkeypatch.undo()
    stores = {(p, d, M) for p, d, _, _ in TOWERS for M in STORE_ORDERS[order]}
    assert _lifts.cache_info().currsize == len(stores) < len(TOWERS) * 3
    assert len(lifted) == sum(len(_lifts(*store)) for store in stores)   # each once
    for p, d, M in stores:
        zetas, radicals = {}, {}
        for p2, d2, e, _ in TOWERS:
            if (p2, d2) == (p, d):
                zetas.update(reference_lifts(p, d, e, M)[1])
                radicals.update(reference_lifts(p, d, e, M)[2])
        assert _lifts(p, d, M) == zetas | radicals
        assert {(u, n) for q, c, N, u, n in lifted if (q, c, N) == (p, d, M)} == \
            {(1, m) for m in zetas} | set(radicals)


@pytest.mark.parametrize("p,d,e,prec", TOWERS)
def test_every_lift_is_checked_before_it_is_kept(p, d, e, prec, monkeypatch):
    """A Newton lift from a residue start that is no root fails its
    convergence check, and nothing is kept under its key.

    The unit radicals start from omega times the canonical residue root,
    which is no square root as omega^2 != 1, and zeta_m from 0.
    """
    clear_lift_stores()
    t = Tower(p, d, e, prec)
    real_root = FqField.canonical_nth_root
    radicals = [u for u in (2, 3, 5, -1) if real_root(t.fq, t.fq.from_int(u), 2) is not None]
    zetas = [m for m in range(2, 25) if (t.q - 1) % m == 0]
    assert radicals and zetas
    monkeypatch.setattr(FqField, "canonical_nth_root",
                        lambda fq, a, n: fq.mul(real_root(fq, a, n), fq.omega))
    for u in radicals:
        with pytest.raises(InternalError, match="failed to converge"):
            t.unit_nth_root(u, 2)
    monkeypatch.setattr(t.fq, "omega", t.fq.zero)
    for m in zetas:
        with pytest.raises(InternalError, match="failed to converge"):
            t.zeta(m)
    monkeypatch.undo()
    assert _lifts(p, d, t.M) == {}
    for u in radicals:
        assert t.unit_nth_root(u, 2) == reference_unit_nth_root(t, u, 2)
    for m in zetas:
        assert t.zeta(m) == reference_zeta(t, m)
    clear_lift_stores()


def _root_digits(rs):
    return [(x.vL, x.unit, x.rel) for x in rs.roots]


def _counting_residue_roots(monkeypatch, tag=lambda: None):
    """Record tag() for each residue root taken (``FqField.canonical_nth_root``)."""
    residue_roots = []
    real_root = FqField.canonical_nth_root

    def counting(fq, a, n):
        residue_roots.append(tag())
        return real_root(fq, a, n)

    monkeypatch.setattr(FqField, "canonical_nth_root", counting)
    return residue_roots


def test_curves_sharing_a_radical_at_one_M_take_one_residue_root(monkeypatch):
    """Two curves over F_7 at M = 8 digits, on towers of ramification 2 and
    6, share (u, n) = (2, 2) and take the residue root of 2 once between
    them.  A third at 21 digits lifts from its own residue, and gets the
    roots of a lift from a cleared store."""
    clear_lift_stores()
    lifted = _counting_newton_lifts(monkeypatch)
    residue_roots = _counting_residue_roots(monkeypatch)
    first = analyse(parse_expr("(x^2-2*p)*(x-1)*(x-3)*(x-4)", 7))
    second = analyse(parse_expr("(x^2-2*p)*(x^3-p)*(x-3)", 7))
    text = f"((x-1)^2-2*p^3)*(x-2)*(x-{2 + 7**20})*(x-5)"      # sized to 21 digits
    third = analyse(parse_expr(text, 7))
    monkeypatch.undo()
    towers = [A.tower for A in (first, second, third)]
    assert [(t.d, t.e, t.M) for t in towers] == [(1, 2, 8), (1, 6, 8), (1, 2, 21)]
    assert towers[0]._kept is towers[1]._kept is not towers[2]._kept
    assert [x for x in lifted if x[3:] == (2, 2)] == [(7, 1, 8, 2, 2), (7, 1, 21, 2, 2)]
    assert len(residue_roots) == 3              # sqrt(2) at 8 and 21 digits, 1^(1/3) at 8
    clear_lift_stores()
    assert _root_digits(third.rs) == _root_digits(analyse(parse_expr(text, 7)).rs)


def test_curves_on_one_tower_share_it_and_take_each_lift_once(monkeypatch):
    """Two curves over the same (p, d, e, prec) get the same tower, which
    keeps zeta_2 and sqrt(2) from the first curve: each is lifted, and
    checked, once.  Clearing the stores drops the tower with the lifts."""
    clear_lift_stores()
    lifted = _counting_newton_lifts(monkeypatch)
    residue_roots = _counting_residue_roots(monkeypatch)
    text = "(x^2-2*p)*(x-1)*(x-3)*(x-4)"
    first = analyse(parse_expr(text, 7))
    second = analyse(parse_expr("(x^2-2*p)*(x-2)*(x-3)*(x-5)", 7))
    assert second.tower is first.tower
    lifts = {(7, 1, 8, 1, 2), (7, 1, 8, 2, 2)}                 # zeta_2 and sqrt(2)
    assert Counter(lifted) == dict.fromkeys(lifts, 1)
    assert len(residue_roots) == 1
    clear_lift_stores()
    fresh = analyse(parse_expr(text, 7))
    monkeypatch.undo()
    assert fresh.tower is not first.tower
    assert Counter(lifted) == dict.fromkeys(lifts, 2)
    assert len(residue_roots) == 2
    assert _root_digits(fresh.rs) == _root_digits(first.rs)
    assert (fresh.rs.tau_perm, fresh.rs.frob_perm) == (first.rs.tau_perm, first.rs.frob_perm)


@pytest.mark.parametrize("text,p", [EX1] + NON_STABLE)
def test_recheck_equals_a_fresh_doubled_analysis(text, p, monkeypatch):
    """The recheck, at another M, lifts each radical of the first pass from
    its own residue, and its roots and permutations are those of a lift
    from cleared stores."""
    clear_lift_stores()
    expr = parse_expr(text, p)
    passes = []

    def recording(*args, **kwargs):
        passes.append(analyse(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(decision_mod, "analyse", recording)
    residue_roots = _counting_residue_roots(monkeypatch, lambda: len(passes))
    decide_with_doubled_recheck(expr)
    monkeypatch.undo()
    first, recheck = passes
    assert recheck.tower.M > first.tower.M
    counts = Counter(residue_roots)
    assert set(counts) == {0, 1} and counts[0] == counts[1]
    d = first.tower.d
    radicals = [{key for key in _lifts(p, d, A.tower.M) if isinstance(key, tuple) and
                 len(key) == 2} for A in passes]                # (u, n), not shifts
    assert radicals[0] == radicals[1] and len(radicals[0]) == counts[0]
    clear_lift_stores()
    fresh = analyse(expr, prec=2 * first.tower.prec)
    assert _root_digits(recheck.rs) == _root_digits(fresh.rs)
    assert recheck.rs.tau_perm == fresh.rs.tau_perm
    assert recheck.rs.frob_perm == fresh.rs.frob_perm
