"""One analysis pass: the precision certificate, exact zeros and the
sized precision.

``solubility_decide`` runs one pass; every quantity the theorem reads is
checked against the trusted digits, so a pass at doubled precision
(``conftest.decide_with_doubled_recheck``, the reference here) must give
the same reports.  The precision is sized from the factors
(``clusters.default_precision``): each curve below is decided at its
size, and a tower one digit short raises.  Where p is inert in Q(zeta_N)
the sizing takes no norm, and it sizes as the norm does
(``reference_kernels.reference_cyclo_valuation``).
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import clustersol.clusters as clusters_mod
import clustersol.decision as decision_mod
import conftest
from conftest import (EX1, EX2, EX3, decide_with_doubled_recheck, nested_trie, pi_shift,
                      reference_center_value_is_square, reference_extract_roots,
                      reference_leading_term, reference_precision, size_one_digit_short,
                      truncated_sum)
from clustersol.clusters import analyse, build_picture, default_precision
from clustersol.corpus import generate_corpus
from clustersol.curves import expand_to_integer_poly, parse_expr, required_tower
from clustersol.decision import solubility_decide
from clustersol.errors import InternalError, PrecisionExhausted, RootCollision
from clustersol.oracle import is_locally_soluble
from clustersol.numutil import cyclotomic_poly
from clustersol.tame import Elt, Tower
from reference_kernels import reference_cyclo_valuation
from test_compare_kernels import random_curve
from test_epsilon_reference import NON_STABLE

EXACT_ZERO_CENTROID = ("2*(x^1+2*p^3)*(x^4-p^7)*(x^1-2*p^3)", 13)


def close_centres(k):
    """Roots 1 and 1 + 7^k: they agree in k digits, f stays squarefree."""
    return f"(x-1)*(x-{1 + 7**k})*(x-2)*(x-3)*(x-4)"


ZETA3 = Tower(7, 1, 1, 16).zeta(3)[0]      # the towers' zeta_3 at p = 7, 4 mod 7
NEAR = ZETA3 % 7 + 7                        # zeta_3 - NEAR has valuation 1 there
U = (NEAR - ZETA3) // 7 % 7**11             # zeta_3 - NEAR + 7U has valuation 12
# Curves sized above the floor of 8 digits, with the stored digits M each
# needs; close centres are checked on their own
CLOSE = [(close_centres(k), 7, k + 1) for k in (20, 40, 200)]
SIZED = [
    # zeta centres 11^10 zeta_3 apart, at a p inert in Q(zeta_3)
    (f"(x-zeta(3))*(x-zeta(3)^2)*(x-{1 + 11**10}*zeta(3))*(x-{1 + 11**10}*zeta(3)^2)"
     "*(x-1)", 11, 11),
    # an integer centre 7^12 from zeta_3, which 7 splits: its coefficients show no p
    (f"(x-zeta(3))*(x-zeta(3)^2)*(x-{ZETA3 % 7**12})*(x)*(x-3)", 7, 13),
    # ties that cancel: one centre with u = u' mod p, and the root 8 + 6*7
    # of (x-8)^1-6p, whose branch cancels the leading digit of its centre's
    # difference to a centre 7^12 away
    (f"((x-1)^1-2*p)*((x-1)^1-{2 + 7**10}*p)*(x-2)*(x-3)*(x-4)", 7, 12),
    (f"((x-8)^1-6*p)*(x-{50 + 7**12})*(x-2)*(x-3)*(x-4)", 7, 13),
    # zeta_3 - NEAR + 7U: a branch that cancels a zeta centre down to valuation 12
    (f"((x-(zeta(3)-{NEAR}))^1-{U}*p)*((x-(zeta(3)^2-{NEAR}))^1-{U}*p)*(x-1)*(x-2)*(x-3)",
     7, 13),
]
# a tie that cancels beside a zeta centre whose conjugate factor, not in f,
# shares the root 4 = (4 - 14 zeta_3) + 2 zeta_3 * 7; e = 3.  f is closed
# under Frobenius, which fixes zeta_3 at p = 7, but not rational, so the
# oracle cannot expand it
NOT_RATIONAL = [("((x-(4-14*zeta(3)))^3-8*p^3)*((x-1)^1-2*p)*((x-1)^1-282475251*p)", 7, 12)]
# the same tie on the root 7 + 6*7 = 49: its near roots have valuation 2, so
# they are trusted one digit past e*M, and one digit fewer still decides it
LOOSE = [(f"((x-7)^1-6*p)*(x-{49 + 7**12})*(x-1)*(x-2)*(x-3)", 7, 13)]


def _corpus():
    curves = [EX1, (EX2, 11), (EX2, 23), EX3, EXACT_ZERO_CENTROID] + NON_STABLE
    curves += [(t, p) for p, t in generate_corpus(2718, 80, (7, 11, 13, 17))]
    curves += [(t, p) for p, t in generate_corpus(2719, 20, (101, 103),
                                                  genus_range=(3, 4))]
    return curves


@pytest.mark.parametrize("text,p", _corpus())
def test_one_pass_verdict_equals_the_doubled_precision_verdict(text, p):
    expr = parse_expr(text, p)
    one, A = solubility_decide(expr)
    two, A2 = decide_with_doubled_recheck(expr)
    assert (one.status, one.fired, one.reports) == (two.status, two.fired, two.reports)
    assert A.tower.prec == A2.tower.prec


def test_recheck_raises_when_the_doubled_pass_disagrees(monkeypatch):
    real = decision_mod.theorem_decide
    calls = []

    def second_differs(A):
        calls.append(A)
        yes, reports = real(A)
        return (not yes if len(calls) == 2 else yes), reports

    monkeypatch.setattr(decision_mod, "theorem_decide", second_differs)
    expr = parse_expr(*EX1)
    solubility_decide(expr)
    with pytest.raises(InternalError, match="doubled precision"):
        decide_with_doubled_recheck(expr)


# --- exact zeros ---

def _unit_elt(t, vL, seed):
    """A full-precision element at valuation vL with a unit leading column."""
    col = tuple((seed * 7919 + 31 * k) % t.pM for k in range(t.d))
    col = (col[0] - col[0] % t.p + 1,) + col[1:]
    x = t.from_w(col, 0)
    for i in range(1, t.e):
        x = x + pi_shift(t.from_w(col, 0), i)
    return pi_shift(x, vL)


@pytest.mark.parametrize("p,d,e,prec", [(7, 1, 1, 24), (7, 2, 3, 36), (13, 1, 4, 40)])
def test_a_zero_below_the_trusted_digits_raises_and_an_exact_zero_does_not(p, d, e, prec):
    t = Tower(p, d, e, prec)
    for seed, vL in ((1, 0), (2, 5), (3, -4)):
        r = _unit_elt(t, vL, seed)
        assert r.rel == t.M
        assert (r + (-r)).is_zero and (r - r).is_zero
        coarse = Elt(t, r.vL, r.unit, r.rel - 1)    # same digits, one fewer trusted
        for zero in (lambda: coarse - r, lambda: r - coarse, lambda: coarse + (-r)):
            with pytest.raises(PrecisionExhausted, match="zero known only below"):
                zero()


def test_truncated_sum_reads_trusted_digits_only():
    t = Tower(13, 1, 4, 40)
    a, b = _unit_elt(t, 7, 1), _unit_elt(t, 12, 2)
    z, N = truncated_sum(t, [a, b])
    ref = a + b
    assert (z.vL, z.unit, z.rel) == (ref.vL, ref.unit, ref.rel)
    assert N == min(a.abs_prec, b.abs_prec)
    # the four roots of x^4 - p^7 and +-2p^3 sum to 0 in every digit: the
    # sum of 2p^3 and its negative is stored past the trust of the others
    expr = parse_expr(*EXACT_ZERO_CENTROID)
    A = analyse(expr)
    z, N = truncated_sum(A.tower, A.rs.roots)
    assert z.is_zero and N == min(r.abs_prec for r in A.rs.roots)
    # a cancellation below the trust of one term truncates instead of raising,
    # whatever its untrusted digits hold
    noisy = ((a.unit[0][0] + t.p ** 3) % t.pM,) + a.unit[0][1:]
    coarse = Elt(t, a.vL, (noisy,) + a.unit[1:], 2)
    with pytest.raises(PrecisionExhausted, match="cancellation below trusted"):
        coarse - a
    z, N = truncated_sum(t, [coarse, -a])
    assert z.is_zero and N == coarse.abs_prec
    # a cut below the leading digit truncates there
    z, N = truncated_sum(t, [a, b], a.vL)
    assert z.is_zero and N == a.vL
    z, N = truncated_sum(t, [a, b], a.vL + 1)
    assert z.vL == a.vL and N == a.vL + 1


def test_exact_zero_centroid_curve_is_decided_and_agrees_with_the_oracle():
    expr = parse_expr(*EXACT_ZERO_CENTROID)
    v, A = solubility_decide(expr)
    top = A.picture.top
    # the centroid of R is 0 exactly; f(0) = 8 p^13 has valuation 13 != nu_R
    assert Fraction(top.nu_e, A.tower.e) == Fraction(21, 2)
    assert A.center_value_is_square(top) is None
    assert reference_center_value_is_square(A, top) is None
    oracle = is_locally_soluble(expand_to_integer_poly(expr), expr.p)
    assert oracle.soluble is True and v.status == "Soluble"


def test_centroid_factor_without_a_trusted_digit_decides_only_by_its_bound(monkeypatch):
    # roots 0 and +-sqrt(p): the centroid of {0, +-sqrt(p)} is 0, a root
    expr = parse_expr("(x)*(x^2-p)*(x-1)*(x-2)", 7)
    A = analyse(expr)
    node = next(n for n in A.picture.proper() if n.size == 3)
    assert A.center_value_is_square(node) is None    # a child's digit is the mean
    assert reference_center_value_is_square(A, node) is None    # v(f(0)) >= N > nu
    # with the centroid trusted only to its cluster's depth the bound decides nothing
    real = conftest.truncated_sum
    monkeypatch.setattr(conftest, "truncated_sum",
                        lambda t, elts, N=float("inf"): real(t, elts, min(N, 1)))
    with pytest.raises(PrecisionExhausted, match="centroid of cluster"):
        reference_center_value_is_square(A, node)
    assert A.center_value_is_square(node) is None    # the digits read no sum


def test_a_centroid_equal_to_a_nonzero_root_counts_by_its_bound():
    # the centroid of {p, p +- sqrt(p)} is the root p; the roots' sum 3p is
    # trusted half a digit less than p, so z - p has no trusted digit
    expr = parse_expr("(x-7)*((x-7)^2-p)*(x-1)*(x-2)*(x-3)", 7)
    A = analyse(expr)
    node = next(n for n in A.picture.proper() if n.size == 3)
    assert Fraction(node.nu_e, A.tower.e) == Fraction(3, 2)
    assert A.center_value_is_square(node) is None
    assert reference_center_value_is_square(A, node) is None
    v, A = solubility_decide(expr)
    assert A.tower.prec == analyse(expr).tower.prec
    oracle = is_locally_soluble(expand_to_integer_poly(expr), 7)
    assert v.status == "Soluble" and oracle.soluble is True


def test_a_centroid_factor_with_a_trusted_leading_digit_is_not_bounded():
    # z - r has its leading digit at pi^(2M-1), below N = 2M but with less
    # than a p-adic digit of trust after it: that raises, since v(z - r)
    # < N and the bound min(N, trust of r) would overstate it
    A = analyse(parse_expr("(x)*(x^2-p)*(x-1)*(x-2)", 7))
    t = A.tower
    r = next(x for x in A.rs.roots if x.vL == 0)
    z = r + pi_shift(t.from_int(t.p ** (t.M - 1)), 1)
    assert t.e == 2 and z.abs_prec == r.abs_prec == 2 * t.M
    with pytest.raises(PrecisionExhausted, match="no trusted leading digit"):
        reference_leading_term(A, z, [r], 2 * t.M)


# --- the sized precision ---

def _recorded_passes(monkeypatch):
    passes = []
    real = decision_mod.analyse

    def recording(expr, prec=None):
        passes.append(prec)
        return real(expr, prec=prec)

    monkeypatch.setattr(decision_mod, "analyse", recording)
    return passes


@pytest.mark.parametrize("text,p,M", SIZED + LOOSE)
def test_a_crafted_curve_is_decided_in_one_pass_at_its_sized_precision(monkeypatch, text,
                                                                       p, M):
    passes = _recorded_passes(monkeypatch)
    expr = parse_expr(text, p)
    v, A = solubility_decide(expr)
    assert passes == [None]
    assert A.tower.M == M and A.tower.prec == default_precision(expr, A.tower.e)
    oracle = is_locally_soluble(expand_to_integer_poly(expr), p)
    assert v.status == "Soluble" and oracle.soluble is True


@pytest.mark.parametrize("text,p,M", NOT_RATIONAL)
def test_a_curve_over_q_p_is_decided_in_one_pass_at_its_sized_precision(monkeypatch, text,
                                                                        p, M):
    passes = _recorded_passes(monkeypatch)
    v, A = decide_with_doubled_recheck(parse_expr(text, p))
    assert passes == [None, 2 * A.tower.prec] and A.tower.M == M


def test_close_centres_are_decided_at_their_sized_precision():
    for text, p, M in CLOSE:
        expr = parse_expr(text, p)
        v, A = solubility_decide(expr)
        assert A.tower.prec == M
        assert A.picture.serialize() == f"{{d=0 {{d={M - 1} r1 r2}} r3 r4 r5}}"
        oracle = is_locally_soluble(expand_to_integer_poly(expr), 7)
        assert v.status == "Soluble" and oracle.soluble is True


def test_sizing_one_digit_short_raises_on_every_crafted_curve(monkeypatch):
    size_one_digit_short(monkeypatch)
    for text, p, M in CLOSE + SIZED + NOT_RATIONAL:
        with pytest.raises(PrecisionExhausted):
            solubility_decide(parse_expr(text, p))


def test_prec_is_a_floor_on_the_sized_precision():
    expr = parse_expr(close_centres(20), 7)
    assert analyse(expr, prec=40).tower.prec == 40
    assert analyse(expr, prec=1).tower.prec == 21
    # EX3 has e = 3 and is sized at the floor of 8 stored digits
    assert analyse(parse_expr(*EX3), prec=1).tower.prec == 8 * 3


def test_a_repeated_root_is_still_a_collision(monkeypatch):
    expr = parse_expr("(x^3-p^2)*(x^3-p^2)", 7)
    message = r"roots \(0, 0\) and \(1, 0\) coincide: f is not squarefree"
    with pytest.raises(RootCollision, match=message):
        solubility_decide(expr)
    size_one_digit_short(monkeypatch)        # the same at any precision
    with pytest.raises(RootCollision, match=message):
        solubility_decide(expr)


@pytest.mark.parametrize("text", ["((x-7)^1-6*p)*(x-49)*(x-1)*(x-2)*(x-3)",
                                  "(x-15)*((x-1)^1-2*p)*(x-2)*(x-3)*(x-4)"])
def test_a_cancelling_tie_of_equal_roots_is_not_squarefree(text):
    # 7 + 6*7 = 49 and 1 + 2*7 = 15: two factors share a root, which the
    # sizing finds exactly
    with pytest.raises(RootCollision, match="factors 0 and 1 share a root: f is not squarefree"):
        solubility_decide(parse_expr(text, 7))


def test_a_branch_that_cancels_a_zeta_centre_to_zero_is_decided():
    # 7 zeta_3 + 7 * (-zeta_3) = 0 is a root, and f is squarefree.  The centre
    # 7 zeta_3 is trusted below pi^(e(1 + M)), as an integer centre is, so
    # add_branch reads the exact zero
    expr = parse_expr("((x-7*zeta(3))^6-p^6)*(x-1)*(x-2)", 7)
    v, A = solubility_decide(expr)
    assert v.status == "Inapplicable" and v.fired == ["i", "v.a"]
    d, e = required_tower(expr)
    rs = reference_extract_roots(expr, Tower(7, d, e, reference_precision(expr, e)))
    assert A.rs.roots[5].is_zero
    assert nested_trie(A.picture.top) == nested_trie(build_picture(rs, expr).top)


SIZING_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 101, 103, 107, 109, 1009, 1013)


def test_the_sizing_takes_no_norm_where_p_is_inert_and_sizes_as_the_norm_does(monkeypatch):
    # 2,000 seeded curves with zeta_3, zeta_4, zeta_5 and zeta_12 centres, at
    # primes inert and split in each field; a mixed curve has the lcm conductor
    def outcome(expr, e):
        try:
            return default_precision(expr, e)
        except RootCollision:
            return RootCollision

    reads, order = Counter(), clusters_mod.mult_order

    def counted_order(p, N):
        k = order(p, N)
        reads[N, "inert" if k == len(cyclotomic_poly(N)) - 1 else "not inert"] += 1
        return k

    monkeypatch.setattr(clusters_mod, "mult_order", counted_order)
    rng, primes = random.Random(31), set()
    for _ in range(2000):
        p, text = random_curve(rng, SIZING_PRIMES, (3, 4, 5, 12))
        expr = parse_expr(text, p)
        _, e = required_tower(expr)
        got = outcome(expr, e)
        with monkeypatch.context() as m:
            m.setattr(clusters_mod, "_cyclo_valuation", reference_cyclo_valuation)
            assert outcome(expr, e) == got, (p, text)
        primes.add(p)
    assert primes == set(SIZING_PRIMES)
    for N in (3, 4, 5):
        assert reads[N, "inert"] > 400 and reads[N, "not inert"] > 400, reads
    assert reads[12, "not inert"] > 100 and not reads[12, "inert"], reads
