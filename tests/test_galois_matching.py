"""The Galois permutations from the roots' tags against the matcher.

The reference applies tau and frob to every root (``conftest.tau`` and
``conftest.frob``), subtracts each image from every root at full
precision and keeps the roots whose difference has valuation above
max_pair + 1, exactly as the permutations were first computed.
Production reads them from the (factor, branch) tags and moves no root
(``curves.galois_perms``).  ``curves.digit``, which the digit trie
reads, is checked here too, against the reference ``conftest.match_key``.
"""

import random

import pytest

from conftest import EX1, EX2, EX3, frob, match_key, pi_shift, reference_precision, tau
from clustersol.clusters import analyse
from clustersol.corpus import generate_corpus
from clustersol.curves import (digit, extract_roots, galois_perms, parse_expr,
                               required_tower)
from clustersol.errors import NotGaloisClosed, PrecisionExhausted
from clustersol.tame import Elt, Tower
from test_cluster_trie import reference_valuation_matrix
from test_epsilon_reference import NON_STABLE
from test_tame_field import TOWERS, rand_elt


class AmbiguousMatch(Exception):
    """A Galois image that the reference matches to no root or to two."""


def reference_galois_perms(rs):
    """(tau_perm, frob_perm) by n^2 subtractions at full precision."""
    t = rs.tower
    n = rs.size
    mat = reference_valuation_matrix(rs)
    max_pair = max(int(mat[i][j] * t.e)
                   for i in range(n) for j in range(n) if i != j) if n > 1 else 0

    def match(img):
        hits = []
        for j, r in enumerate(rs.roots):
            diff = img - r
            if diff.is_zero or diff.vL > max_pair + 1:
                hits.append(j)
        if len(hits) != 1:
            raise AmbiguousMatch(
                f"Galois image matches {len(hits)} roots; raise the precision")
        return hits[0]

    return ([match(tau(r)) for r in rs.roots], [match(frob(r)) for r in rs.roots])


CURVES = NON_STABLE + [EX1, EX3, (EX2, 7)]
CURVES += [(text, p) for p, text in generate_corpus(77, 30, [7, 11, 13, 17])]
CURVES += [(text, p) for p, text in generate_corpus(78, 4, [101, 103])]


def _root_set(text, p, scale=1):
    expr = parse_expr(text, p)
    d, e = required_tower(expr)
    return extract_roots(expr, Tower(p, d, e, scale * reference_precision(expr, e)))


@pytest.mark.parametrize("scale", [1, 2])
def test_galois_perms_match_reference(scale):
    for text, p in CURVES:
        rs = _root_set(text, p, scale)
        tau_ref, frob_ref = reference_galois_perms(rs)
        galois_perms(rs)
        assert (rs.tau_perm, rs.frob_perm) == (tau_ref, frob_ref), (text, p)


@pytest.mark.parametrize("p,d,e,prec", TOWERS)
def test_match_key_decides_valuation_of_difference(p, d, e, prec):
    # equal keys exactly when v(x - y) >= N, over differences of every depth
    t = Tower(p, d, e, prec)
    rng = random.Random(p * d + e)
    seen = set()
    for _ in range(150):
        x = rand_elt(t, rng, max_val=1)
        y = x + pi_shift(rand_elt(t, rng, max_val=0), rng.randrange(4 * e))
        N = rng.randrange(-e, 6 * e)
        try:
            diff = x - y
        except PrecisionExhausted:
            continue
        agree = diff.is_zero or diff.vL >= N
        assert (match_key(x, N) == match_key(y, N)) == agree
        seen.add(agree)
    assert seen == {True, False}


def test_match_key_reads_only_trusted_digits():
    t = Tower(7, 2, 3, 36)
    x = Elt(t, 2, ((3, 1), (5, 0), (0, 6)), 2)       # trusted below pi^(2 + 3*2)
    assert match_key(x, 8) == (2, (3, 1), (5, 0), (0, 6))
    with pytest.raises(PrecisionExhausted):
        match_key(x, 9)
    assert match_key(x, 2) is None and match_key(t.zero(), 50) is None


def test_digit_refuses_an_untrusted_digit():
    t = Tower(7, 2, 3, 36)
    x = Elt(t, 2, ((3, 1), (5, 0), (0, 6)), 2)       # trusted below pi^(2 + 3*2)
    assert [digit(x, N) for N in range(1, 8)] == [
        (0, 0), (3, 1), (5, 0), (0, 6), (0, 0), (0, 0), (0, 0)]
    with pytest.raises(PrecisionExhausted, match=r"below pi\^9, trusted only below pi\^8"):
        digit(x, 8)
    assert digit(t.zero(), 50) == (0, 0)


@pytest.mark.parametrize("p,d,e,prec", TOWERS)
def test_digit_raises_where_match_key_raises(p, d, e, prec):
    # one digit at pi^N is read exactly where the key below pi^(N+1) is,
    # and elements with equal keys below pi^N split by it as by that key
    t = Tower(p, d, e, prec)
    rng = random.Random(p * d + e + 1)
    for _ in range(100):
        x = rand_elt(t, rng, max_val=1)
        x = Elt(t, x.vL, x.unit, rng.randint(1, t.M)) if not x.is_zero else x
        y = x + pi_shift(rand_elt(t, rng, max_val=0), rng.randrange(4 * e))
        for N in range(-2 * e, 8 * e):
            try:
                key = match_key(x, N + 1)
            except PrecisionExhausted:
                with pytest.raises(PrecisionExhausted):
                    digit(x, N)
                continue
            dx = digit(x, N)                  # read wherever the key is
            if y.abs_prec > N and match_key(y, N) == match_key(x, N):
                assert (match_key(y, N + 1) == key) == (digit(y, N) == dx)


def test_galois_perms_raises_on_untrusted_root():
    # the reference matcher reads digits: EX3 matches at N = 4 (pairs meet
    # at v = 2/3, e = 3), and a unit root with one trusted p-adic digit is
    # known only below pi^3.  The tags read none, so production keeps the
    # permutations of the untouched roots.
    rs = _root_set(*EX3)
    perms = (galois_perms(rs).tau_perm, rs.frob_perm)
    r = rs.roots[3]
    assert r.vL == 0
    rs.roots[3] = Elt(rs.tower, 0, r.unit, 1)
    with pytest.raises(PrecisionExhausted):
        reference_galois_perms(rs)
    assert (galois_perms(rs).tau_perm, rs.frob_perm) == perms


def _perms(A):
    return A.rs.tau_perm, A.rs.frob_perm


@pytest.mark.parametrize("text,p", NON_STABLE + [EX1, EX3, (EX2, 7)] + CURVES[-4:])
def test_tag_perms_are_the_same_at_any_precision_and_on_any_tower(text, p):
    expr = parse_expr(text, p)
    A = analyse(expr)
    assert _perms(analyse(expr, prec=2 * A.tower.prec)) == _perms(A)
    rs = galois_perms(_root_set(text, p))
    assert rs.tower is not A.tower
    assert (rs.tau_perm, rs.frob_perm) == _perms(A) == reference_galois_perms(rs)


def _factor_perm(rs, perm, fi):
    """{j: (fi', j')}: where perm sends the roots of factor fi, by tag."""
    return {j: rs.tags[perm[i]] for i, (f, j) in enumerate(rs.tags) if f == fi}


def test_frobenius_moves_a_radical_outside_the_base_field():
    # 3 is not a square mod 7, so y = sqrt(3) lies in F_49 and frob(y) =
    # y^7 = -y: s = 1, and frob swaps the branches; tau does too (m = 1)
    rs = galois_perms(_root_set("(x^2-3*p)*(x-1)*(x-2)*(x-4)", 7))
    assert rs.tower.d == 2
    assert _factor_perm(rs, rs.frob_perm, 0) == {0: (0, 1), 1: (0, 0)}
    assert _factor_perm(rs, rs.tau_perm, 0) == {0: (0, 1), 1: (0, 0)}
    assert (rs.tau_perm, rs.frob_perm) == reference_galois_perms(rs)
    # 2 is not a cube mod 7: frob(y) = zeta_3^s y with s != 0
    rs = galois_perms(_root_set("(x^3-2*p)*(x-1)*(x-3)", 7))
    frob_branches = _factor_perm(rs, rs.frob_perm, 0)
    assert all(f == 0 for f, _ in frob_branches.values())
    assert frob_branches != {j: (0, 7 * j % 3) for j in range(3)}
    assert (rs.tau_perm, rs.frob_perm) == reference_galois_perms(rs)


@pytest.mark.parametrize("n", [3, 4])
def test_frobenius_swaps_conjugate_zeta3_centres(n):
    # p = 17 = 2 mod 3: frob sends zeta(3) to zeta(3)^2, so the two
    # factors' roots trade places, branch by branch
    text = f"((x-zeta(3))^{n}-p)*((x-zeta(3)^2)^{n}-p)"
    rs = galois_perms(_root_set(text, 17))
    assert [f for f, _ in _factor_perm(rs, rs.frob_perm, 0).values()] == [1] * n
    assert [f for f, _ in _factor_perm(rs, rs.frob_perm, 1).values()] == [0] * n
    assert [f for f, _ in _factor_perm(rs, rs.tau_perm, 0).values()] == [0] * n
    assert (rs.tau_perm, rs.frob_perm) == reference_galois_perms(rs)


def test_a_factor_without_its_conjugate_is_not_galois_closed():
    text = "(x-zeta(3))*(x-1)*(x-2)*(x-3)*(x-4)"
    rs = _root_set(text, 17)
    with pytest.raises(NotGaloisClosed):
        galois_perms(rs)
    with pytest.raises(NotGaloisClosed):
        analyse(parse_expr(text, 17))
