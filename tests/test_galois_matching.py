"""Galois matching by truncated keys against the pairwise-subtraction matcher.

The reference subtracts every Galois image from every root at full
precision and keeps the roots whose difference has valuation above
max_pair + 1, exactly as the permutations were first computed.
Production buckets the roots by ``match_key`` and looks each image up.
"""

import random

import pytest

from conftest import EX1, EX2, EX3
from clustersol.clusters import default_precision
from clustersol.corpus import generate_corpus
from clustersol.curves import (extract_roots, galois_perms, match_key, parse_expr,
                               required_tower)
from clustersol.errors import AmbiguousMatch, PrecisionExhausted
from clustersol.tame import Elt, Tower
from test_cluster_trie import reference_valuation_matrix
from test_epsilon_reference import NON_STABLE
from test_tame_field import TOWERS, rand_elt


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

    return ([match(r.tau()) for r in rs.roots], [match(r.frob()) for r in rs.roots])


CURVES = NON_STABLE + [EX1, EX3, (EX2, 7)]
CURVES += [(text, p) for p, text in generate_corpus(77, 30, [7, 11, 13, 17])]
CURVES += [(text, p) for p, text in generate_corpus(78, 4, [101, 103])]


def _root_set(text, p, scale=1):
    expr = parse_expr(text, p)
    d, e = required_tower(expr)
    return extract_roots(expr, Tower(p, d, e, scale * default_precision(expr, e)))


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
        y = x + rand_elt(t, rng, max_val=0).shift(rng.randrange(4 * e))
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


def test_galois_perms_raises_on_untrusted_root():
    # EX3 matches at N = 4 (pairs meet at v = 2/3, e = 3); a unit root with
    # one trusted p-adic digit is known only below pi^3
    rs = _root_set(*EX3)
    r = rs.roots[3]
    assert r.vL == 0
    rs.roots[3] = Elt(rs.tower, 0, r.unit, 1)
    with pytest.raises(PrecisionExhausted):
        galois_perms(rs)
