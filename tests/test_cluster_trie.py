"""The digit-trie cluster picture against the pairwise-subtraction picture.

The references subtract every pair of roots at full precision into a
matrix of valuations and agglomerate the picture from it, exactly as the
picture was first computed.  Production reads the same valuations from
the roots' pi-adic digits, one digit per root and level
(``clusters.build_picture``); a second reference buckets the roots by their
whole ``conftest.match_key`` at each level.
"""

from fractions import Fraction

import pytest

import clustersol.curves as curves
from conftest import EX1, EX2, EX3, match_key, nested_trie, reference_precision
from clustersol.clusters import (ClusterAnalysis, ClusterNode, ClusterPicture,
                                 build_picture, default_precision)
from clustersol.corpus import generate_corpus
from clustersol.curves import (Cyclo, extract_roots, galois_perms, parse_expr,
                               required_tower)
from clustersol.errors import PrecisionExhausted, RootCollision
from clustersol.tame import Elt, Tower
from test_certificate import close_centres
from test_epsilon_reference import NON_STABLE
from test_tree_reads import SPLIT_CORPUS


def reference_valuation_matrix(rs):
    """v(r_i - r_j) for every pair of roots, by subtraction at full precision."""
    n = rs.size
    mat = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            diff = rs.roots[i] - rs.roots[j]
            if diff.is_zero:
                raise RootCollision(
                    f"roots {rs.tags[i]} and {rs.tags[j]} coincide: f is not squarefree")
            mat[i][j] = mat[j][i] = Fraction(diff.vL, rs.tower.e)
    return mat


def reference_build_picture(rs, mat):
    """Ultrametric agglomeration of the root set by the valuation matrix."""
    e = rs.tower.e

    def make(indices):
        if len(indices) == 1:
            return ClusterNode(indices, None, [])
        depth = min(mat[i][j] for i in indices for j in indices if i < j)
        blocks = []
        for i in sorted(indices):
            for b in blocks:
                if mat[i][b[0]] > depth:
                    b.append(i)
                    break
            else:
                blocks.append([i])
        children = [make(b) for b in blocks]
        children.sort(key=lambda c: c.roots[0])
        return ClusterNode(indices, int(depth * e), children)

    return ClusterPicture(make(list(range(rs.size))), e)


def reference_nu(expr, mat, node, z, e):
    """c_pow + sum over all roots r of min(d, v(z - r)), centred at root z."""
    depth = Fraction(node.level, e)
    total = Fraction(expr.c_pow)
    for r in range(len(mat)):
        total += depth if r == z else min(depth, mat[z][r])
    return total


def _key_digit(t, key, N):
    """The digit at pi^N of an element whose ``match_key`` at N + 1 is key."""
    if key is None:
        return t.fq.zero
    k, i = divmod(N - key[0], t.e)
    return tuple([c // t.p ** k % t.p for c in key[1 + i]])


def reference_digit_trie(roots, tags):
    """The picture's tree as first built, as ``conftest.nested_trie`` writes it:
    a block at level N is bucketed by the roots' whole ``match_key`` at N + 1,
    and each child is keyed by the digit at pi^N read off its key."""
    groups = {}
    for i, r in enumerate(roots):
        groups.setdefault((r.vL, r.unit), []).append(i)
    pairs = [g[:2] for g in groups.values() if len(g) > 1]
    if pairs:
        i, j = min(pairs)
        raise PrecisionExhausted(f"roots {tags[i]} and {tags[j]} agree in every stored digit")
    t = roots[0].tower

    def split(block, N):
        if len(block) == 1:
            return block[0]
        while True:
            buckets = {}
            for i in block:
                buckets.setdefault(match_key(roots[i], N + 1), []).append(i)
            if len(buckets) > 1:
                return (N, {_key_digit(t, key, N): split(b, N + 1)
                            for key, b in buckets.items()})
            N += 1

    return split(list(range(len(roots))),
                 min([r.vL for r in roots if not r.is_zero], default=0))


CURVES = NON_STABLE + [EX1, EX3, (EX2, 7)]
CURVES += [(text, p) for p, text in generate_corpus(79, 34, [7, 11, 13, 17])]
CURVES += [(text, p) for p, text in generate_corpus(80, 6, [101, 103])]


def _root_set(text, p, scale=1):
    expr = parse_expr(text, p)
    d, e = required_tower(expr)
    return expr, extract_roots(expr, Tower(p, d, e, scale * reference_precision(expr, e)))


@pytest.mark.parametrize("scale", [1, 2])
def test_picture_and_nu_match_reference(scale):
    assert {101, 103} <= {p for _, p in CURVES}
    for text, p in CURVES:
        expr, rs = _root_set(text, p, scale)
        mat = reference_valuation_matrix(rs)
        picture = build_picture(galois_perms(rs), expr)
        assert picture.serialize() == reference_build_picture(rs, mat).serialize(), \
            (text, p)
        A = ClusterAnalysis(expr, rs, picture)
        e = rs.tower.e
        for node in picture.proper():
            assert Fraction(node.nu_e, e) == \
                reference_nu(expr, mat, node, node.roots[0], e), (text, p)


def test_three_coinciding_roots_collide():
    expr = parse_expr("(x-1)*(x-2)*(x-1)*(x-3)*(x-1)", 7)
    with pytest.raises(RootCollision, match=r"roots \(0, 0\) and \(2, 0\) coincide"):
        extract_roots(expr, Tower(7, 1, 1, 16))


def _trust_the_root_1_below_pi_1(monkeypatch):
    """Embed the centre 1 with one trusted digit from now on."""
    embed = curves.embed_cyclo

    def coarse_one(tower, c):
        x = embed(tower, c)
        return Elt(tower, x.vL, x.unit, 1) if c == Cyclo.integer(1) else x

    monkeypatch.setattr(curves, "embed_cyclo", coarse_one)


def test_under_trusted_root_raises_from_build_picture(monkeypatch):
    # the roots 1 and 8 meet at v = 1; the root 1 known only below pi^1
    # cannot show it, so reading its digit at pi^1 must raise
    expr = parse_expr("(x-1)*(x-8)*(x-2)*(x-3)*(x-4)", 7)
    rs = extract_roots(expr, Tower(7, 1, 1, 16))
    assert nested_trie(build_picture(rs, expr).top) == \
        (0, {(1,): (1, {(0,): 0, (1,): 1}), (2,): 2, (3,): 3, (4,): 4})
    _trust_the_root_1_below_pi_1(monkeypatch)
    rs = extract_roots(expr, Tower(7, 1, 1, 16))
    with pytest.raises(PrecisionExhausted):
        build_picture(rs, expr)


def _ordered(trie):
    """The trie with each child map as its list of (digit, child) items, so order counts."""
    if isinstance(trie, int):
        return trie
    level, split = trie
    return (level, [(dg, _ordered(c)) for dg, c in split.items()])


def _both_tries(expr, tower):
    """The picture's tree, or its error, by one digit and by match_key."""
    out = []
    for build in (lambda rs: nested_trie(build_picture(rs, expr).top),
                  lambda rs: reference_digit_trie(rs.roots, rs.tags)):
        try:
            out.append(_ordered(build(extract_roots(expr, tower))))
        except (PrecisionExhausted, RootCollision) as ex:
            out.append((type(ex).__name__, str(ex)))
    return out


def test_one_digit_trie_equals_the_match_key_trie():
    for text, p in SPLIT_CORPUS:
        expr = parse_expr(text, p)
        d, e = required_tower(expr)
        got, ref = _both_tries(expr, Tower(p, d, e, default_precision(expr, e)))
        assert got == ref, (text, p)


def test_one_digit_trie_raises_where_the_match_key_trie_raises(monkeypatch):
    # roots 20 digits apart agree in every digit of a tower sized to 16
    expr = parse_expr(close_centres(20), 7)
    got, ref = _both_tries(expr, Tower(7, 1, 1, 16))
    assert got == ref and got[0] == "PrecisionExhausted"
    # the root 1, trusted below pi^1 only, cannot show where it meets 8
    expr = parse_expr("(x-1)*(x-8)*(x-2)*(x-3)*(x-4)", 7)
    _trust_the_root_1_below_pi_1(monkeypatch)
    got, ref = _both_tries(expr, Tower(7, 1, 1, 16))
    assert got == ref and got[0] == "PrecisionExhausted"
