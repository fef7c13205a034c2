"""The digit-trie cluster picture against the pairwise-subtraction picture.

The references subtract every pair of roots at full precision into a
matrix of valuations and agglomerate the picture from it, exactly as the
picture was first computed.  Production reads the same valuations from
the roots' pi-adic digits (``curves.digit_trie``).
"""

from fractions import Fraction

import pytest

import clustersol.curves as curves
from conftest import EX1, EX2, EX3
from clustersol.clusters import (ClusterAnalysis, ClusterNode, ClusterPicture,
                                 build_picture, default_precision)
from clustersol.corpus import generate_corpus
from clustersol.curves import (Cyclo, extract_roots, galois_perms, parse_expr,
                               required_tower)
from clustersol.errors import PrecisionExhausted, RootCollision
from clustersol.tame import Elt, Tower
from test_epsilon_reference import NON_STABLE


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
        return ClusterNode(indices, depth, children)

    return ClusterPicture(make(list(range(rs.size))))


def reference_nu(expr, mat, node, z):
    """c_pow + sum over all roots r of min(d, v(z - r)), centred at root z."""
    total = Fraction(expr.c_pow)
    for r in range(len(mat)):
        total += node.depth if r == z else min(node.depth, mat[z][r])
    return total


CURVES = NON_STABLE + [EX1, EX3, (EX2, 7)]
CURVES += [(text, p) for p, text in generate_corpus(79, 34, [7, 11, 13, 17])]
CURVES += [(text, p) for p, text in generate_corpus(80, 6, [101, 103])]


def _root_set(text, p, scale=1):
    expr = parse_expr(text, p)
    d, e = required_tower(expr)
    return expr, extract_roots(expr, Tower(p, d, e, scale * default_precision(expr, e)))


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
        for node in picture.proper():
            assert A.inv[node].nu == reference_nu(expr, mat, node, node.roots[0]), (text, p)


def test_three_coinciding_roots_collide():
    expr = parse_expr("(x-1)*(x-2)*(x-1)*(x-3)*(x-1)", 7)
    with pytest.raises(RootCollision, match=r"roots \(0, 0\) and \(2, 0\) coincide"):
        extract_roots(expr, Tower(7, 1, 1, 16))


def test_under_trusted_root_raises_from_extract_roots(monkeypatch):
    # the roots 1 and 8 meet at v = 1; the root 1 known only below pi^1
    # cannot show it, so reading its digit at pi^1 must raise
    expr = parse_expr("(x-1)*(x-8)*(x-2)*(x-3)*(x-4)", 7)
    rs = extract_roots(expr, Tower(7, 1, 1, 16))
    assert rs.trie == (0, [(1, [0, 1]), 2, 3, 4])
    embed = curves.embed_cyclo

    def coarse_one(tower, c):
        x = embed(tower, c)
        return Elt(tower, x.vL, x.unit, 1) if c == Cyclo.integer(1) else x

    monkeypatch.setattr(curves, "embed_cyclo", coarse_one)
    with pytest.raises(PrecisionExhausted):
        extract_roots(expr, Tower(7, 1, 1, 16))
