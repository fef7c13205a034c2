"""Galois data, radicands and centroids read off the cluster tree, against references.

Production acts on nodes by the maps of tau and frob, built once from the
root permutations, reads each radicand from its parent's and the
children's digits at the parent's split, and the value of f at a
cluster's centroid from the digits of its own split.  The references in ``conftest`` enumerate the
permutation group on sets of roots, subtract roots at full precision and
sum them.
"""

import pytest

from conftest import (EX1, EX2, EX3, all_words, reference_center_value_is_square,
                      reference_galois, reference_image, reference_precision,
                      reference_radicand, word_image)
from clustersol.clusters import analyse
from clustersol.corpus import generate_corpus
from clustersol.curves import digit, parse_expr
from clustersol.decision import solubility_decide
from test_epsilon_reference import NON_STABLE

# exact zero roots, and children whose roots all have vL above the level
# of the parent's split, so that their digit there is zero
ZERO_DIGITS = [("(x)*(x^2-p^3)*(x-1)*(x-2)*(x-3)", 7),
               ("(x)*(x-1)*(x-2)*(x-3)*(x-4)", 11),
               ("2*(x^1+2*p^3)*(x^4-p^7)*(x^1-2*p^3)", 13)]
CURVES = NON_STABLE + ZERO_DIGITS + [EX1, EX3, (EX2, 7), (EX2, 13)]
CURVES += [(t, p) for p, t in generate_corpus(31, 60, [7, 11, 13, 17, 19, 23])]
CURVES += [(t, p) for p, t in generate_corpus(32, 12, [101, 103], genus_range=(3, 4))]
CURVES += [(t, p) for p, t in generate_corpus(33, 6, [1009], genus_range=(3, 4))]

# centroids: equal to the root 0 and to the root p
CENTROIDS = [("(x)*(x^2-p)*(x-1)*(x-2)", 7), ("(x-7)*((x-7)^2-p)*(x-1)*(x-2)*(x-3)", 7)]
# a cluster of p roots at a non-integral depth: its mean leaves the cluster's disc
P_DIVIDES_SIZE = [("(x)*(x^2-p^3)*(x^4-p^3)*(x-1)", 7), ("(x)*(x^4-p^3)*(x-1)*(x-2)", 5),
                  ("(x)*(x^2-p)*(x-1)*(x-2)", 3), ("(x-1)*((x-1)^2-p^3)*(x^2-p)*(x-2)", 3)]
# the seed-42 small_p benchmark corpus
SMALL_P_42 = [(t, p) for p, t in generate_corpus(42, 640, (7, 11, 13, 17),
                                                 genus_range=(2, 4))]
SPLIT_CORPUS = CURVES + CENTROIDS + P_DIVIDES_SIZE + SMALL_P_42


@pytest.fixture(scope="module")
def analyses():
    return [analyse(parse_expr(text, p)) for text, p in CURVES]


def test_the_corpus_reaches_every_case(analyses):
    assert sum("zeta" in text for text, _ in CURVES) >= 20
    assert {101, 103, 1009} <= {A.expr.p for A in analyses}
    assert any(r.is_zero for A in analyses for r in A.rs.roots)
    assert any(all(not A.rs.roots[i].is_zero and A.rs.roots[i].vL > n.level
                   for i in c.roots)
               for A in analyses for n in A.picture.proper() for c in n.children)
    nodes = [node for A in analyses for node in A.picture.proper()]
    assert any(not node.fixed_frob for node in nodes)
    assert any(not node.fixed_inertia for node in nodes)
    assert any(0 < len(node.stable_children) < len(node.children) for node in nodes)


def test_galois_data_matches_the_group_reference(analyses):
    for A in analyses:
        for node, ref in reference_galois(A).items():
            got = (node.fixed_inertia, node.fixed_frob, node.stable_children, node.orbit)
            assert got == ref, (A.expr.text, node.name)
            assert node.fixed_galois == (ref[0] and ref[1])
        for node in A.picture.nodes:
            if not node.is_proper:
                (i,) = node.roots
                got = (node.fixed_inertia, node.fixed_frob, node.fixed_galois)
                tau, frob = A.rs.tau_perm[i] == i, A.rs.frob_perm[i] == i
                assert got == (tau, frob, tau and frob), (A.expr.text, node.name)


def test_every_node_is_named_once(analyses):
    for A in analyses:
        names = [node.name for node in A.picture.nodes]
        assert len(set(names)) == len(names) == len(A.picture.nodes)
        for node in A.picture.nodes:
            if node is A.picture.top:
                assert node.name == "R"
            elif node.is_proper:
                assert node.name[0] == ("t" if node.size == 2 else "s"), (A.expr.text, node.name)
                assert node.name[1:].isdigit(), (A.expr.text, node.name)
            else:
                assert node.name == f"r{node.roots[0] + 1}", A.expr.text


def test_images_match_the_root_set_reference(analyses):
    for A in analyses:
        for node in A.picture.nodes:
            for w in all_words(A.tower):
                assert word_image(A, node, w) is reference_image(A, node, w), \
                    (A.expr.text, node, w)


def test_radicands_match_the_subtraction_reference(analyses):
    for A in analyses:
        for node in A.picture.proper():
            assert (node.vKc_e, node.radicand_u) == reference_radicand(A, node), \
                (A.expr.text, node.name)


def test_split_digits_give_the_leading_coefficient_of_a_difference(analyses):
    for A in analyses:
        p = A.tower.p
        for node in A.picture.proper():
            level = node.level
            for c in node.children:
                assert c.digit == digit(A.rs.roots[c.roots[-1]], level)
                for b in node.children:
                    if b is not c:
                        diff = A.rs.roots[c.roots[0]] - A.rs.roots[b.roots[0]]
                        assert diff.vL == level
                        assert diff.residue() == tuple(
                            (x - y) % p for x, y in zip(c.digit, b.digit))


def test_the_centroid_read_matches_the_summing_reference():
    asked = divides = 0
    for text, p in SPLIT_CORPUS:
        expr = parse_expr(text, p)
        A = solubility_decide(expr)[1]
        # the reference sums roots, so it takes the digits the sums need
        full = analyse(expr, prec=reference_precision(expr, A.tower.e))
        for node, ref in zip(A.picture.proper(), full.picture.proper()):
            got = A.center_value_is_square(node)
            assert got == reference_center_value_is_square(full, ref), (text, p, node.name)
            non_integral = node.level % A.tower.e != 0
            asked += node.size == 2 or non_integral
            divides += node.size % p == 0 and non_integral
    assert asked > 1000 and divides >= 4
