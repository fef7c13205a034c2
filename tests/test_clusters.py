import itertools
from fractions import Fraction

import pytest

from conftest import (EX1, EX2, EX3, as_fractions, flip_canonical_sqrt, word_compose,
                      word_epsilon, word_image)
from clustersol.clusters import ClusterAnalysis, analyse
from clustersol.corpus import generate_corpus
from clustersol.curves import parse_expr
from clustersol.decision import theorem_decide
from clustersol.errors import InternalError
from clustersol.tame import FROB, TAU, GaloisWord
from test_cluster_trie import reference_nu, reference_valuation_matrix
from test_epsilon_reference import NON_STABLE


@pytest.fixture(scope="module")
def ex1():
    return analyse(parse_expr(EX1[0], EX1[1]))


@pytest.fixture(scope="module")
def ex2():
    return analyse(parse_expr(EX2, 11))


@pytest.fixture(scope="module")
def ex3():
    return analyse(parse_expr(EX3[0], EX3[1]))


# --- picture shapes (golden) ---

def test_picture_example1(ex1):
    top = ex1.picture.top
    assert Fraction(top.level, ex1.tower.e) == Fraction(2, 3)
    assert sorted(c.size for c in top.children) == [1, 1, 1, 4]
    big = max(top.children, key=lambda c: c.size)
    assert Fraction(big.level, ex1.tower.e) == Fraction(17, 4)


def test_picture_example2(ex2):
    top = ex2.picture.top
    assert top.level == 0
    assert [c.size for c in top.children] == [2, 2, 2]
    assert all(c.level == ex2.tower.e for c in top.children)        # depth 1


def test_picture_example3(ex3):
    top = ex3.picture.top
    assert top.level == 0
    assert [c.size for c in top.children] == [3, 3]
    assert all(Fraction(c.level, ex3.tower.e) == Fraction(2, 3) for c in top.children)
    assert ex3.picture.serialize() == "{d=0 {d=2/3 r1 r2 r3} {d=2/3 r4 r5 r6}}"


def test_laminar_and_ultrametric_invariants():
    for p, text in generate_corpus(7, 25, [7, 11, 13]):
        A = analyse(parse_expr(text, p), prec=None)
        mat = reference_valuation_matrix(A.rs)
        nodes = A.picture.nodes
        for a, b in itertools.combinations(nodes, 2):
            ra, rb = set(a.roots), set(b.roots)
            assert ra <= rb or rb <= ra or not (ra & rb)
        for n in A.picture.proper():
            vals = [mat[i][j] for i in n.roots for j in n.roots if i < j]
            assert min(vals) == Fraction(n.level, A.tower.e)
            for c in n.children:
                if c.is_proper:
                    assert c.level > n.level


# --- invariants (golden + derived) ---

def test_nu_values(ex2, ex3):
    top3 = ex3.picture.top
    s1 = top3.children[0]
    assert as_fractions(ex3, s1).nu == 3                # 1 + 3*(2/3) + 3*0
    assert as_fractions(ex3, top3).nu == 1
    assert as_fractions(ex2, ex2.picture.top).nu == 1


def test_nu_center_independence(ex1, ex2, ex3):
    for A in (ex1, ex2, ex3):
        mat = reference_valuation_matrix(A.rs)
        for node in A.picture.proper():
            values = {reference_nu(A.expr, mat, node, z, A.tower.e) for z in node.roots}
            assert values == {as_fractions(A, node).nu}


def test_lambda_values(ex1, ex3):
    assert as_fractions(ex1, ex1.picture.top).lam == 1  # 14/6 - (2/3)*2
    assert as_fractions(ex3, ex3.picture.top).lam == Fraction(1, 2)


def test_vkc_values(ex1):
    top = ex1.picture.top
    big = next(c for c in top.children if c.size == 4)
    assert as_fractions(ex1, top).vKc == 0              # 14/3 - 7 * (2/3)
    assert as_fractions(ex1, big).nu == 19              # 4 * 17/4 + 3 * 2/3
    assert as_fractions(ex1, big).vKc == 2 and big.e == 4


def test_e_values(ex1, ex2, ex3):
    assert ex2.picture.top.e == 2
    for c in ex3.picture.top.children:
        assert c.e == 6
    assert ex1.picture.top.e == 3


def test_e_minimality():
    for p, text in generate_corpus(11, 20, [7, 11]):
        A = analyse(parse_expr(text, p))
        for node in A.picture.proper():
            q = as_fractions(A, node)
            for div in range(1, node.e):
                assert not ((div * q.depth).denominator == 1
                            and (div * q.nu / 2).denominator == 1)
            assert (node.e * q.depth).denominator == 1
            assert (node.e * q.nu / 2).denominator == 1


def test_genus_values(ex1, ex2):
    assert ex1.picture.top.genus == 1          # 3 odd children
    top2 = ex2.picture.top
    assert top2.genus == 0                     # uebereven
    for c in top2.children:
        assert c.genus == 0                    # twins


def test_vKc_values(ex2, ex3):
    t1 = ex2.picture.top.children[0]
    assert as_fractions(ex2, t1).vKc == 1               # nu=3, |s|d=2
    s1 = ex3.picture.top.children[0]
    assert as_fractions(ex3, s1).vKc == 1               # 3 - 3*(2/3)


def test_classification_flags(ex2, ex3):
    top2 = ex2.picture.top
    assert top2.principal and top2.ubereven
    top3 = ex3.picture.top
    assert not top3.principal                           # even top, two children
    for c in ex2.picture.top.children:
        assert c.twin


def test_cotwin_flag():
    A = analyse(parse_expr("(x-1)*(x^4-p)", 13))
    top = A.picture.top
    assert top.cotwin and not top.principal


# --- galois data ---

def test_cluster_galois_example3(ex3):
    for c in ex3.picture.top.children:
        assert c.fixed_inertia and c.fixed_frob
        assert c.stable_children == ()                # singletons tau-cycled


def test_cluster_galois_example2(ex2):
    twins = ex2.picture.top.children
    assert twins[0].fixed_galois
    assert not twins[1].fixed_frob             # zeta twins swapped
    assert twins[1].orbit == twins[2].orbit
    assert twins[0].orbit != twins[1].orbit


def test_images_preserve_size_and_depth():
    for p, text in generate_corpus(3, 15, [7, 11]):
        A = analyse(parse_expr(text, p))
        for node in A.picture.proper():
            for w in (TAU, FROB, GaloisWord(1, 1)):
                img = word_image(A, node, w)
                assert img.size == node.size and img.level == node.level


def test_image_takes_only_the_generators(ex2):
    top = ex2.picture.top
    assert ex2.image(top, GaloisWord(1, 0)) is top
    for w in (GaloisWord(0, 0), GaloisWord(1, 1), GaloisWord(2, 0)):
        with pytest.raises(KeyError):
            ex2.image(top, w)


def test_a_permutation_that_splits_a_twin_is_refused():
    """tau_perm corrupted so that a twin's image is no cluster.

    The picture is {R {s1 {t1 r1 r2} {t2 r3 r4}} r5 r6 r7 r8}.  Sending r2
    to r5 leaves t1's images with two parents.  Sending t1 onto {r5, r6}
    and t2 onto {r7, r8} gives each twin's images the one parent R, which
    is bigger than a twin.
    """
    A = analyse(parse_expr("(x)*(x-49)*(x-7)*(x-56)*(x-1)*(x-2)*(x-3)*(x-4)", 7))
    assert A.picture.serialize() == "{d=0 {d=1 {d=2 r1 r2} {d=2 r3 r4}} r5 r6 r7 r8}"
    for swap in ({1: 4, 4: 1}, {0: 4, 1: 5, 2: 6, 3: 7, 4: 0, 5: 1, 6: 2, 7: 3}):
        A.rs.tau_perm = [swap.get(r, r) for r in range(A.rs.size)]
        with pytest.raises(InternalError, match="Galois image of a cluster is not a cluster"):
            ClusterAnalysis(A.expr, A.rs, A.picture)


def test_stable_children_trivial_action():
    A = analyse(parse_expr("(x-1)*(x-2)*(x-3)*(x-4)*(x-5)", 7))
    top = A.picture.top
    assert set(top.stable_children) == set(top.children)


# --- epsilon characters ---

def test_epsilon_example2(ex2):
    assert ex2.picture.top.eps_tau == -1
    t1 = ex2.picture.top.children[0]
    assert t1.eps_tau == -1


def test_epsilon_identity_is_one(ex2):
    for node in ex2.picture.proper():
        if node.is_even or node.cotwin:
            assert word_epsilon(ex2, node, GaloisWord(0, 0)) == 1


def test_epsilon_zero_for_odd_non_cotwin(ex1):
    top = ex1.picture.top                               # size 7, odd
    assert top.eps_tau == 0
    assert ex1.epsilon(top, TAU) == 0


def test_epsilon_pm_one_and_square():
    for p, text in generate_corpus(5, 20, [7, 11, 13]):
        A = analyse(parse_expr(text, p))
        for node in A.picture.proper():
            if not (node.is_even or node.cotwin):
                continue
            for w in (TAU, FROB, GaloisWord(1, 1)):
                val = word_epsilon(A, node, w)
                assert val in (1, -1)


def test_epsilon_multiplicative_on_stabilizer():
    for p, text in generate_corpus(13, 12, [7, 11]):
        A = analyse(parse_expr(text, p))
        words = [GaloisWord(a, b) for a in range(2) for b in range(2)]
        for node in A.picture.proper():
            if not (node.is_even or node.cotwin):
                continue
            star = A.star(node)
            stab = [w for w in words if word_image(A, star, w) is star]
            for w1 in stab:
                for w2 in stab:
                    w12 = word_compose(A.tower, w1, w2)
                    if word_image(A, star, w12) is star:
                        assert (word_epsilon(A, node, w12)
                                == word_epsilon(A, node, w1) * word_epsilon(A, node, w2))


def test_epsilon_tau_parity_matches_radicand_valuation():
    # for a tau-fixed star, eps(tau) = (-1)^(v_L(radicand)/e)
    for p, text in generate_corpus(21, 15, [7, 13]):
        A = analyse(parse_expr(text, p))
        for node in A.picture.proper():
            if not (node.is_even or node.cotwin):
                continue
            star = A.star(node)
            if A.image(star, TAU) is not star:
                continue
            w = star.vKc_e
            assert w % A.tower.e == 0
            assert A.epsilon(node, TAU) == (-1) ** (w // A.tower.e)


def test_epsilon_invariant_under_global_sign_flip(monkeypatch):
    # each NON_STABLE curve takes 2-4 square roots, so the flip reaches it;
    # the last two fix every star and take none
    for text, p in NON_STABLE + [(EX3[0], 7), ("(x-1)*(x^4-p)", 7)]:
        expr = parse_expr(text, p)
        yes1, rep1 = theorem_decide(analyse(expr))
        with monkeypatch.context() as m:
            sqrts = flip_canonical_sqrt(m)
            yes2, rep2 = theorem_decide(analyse(expr))
        assert bool(sqrts) == ((text, p) in NON_STABLE), (text, p)
        assert yes1 == yes2
        assert {c: r.satisfied for c, r in rep1.items()} == \
               {c: r.satisfied for c, r in rep2.items()}


def test_star_modes():
    expr = parse_expr(EX2, 11)
    direct = analyse(expr)
    twin = direct.picture.top.children[0]
    # direct mode: star is the twin itself, not the uebereven parent R
    assert direct.star(twin) is twin
    # cotwin star is the 2g-child
    A = analyse(parse_expr("(x-1)*(x^4-p)", 13))
    top = A.picture.top
    assert A.star(top).size == 4
