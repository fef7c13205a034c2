"""Production epsilon against the all-words square-root reference evaluator.

The reference takes two canonical square roots for every word, exactly as
the characters were first evaluated: eps(w) = w(sqrt(u_s)) zeta_2e^(aW) /
sqrt(u_{w(s)}), with zeta_2e the canonical square root of zeta_e
(``conftest.reference_zeta2e``) and w(s) read off the root sets
(``conftest.reference_image``), all in the tests' own symbol arithmetic
(``conftest.SqrtSymbol``).  Production evaluates epsilon on tau and frob
only: in closed form when the generator fixes the star, else by moving the
star's (s, alpha) pair by frob or a closed-form zeta_2e^m and comparing it
with its image's.  It decides triviality by
the cocycle lemma of ``clustersol.clusters``, from the generator values
over the orbit.  Here the value on every word, expanded from the
generator values by the cocycle (``conftest.word_epsilon``), must agree
with the reference, and so must both triviality tests.  The cocycle
identity itself is checked on the reference alone.
"""

import pytest

import clustersol.clusters as clusters_mod
from conftest import (EX1, EX2, EX3, SqrtSymbol, all_words, flip_canonical_sqrt,
                      reference_image, reference_sqrt, reference_zeta2e_power, symbol_inv,
                      symbol_sign, word_compose, word_epsilon, word_image)
from clustersol.clusters import analyse, zeta_2e
from clustersol.corpus import generate_corpus
from clustersol.curves import parse_expr
from clustersol.decision import theorem_decide
from clustersol.errors import InternalError
from clustersol.fq import get_field
from clustersol.numutil import is_prime
from clustersol.tame import FROB, TAU


def reference_epsilon(A, node, word):
    """epsilon_s(tau^a frob^b) from two canonical square roots per word."""
    if not (node.is_even or node.cotwin):
        return 0
    star = A.star(node)
    target = reference_image(A, star, word)
    w1, u1 = star.vKc_e, star.radicand_u
    w2, u2 = target.vKc_e, target.radicand_u
    assert w1 == w2
    fq = A.tower.fq
    sym1 = reference_sqrt(fq, u1)
    sym2 = reference_sqrt(fq, u2)
    sym = sym1.frob_iter(word.b % (2 * A.tower.d))
    sym = sym * reference_zeta2e_power(fq, A.tower.e, (word.a % (2 * A.tower.e)) * w1)
    sym = sym * symbol_inv(sym2)
    sign = symbol_sign(sym)
    assert sign in (1, -1)
    return sign


# curves whose characters are also evaluated on words that move the star:
# vi.e / vi.f top children, Frobenius-swapped zeta(3) twins at p = 2 mod 3,
# and twins {sqrt(p), sqrt(50p)} at p = 7 (50 = 1 mod p^2) moved by tau.
# The last two have a moved star on which epsilon is trivial: the twins
# frob swaps at p = 47 on the whole group, and those tau swaps on inertia.
# With the root 0 added, those twins' radicands lead with pi^3, and as
# (q - 1)/e = 3 is odd, zeta_2e^3 carries sqrt(omega), as does one star's root.
NON_STABLE = [
    ("2*(x^2-3*p^8)*((x-zeta(3))^2+2*p^3)*((x-zeta(3)^2)^2+2*p^3)", 11),
    ("p*((x-zeta(3))^2+2*p)*((x-zeta(3)^2)^2+2*p)*((x-2)^2+2*p^4)", 17),
    (EX2, 11),
    (EX2, 23),
    ("(x^2-p)*(x^2-50*p)*(x-1)", 7),
    ("(x^3-p)*(x^3-50*p)", 7),
    ("(x^4-p)*(x^4-50*p)*(x-1)", 7),
    ("5*(x)*((x-zeta(3))^2+2*p^2)*((x-zeta(3)^2)^2+2*p^2)*(x-1)*(x^4+2*p^5)", 47),
    ("p*(x^2-p)*(x^2-50*p)*(x-1)", 7),
    ("(x)*(x^2-p)*(x^2-50*p)*(x-1)", 7),
]
CURVES = NON_STABLE + [EX1, EX3, (EX2, 7), ("(x-1)*(x^4-p)", 13)]
CURVES += [(text, p) for p, text in generate_corpus(4242, 24, [7, 11, 13, 17])]


def _character_nodes(A):
    return [n for n in A.picture.proper() if n.is_even or n.cotwin]


def _check_against_reference(A, outcomes):
    """Compare every value and both triviality tests; count non-stable words.

    Each triviality outcome on a node whose star the test's generators
    move is added to outcomes as (test, value).
    """
    moved = 0
    for node in _character_nodes(A):
        star = A.star(node)
        ref = {}
        for w in all_words(A.tower):
            ref[w] = reference_epsilon(A, node, w)
            assert word_epsilon(A, node, w) == ref[w], (node.name, w)
            moved += word_image(A, star, w) is not star
        galois = all(v == 1 for v in ref.values())
        inertia = all(v == 1 for w, v in ref.items() if w.b == 0)
        assert node.eps_trivial_galois == galois, node.name
        assert node.eps_trivial_inertia == inertia, node.name
        if not star.fixed_galois:
            outcomes.add(("galois", galois))
        if not star.fixed_inertia:
            outcomes.add(("inertia", inertia))
    return moved


def test_zeta2e_closed_form_matches_the_square_root_reference():
    """zeta_2e^m, m < 2e, against the canonical-root reference.

    Over every field F_q with p <= 103 and d <= 4 and every e <= 24
    dividing q - 1.  With k = (q - 1)/e, odd e forces even k, so six
    parity cases of (e, m, k) can occur, and all of them do.
    """
    cases = set()
    pairs = 0
    for p in filter(is_prime, range(3, 104)):
        for d in range(1, 5):
            fq = get_field(p, d)
            for e in range(1, 25):
                if (fq.q - 1) % e:
                    continue
                for m in range(2 * e):
                    assert SqrtSymbol(fq, *zeta_2e(fq, e, m)) == \
                        reference_zeta2e_power(fq, e, m), (p, d, e, m)
                    cases.add((e % 2, m % 2, (fq.q - 1) // e % 2))
                pairs += 1
    assert pairs == 1022
    assert len(cases) == 6


@pytest.mark.parametrize("flip", [False, True])
def test_epsilon_matches_all_words_reference(flip, monkeypatch):
    sqrts = flip_canonical_sqrt(monkeypatch) if flip else []
    moved, outcomes = {}, set()
    for text, p in CURVES:
        A = analyse(parse_expr(text, p))
        moved[(text, p)] = _check_against_reference(A, outcomes)
    for curve in NON_STABLE:
        assert moved[curve] > 0, curve
    assert outcomes == {(test, value) for test in ("galois", "inertia")
                        for value in (True, False)}
    assert bool(sqrts) == flip, "the flip took no square root"


def test_the_curves_reach_every_moved_star_case(monkeypatch):
    """Each case of epsilon on a moved star is reached by the curves above.

    A moved-star read takes the star's pair, on tau a zeta_2e^m factor,
    then the image's pair.  Wrappers around ``canonical_sqrt_symbol`` and
    ``zeta_2e`` log every call while the curves are analysed, and the log
    is read back one moved-star read at a time.
    """
    log = []
    real_sqrt, real_zeta = clusters_mod.canonical_sqrt_symbol, clusters_mod.zeta_2e

    def logged_sqrt(fq, u):
        pair = real_sqrt(fq, u)
        log.append(("sqrt", pair[1]))
        return pair

    def logged_zeta(fq, e, m):
        pair = real_zeta(fq, e, m)
        log.append(("zeta", e % 2, m, pair[1]))
        return pair

    monkeypatch.setattr(clusters_mod, "canonical_sqrt_symbol", logged_sqrt)
    monkeypatch.setattr(clusters_mod, "zeta_2e", logged_zeta)
    for text, p in CURVES:
        analyse(parse_expr(text, p))
    cases, i = set(), 0
    while i < len(log):
        tau = log[i + 1][0] == "zeta"
        (_, alpha), (_, beta) = log[i], log[i + 1 + tau]
        if tau:
            _, odd_e, m, zeta_alpha = log[i + 1]
            if m:
                cases.add(f"tau, W not 0 mod 2e, {'odd' if odd_e else 'even'} e")
            if alpha and zeta_alpha:
                cases.add("tau, sqrt(omega) on the star and on zeta_2e^m")
        else:
            cases.add("frob, sqrt(omega) on the star" if alpha else "frob")
        if alpha:
            cases.add("sqrt(omega) on the star")
        if beta:
            cases.add("sqrt(omega) on the target")
        i += 2 + tau
    assert cases == {"tau, W not 0 mod 2e, odd e", "tau, W not 0 mod 2e, even e",
                     "tau, sqrt(omega) on the star and on zeta_2e^m",
                     "frob", "frob, sqrt(omega) on the star",
                     "sqrt(omega) on the star", "sqrt(omega) on the target"}


def test_the_reference_epsilon_is_a_cocycle():
    """ref(s, g o h) = ref(h(s), g) ref(s, h) for all words g, h: the lemma behind
    deciding triviality from the generator values over the orbit.

    Only the reference evaluator and the root-set images are read.
    """
    pairs = 0
    for text, p in NON_STABLE:
        A = analyse(parse_expr(text, p))
        words = all_words(A.tower)
        nodes = _character_nodes(A)
        ref = {(n, w): reference_epsilon(A, n, w) for n in nodes for w in words}
        for s in nodes:
            for g in words:
                for h in words:
                    hs = reference_image(A, s, h)
                    assert ref[s, word_compose(A.tower, g, h)] == ref[hs, g] * ref[s, h], \
                        (text, p, s.name, g, h)
                    pairs += 1
    assert pairs > 10000


def test_no_square_root_when_the_star_is_fixed(monkeypatch):
    def forbidden(fq, u):
        raise AssertionError("square root taken on a star-fixing word")

    checked = 0
    for text, p in CURVES:
        A = analyse(parse_expr(text, p))
        fixed = [n for n in _character_nodes(A)
                 if all(A.image(A.star(n), w) is A.star(n) for w in (TAU, FROB))]
        if not fixed:
            continue
        B = analyse(parse_expr(text, p))
        monkeypatch.setattr(clusters_mod, "canonical_sqrt_symbol", forbidden)
        for node, node_b in zip(A.picture.proper(), B.picture.proper()):
            if node in fixed:
                for w in all_words(B.tower):
                    assert word_epsilon(B, node_b, w) in (1, -1)
                node_b.eps_trivial_galois
                node_b.eps_trivial_inertia
                checked += 1
        monkeypatch.undo()
    assert checked > 10


def test_theorem_takes_no_square_root_on_galois_fixed_pictures(monkeypatch):
    def forbidden(fq, u):
        raise AssertionError("square root taken for a Galois-fixed star")

    decided = 0
    for text, p in CURVES:
        A = analyse(parse_expr(text, p))
        if not all(n.fixed_galois for n in A.picture.proper()):
            continue
        monkeypatch.setattr(clusters_mod, "canonical_sqrt_symbol", forbidden)
        try:
            yes, _ = theorem_decide(analyse(parse_expr(text, p)))
        finally:
            monkeypatch.undo()
        assert yes == theorem_decide(A)[0]
        decided += 1
    assert decided > 5


def _patch_radicand(monkeypatch, A, node, dw=0, factor=None):
    """Make A read node's radicand (W, u) as (W + dw, u * factor): no root set gives it."""
    monkeypatch.setattr(node, "vKc_e", node.vKc_e + dw)
    if factor is not None:
        monkeypatch.setattr(node, "radicand_u", A.tower.fq.mul(node.radicand_u, factor))


@pytest.mark.parametrize("path", ["tau", "frob", "moved"])
def test_an_inconsistent_radicand_has_no_sign(path, monkeypatch):
    """epsilon raises, on each of its paths, when the radicand has no +-1 value.

    On EX2 at p = 11 (e = 2, d = 2) the top cluster is Galois-fixed and
    frob swaps the twins t2 and t3.  tau on a fixed star needs e | W;
    frob on a fixed star needs u in F_p; a moved star needs its image's
    radicand to be the Frobenius image of its own.
    """
    A = analyse(parse_expr(EX2, 11))
    top = A.picture.top
    t2, t3 = [n for n in top.children if A.image(n, FROB) is not n]
    node, word, patched, change = {
        "tau": (top, TAU, top, {"dw": 1}),
        "frob": (top, FROB, top, {"factor": A.tower.fq.omega}),
        "moved": (t2, FROB, t3, {"factor": A.tower.fq.omega}),
    }[path]
    assert A.epsilon(node, word) in (1, -1)
    _patch_radicand(monkeypatch, A, patched, **change)
    with pytest.raises(InternalError, match=r"epsilon value is not \+-1"):
        A.epsilon(node, word)


def test_a_centroid_value_outside_f_p_raises(monkeypatch):
    """f at a Galois-fixed cluster's centroid lies in Q_p; a leading unit outside
    F_p raises rather than answering None.

    On EX2 at p = 11 the twin t1 at 1 is fixed; its radicand times omega
    leads f at its centroid with a unit outside F_11.
    """
    A = analyse(parse_expr(EX2, 11))
    twin = next(n for n in A.picture.top.children if n.fixed_galois)
    assert A.center_value_is_square(twin) in (True, False)
    _patch_radicand(monkeypatch, A, twin, factor=A.tower.fq.omega)
    with pytest.raises(InternalError, match="not in Q_p"):
        A.center_value_is_square(twin)
