"""Roots written straight into their columns, against the ring-arithmetic reference.

``curves.extract_roots`` writes root j of (x - c)^n - u p^m, which is
c + w_j pi^k, into the tower's columns (``tame.add_branch``), and the
(p, d, M) store keeps the Frobenius shift of each radical (``Tower.frob_shift``).
``conftest.reference_extract_roots`` builds the same roots as tower
elements, center + branch and branch * zeta_n, as they were first built.
So deciding a curve does no ring arithmetic on tower elements.
"""

import random

import pytest

from conftest import (EX1, clear_lift_stores, nested_trie, pi_shift, reference_extract_roots,
                      reference_precision)
from clustersol.clusters import analyse, build_picture
from clustersol.curves import (Binomial, embed_cyclo, extract_roots, galois_perms,
                               parse_expr, required_tower)
from clustersol.decision import solubility_decide, theorem_decide
from clustersol.errors import (ClusterSolError, InternalError, PrecisionExhausted,
                               RootCollision)
from clustersol.tame import Elt, Tower, _lifts, add_branch, get_tower
from test_certificate import EXACT_ZERO_CENTROID, _unit_elt, close_centres
from test_tree_reads import SMALL_P_42, SPLIT_CORPUS

# a centre of valuation k: 7 + 7 keeps the leading digit, 7 + 6*7 = 7^2
# cancels it, and 7 - 7 = 0 exactly
CENTRES_AT_K = [("((x-7)^1-p)*(x-1)*(x-2)*(x-3)*(x-4)", 7),
                ("((x-7)^1-6*p)*(x-1)*(x-2)*(x-3)*(x-4)", 7),
                ("((x-7)^1+p)*(x-1)*(x-2)*(x-3)*(x-4)", 7)]
# e = 12 with zeta centres, at p = 13 and p = 1009
E12 = [("(x^3-p)*((x-zeta(3))^4-p)*((x-zeta(3)^2)^4-p)", 13),
       ("((x-1)^3-2*p)*(x^4-p^3)*(x-zeta(3))*(x-zeta(3)^2)", 1009)]
ROOT_CORPUS = SPLIT_CORPUS + CENTRES_AT_K + E12
# close centres agree in every stored digit below their sized precision (21
# and 201 digits); a repeated factor collides at any precision
RAISES = [(close_centres(20), 7, None, PrecisionExhausted), (close_centres(20), 7, 32, None),
          (close_centres(200), 7, 64, PrecisionExhausted),
          ("(x^3-p^2)*(x^3-p^2)", 7, None, RootCollision)]


def _tower(expr, prec=None):
    d, e = required_tower(expr)
    return get_tower(expr.p, d, e, reference_precision(expr, e) if prec is None else prec)


def _outcome(build, expr, tower):
    """Tags, (vL, unit, rel) per root and the picture's tree, or the error's class and message."""
    try:
        rs = build(expr, tower)
        tree = nested_trie(build_picture(rs, expr).top)
    except ClusterSolError as exc:
        return type(exc), str(exc)
    return rs.tags, [(r.vL, r.unit, r.rel) for r in rs.roots], tree


def _cases(expr, rs):
    """The cases of c + w pi^k that the curve's binomial roots reach."""
    t, out = rs.tower, set()
    for (fi, _), r in zip(rs.tags, rs.roots):
        f = expr.factors[fi]
        if not isinstance(f, Binomial):
            continue
        c, k = embed_cyclo(t, f.center), f.rhs_pow * t.e // f.n
        if c.is_zero:
            out.add("zero centre")
        elif c.vL != k:
            out.add("v(c) < k" if c.vL < k else "v(c) > k")
        elif r.is_zero:
            out.add("exact zero")
        else:
            out.add("partial cancellation" if r.vL > k else "v(c) = k")
    return out


def test_the_corpus_reaches_every_case_of_a_root():
    cases, es, ps = {}, set(), set()
    for text, p in ROOT_CORPUS:
        expr = parse_expr(text, p)
        rs = extract_roots(expr, _tower(expr))
        cases[text, p] = _cases(expr, rs)
        es.add(rs.tower.e)
        ps.add(p)
    assert set().union(*cases.values()) == {"zero centre", "v(c) < k", "v(c) > k", "v(c) = k",
                                            "partial cancellation", "exact zero"}
    assert [cases[c] for c in CENTRES_AT_K] == [{"v(c) = k"}, {"partial cancellation"},
                                                {"exact zero"}]
    assert max(es) == 12 and {101, 1009} <= ps
    assert sum("zeta" in text for text, _ in ROOT_CORPUS) >= 20


def test_direct_roots_equal_the_ring_arithmetic_reference():
    for text, p in ROOT_CORPUS:
        expr = parse_expr(text, p)
        t = _tower(expr)
        assert _outcome(extract_roots, expr, t) == _outcome(reference_extract_roots, expr, t)


@pytest.mark.parametrize("text,p,prec,error", RAISES)
def test_direct_roots_raise_where_the_reference_raises(text, p, prec, error):
    expr = parse_expr(text, p)
    t = _tower(expr, prec)
    got = _outcome(extract_roots, expr, t)
    assert got == _outcome(reference_extract_roots, expr, t)
    assert (got[0] if isinstance(got[0], type) else None) is error


@pytest.mark.parametrize("p,d,e,prec", [(7, 1, 1, 24), (7, 2, 3, 36), (13, 1, 4, 40)])
def test_add_branch_equals_the_sum_of_tower_elements(p, d, e, prec):
    # every centre valuation against k, with full and reduced trust, and
    # centres that cancel the branch's leading digit in part or in full
    t = Tower(p, d, e, prec)
    rng = random.Random(p * 100 + e)
    seen = set()
    for _ in range(300):
        k = rng.randrange(0, 3 * e)
        w = tuple(rng.randrange(t.pM) for _ in range(d))
        w = ((w[0] - w[0] % p + rng.randrange(1, p)) % t.pM,) + w[1:]
        kind = rng.choice(["zero", "unit", "coarse", "cancel"])
        if kind == "zero":
            c = t.zero()
        else:
            c = _unit_elt(t, rng.randrange(-e, 3 * e), rng.randrange(1, 99))
            if kind == "coarse":
                c = Elt(t, c.vL, c.unit, rng.randrange(1, t.M + 1))
            if kind == "cancel":        # c = -w pi^k + p^j pi^k, or -w pi^k at j = M
                j = rng.choice([t.M, rng.randrange(t.M)])
                c = pi_shift(t.from_w(w, 0), k)
                c = Elt(t, c.vL, c.unit, rng.choice([t.M, rng.randrange(1, t.M)]))
                c = -c + (pi_shift(t.from_int(p ** j), k) if j < t.M else t.zero())
        branch = pi_shift(t.from_w(w, 0), k)
        try:
            ref = c + branch
            ref = ("elt", ref.vL, ref.unit, ref.rel)
        except PrecisionExhausted as exc:
            ref = ("raise", str(exc))
        try:
            got = add_branch(c, k, w)
            got = ("elt", got.vL, got.unit, got.rel)
        except PrecisionExhausted as exc:
            got = ("raise", str(exc))
        assert got == ref
        seen.add(ref[0] if ref[0] == "raise" else "exact zero" if ref[1] is None else kind)
    assert seen == {"zero", "unit", "coarse", "cancel", "raise", "exact zero"}


# --- the decide path does no ring arithmetic on tower elements ---

def test_deciding_a_curve_does_no_elt_ring_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Elt ring arithmetic on the decide path")

    for name in ("__add__", "__sub__", "__neg__", "__mul__"):
        monkeypatch.setattr(Elt, name, refuse)
    with pytest.raises(AssertionError):
        Tower(7, 1, 1, 8).from_int(1) + Tower(7, 1, 1, 8).from_int(1)
    for text, p in SMALL_P_42[:20] + CENTRES_AT_K + [EXACT_ZERO_CENTROID, EX1]:
        solubility_decide(parse_expr(text, p))
    for k in (20, 40, 200):
        solubility_decide(parse_expr(close_centres(k), 7))
    theorem_decide(analyse(parse_expr(close_centres(20), 7), prec=40))


# --- the Frobenius shift of a radical, once per (p, d, M) ---

def test_the_frobenius_shift_is_computed_once_per_store_and_radical(monkeypatch):
    # both curves take the tower (7, 2, 2, 32), at M = 16; their radicals are
    # (3, 2) three times, (1, 2) and (-1, 2).  3 and -1 are not squares mod
    # 7, so frob sends their roots y to y^7 = -y: s = 1
    texts = ["((x-1)^2-3*p)*((x-2)^2-3*p)*(x^2-p)", "((x-3)^2-3*p)*(x^2+p)*(x-1)"]
    exprs = [parse_expr(text, 7) for text in texts]

    def perms_and_shifts():
        """Both curves' perms on this process's tower, the (u, n) computed, and s."""
        t = _tower(exprs[0])
        assert all(_tower(x) is t for x in exprs)
        root_sets = [extract_roots(x, t) for x in exprs]
        computed = []
        real = Tower.unit_nth_root
        monkeypatch.setattr(Tower, "unit_nth_root",
                            lambda self, u, n: computed.append((u, n)) or real(self, u, n))
        perms = [(rs.tau_perm, rs.frob_perm) for rs in map(galois_perms, root_sets)]
        monkeypatch.setattr(Tower, "unit_nth_root", real)
        return t, perms, computed, {(u, n): t.frob_shift(u, n) for u, n in computed}

    clear_lift_stores()
    t, perms, computed, s = perms_and_shifts()
    assert (t.d, t.M) == (2, 16) and computed == [(3, 2), (1, 2), (-1, 2)]
    assert s == {(3, 2): 1, (1, 2): 0, (-1, 2): 1}
    assert perms_and_shifts()[2] == []           # the same tower computes nothing again
    real = Tower.unit_nth_root                   # nor does another tower over W at M = 16
    monkeypatch.setattr(Tower, "unit_nth_root", lambda *a: pytest.fail("s computed again"))
    assert {(u, n): Tower(7, 2, 1, 16).frob_shift(u, n) for u, n in s} == s
    monkeypatch.setattr(Tower, "unit_nth_root", real)
    other = Tower(7, 2, 1, 20)                   # a tower at M = 20 computes its own
    assert {(u, n): other.frob_shift(u, n) for u, n in s} == s
    assert {("shift", u, n) for u, n in s} <= set(_lifts(7, 2, 20))
    clear_lift_stores()
    t2, perms2, computed2, s2 = perms_and_shifts()
    assert t2 is not t and (perms2, computed2, s2) == (perms, computed, s)


def test_a_shift_that_never_reaches_the_radical_raises_and_is_not_kept():
    clear_lift_stores()
    t = Tower(13, 2, 2, 32)
    t._kept[2] = t.w_one()                       # a wrong zeta_2: its powers are all 1
    for _ in range(2):
        with pytest.raises(InternalError, match="Frobenius image of a radical"):
            t.frob_shift(2, 2)
    assert ("shift", 2, 2) not in _lifts(13, 2, t.M)
    clear_lift_stores()
