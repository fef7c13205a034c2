"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import random
import time
from fractions import Fraction

from conftest import EX1, EX2, EX3, flip_canonical_sqrt, latex_structure, odd_degree_corpus
from clustersol.clusters import analyse
from clustersol.corpus import generate_corpus
from clustersol.curves import expand_to_integer_poly, parse_expr
from clustersol.decision import CONDITION_IDS, solubility_decide, theorem_decide
from clustersol.numutil import poly_deriv, resultant
from clustersol.oracle import (disc_valuation, exhaustive_soluble,
                               is_locally_soluble)
from clustersol.render import render_latex
from test_epsilon_reference import NON_STABLE


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    assert ok, detail


def test_criterion_1_example1_golden():
    t0 = time.monotonic()
    v, A = solubility_decide(parse_expr(EX1[0], EX1[1]))
    elapsed = time.monotonic() - t0
    top = A.picture.top
    ok = (Fraction(top.level, A.tower.e) == Fraction(2, 3)
          and sorted(c.size for c in top.children) == [1, 1, 1, 4]
          and Fraction(max(c.level for c in top.children if c.is_proper), A.tower.e)
          == Fraction(17, 4)
          and top.e == 3
          and "ii.a" in v.fired
          and v.status == "Soluble"
          and elapsed < 1.0)
    _line(1, ok, f"Example 1: picture R(2/3){{4-cluster(17/4), 3 singletons}}, "
                 f"e_R=3, fires (ii.a), Soluble, {elapsed:.2f}s")


def test_criterion_2_example2_golden():
    for p in (11, 23):
        t0 = time.monotonic()
        v, A = solubility_decide(parse_expr(EX2, p))
        poly = expand_to_integer_poly(parse_expr(EX2, p))
        orc = is_locally_soluble(poly, p)
        elapsed = time.monotonic() - t0
        top = A.picture.top
        ok = ([c.size for c in top.children] == [2, 2, 2]
              and all(c.level == A.tower.e for c in top.children)
              and top.e == 2
              and top.eps_tau == -1
              and v.fired == []
              and v.status == "Insoluble"
              and orc.soluble is False
              and elapsed < 10.0)
        _line(2, ok, f"Example 2 @ p={p}: three twins, e_R=2, eps_R(tau)=-1, "
                     f"all conditions fail, Insoluble, oracle agrees, {elapsed:.2f}s")


def test_criterion_3_example3_golden():
    v, A = solubility_decide(parse_expr(EX3[0], EX3[1]))
    orc = is_locally_soluble(expand_to_integer_poly(parse_expr(EX3[0], EX3[1])), 7)
    top = A.picture.top
    noted = v.reports["vi.a"].consumed.get("evaluated", {})
    intervals = {w: d["interval"] for w, d in noted.items()}
    ok = (not top.principal
          and all(c.e == 6 for c in top.children)
          and all(d.get("integer_intersection") == "empty" for d in noted.values())
          and intervals.get("s1") == ["-5/6", "-1/2"]
          and v.reports["vi.a"].convention_marker
          and v.status == "Insoluble"
          and orc.soluble is False)
    _line(3, ok, f"Example 3: R not principal, e_s1=e_s2=6, (vi.a) interval "
                 f"{intervals.get('s1')} empty (convention-marked), Insoluble, "
                 f"oracle agrees")


def test_criterion_4_oracle_cross_validation():
    corpus = generate_corpus(42, 200, [7, 11, 13, 17])
    agree = 0
    quarantined, failures = [], []
    for p, text in corpus:
        expr = parse_expr(text, p)
        v, _ = solubility_decide(expr)          # one certified pass
        orc = is_locally_soluble(expand_to_integer_poly(expr), p)
        if (v.status == "Soluble") == orc.soluble:
            agree += 1
        elif v.convention_dependent:
            quarantined.append((p, text))
        else:
            failures.append((p, text, v.status, orc.soluble))
    ok = agree == 200 and not failures and not quarantined
    _line(4, ok, f"compare --seed 42 --count 200 --p-list 7,11,13,17: "
                 f"{agree}/200 agree, {len(quarantined)} quarantined, "
                 f"{len(failures)} hard disagreements")


def test_criterion_5_odd_degree_property():
    corpus = odd_degree_corpus(271828, 50, [7, 11, 13, 17])
    good = 0
    for p, text in corpus:
        expr = parse_expr(text, p)
        v, _ = solubility_decide(expr)
        orc = is_locally_soluble(expand_to_integer_poly(expr), p)
        if v.component_yes and orc.soluble is True:
            good += 1
    ok = good == len(corpus) == 50
    _line(5, ok, f"odd-degree curves: {good}/{len(corpus)} ComponentYes and "
                 f"oracle-soluble")


def test_criterion_6_invariant_suites_and_precision_stability(monkeypatch):
    # the 1000-case field/valuation/Galois/sqrt suites live in
    # test_tame_field.py; here every downstream verdict is recomputed at
    # doubled precision and with the flipped square-root choice; the
    # NON_STABLE curves (EX2 at 11 and 23 among them) take square roots
    curves = [(EX1[0], 17), (EX3[0], 7)] + NON_STABLE
    curves += generate_corpus(12321, 16, [7, 11, 13, 17])[:16]
    stable = flipped = 0
    sqrts_taken = 0
    for item in curves:
        text, p = (item[1], item[0]) if isinstance(item[0], int) else item
        expr = parse_expr(text, p)
        a = analyse(expr)
        yes1, rep1 = theorem_decide(a)
        b = analyse(expr, prec=2 * a.tower.prec)
        yes2, rep2 = theorem_decide(b)
        if yes1 == yes2 and all(rep1[c].satisfied == rep2[c].satisfied
                                for c in CONDITION_IDS):
            stable += 1
        with monkeypatch.context() as m:
            sqrts = flip_canonical_sqrt(m)
            yes3, rep3 = theorem_decide(analyse(expr))
        sqrts_taken += len(sqrts)
        if yes1 == yes3 and all(rep1[c].satisfied == rep3[c].satisfied
                                for c in CONDITION_IDS):
            flipped += 1
    n = len(curves)
    assert sqrts_taken, "no square root taken under the flip"
    ok = stable == n and flipped == n
    _line(6, ok, f"doubled-precision verdicts identical on {stable}/{n}, "
                 f"sqrt-sign-flip invariant on {flipped}/{n} "
                 f"(plus the 1000-case arithmetic suites in test_tame_field)")


def test_criterion_7_oracle_self_check():
    rng = random.Random(777)
    checked = agree = 0
    while checked < 100:
        p = rng.choice([3, 5])
        deg = rng.choice([5, 6])
        f = [rng.randrange(-9, 10) for _ in range(deg)] + [rng.choice([1, 2, 3, -1])]
        if resultant(f, poly_deriv(f)) == 0:
            continue
        if disc_valuation(f, p) > 2:
            continue   # keep the flat mod-p^6 scan complete
        checked += 1
        if is_locally_soluble(f, p).soluble == exhaustive_soluble(f, p):
            agree += 1
    ok = agree == checked == 100
    _line(7, ok, f"oracle vs exhaustive enumeration mod p^6: {agree}/{checked} "
                 f"agree at p in {{3, 5}}")


def test_criterion_8_latex_structure():
    a2 = analyse(parse_expr(EX2, 11))
    d2, ch2 = latex_structure(render_latex(a2.picture))
    fig1_ok = (d2 == 0 and len(ch2) == 3
               and all(d == 1 and len(ls) == 2 for d, ls in ch2))
    a3 = analyse(parse_expr(EX3[0], EX3[1]))
    d3, ch3 = latex_structure(render_latex(a3.picture))
    fig2_ok = (d3 == 0 and len(ch3) == 2
               and all(d == Fraction(2, 3) and len(ls) == 3 for d, ls in ch3))
    _line(8, fig1_ok and fig2_ok,
          "LaTeX output reproduces Figure 1 (three depth-1 twins) and "
          "Figure 2 (two depth-2/3 triples) nesting and labels")
