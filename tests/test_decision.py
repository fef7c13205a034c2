from fractions import Fraction

import pytest

from conftest import EX1, EX2, EX3, decide_with_doubled_recheck, odd_degree_corpus
from clustersol.clusters import analyse
from clustersol.corpus import generate_corpus
from clustersol.curves import expand_to_integer_poly, parse_expr
from clustersol.decision import (CONDITION_IDS, ConditionReport, corollary_gate,
                                 interval_has_integer, is_even_int, is_int,
                                 solubility_decide, tameness_flags, theorem_decide)
from clustersol.oracle import is_locally_soluble

from hypothesis import given, strategies as st


# --- interval helper ---

@given(st.fractions(min_value=-50, max_value=50),
       st.fractions(min_value=0, max_value=10),
       st.integers(min_value=1, max_value=6))
def test_interval_helper(lo, width, k):
    # ends as integers over a common denominator, as the theorem keeps them
    hi = lo + width
    den = k * lo.denominator * hi.denominator
    brute = any(lo <= n <= hi for n in range(-60, 61))
    assert interval_has_integer(int(lo * den), int(hi * den), den) == brute


@given(st.integers(min_value=-200, max_value=200), st.integers(min_value=1, max_value=24))
def test_integer_tests_on_n_over_den(n, den):
    q = Fraction(n, den)
    assert is_int(n, den) == (q.denominator == 1)
    assert is_even_int(n, den) == (q.denominator == 1 and q.numerator % 2 == 0)


# --- gate ---

def test_gate_examples():
    ok, _ = corollary_gate(17, 3, {"p_odd": True, "tower_tame": True,
                                   "cluster_e_tame": True})
    assert ok                                   # 17 > 2(9-1) = 16
    ok, _ = corollary_gate(7, 2, {"p_odd": True, "tower_tame": True,
                                  "cluster_e_tame": True})
    assert ok                                   # 7 > 6
    ok, reasons = corollary_gate(5, 2, {"p_odd": True, "tower_tame": True,
                                        "cluster_e_tame": True})
    assert not ok and reasons["hasse_weil_bound"] == 6


def test_tameness_flags():
    A = analyse(parse_expr(EX3[0], EX3[1]))
    flags = tameness_flags(A)
    assert all(flags.values())


# --- golden verdicts ---

def test_example1_soluble_via_ii_a():
    v, A = solubility_decide(parse_expr(EX1[0], EX1[1]))
    assert v.status == "Soluble"
    assert "ii.a" in v.fired
    rep = v.reports["ii.a"]
    assert rep.witnesses == ["R"]
    assert A.picture.top.e == 3


def test_example2_insoluble_both_primes():
    for p in (11, 23):
        v, A = solubility_decide(parse_expr(EX2, p))
        assert v.status == "Insoluble"
        assert v.fired == []
        assert A.picture.top.eps_tau == -1
        assert A.picture.top.e == 2


def test_example3_insoluble_with_empty_interval():
    v, A = solubility_decide(parse_expr(EX3[0], EX3[1]))
    assert v.status == "Insoluble" and v.fired == []
    noted = v.reports["vi.a"].consumed["evaluated"]
    assert noted["s1"]["interval"] == ["-5/6", "-1/2"]
    assert noted["s1"]["integer_intersection"] == "empty"
    assert v.reports["vi.a"].convention_marker


def test_good_reduction_fires_i():
    v, _ = solubility_decide(parse_expr("(x-1)*(x-2)*(x-3)*(x-4)*(x-5)", 7))
    assert v.status == "Soluble" and "i" in v.fired


def test_cotwin_routes():
    v, _ = solubility_decide(parse_expr("(x-1)*(x^4-p)", 13))
    assert v.status == "Soluble" and {"v.a", "vi.d"} & set(v.fired)
    v, _ = solubility_decide(parse_expr("(x-1)*(x^4-p)", 7))
    assert v.status == "Soluble" and "v.b" in v.fired


def test_inapplicable_small_residue_field():
    # genus 3 needs q > 16; p = 7 fails the gate but the component verdict remains
    v, _ = solubility_decide(parse_expr("(x^8-p)*(x-1)", 7))
    assert v.status == "Inapplicable"
    assert v.component_yes in (True, False)


def test_reports_cover_all_ids_and_are_deterministic():
    expr = parse_expr(EX2, 11)
    _, r1 = theorem_decide(analyse(expr))
    _, r2 = theorem_decide(analyse(expr))
    assert set(r1) == set(CONDITION_IDS)
    assert {k: (v.satisfied, v.witnesses) for k, v in r1.items()} == \
           {k: (v.satisfied, v.witnesses) for k, v in r2.items()}


def test_reports_compare_by_value():
    expr = parse_expr(EX1[0], EX1[1])
    v1, _ = solubility_decide(expr)
    v2, _ = solubility_decide(expr)
    assert v1 == v2 and v1.reports is not v2.reports
    rep = v2.reports["ii.a"]
    assert rep.witnesses and rep == v1.reports["ii.a"]
    rep.witnesses[0] += "'"
    assert rep != v1.reports["ii.a"] and v1.reports != v2.reports
    assert ConditionReport() == ConditionReport(False, [], {}, False)
    assert ConditionReport() != ConditionReport(convention_marker=True)
    with pytest.raises(TypeError):      # mutable, so unhashable
        hash(ConditionReport())


def test_precision_doubling_agreement_golden():
    for text, p in [(EX1[0], 17), (EX2, 11), (EX3[0], 7)]:
        v, _ = decide_with_doubled_recheck(parse_expr(text, p))
        assert v.status in ("Soluble", "Insoluble")


# --- odd degree consistency ---

def test_odd_degree_theorem_always_fires():
    corpus = odd_degree_corpus(606, 25, [7, 11, 13, 17])
    for p, text in corpus:
        v, _ = solubility_decide(parse_expr(text, p))
        assert v.component_yes, (p, text)
        assert v.odd_degree_shortcut


# --- oracle agreement (sample; the full 200-curve run is in acceptance) ---

def test_oracle_agreement_sample():
    corpus = generate_corpus(314, 40, [7, 11, 13, 17])
    for p, text in corpus:
        expr = parse_expr(text, p)
        v, _ = solubility_decide(expr)
        o = is_locally_soluble(expand_to_integer_poly(expr), p)
        assert (v.status == "Soluble") == o.soluble, (p, text, v.fired)
