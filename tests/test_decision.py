from fractions import Fraction

import pytest

from conftest import EX1, EX2, EX3, decide_with_doubled_recheck, odd_degree_corpus
from clustersol.clusters import analyse
from clustersol.corpus import generate_corpus
from clustersol.curves import expand_to_integer_poly, parse_expr
import clustersol.decision as decision_mod
from clustersol.decision import (CONDITION_IDS, CONDITIONS, ConditionReport, corollary_gate,
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


# --- the condition table ---

RECORDS = [r for run in CONDITIONS for r in run]


def _routes(pick):
    """(cid, route number from 1) of each record that pick accepts."""
    ids = [r.cid for r in RECORDS]
    return [(r.cid, ids[:i].count(r.cid) + 1) for i, r in enumerate(RECORDS) if pick(r)]


def test_the_table_holds_each_route_in_condition_order():
    ids = [r.cid for r in RECORDS]
    assert ids == sorted(ids, key=CONDITION_IDS.index)
    assert list(dict.fromkeys(ids)) == CONDITION_IDS and len(CONDITION_IDS) == 18
    assert [cid for cid in CONDITION_IDS if ids.count(cid) == 2] == \
        ["ii.a", "ii.b", "iii", "iv.c", "vi.a"]
    assert max(map(ids.count, CONDITION_IDS)) == 2


def test_each_route_reads_its_kind_of_node():
    kinds = {"principal": ["i", "ii.a", "ii.b", "ii.c", "ii.d"], "nested": ["iii"],
             "twin": ["iv.a", "iv.b", "iv.c"], "cotwin": ["v.a", "v.b", "v.c"],
             "top child": ["vi.a", "vi.b", "vi.c", "vi.d", "vi.e", "vi.f"]}
    assert {r.cid: r.kind for r in RECORDS} == \
        {cid: kind for kind, cids in kinds.items() for cid in cids}
    # one run per kind, which theorem_decide reads off the run's first record
    assert [{r.kind for r in run} for run in CONDITIONS] == [{kind} for kind in kinds]


def test_the_marked_and_the_noting_routes():
    # (ii.b)'s stable-singleton route is unmarked and its genus-0 route marked
    assert _routes(lambda r: r.marker) == [
        ("ii.b", 2), ("ii.c", 1), ("iv.c", 1), ("iv.c", 2), ("v.c", 1),
        ("vi.a", 1), ("vi.a", 2), ("vi.b", 1)]
    assert _routes(lambda r: r.notes_empty) == [("iii", 1), ("iv.a", 1), ("vi.a", 2)]
    assert _routes(lambda r: r.interval) == [
        ("iii", 1), ("iii", 2), ("iv.a", 1), ("v.a", 1), ("vi.a", 2), ("vi.d", 1)]
    assert all(r.interval for r in RECORDS if r.notes_empty)


def test_theorem_decide_reads_the_table_when_called(monkeypatch):
    A = analyse(parse_expr(EX1[0], EX1[1]))
    assert theorem_decide(A)[1]["ii.a"].satisfied
    monkeypatch.setattr(decision_mod, "CONDITIONS", tuple(
        tuple(r for r in run if r.cid != "ii.a") for run in CONDITIONS))
    reports = theorem_decide(A)[1]
    assert set(reports) == set(CONDITION_IDS) and reports["ii.a"] == ConditionReport()


def test_a_route_whose_conjuncts_hold_claims_the_candidate(monkeypatch):
    """Conjuncts stop at the first that fails, and a later route of the same
    condition is tried only where no earlier one's conjuncts all held."""
    A = analyse(parse_expr(EX1[0], EX1[1]))
    asked = []

    def conjunct(name, value):
        return name, lambda A, c: asked.append(name) or value

    def route(*conjuncts, n):
        return decision_mod.Route("i", "principal", conjuncts, lambda A, c: {"route": n})

    monkeypatch.setattr(decision_mod, "CONDITIONS", ((
        route(conjunct("a", True), n=1), route(conjunct("b", True), n=2)),))
    assert theorem_decide(A)[1]["i"].consumed == {"route": 1} and "b" not in asked
    monkeypatch.setattr(decision_mod, "CONDITIONS", ((
        route(conjunct("c", False), conjunct("d", True), n=1), route(conjunct("e", True), n=2)),))
    assert theorem_decide(A)[1]["i"].consumed == {"route": 2}
    assert "d" not in asked and "e" in asked


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
