import os
import re
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import clustersol.clusters as clusters_mod
import clustersol.decision as decision_mod
from clustersol.errors import InternalError

EX1 = ("(x^4-p^17)*(x^3-p^2)", 17)
EX2 = "p*((x-1)^2+p^2)*((x-zeta(3))^2+p^2)*((x-zeta(3)^2)^2+p^2)"
EX3 = ("p*(x^3-p^2)*((x-1)^3-p^2)", 7)


def latex_structure(text):
    """Nesting structure and depth labels of rendered LaTeX, for tests.

    Returns a nested tuple (label, (children...)) with leaves as 'r<k>';
    byte-level details (names, spacing) are deliberately discarded.
    """
    clusters = {}
    order = []
    for m in re.finditer(r"\\ClusterLDName (c\d+)\[\]\[([^\]]*)\]\[[^\]]*\] = ((?:\([^)]+\))+);",
                         text):
        cid, label, members = m.group(1), m.group(2), m.group(3)
        items = re.findall(r"\(([^)]+)\)", members)
        clusters[cid] = (label, items)
        order.append(cid)

    def build(cid):
        label, items = clusters[cid]
        frac = re.fullmatch(r"\\frac\{(-?\d+)\}\{(\d+)\}", label)
        depth = Fraction(int(frac.group(1)), int(frac.group(2))) if frac else Fraction(label)
        return (depth, tuple(build(i) if i.startswith("c") else i for i in items))

    return build(order[-1])  # the top cluster is emitted last


def decide_with_doubled_recheck(expr, prec=None):
    """``solubility_decide``, checked against a second analysis at doubled precision.

    The reference for the precision certificate: the theorem's reports on
    ``analyse(expr, prec=2 * prec)`` must equal those behind the verdict,
    else InternalError.  Both calls go through ``clustersol.decision``, so
    a test that patches them there sees this pass too.
    """
    verdict, A = decision_mod.solubility_decide(expr, prec)
    A2 = decision_mod.analyse(expr, prec=2 * A.tower.prec)
    if decision_mod.theorem_decide(A2) != (verdict.component_yes, verdict.reports):
        raise InternalError("a certified verdict changed at doubled precision")
    return verdict, A


def flip_canonical_sqrt(monkeypatch):
    """Make the cluster analysis take the other canonical square root everywhere.

    Returns the list of radicands the flipped choice was asked for, so a
    test can show that the flip took effect.
    """
    real = clusters_mod.canonical_sqrt_symbol
    calls = []

    def flipped(fq, u):
        calls.append(u)
        return -real(fq, u)

    monkeypatch.setattr(clusters_mod, "canonical_sqrt_symbol", flipped)
    return calls
