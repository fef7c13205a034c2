import os
import re
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

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
