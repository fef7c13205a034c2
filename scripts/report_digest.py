#!/usr/bin/env python3
"""Print one sha256 over the full reports of a fixed set of curves.

A refactor that keeps every verdict and report keeps this hash.  Each
curve contributes one line: ``json.dumps([report, tau_perm, frob_perm])``,
where ``report`` is the ``build_report`` of ``solubility_decide`` (the
``analyze --json`` report), or
``error:Class:message`` when the decision raises.  The curves are
``generate_corpus(1, 400, [7, 11, 13, 17, 19, 23])``,
``generate_corpus(42, 640, (7, 11, 13, 17), genus_range=(2, 4))``,
``generate_corpus(6, 40, [101, 103, 107, 109], genus_range=(3, 4))`` and
two named curves: one with a centroid that is exactly 0 and one that is
not squarefree.  Keys are not sorted: the line keeps every dict's key
order as ``analyze --json`` prints it, ``consumed`` and the witnesses'
among them.  It takes no options:

    python3 scripts/report_digest.py

``tests/test_report_digest.py`` pins the hash, so a change of any report
fails the tests until the pin is updated on purpose.
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from clustersol.cli import build_report
from clustersol.corpus import generate_corpus
from clustersol.curves import parse_expr
from clustersol.decision import solubility_decide
from clustersol.errors import ClusterSolError


def curves():
    """(text, p) of every curve hashed, in order."""
    out = [(t, p) for p, t in generate_corpus(1, 400, [7, 11, 13, 17, 19, 23])]
    out += [(t, p) for p, t in generate_corpus(42, 640, (7, 11, 13, 17),
                                               genus_range=(2, 4))]
    out += [(t, p) for p, t in generate_corpus(6, 40, [101, 103, 107, 109],
                                               genus_range=(3, 4))]
    out += [("2*(x^1+2*p^3)*(x^4-p^7)*(x^1-2*p^3)", 13), ("(x^3-p^2)*(x^3-p^2)", 7)]
    return out


def digest_line(text, p):
    """The curve's report and permutations as JSON, or its error."""
    try:
        expr = parse_expr(text, p)
        verdict, A = solubility_decide(expr)
    except ClusterSolError as exc:
        return f"error:{type(exc).__name__}:{exc}"
    return json.dumps([build_report(expr, verdict, A), A.rs.tau_perm, A.rs.frob_perm])


def digest():
    """(sha256 hex digest, curves, errors) over every curve's line."""
    h = hashlib.sha256()
    count = errors = 0
    for text, p in curves():
        line = digest_line(text, p)
        h.update(line.encode() + b"\n")
        count += 1
        errors += line.startswith("error:")
    return h.hexdigest(), count, errors


def main():
    hexdigest, count, errors = digest()
    print(f"sha256 {hexdigest}  curves {count}  errors {errors}")


if __name__ == "__main__":
    main()
