"""Nothing built to decide, report or render a curve forms a reference cycle.

A cycle outlives its last reference until the cyclic collector finds it,
and a warm process deciding curve after curve would pay for a collection
now and then inside some curve's time.  So every object the pipeline
builds is freed by reference counting: with the collector off, deciding,
reporting, searching and rendering these curves leaves nothing for
``gc.collect`` to find.  The curves cover a zeta pair, a moved star with
an exact zero root, a d = 6 tower and twins.
"""

import gc
import json

from clustersol import cli
from clustersol.curves import expand_to_integer_poly, galois_closure_check, parse_expr
from clustersol.decision import solubility_decide
from clustersol.oracle import is_locally_soluble
from clustersol.render import render_ascii, render_latex

CURVES = [("p*(x^3-p^2)*((x-1)^3-p^2)", 7),
          ("3*p*((x-zeta(3))^1-2*p^7)*((x-zeta(3)^2)^1-2*p^7)*((x-1)^4+p^4)", 7),
          ("(x)*(x^2-p)*(x^2-50*p)*(x-1)", 7),
          ("2*p*(x^2-2*p^6)*((x-1)^3-2*p^2)", 13),
          ("(x^2-2*p)*(x^2-p^3)*(x-1)*(x-2)", 11)]


def _run(text, p):
    expr = parse_expr(text, p)
    galois_closure_check(expr)
    verdict, analysis = solubility_decide(expr)
    json.dumps(cli.build_report(expr, verdict, analysis))
    is_locally_soluble(expand_to_integer_poly(expr), p)
    render_ascii(analysis.picture)
    render_latex(analysis.picture)


def test_deciding_a_curve_leaves_no_cyclic_garbage():
    for text, p in CURVES:  # towers, fields and caches are built once, and kept
        _run(text, p)
    gc.collect()
    gc.disable()
    try:
        for text, p in CURVES:
            _run(text, p)
        assert gc.collect() == 0
    finally:
        gc.enable()
