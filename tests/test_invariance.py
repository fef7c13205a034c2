"""The same curve in another chart gets the same answer: translation and scaling.

``x -> x + a`` moves every root by ``a`` and keeps every difference of
roots, so the whole report stays the same apart from its text and the
sized precision, which reads the centres' valuations.  ``f -> v^2 f`` is
the isomorphism ``y -> v y``, so the verdict, the conditions that fire
and the cluster picture stay the same.  The Möbius images
``x -> p^s / x`` (ROADMAP direction 7) are not covered here.
"""

import functools

import pytest

from conftest import curve_text
from clustersol.cli import _analyze_one
from clustersol.corpus import generate_corpus
from clustersol.curves import Cyclo, parse_expr

CORPUS = generate_corpus(3, 300, (7, 11, 13, 17, 19, 23))
report = functools.cache(_analyze_one)


def test_curve_text_round_trips():
    for p, text in CORPUS:
        expr = parse_expr(text, p)
        back = parse_expr(curve_text(expr), p)
        assert back._replace(text=expr.text) == expr, text
        assert [type(f) for f in back.factors] == [type(f) for f in expr.factors]
    assert sum("zeta(3)" in text for _, text in CORPUS) >= 30


def _translated(expr, a):
    return expr._replace(factors=[f._replace(center=f.center + Cyclo.integer(a, f.center.N))
                                  for f in expr.factors])


def _fixed_by_translation(report):
    return {**report, "curve": None, "tower": {**report["tower"], "prec": None}}


def _fixed_by_scaling(report):
    return (report["solubility"], report["picture"],
            [c["id"] for c in report["conditions"] if c["satisfied"]])


@pytest.mark.parametrize("shift", [1, -1, 2, "p", 10**6 + 3])
def test_translation_keeps_the_report(shift):
    for p, text in CORPUS:
        expr = parse_expr(text, p)
        moved = curve_text(_translated(expr, p if shift == "p" else shift))
        assert (_fixed_by_translation(_analyze_one(p, moved))
                == _fixed_by_translation(report(p, text))), (text, moved)


@pytest.mark.parametrize("v", [2, 3, "p"])
def test_scaling_by_a_square_keeps_the_verdict(v):
    for p, text in CORPUS:
        expr = parse_expr(text, p)
        w = p if v == "p" else v
        scaled = curve_text(expr._replace(c_unit=expr.c_unit * w * w))
        assert (_fixed_by_scaling(_analyze_one(p, scaled))
                == _fixed_by_scaling(report(p, text))), (text, scaled)
