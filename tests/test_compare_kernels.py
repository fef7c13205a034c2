"""The compare half's kernels against the references they replaced.

``curves.expand_to_integer_poly`` and ``curves.resultant_norm`` multiply
in one flat integer product over Z[x, zeta_N]; ``numutil.resultant`` is
the subresultant PRS.  ``tests/reference_kernels.py`` keeps the ``Cyclo``
product and the Bareiss determinant they replaced: the two must give the
same integers and raise ``NonRationalCoefficient`` on the same inputs.
"""

import math
import random

from hypothesis import example, given, settings, strategies as st

from reference_kernels import (bareiss_resultant, reference_expand_to_integer_poly,
                               reference_resultant_norm)
from test_numutil import poly_mul
from clustersol.curves import expand_to_integer_poly, parse_expr, resultant_norm
from clustersol.errors import NonRationalCoefficient
from clustersol.numutil import resultant

PRIMES = (7, 11, 13, 17, 19, 23, 101, 103, 1009, 1013)


def random_center(rng, conductors=(3, 4, 5)):
    """(N, a, b, k) for the centre a + b zeta_N^k: N = 1 or N in conductors."""
    if rng.random() < 0.4:
        return 1, rng.randint(-3, 3), 0, 0
    N = rng.choice(conductors)
    return N, rng.randint(-2, 2), rng.choice((1, -1, 2)), rng.randint(1, N - 1)


def random_curve(rng, primes=PRIMES, conductors=(3, 4, 5)):
    """(p, text): a grammar curve of degree 5 to 16.  A zeta centre comes with its
    conjugates over Q, so f has integer coefficients, except now and then."""
    p = rng.choice(primes)
    units = [u for u in (1, -1, 2, -2, 3, -3) if u % p]
    factors, degree = [], 0
    while degree < 5:
        N, a, b, k = random_center(rng, conductors)
        ks = [k * j % N for j in range(1, N) if math.gcd(j, N) == 1] if N > 1 else [0]
        if rng.random() < 0.15:
            ks = ks[:1]                             # no conjugates: not closed
        n = rng.choice((1, 1, 2, 3, 4))
        shape = (n, rng.choice(units), rng.randint(1, 6)) if n > 1 or rng.random() < 0.5 else None
        for kj in ks:
            tail = f"-({a}{b:+d}*zeta({N})^{kj})" if N > 1 else f"{-a:+d}"
            if shape is None:
                factors.append(f"(x{tail})")
            else:
                factors.append(f"((x{tail})^{shape[0]}{-shape[1]:+d}*p^{shape[2]})")
            degree += n if shape else 1
        if degree > 16:
            factors, degree = [], 0
    lead = rng.choice(["", "p*", "2*", "-3*p^2*"])
    return p, lead + "*".join(factors)


def outcome(expand, expr):
    try:
        return expand(expr)
    except NonRationalCoefficient:
        return NonRationalCoefficient


def test_the_flat_expansion_agrees_with_the_cyclo_product():
    rng = random.Random(23)
    counts = {"curves": 0, "zeta": 0, "zeta and rational": 0, "not rational": 0, "norms": 0}
    primes = set()
    while counts["curves"] < 3000:
        p, text = random_curve(rng)
        expr = parse_expr(text, p)
        got = outcome(expand_to_integer_poly, expr)
        assert got == outcome(reference_expand_to_integer_poly, expr), (p, text)
        counts["curves"] += 1
        primes.add(p)
        if expr.conductor > 1:
            counts["zeta"] += 1
            counts["zeta and rational" if got is not NonRationalCoefficient else "not rational"] += 1
        f, g = rng.sample(expr.factors, 2)
        if f != g:
            assert resultant_norm(f, g, p) == reference_resultant_norm(f, g, p), (p, text)
            counts["norms"] += 1
    assert primes == set(PRIMES)
    assert counts["zeta and rational"] > 1000 and counts["not rational"] > 200, counts
    assert counts["norms"] > 2000, counts


# f = ca * a * common and g = cb * b * common: a common factor of positive
# degree makes the resultant 0, and ca, cb give f and g content
@settings(max_examples=400)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=7),
       st.lists(st.integers(-20, 20), min_size=1, max_size=7),
       st.lists(st.integers(-4, 4), min_size=1, max_size=3),
       st.integers(-6, 6).filter(bool), st.integers(-6, 6).filter(bool))
@example([5], [1, 2, 3], [1], 1, 1)                  # constant operands
@example([1, 2, 3], [-4], [1], 1, 1)
@example([3], [7], [1], 2, -1)
@example([0], [1, 2], [1], 1, 1)                     # a zero operand
@example([1, -2, 3, -4], [2, 0, 1, 5, -1, -2], [1], 3, -2)   # deg 3 < deg 5, both odd
@example([-1, 4], [3, 1, 0, -5], [1], 1, 1)          # deg 1 < deg 3
@example([2, 0, -6], [4, 8, 0, -12], [1], 5, 6)      # negative, non-unit leads, content
@example([1, 1], [3, 0, 1], [2, 1], 1, 1)            # a common root: resultant 0
def test_the_subresultant_prs_equals_bareiss(a, b, common, ca, cb):
    f = [ca * x for x in poly_mul(a, common)]
    g = [cb * x for x in poly_mul(b, common)]
    assert resultant(f, g) == bareiss_resultant(f, g)
    assert resultant(g, f) == bareiss_resultant(g, f)
