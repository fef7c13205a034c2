import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import EX1, EX2, EX3
from reference_kernels import reference_substitute, reference_unit_sqrt_mod
from clustersol.curves import expand_to_integer_poly, parse_expr
from clustersol.errors import NotSquarefree
from clustersol.fq import get_field
from clustersol.numutil import poly_deriv, poly_eval, resultant, vp
from clustersol.oracle import (WITNESS_DIGITS, _refine_root, _substitute, disc_valuation,
                               exhaustive_soluble, infinity_chart, is_locally_soluble)

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def class_test(f, fprime, a, k, p):
    """Decide the class {x = a mod p^k}: ('accept', w) | ('reject',) | ('split',)."""
    fa = poly_eval(f, a)
    if fa == 0:
        return ("accept", {"x": a, "y": 0, "precision": WITNESS_DIGITS,
                           "certificate": "exact rational root"})
    v = vp(fa, p)
    if v < k:
        if v % 2 == 0:
            unit = fa // p ** v
            if pow(unit % p, (p - 1) // 2, p) == 1:
                yu = reference_unit_sqrt_mod(unit, p, WITNESS_DIGITS + v)
                prec = v // 2 + WITNESS_DIGITS
                return ("accept", {
                    "x": a, "y": yu * p ** (v // 2) % p ** prec, "precision": prec,
                    "certificate": f"v(y^2 - f(x)) >= {2 * v + WITNESS_DIGITS}"
                                   f" > 2 v(y) + 1 = {v + 1}"})
        return ("reject", None)
    fpa = poly_eval(fprime, a)
    if fpa != 0 and v > 2 * vp(fpa, p):
        digits = max(WITNESS_DIGITS, v)
        x = _refine_root(f, fprime, a, p, digits)
        return ("accept", {"x": x, "y": 0, "precision": digits,
                           "certificate": f"v(f(a)) = {v} > 2 v(f'(a)) = {2 * vp(fpa, p)}"})
    return ("split", None)


def test_trivial_unit_point():
    r = is_locally_soluble([1, 0, 0, 0, 0, 0, 1], 7)   # y^2 = x^6 + 1
    assert r.soluble
    assert r.witness["x"] % 7 == 0 and r.witness["y"] % 7 == 1


def test_odd_degree_shortcut():
    f = expand_to_integer_poly(parse_expr(EX1[0], EX1[1]))
    r = is_locally_soluble(f, 17)
    assert r.soluble and r.witness["note"] == "point at infinity"


def test_example2_insoluble():
    for p in (11, 23):
        f = expand_to_integer_poly(parse_expr(EX2, p))
        r = is_locally_soluble(f, p)
        assert r.soluble is False and r.status == "ok"


def test_example3_insoluble():
    f = expand_to_integer_poly(parse_expr(EX3[0], EX3[1]))
    assert is_locally_soluble(f, 7).soluble is False


def test_rejects_non_squarefree():
    # (x+1)^2 (x^5 - 7)
    f = [1, 2, 1]
    g = [-7, 0, 0, 0, 0, 1]
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] += a * b
    with pytest.raises(NotSquarefree):
        is_locally_soluble(prod, 7)


def test_infinity_chart_shapes():
    assert infinity_chart([1, 0, 0, 0, 0, 0, 1]) == [1, 0, 0, 0, 0, 0, 1]
    g = infinity_chart([3, 0, 0, 0, 0, 0, 0, 2])      # degree 7
    assert g == [0, 2, 0, 0, 0, 0, 0, 0, 3]


def test_class_test_unit_square_case():
    f = [1, 0, 0, 0, 0, 0, 1]
    verdict, w = class_test(f, poly_deriv(f), 0, 1, 7)
    assert verdict == "accept"
    assert (w["y"] ** 2 - poly_eval(f, w["x"])) % 7 ** 6 == 0


def test_class_test_odd_valuation_reject():
    f = [7, 0, 0, 0, 0, 1]   # f(0) = 7, v = 1 < k = 2
    assert class_test(f, poly_deriv(f), 0, 2, 7)[0] == "reject"


def test_class_test_split_matches_enumeration():
    # deep classes: compare split-decision against brute force over x mod p^4
    rng = random.Random(4)
    for _ in range(30):
        p = rng.choice([3, 5])
        f = [rng.randrange(-9, 10) for _ in range(5)] + [1]
        if resultant(f, poly_deriv(f)) == 0:
            continue
        a = rng.randrange(p)
        verdict, _ = class_test(f, poly_deriv(f), a, 1, p)
        brute = False
        for x in range(a, p ** 4, p):
            val = poly_eval(f, x)
            if val == 0:
                brute = True
                break
            v = vp(val, p)
            if v < 6 and v % 2 == 0 and pow((val // p ** v) % p, (p - 1) // 2, p) == 1:
                brute = True
                break
        if verdict == "accept":
            assert brute
        elif verdict == "reject":
            assert not brute


def test_witness_certificates_hold():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        f = [rng.randrange(-9, 10) for _ in range(rng.choice([6, 7]))] + [rng.choice([1, 2])]
        if resultant(f, poly_deriv(f)) == 0:
            continue
        r = is_locally_soluble(f, p)
        if not r.soluble or "note" in r.witness:
            continue
        w = r.witness
        F = f if w["chart"] == "affine-x" else infinity_chart(f)
        if w["y"] == 0:
            # truncated Hensel root: certify the x-inequality instead
            fx, fpx = poly_eval(F, w["x"]), poly_eval(poly_deriv(F), w["x"])
            assert fx == 0 or vp(fx, p) > 2 * vp(fpx, p)
        else:
            delta = w["y"] ** 2 - poly_eval(F, w["x"])
            assert delta == 0 or vp(delta, p) > 2 * vp(w["y"], p) + 1


def test_oracle_vs_exhaustive_enumeration():
    # completeness: recursive search agrees with the flat scan of x mod p^6
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        p = rng.choice([3, 5])
        deg = rng.choice([5, 6])
        f = [rng.randrange(-9, 10) for _ in range(deg)] + [rng.choice([1, 2, 3, -1])]
        if resultant(f, poly_deriv(f)) == 0:
            continue
        if disc_valuation(f, p) > 2:
            continue
        assert is_locally_soluble(f, p).soluble == exhaustive_soluble(f, p), (f, p)
        checked += 1


def test_termination_within_disc_bound():
    for text, p in [(EX2, 11), (EX3[0], 7)]:
        f = expand_to_integer_poly(parse_expr(text, p))
        r = is_locally_soluble(f, p)
        assert r.status == "ok"
        assert r.max_level_reached <= 2 * disc_valuation(f, p) + 4


# --- the recentring and the square-root lift against the code they replaced ---

@settings(max_examples=400)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=13),
       st.sampled_from(ODD_PRIMES), st.data())
@example([5], 3, None)                                 # a constant
@example([0, 0, 0], 7, None)                           # zero
@example([-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -3], 31, None)
@example([2, -3, 0, 0, 1, 0], 5, None)                 # a zero leading coefficient
def test_the_taylor_shift_equals_the_derivative_form(F, p, data):
    """F(a + p x) by synthetic division equals the derivative-and-factorial form,
    and evaluates as F at a + p t."""
    a = -p * p if data is None else data.draw(st.integers(-p * p, p * p))
    G = _substitute(F, a, p)
    assert G == reference_substitute(F, a, p)
    for t in (0, 1, -1, 2, -7):
        assert poly_eval(G, t) == poly_eval(F, a + p * t)


def test_the_square_root_witness_is_the_newton_lift_of_y2_minus_u():
    """_refine_root on y^2 - u from canonical_sqrt's root mod p is the lift the
    oracle made with its own iteration, for every residue unit mod p, p <= 31,
    to 1-12 digits; and it is the witness y at x = 0 of f = u + p x^6."""
    for p in ODD_PRIMES:
        fp = get_field(p, 1)
        for r in range(1, p):
            if pow(r, (p - 1) // 2, p) != 1:
                continue
            for u in (r, r - p, r + 1234567 * p):
                y0 = fp.canonical_sqrt(fp.from_int(u))[0]
                for digits in range(1, 13):
                    assert (_refine_root([-u, 0, 1], [0, 2], y0, p, digits)
                            == reference_unit_sqrt_mod(u, p, digits)), (u, p, digits)
            w = is_locally_soluble([r, 0, 0, 0, 0, 0, p], p).witness
            assert (w["x"], w["y"]) == (0, reference_unit_sqrt_mod(r, p, WITNESS_DIGITS))
