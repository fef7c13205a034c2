import time
from fractions import Fraction

import pytest

from conftest import EX1, EX2, EX3, nested_trie, reference_precision
from clustersol.clusters import build_picture
from clustersol.curves import (MAX_ZETA_DEGREE, Cyclo, expand_to_integer_poly,
                               extract_roots, galois_closure_check, galois_perms,
                               parse_expr, read_curve_file, required_tower)
from clustersol.decision import solubility_decide
from clustersol.errors import (DegreeTooSmall, NotGaloisClosed, ParseError,
                               RootCollision, UnsupportedFactor)
from clustersol.tame import Tower
from test_cluster_trie import reference_valuation_matrix


def make_rootset(expr, prec_mult=1):
    d, e = required_tower(expr)
    t = Tower(expr.p, d, e, prec_mult * reference_precision(expr, e))
    rs = extract_roots(expr, t)
    return galois_perms(rs)


# --- parsing ---

def test_parse_example3():
    e = parse_expr(EX3[0], EX3[1])
    assert e.c_unit == 1 and e.c_pow == 1
    assert [type(f).__name__ for f in e.factors] == ["Binomial", "Binomial"]
    assert e.factors[0].center == Cyclo.integer(0) and e.factors[0].n == 3
    assert e.factors[1].center == Cyclo.integer(1)
    assert e.factors[1].rhs_unit == 1 and e.factors[1].rhs_pow == 2


def test_parsing_twice_gives_equal_exprs():
    a, b = parse_expr(EX2, 11), parse_expr(EX2, 11)
    assert a == b and a is not b
    assert a != parse_expr(EX2, 23)


def test_parse_example1():
    e = parse_expr(EX1[0], EX1[1])
    assert e.c_unit == 1 and e.c_pow == 0
    assert e.degree == 7 and e.genus == 3


def test_parse_rhs_signs_and_units():
    e = parse_expr("((x-1)^2+p^2)*(x^3-2*p^5)", 7)
    assert e.factors[0].rhs_unit == -1 and e.factors[0].rhs_pow == 2
    assert e.factors[1].rhs_unit == 2 and e.factors[1].rhs_pow == 5


def test_parse_rejects_unsupported():
    with pytest.raises(UnsupportedFactor):
        parse_expr("(x^2-zeta(3))*(x^3-p^2)", 7)
    with pytest.raises(UnsupportedFactor):
        parse_expr("(x^2-1)*(x^3-p^2)", 7)  # rhs must carry a power of p
    with pytest.raises(DegreeTooSmall):
        parse_expr("(x^2-p)*(x-1)", 7)
    with pytest.raises(ParseError):
        parse_expr("(x^3-p^2)*)", 7)


def test_parse_accepts_trailing_whitespace():
    ref = parse_expr("(x^5-p)", 7)
    for text in ("(x^5-p) ", "(x^5-p)\t", " (x^5-p) \t "):
        assert parse_expr(text, 7) == ref
    # a bad character is still reported from the end of the token before it
    for text, rest in (("(x^5-p) @", " @"), ("(x^5-p)*\t#x", "\t#x")):
        with pytest.raises(ParseError) as err:
            parse_expr(text, 7)
        assert str(err.value) == f"unexpected character at {rest!r}"


def test_parse_cyclotomic_centers():
    e = parse_expr(EX2, 11)
    centers = [f.center for f in e.factors]
    assert centers[0].is_rational and centers[0] == Cyclo.integer(1, 3)
    assert not centers[1].is_rational
    assert centers[1] == Cyclo(3, [0, 1]) and centers[2] == Cyclo(3, [0, 0, 1])


def test_parse_negative_center_and_unit_coeff():
    e = parse_expr("2*((x+3)^4-p^3)*(x-1)", 7)
    assert e.c_unit == 2
    assert e.factors[0].center == Cyclo.integer(-3)


# --- galois closure ---

def test_closure_examples():
    galois_closure_check(parse_expr(EX2, 11))
    galois_closure_check(parse_expr("(x-1)*(x-2)*(x-3)*(x-4)*(x-5)", 7))
    with pytest.raises(NotGaloisClosed):
        galois_closure_check(parse_expr("((x-zeta(3))^2+p^2)*(x^3-p^2)", 11))


# --- required tower ---

def test_required_tower_examples():
    assert required_tower(parse_expr(EX3[0], EX3[1])) == (1, 3)
    assert required_tower(parse_expr(EX1[0], EX1[1])) == (2, 12)
    assert required_tower(parse_expr("(x-1)*(x-2)*(x-3)*(x-4)*(x-5)", 7)) == (1, 1)
    assert required_tower(parse_expr(EX2, 11)) == (2, 2)


# The first two need d = ord_202(p) = 100 for ζ_202; the third has
# ord_194(389) = 1 but a 97th root of 2 only at d = 97; the last has ζ_30 in
# F_61, a 6th root of -7 at 6 | d and a 5th root of -4 at 5 | d, so d = 30
PAST_THE_DEGREE_CAP = [("(x^101-2*p)*(x^2-p)", 7), ("(x^101-2*p)*(x^2-p)", 61),
                       ("(x^97-2*p)*(x^2-p)", 389),
                       ("((x-zeta(5))^6+7*p^8)*((x-zeta(5))^5+4*p^4)", 61)]


@pytest.mark.parametrize("text,p", PAST_THE_DEGREE_CAP)
def test_a_curve_past_the_residue_degree_cap_is_unsupported_within_a_second(text, p):
    t0 = time.perf_counter()
    with pytest.raises(UnsupportedFactor, match=f"residue degree d > {MAX_ZETA_DEGREE}"):
        solubility_decide(parse_expr(text, p))
    assert time.perf_counter() - t0 < 1.0


# --- roots ---

def test_roots_example3():
    expr = parse_expr(EX3[0], EX3[1])
    rs = make_rootset(expr)
    assert rs.size == 6
    # two clusters of three cube roots: within 2/3, across 0
    mat = reference_valuation_matrix(rs)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert mat[i][j] == Fraction(2, 3)
                assert mat[i + 3][j + 3] == Fraction(2, 3)
            assert mat[i][j + 3] == 0
    # in pi units, e = 3, each child keyed by its digit: the cube roots of 1 mod 7
    assert nested_trie(build_picture(rs, expr).top) == (
        0, {(0,): (2, {(1,): 0, (4,): 1, (2,): 2}), (1,): (2, {(1,): 3, (4,): 4, (2,): 5})})
    # tau cycles within each factor, frobenius fixes everything (7 = 1 mod 3)
    assert rs.frob_perm == list(range(6))
    assert sorted(rs.tau_perm[:3]) == [0, 1, 2] and rs.tau_perm[:3] != [0, 1, 2]


def test_roots_example2_frobenius_swaps():
    expr = parse_expr(EX2, 11)  # 11 = 3 mod 4 and 2 mod 3
    rs = make_rootset(expr)
    assert rs.tau_perm == list(range(6))
    assert rs.frob_perm[0] == 1 and rs.frob_perm[1] == 0  # a + ip <-> a - ip
    assert rs.tags[rs.frob_perm[2]][0] == 2               # zeta twins swapped


def test_rational_roots_identity_perms():
    rs = make_rootset(parse_expr("(x-1)*(x-2)*(x-3)*(x-4)*(x-5)", 7))
    assert rs.tau_perm == list(range(5)) and rs.frob_perm == list(range(5))


def test_root_collision_detected():
    with pytest.raises(RootCollision):
        make_rootset(parse_expr("(x^3-p^2)*(x^3-p^2)", 7))


def test_perm_relation_and_orders():
    for text, p in [(EX1[0], 17), (EX2, 11), (EX3[0], 7)]:
        rs = make_rootset(parse_expr(text, p))
        n = rs.size
        tau, frob = rs.tau_perm, rs.frob_perm
        # tau^e = identity
        perm = list(range(n))
        for _ in range(rs.tower.e):
            perm = [tau[i] for i in perm]
        assert perm == list(range(n))
        # frob o tau = tau^p o frob
        lhs = [frob[tau[i]] for i in range(n)]
        rhs = list(range(n))
        for _ in range(p):
            rhs = [tau[i] for i in rhs]
        rhs = [rhs[frob[i]] for i in range(n)]
        assert lhs == rhs


def test_perms_stable_under_precision_doubling():
    for text, p in [(EX1[0], 17), (EX2, 11), (EX3[0], 7)]:
        expr = parse_expr(text, p)
        a = make_rootset(expr)
        b = make_rootset(expr, prec_mult=2)
        assert a.tau_perm == b.tau_perm and a.frob_perm == b.frob_perm
        assert reference_valuation_matrix(a) == reference_valuation_matrix(b)
        assert nested_trie(build_picture(a, expr).top) == nested_trie(build_picture(b, expr).top)


# --- expansion ---

def test_expand_elementary():
    e = parse_expr("(x-1)*(x-2)*(x-3)*(x-4)*(x-5)", 7)
    assert expand_to_integer_poly(e) == [-120, 274, -225, 85, -15, 1]


def test_expand_example2_cyclotomic_cancellation():
    e = parse_expr(EX2, 11)
    poly = expand_to_integer_poly(e)
    assert len(poly) == 7 and poly[-1] == 11
    # compare with an independent numeric expansion over C
    import cmath
    z = cmath.exp(2j * cmath.pi / 3)
    coeffs = [complex(11)]
    for c in (1, z, z * z):
        new = [0j] * (len(coeffs) + 2)
        for i, a in enumerate(coeffs):
            new[i] += a * (c * c + 121)
            new[i + 1] += a * (-2 * c)
            new[i + 2] += a
        coeffs = new
    for mine, ref in zip(poly, coeffs):
        assert abs(mine - ref) < 1e-3 * max(1.0, abs(mine))


def test_expanded_poly_vanishes_at_embedded_roots():
    from clustersol.errors import PrecisionExhausted
    for text, p in [(EX2, 11), (EX3[0], 7)]:
        expr = parse_expr(text, p)
        poly = expand_to_integer_poly(expr)
        rs = make_rootset(expr)
        t = rs.tower
        for r in rs.roots:
            try:
                acc = t.zero()
                for c in reversed(poly):
                    acc = acc * r + t.from_int(c)
            except PrecisionExhausted:
                continue  # cancelled below trusted precision: numerically zero
            assert acc.is_zero or acc.vL > t.e * t.M // 2


def test_expand_degree_and_leading_coefficient():
    e = parse_expr(EX3[0], EX3[1])
    poly = expand_to_integer_poly(e)
    assert len(poly) == 7 and poly[-1] == 7  # degree 6, leading coefficient p


# --- curve files ---

def test_read_curve_file(tmp_path):
    path = tmp_path / "curves.txt"
    path.write_text("# comment\np = 7\np*(x^3-p^2)*((x-1)^3-p^2)\n")
    p, exprs = read_curve_file(path)
    assert p == 7 and exprs == ["p*(x^3-p^2)*((x-1)^3-p^2)"]
    bad = tmp_path / "bad.txt"
    bad.write_text("(x^3-p^2)\n")
    with pytest.raises(ParseError):
        read_curve_file(bad)
