"""The curve grammar: the regular expressions of ``curves.parse_expr`` against
the recursive-descent parser they replaced (``tests/reference_parser.py``).

Both must accept the same strings and build equal ``CurveExpr``s, factor
types and text included.  Where both reject, the class may differ: the
new one follows the rule in the ``curves`` module docstring, and
``DegreeTooSmall`` is raised exactly where the reference raises it.
"""

import json
import random
import time

import pytest

import reference_parser
from clustersol.cli import main
from clustersol.corpus import random_curve_text
from clustersol.curves import (MAX_CONDUCTOR, MAX_ZETA_DEGREE, Binomial, Cyclo, Linear,
                              parse_expr, read_curve_file)
from clustersol.errors import ClusterSolError, DegreeTooSmall, ParseError, UnsupportedFactor
from clustersol.numutil import mult_order

PRIMES = (7, 13)
CONDUCTORS = (0, 1, 2, 3, 4, 6)
SOUP = ["x", "p", "zeta", "(", ")", "^", "**", "*", "+", "-", "0", "1", "2", "3", "7", "13",
        "y", "xp", " ", "\t", "zeta(3)", "zeta(3)^2", "(x", "-1)", "-p", "2*p", "x^5"]


def grammar_tokens(rng):
    """The tokens of a random string of the grammar, every form and option in reach."""
    def num():
        return [str(rng.choice([0, 1, 1, 2, 3, 4, 5, 7, 13, 14, 26, 49, 1001]))]

    def signed():
        return [rng.choice("+-") for _ in range(rng.choice([0, 0, 0, 1, 2]))] + num()

    def zeta():         # conductors whose lcm stays small
        z = ["zeta", "(", *[rng.choice("+-")] * (rng.random() < 0.1), str(rng.choice(CONDUCTORS)), ")"]
        return z + ["^", *signed()] if rng.random() < 0.6 else z

    def atom():
        return rng.choice([num, num, lambda: num() + ["*"] + zeta(), zeta,
                           lambda: zeta() + ["*"] + num()])()

    def tail():
        out = []
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            if rng.random() < 0.3:
                out += [rng.choice("+-"), "("] + [rng.choice("+-")] * rng.randint(0, 1) + atom()
                for _ in range(rng.randint(0, 2)):
                    out += [rng.choice("+-")] + atom()
                out.append(")")
            else:
                out += [rng.choice("+-")] + atom()
        return out

    def power():
        unit = num() + ["*"] if rng.random() < 0.5 else []
        out = ["^", *signed(), rng.choice("+-"), *unit, "p"]
        return out + ["^", *signed()] if rng.random() < 0.7 else out

    def term():
        r = rng.random()
        if r < 0.1:
            return num()
        if r < 0.2:
            return ["p"] + (["^", *signed()] if rng.random() < 0.5 else [])
        if r < 0.45:
            return ["(", "x", *tail(), ")"]
        if r < 0.65:
            return ["(", "x", *power(), ")"]
        return ["(", "(", "x", *tail(), ")", *power(), ")"]

    toks = [rng.choice("+-") for _ in range(rng.choice([0, 0, 1, 2]))] + term()
    for _ in range(rng.randint(1, 5)):
        toks += ["*"] + term()
    return toks


def render(rng, toks):
    """The tokens as text, with some whitespace, and some '^' written '**'."""
    return "".join(" " * (rng.random() < 0.1) + ("**" if t == "^" and rng.random() < 0.2 else t)
                   for t in toks)


def mutate(rng, toks):
    toks = list(toks)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(toks) + 1)
        r = rng.random()
        if r < 0.35:
            toks.insert(i, rng.choice(SOUP))
        elif r < 0.65:
            del toks[i:i + 1]
        elif r < 0.9:
            toks[i:i + 1] = [rng.choice(SOUP)]
        else:
            j = rng.randrange(len(toks) + 1)
            del toks[min(i, j):max(i, j)]
    return toks


def corpus_strings(seed, count):
    """Grammar strings, generator curves, their mutations and token soups."""
    rng = random.Random(seed)
    out = []
    for _ in range(count // 10):
        out.append(random_curve_text(rng, rng.choice((7, 11, 13, 17))))
        out.append(render(rng, grammar_tokens(rng)))
    while len(out) < count:
        r = rng.random()
        if r < 0.25:
            out.append(render(rng, grammar_tokens(rng)))
        elif r < 0.9:
            out.append(render(rng, mutate(rng, grammar_tokens(rng))))
        else:
            out.append("".join(rng.choice(SOUP) for _ in range(rng.randint(1, 16))))
    return out


def outcome(parse, text, p):
    try:
        expr = parse(text, p)
    except ClusterSolError as ex:
        return "rejected", type(ex)
    return "accepted", expr


def test_agrees_with_the_reference_parser():
    counts = {"accepted": 0, "rejected": 0, "class changed": 0}
    for text in corpus_strings(20, 6000):
        for p in PRIMES:
            (ref, want), (new, got) = outcome(reference_parser.parse_expr, text, p), \
                outcome(parse_expr, text, p)
            assert ref == new, (text, p, want, got)
            counts[new] += 1
            if new == "accepted":
                assert got == want and got.text == want.text, (text, p)
                assert [type(f) for f in got.factors] == [type(f) for f in want.factors]
            else:
                assert got in (ParseError, UnsupportedFactor, DegreeTooSmall), (text, p, got)
                assert (got is DegreeTooSmall) == (want is DegreeTooSmall), (text, p, want, got)
                counts["class changed"] += got is not want
    # every branch is exercised: many curves accepted, many rejected both ways
    assert counts["accepted"] > 1500 and counts["rejected"] > 6000, counts


ACCEPTED = [
    # a parenthesised centre group, signed inside
    ("((x-(1-zeta(3)))^2-p)*((x+(-1+zeta(3)^2))^3-p)",
     lambda e: e.factors[0].center == Cyclo(3, [1, -1]) and e.factors[1].center == Cyclo(3, [1, 0, -1])),
    # INT*zeta(N)^k and zeta(N)^k*INT
    ("(x-2*zeta(3)^2)*(x-zeta(3)^2*2)*(x^3-p)",
     lambda e: e.factors[0] == e.factors[1] == Linear(Cyclo(3, [0, 0, 2]))),
    # '**' and whitespace
    (" 2 * ( x ** 5 - 3 * p ** 2 )\t",
     lambda e: (e.c_unit, e.factors) == (2, [Binomial(Cyclo.integer(0), 5, 3, 2)])),
    # repeated signs in an integer, and before the first term
    ("--(x^--5-p^+-+-2)", lambda e: e.c_unit == 1 and e.factors[0].n == 5 and e.factors[0].rhs_pow == 2),
    ("-+-3*p^0*(x^5+p)", lambda e: (e.c_unit, e.c_pow, e.factors[0].rhs_unit) == (3, 0, -1)),
    # (x)^n is the shifted form with centre 0
    ("((x)^5-p)", lambda e: e.factors == [Binomial(Cyclo.integer(0), 5, 1, 1)]),
]


@pytest.mark.parametrize("text,check", ACCEPTED, ids=[t for t, _ in ACCEPTED])
def test_each_form_is_accepted(text, check):
    expr = parse_expr(text, 7)
    assert check(expr)
    assert expr == reference_parser.parse_expr(text, 7)


LONG = "9" * 5000

REJECTED = [
    # ParseError: a character that starts no token
    ("(x^5-p)@", ParseError),
    # ... two words or numbers with no operator between them
    ("(x^5-p)*2 3", ParseError), ("(x-2x)*(x^4-p)", ParseError), ("(x-ze ta(3))*(x^4-p)", ParseError),
    # ... text that is not [signs] term {'*' term} with balanced groups
    ("(x^3-p^2)*)", ParseError), ("(x^5-p)(x-1)", ParseError), ("((x^5-p)", ParseError),
    ("(x-1)*-(x^4-p)", ParseError), ("x^5-p", ParseError), ("", ParseError),
    # ... a negative power of p, a zeta conductor below 1, a zero leading coefficient
    ("p^-1*(x^5-p)", ParseError), ("(x-zeta(0))*(x^4-p)", ParseError), ("0*(x^5-p)", ParseError),
    # ... an integer past the interpreter's digit limit
    (f"(x-{LONG})*(x^5-p)", ParseError), (f"(x^5-p^{LONG})", ParseError),
    # UnsupportedFactor: a balanced group that is no factor
    ("(x^2-zeta(3))*(x^3-p^2)", UnsupportedFactor), ("(x^5-p+1)", UnsupportedFactor),
    ("((x-1))*(x^5-p)", UnsupportedFactor), ("((((x))))*(x^5-p)", UnsupportedFactor),
    # ... n < 1, m < 1, p | u
    ("(x^0-p)*(x^5-p)", UnsupportedFactor), ("(x^5-p^0)", UnsupportedFactor),
    ("(x^5-14*p)", UnsupportedFactor),
    # DegreeTooSmall
    ("(x^2-p)*(x-1)", DegreeTooSmall),
]


@pytest.mark.parametrize("text,error", REJECTED, ids=[t[:30] for t, _ in REJECTED])
def test_each_clause_of_the_rule_is_its_class(text, error):
    with pytest.raises(error) as raised:
        parse_expr(text, 7)
    assert type(raised.value) is error
    if error is UnsupportedFactor:      # the message names the factor
        assert "factor '(" in str(raised.value)


def test_a_shape_error_comes_before_a_factor_error():
    # the first factor fits no form, but the text has no shape at all
    with pytest.raises(ParseError):
        parse_expr("(x^5)*)", 7)
    with pytest.raises(UnsupportedFactor, match=r"factor '\(x\^5\)'"):
        parse_expr("(x^5)*(x^5-p)", 7)


def test_long_inputs_are_decided_quickly():
    cases = {
        "centre tail": ("(x" + "-1" * 50_000 + ")*(x^4-p)", None),
        "malformed group": ("(x" + "-1" * 50_000 + "-)*(x^4-p)", UnsupportedFactor),
        "signs": ("-" * 100_000 + "(x^5-p)", None),
        "signs in a group": ("(x-(" + "+-" * 50_000 + "1))*(x^4-p)", UnsupportedFactor),
        "nested": ("(" * 30_000 + "x" + ")" * 30_000, UnsupportedFactor),
        "nested, one short": ("(" * 30_000 + "x" + ")" * 29_999, ParseError),
        "factors": ("*".join(f"((x-{i})^1-p)" for i in range(8_000)), None),
    }
    for name, (text, error) in cases.items():
        start = time.perf_counter()
        if error is None:
            parse_expr(text, 7)
        else:
            with pytest.raises(error):
                parse_expr(text, 7)
        assert time.perf_counter() - start < 2.0, name
    assert parse_expr(cases["centre tail"][0], 7).factors[0].center == Cyclo.integer(50_000)
    assert parse_expr(cases["factors"][0], 7).degree == 8_000


def test_a_curve_file_header_past_the_digit_limit_is_a_parse_error(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(f"p = {LONG}\n(x^5-p)\n")
    with pytest.raises(ParseError, match="5000 digits"):
        read_curve_file(path)


def test_a_batch_reports_the_curves_around_a_literal_past_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(f"p = 7\n(x-1)*(x^4-p)\n(x-{LONG})*(x^5-p)\np*(x^3-p^2)*((x-1)^3-p^2)\n")
    code = main(["analyze", "--curve", str(path), "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert [r.get("solubility") for r in rows] == ["Soluble", None, "Insoluble"]
    assert rows[1]["error"]["class"] == "ParseError"
    assert code == 1


# the lcm of their conductors is 5,005 and 17,017; uncapped, they held the parser for seconds
LARGE_CONDUCTORS = ("(x-zeta(385))*(x-zeta(13))*(x^3-p)", "(x-zeta(1001))*(x-zeta(17))*(x^3-p)")


@pytest.mark.parametrize("p, conductors", [(3, range(1, 80)), (7, range(1, 80)),
                                           (7, range(990, 1010)), (3001, (999, 1000, 1001))])
def test_a_zeta_conductor_is_capped_with_its_residue_degree(p, conductors):
    for N in conductors:
        text = f"(x-zeta({N}))*(x^4-p)"
        if N > MAX_CONDUCTOR or N % p and mult_order(p, N) > MAX_ZETA_DEGREE:
            with pytest.raises(UnsupportedFactor, match=rf"factor '\(x-zeta\({N}\)\)' has zeta conductor"):
                parse_expr(text, p)
        else:
            assert parse_expr(text, p).conductor == N


def test_the_common_conductor_is_capped_too():
    # ord_40(7) = 4 and ord_27(7) = 9, but lcm(40, 27) = 1,080
    with pytest.raises(UnsupportedFactor, match="the curve has zeta conductor N = 1080"):
        parse_expr("(x-zeta(40))*(x-zeta(27))*(x^3-p)", 7)
    # ord_32(7) = 4 and ord_27(7) = 9: lcm(32, 27) = 864, of order 36
    with pytest.raises(UnsupportedFactor, match="the curve has zeta conductor N = 864"):
        parse_expr("(x-zeta(32))*(x-zeta(27))*(x^3-p)", 7)


def test_a_large_conductor_is_rejected_at_once():
    for text in LARGE_CONDUCTORS:
        start = time.perf_counter()
        with pytest.raises(UnsupportedFactor):
            parse_expr(text, 3)
        assert time.perf_counter() - start < 0.5, text


def test_a_batch_reports_the_curves_around_a_large_conductor(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("p = 3\n(x-1)*(x^4-p)\n" + "\n".join(LARGE_CONDUCTORS) + "\n(x-2)*(x^4-p)\n")
    start = time.perf_counter()
    code = main(["analyze", "--curve", str(path), "--json"])
    assert time.perf_counter() - start < 0.5
    rows = json.loads(capsys.readouterr().out)
    assert ["solubility" in r for r in rows] == [True, False, False, True]
    assert [r["error"]["class"] for r in rows[1:3]] == ["UnsupportedFactor"] * 2
    assert code == 1
