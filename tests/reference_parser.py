"""The recursive-descent curve parser, kept as the reference for ``curves.parse_expr``.

This is the tokenizer and parser that ``clustersol.curves`` used before
its grammar was written as regular expressions, unchanged apart from its
imports.  ``tests/test_curve_grammar.py`` checks that both accept the
same strings and build equal ``CurveExpr``s.
"""

import math
import re

from clustersol.curves import (Binomial, CurveExpr, Cyclo, Linear, _combine_center,
                               _frob_partners, require_odd_prime)
from clustersol.errors import DegreeTooSmall, ParseError, UnsupportedFactor

_TOKEN_RE = re.compile(r"\d+|[A-Za-z]+|\*\*|[()^*+\-]")
_NON_TOKEN_RE = re.compile(r"[^\s\dA-Za-z()^*+\-]")    # starts no token


def _tokenize(text):
    """The tokens, with "**" as "^" and "$" last; whitespace only separates them.

    A character that starts no token is reported from the end of the
    token before it.
    """
    bad = _NON_TOKEN_RE.search(text)
    if bad:
        end = len(text[:bad.start()].rstrip())
        raise ParseError(f"unexpected character at {text[end:end + 10]!r}")
    toks = _TOKEN_RE.findall(text)
    if "**" in text:
        toks = ["^" if tok == "**" else tok for tok in toks]
    toks.append("$")
    return toks


class _Parser:
    def __init__(self, text, p):
        self.toks = _tokenize(text)
        self.i = 0
        self.p = p

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, tok):
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}, found {self.peek()!r}")
        return self.next()

    def parse_int(self):
        sign = 1
        while self.peek() in "+-":
            if self.next() == "-":
                sign = -sign
        t = self.next()
        if not t.isdigit():
            raise ParseError(f"expected integer, found {t!r}")
        return sign * int(t)

    # curve := term { '*' term }
    def parse_curve(self):
        c_unit, c_pow = 1, 0
        factors = []
        first = True
        while True:
            sign = 1
            while self.peek() in "+-":
                if self.next() == "-":
                    sign = -sign
                if not first:
                    raise ParseError("unexpected sign between factors")
            c_unit *= sign
            t = self.peek()
            if t == "(":
                factors.append(self.parse_factor())
            elif t == "p":
                self.next()
                k = 1
                if self.peek() == "^":
                    self.next()
                    k = self.parse_int()
                if k < 0:
                    raise ParseError("negative power of p in leading coefficient")
                c_pow += k
            elif t.isdigit():
                c_unit *= int(self.next())
            else:
                raise ParseError(f"unexpected token {t!r}")
            first = False
            if self.peek() == "*":
                self.next()
                continue
            break
        self.expect("$")
        return c_unit, c_pow, factors

    # factor := '(' poly ')'
    def parse_factor(self):
        self.expect("(")
        fac = self.parse_poly()
        self.expect(")")
        return fac

    # poly := 'x' ['^' n] [rhs] | '(' linear ')' '^' n rhs | linear
    def parse_poly(self):
        if self.peek() == "(":
            self.next()
            center = self.parse_linear_center()
            self.expect(")")
            self.expect("^")
            n = self.parse_int()
            unit, m = self.parse_rhs()
            return Binomial(center, n, unit, m)
        center = None
        n = 1
        if self.peek() != "x":
            raise UnsupportedFactor(
                f"factor must start with 'x' or '(x ...)', found {self.peek()!r}")
        self.next()
        if self.peek() == "^":
            self.next()
            n = self.parse_int()
            unit, m = self.parse_rhs()
            return Binomial(Cyclo.integer(0), n, unit, m)
        if self.peek() in "+-":
            center = self.parse_center_tail()
        else:
            center = Cyclo.integer(0)
        if self.peek() == ")":
            return Linear(center)
        raise UnsupportedFactor("parenthesised polynomial does not match "
                                "(x - c)^n - u*p^m or a linear x - c")

    # after '(' ... : 'x' [('+'|'-') centersum]
    def parse_linear_center(self):
        if self.peek() != "x":
            raise UnsupportedFactor("expected 'x' at start of linear part")
        self.next()
        if self.peek() in "+-":
            return self.parse_center_tail()
        return Cyclo.integer(0)

    def parse_center_tail(self):
        # consumes ('+'|'-') centersum; returns the CENTER c of (x - c)
        terms = []
        while self.peek() in "+-":
            sign = -1 if self.next() == "+" else 1   # x + a means center -a
            if self.peek() == "(":
                self.next()
                inner = self.parse_center_group()
                self.expect(")")
                terms.extend((sign * s, z) for s, z in inner)
            else:
                s, z = self.parse_center_atom()
                terms.append((sign * s, z))
        return _combine_center(terms)

    def parse_center_group(self):
        # centersum with leading optional sign, inside parentheses
        terms = []
        sign = 1
        if self.peek() in "+-":
            sign = -1 if self.next() == "-" else 1
        s, z = self.parse_center_atom()
        terms.append((sign * s, z))
        while self.peek() in "+-":
            sign = -1 if self.next() == "-" else 1
            s, z = self.parse_center_atom()
            terms.append((sign * s, z))
        return terms

    def parse_center_atom(self):
        # INT ['*' zeta-term] | zeta-term ['*' INT]
        if self.peek().isdigit():
            val = int(self.next())
            if self.peek() == "*" and self.toks[self.i + 1] == "zeta":
                self.next()
                z = self.parse_zeta()
                return val, z
            return val, None
        if self.peek() == "zeta":
            z = self.parse_zeta()
            if self.peek() == "*" and self.toks[self.i + 1].isdigit():
                self.next()
                return int(self.next()), z
            return 1, z
        raise UnsupportedFactor(f"bad center term near {self.peek()!r}")

    def parse_zeta(self):
        self.expect("zeta")
        self.expect("(")
        N = self.parse_int()
        self.expect(")")
        k = 1
        if self.peek() == "^":
            self.next()
            k = self.parse_int()
        if N < 1:
            raise ParseError("zeta conductor must be >= 1")
        return (N, k)

    def parse_rhs(self):
        # ('+'|'-') [INT '*'] 'p' ['^' INT]   representing  - u * p^m
        if self.peek() not in "+-":
            raise UnsupportedFactor("power factor must end with +/- unit*p^m")
        sign = 1 if self.next() == "-" else -1
        unit = 1
        if self.peek().isdigit():
            unit = int(self.next())
            if self.peek() != "*":
                raise UnsupportedFactor(
                    "right-hand side must be unit*p^m with m >= 1")
            self.next()
        if self.peek() != "p":
            raise UnsupportedFactor("right-hand side must be a multiple of a power of p")
        self.next()
        m = 1
        if self.peek() == "^":
            self.next()
            m = self.parse_int()
        if m < 1:
            raise UnsupportedFactor("p must appear with exponent >= 1 on the right-hand side")
        return sign * unit, m



def parse_expr(text, p):
    """Parse one curve expression for the prime p."""
    require_odd_prime(p)
    c_unit, c_pow, factors = _Parser(text, p).parse_curve()
    if c_unit == 0:
        raise ParseError("zero leading coefficient")
    # absorb p-divisibility of the unit part
    while c_unit % p == 0:
        c_unit //= p
        c_pow += 1
    # promote all centers to the common conductor
    N = 1
    for f in factors:
        N = math.lcm(N, f.center.N)
    promoted = []
    for f in factors:
        c = f.center.substitute(N, N // f.center.N)
        if isinstance(f, Linear):
            promoted.append(Linear(c))
        else:
            if f.n < 1:
                raise UnsupportedFactor("exponent must be >= 1")
            if f.rhs_unit % p == 0:
                raise UnsupportedFactor("rhs unit must be coprime to p")
            promoted.append(Binomial(c, f.n, f.rhs_unit, f.rhs_pow))
    expr = CurveExpr(p, c_unit, c_pow, promoted, _frob_partners(p, promoted),
                     text=text.strip())
    if expr.degree < 5:
        raise DegreeTooSmall(f"deg f = {expr.degree} < 5")
    return expr
