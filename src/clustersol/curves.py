"""Curve descriptions: parsing, exact expansion, and root embedding.

The accepted inputs are products of shifted binomials

    y^2 = c * prod_i ((x - c_i)^{n_i} - u_i * p^{m_i})  *  prod_j (x - c_j)

with integer-or-cyclotomic centers, n_i and the conductors prime to p,
and u_i a nonzero integer prime to p.  This family admits exact root
extraction in a tame tower; anything else is rejected as unsupported.

Each root is written straight into its tower columns (``extract_roots``).

Pairwise valuations are read one way only, one trusted pi-adic digit at
a time (``digit``): v(x - y) >= N exactly when x and y agree in every
digit below pi^N.  So the roots' digit trie is their cluster tree
(``clusters.build_picture``), and x - y leads with the difference of
their digits at pi^N, N = v(x - y).  The Galois action on the roots
reads no digit at all: each root is tagged by its factor and branch,
and tau and frob permute the tags (``galois_perms``), with Frobenius's
shift of each radical kept once per (p, d, M) (``tame.Tower.frob_shift``).
"""

import math
import re
from typing import NamedTuple

from .errors import (DegreeTooSmall, InternalError,
                     NonRationalCoefficient, NotGaloisClosed, ParseError,
                     PrecisionExhausted, RootCollision, UnsupportedFactor,
                     WildInput)
from .numutil import cyclotomic_poly, is_prime, mult_order, poly_divmod_monic, resultant, vp
from .tame import add_branch


# ------------------------------------------------------------------
# exact cyclotomic integers Z[zeta_N]
# ------------------------------------------------------------------

class Cyclo:
    """An element of Z[zeta_N], reduced modulo the N-th cyclotomic polynomial."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N, coeffs):
        self.N = N
        phi = len(cyclotomic_poly(N)) - 1
        c = list(coeffs)
        if len(c) > phi:
            c = poly_divmod_monic(c, cyclotomic_poly(N))[1]
        self.coeffs = tuple(c + [0] * (phi - len(c)))

    @classmethod
    def integer(cls, n, N=1):
        return cls(N, [n])

    @classmethod
    def zeta_power(cls, N, k):
        k %= N
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        return cls(N, coeffs)

    def substitute(self, M, k):
        """The image in Z[zeta_M] under zeta_N -> zeta_M^k; requires N | M.

        k = M/N re-expresses the element, and M = N, k = p conjugates it.
        M = N with k = 1 mod N, as for any rational element under k = p,
        is the identity.
        """
        if M == self.N and k % M == 1 % M:
            return self
        out = [0] * M
        for j, c in enumerate(self.coeffs):
            out[(j * k) % M] += c
        return Cyclo(M, out)

    def __add__(self, other):
        assert self.N == other.N
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Cyclo(self.N, a)

    def __neg__(self):
        return Cyclo(self.N, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        assert self.N == other.N
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Cyclo(self.N, out)

    @property
    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def to_int(self):
        if not self.is_rational:
            raise NonRationalCoefficient(f"{self} is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        return isinstance(other, Cyclo) and self.N == other.N and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.N, self.coeffs))

    def __repr__(self):
        if self.is_rational:
            return str(self.coeffs[0])
        parts = []
        for j, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*zeta({self.N})^{j}" if j else str(c))
        return " + ".join(parts) or "0"


# ------------------------------------------------------------------
# curve expressions
# ------------------------------------------------------------------

class Linear(NamedTuple):
    center: Cyclo

    @property
    def degree(self):
        return 1


class Binomial(NamedTuple):
    center: Cyclo
    n: int
    rhs_unit: int
    rhs_pow: int

    @property
    def degree(self):
        return self.n


class CurveExpr(NamedTuple):
    p: int
    c_unit: int            # sign * unit integer, coprime to p
    c_pow: int             # power of p in the leading coefficient
    factors: list
    frob: tuple            # per factor, the index of its Frobenius partner or None
    text: str = ""

    @property
    def degree(self):
        return sum(f.degree for f in self.factors)

    @property
    def genus(self):
        return -(-self.degree // 2) - 1

    @property
    def conductor(self):
        N = 1
        for f in self.factors:
            N = math.lcm(N, f.center.N)
        return N

    def c_f(self):
        return self.c_unit * self.p ** self.c_pow


# ------------------------------------------------------------------
# tokenizer / parser
# ------------------------------------------------------------------

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


def _combine_center(terms):
    """Combine (coeff, zeta-or-None) terms into one Cyclo over the lcm conductor."""
    N = 1
    for _, z in terms:
        if z is not None:
            N = math.lcm(N, z[0])
    if N == 1:
        return Cyclo.integer(sum(coeff for coeff, _ in terms))
    acc = Cyclo.integer(0, N)
    for coeff, z in terms:
        if z is None:
            acc = acc + Cyclo.integer(coeff, N)
        else:
            zn, k = z
            acc = acc + Cyclo.integer(coeff, N) * Cyclo.zeta_power(N, k * (N // zn))
    return acc


def require_odd_prime(p):
    if not is_prime(p) or p == 2:
        raise ParseError(f"p = {p} must be an odd prime")


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


# ------------------------------------------------------------------
# Galois closure and tower requirements
# ------------------------------------------------------------------

def _factor_key(f):
    if isinstance(f, Linear):
        return ("lin", f.center.coeffs)
    return ("bin", f.center.coeffs, f.n, f.rhs_unit, f.rhs_pow)


def _frob_partners(p, factors):
    """Per factor, the index of the one with its roots' images under zeta_N -> zeta_N^p, or None."""
    by_key = {_factor_key(f): fi for fi, f in enumerate(factors)}
    return tuple(by_key.get(_factor_key(f._replace(center=f.center.substitute(f.center.N, p))))
                 for f in factors)


def galois_closure_check(expr):
    """Check the factor multiset is stable under zeta_N -> zeta_N^p."""
    keys = [_factor_key(f) for f in expr.factors]
    for f, key, fi2 in zip(expr.factors, keys, expr.frob, strict=True):
        if fi2 is None or keys.count(keys[fi2]) != keys.count(key):
            raise NotGaloisClosed(
                f"factor with center {f.center!r} has an incomplete Frobenius orbit")
    return True


def required_tower(expr):
    """Degrees (d, e) of the tame tower needed to split f."""
    p = expr.p
    N = expr.conductor
    if N % p == 0:
        raise WildInput(f"conductor {N} divisible by p = {p}")
    e = 1
    for f in expr.factors:
        if isinstance(f, Binomial):
            if f.n % p == 0:
                raise WildInput(f"binomial exponent {f.n} divisible by p = {p}")
            e = math.lcm(e, f.n)
    d0 = mult_order(p, math.lcm(N, e))
    d = d0
    for _ in range(64):
        q1 = p ** d - 1
        ok = True
        for f in expr.factors:
            if isinstance(f, Binomial):
                g = math.gcd(f.n, q1)
                ex = (q1 // g) % (p - 1)
                if pow(f.rhs_unit % p, ex if ex else p - 1, p) != 1 % p:
                    ok = False
                    break
        if ok:
            return d, e
        d += d0
    raise InternalError("no residue degree makes all units n-th powers")


# ------------------------------------------------------------------
# root embedding
# ------------------------------------------------------------------

class RootSet:
    __slots__ = ("expr", "tower", "roots", "tags", "tau_perm", "frob_perm")

    def __init__(self, expr, tower, roots, tags):
        self.expr, self.tower, self.roots, self.tags = expr, tower, roots, tags
        self.tau_perm = self.frob_perm = None

    @property
    def size(self):
        return len(self.roots)


def embed_cyclo(tower, c):
    """Exact embedding of a cyclotomic integer via Teichmueller lifts.

    p^v, v the coefficients' least valuation, is divided out before the
    sum, so the centre is trusted below pi^(e(v + M)), as ``from_int``
    trusts an integer.
    """
    if c.is_rational:
        return tower.from_int(c.coeffs[0])
    p = tower.p
    v = min(vp(x, p) for x in c.coeffs if x)
    zN = tower.zeta(c.N)
    acc = tower.w_zero()
    zp = tower.w_one()
    for coeff in c.coeffs:
        if coeff:
            acc = tower.w_add(acc, tower.w_scale(zp, coeff // p ** v))
        zp = tower.w_mul(zp, zN)
    return tower.from_w(acc, tower.e * v)


def extract_roots(expr, tower):
    """Embed all roots of f into the tower, tagged by (factor, branch).

    Root j of (x - c)^n - u p^m is c + w_j pi^k, with k = me/n, y the
    tower's u^(1/n) and w_j = y zeta_n^j = w_(j-1) zeta_n in W; a linear
    factor's root is its centre.  Each root is written into columns by
    ``tame.add_branch``: a zero centre gives w_j pi^k, trusted in all M
    digits; otherwise the root is trusted below min(abs_prec(c), k + eM),
    and a sum that cancels is normalised under that level.

    Two equal factors have equal roots: RootCollision.
    """
    reject_repeated_factors(expr)
    roots, tags = [], []
    for fi, f in enumerate(expr.factors):
        center = embed_cyclo(tower, f.center)
        if isinstance(f, Linear):
            roots.append(center)
            tags.append((fi, 0))
            continue
        n, u, m = f.n, f.rhs_unit, f.rhs_pow
        if (m * tower.e) % n != 0:
            raise InternalError("tower ramification does not split the binomial")
        k, w = m * tower.e // n, tower.unit_nth_root(u, n)
        zeta_n = tower.zeta(n) if n > 1 else None
        for j in range(n):
            if j:
                w = tower.w_mul(w, zeta_n)
            roots.append(add_branch(center, k, w))
            tags.append((fi, j))
    return RootSet(expr, tower, roots, tags)


def reject_repeated_factors(expr):
    """RootCollision naming the first root of the first factor that repeats later."""
    fs = expr.factors
    for i, f in enumerate(fs):
        if f in fs[i + 1:]:
            raise RootCollision(
                f"roots {(i, 0)} and {(fs.index(f, i + 1), 0)} coincide: f is not squarefree")


def digit(x, N):
    """The pi-adic digit of x at pi^N, in F_q: zero when x is zero or vL > N.

    It is the p^k digit of column i for N - vL = i + ek.  Digits below
    the trusted level abs_prec are read; one at or above it raises
    PrecisionExhausted.
    """
    t, vL = x.tower, x.vL
    if vL is None or vL > N:
        return t.fq.zero
    e = t.e
    if N >= vL + e * x.rel:
        raise PrecisionExhausted(
            f"matching needs digits below pi^{N + 1}, trusted only below pi^{vL + e * x.rel}")
    k, i = divmod(N - vL, e)
    pk, p = t.p ** k, t.p
    return tuple([c // pk % p for c in x.unit[i]])


def galois_perms(rs):
    """Fill tau_perm and frob_perm from the roots' (factor, branch) tags.

    Root j of (x - c)^n - u p^m is c + zeta_n^j y pi^(me/n), for y the
    canonical radical u^(1/n) and zeta_n = zeta_e^(e/n), Teichmueller
    lifts; a linear factor is the case n = 1.  tau fixes c and y and
    multiplies pi^(me/n) by zeta_n^m: (fi, j) -> (fi, j + m mod n).  frob
    fixes pi, sends c to its conjugate c' and y to zeta_n^s y, with s the
    tower's ``frob_shift(u, n)``.  So (fi, j) -> (fi', s + pj mod n) for
    fi' the factor with centre c' and the same (n, u, m).
    """
    t, p, size = rs.tower, rs.tower.p, rs.size
    index = {tag: i for i, tag in enumerate(rs.tags)}
    rs.tau_perm, rs.frob_perm = [None] * size, [None] * size
    for fi, (f, fi2) in enumerate(zip(rs.expr.factors, rs.expr.frob, strict=True)):
        if fi2 is None:
            raise NotGaloisClosed(
                f"factor with center {f.center!r} has no Frobenius conjugate")
        n, m, s = (f.n, f.rhs_pow, 0) if isinstance(f, Binomial) else (1, 0, 0)
        if n > 1:
            s = t.frob_shift(f.rhs_unit, n)
        for j in range(n):
            i = index[fi, j]
            rs.tau_perm[i] = index[fi, (j + m) % n]
            rs.frob_perm[i] = index[fi2, (s + p * j) % n]
    for name, perm in (("tau", rs.tau_perm), ("frob", rs.frob_perm)):
        if sorted(perm) != list(range(size)):
            raise InternalError(f"{name} image is not a permutation")
    # tame relation frob o tau == tau^p o frob on indices
    lhs = [rs.frob_perm[rs.tau_perm[i]] for i in range(size)]
    rhs = list(range(size))
    for _ in range(p % perm_order(rs.tau_perm)):
        rhs = [rs.tau_perm[i] for i in rhs]
    rhs = [rhs[rs.frob_perm[i]] for i in range(size)]
    if lhs != rhs:
        raise InternalError("tame relation fails on the root permutations")
    return rs


def perm_order(perm):
    """Order of a permutation given as an index list: the lcm of its cycle lengths."""
    n = len(perm)
    order = 1
    seen = [False] * n
    for i in range(n):
        if not seen[i]:
            length, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            order = math.lcm(order, length)
    return order


# ------------------------------------------------------------------
# exact integer expansion (oracle input)
# ------------------------------------------------------------------

def expand_to_integer_poly(expr):
    """Exact coefficients of f over Z, including the leading coefficient."""
    N = expr.conductor
    one = Cyclo.integer(1, N)
    poly = [one]
    for f in expr.factors:
        c = f.center
        if isinstance(f, Linear):
            fac = [-c, one]
        else:
            negc_pow = [one]
            for _ in range(f.n):
                negc_pow.append(negc_pow[-1] * (-c))
            fac = [Cyclo.integer(math.comb(f.n, k), N) * negc_pow[f.n - k]
                   for k in range(f.n + 1)]
            fac[0] = fac[0] - Cyclo.integer(f.rhs_unit * expr.p ** f.rhs_pow, N)
        poly = _cyclo_poly_mul(poly, fac)
    cf = expr.c_f()
    out = []
    for coeff in poly:
        if not coeff.is_rational:
            raise NonRationalCoefficient(
                "expanded coefficient has a nonzero cyclotomic part")
        out.append(cf * coeff.to_int())
    return out


def resultant_norm(f, g, p):
    """The norm to Q of res(f, g), 0 exactly when the factors share a root.

    With y = x - (f's centre) and d = f's centre - g's, it is the resultant
    of y^n - a with the product of (y + d)^n' - a' over d's conjugates (a
    linear factor has n = 1, a = 0), an integer polynomial.
    """
    N, one = f.center.N, Cyclo.integer(1, f.center.N)
    f, g = sorted((f, g), key=lambda h: -h.degree)          # the product over g's degree
    n, a = (f.n, f.rhs_unit * p ** f.rhs_pow) if isinstance(f, Binomial) else (1, 0)
    n2, a2 = (g.n, g.rhs_unit * p ** g.rhs_pow) if isinstance(g, Binomial) else (1, 0)
    d, product = f.center - g.center, [one]
    for k in ([1] if d.is_rational else range(N)):
        if math.gcd(k, N) == 1:
            conj = [one]
            for _ in range(n2):
                conj = _cyclo_poly_mul(conj, [d.substitute(N, k), one])
            conj[0] = conj[0] - Cyclo.integer(a2, N)
            product = _cyclo_poly_mul(product, conj)
    return resultant([-a] + [0] * (n - 1) + [1], [c.to_int() for c in product])


def _cyclo_poly_mul(a, b):
    N = a[0].N
    out = [Cyclo.integer(0, N) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


# ------------------------------------------------------------------
# curve file format
# ------------------------------------------------------------------

def read_curve_file(path):
    """Read 'p = <int>' header plus one expression per line."""
    p = None
    exprs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            m = re.fullmatch(r"p\s*=\s*(\d+)", line)
            if m:
                if p is not None:
                    raise ParseError("duplicate 'p =' header")
                p = int(m.group(1))
                continue
            if p is None:
                raise ParseError("curve file must start with a 'p = <int>' header")
            exprs.append(line)
    if p is None or not exprs:
        raise ParseError("curve file needs a header and at least one expression")
    return p, exprs
