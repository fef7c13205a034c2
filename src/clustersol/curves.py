"""Curve descriptions: parsing, exact expansion, and root embedding.

The accepted inputs are products of shifted binomials

    y^2 = c * prod_i ((x - c_i)^{n_i} - u_i * p^{m_i})  *  prod_j (x - c_j)

with integer-or-cyclotomic centers, n_i and the conductors prime to p,
and u_i a nonzero integer prime to p.  This family admits exact root
extraction in a tame tower; anything else is rejected as unsupported.

A zeta conductor N, of one centre or the lcm of all of them, is at most
MAX_CONDUCTOR = 1,000, and when p does not divide it, d = ord_N(p) is at
most MAX_ZETA_DEGREE = 24.  The same cap bounds the tower's residue
degree d, where F_{p^d} must also hold zeta_e, e = lcm(n_i), and each
n_i-th root of u_i: past it ``required_tower`` raises UnsupportedFactor.
Every centre is reduced mod Phi_N, built by one polynomial division per
divisor of N, and the tower's residue field F_{p^d} by factoring p^d - 1
and searching for a primitive modulus.  Both costs grow faster than N
and d, and the caps keep one line of a curve file from holding a batch
for seconds.

The text is read with its whitespace removed and "**" as "^".  With INT
a run of digits and sign one of '+' and '-', its grammar is

    curve  := {sign} term {'*' term}
    term   := INT | 'p' ['^' int] | factor
    factor := '(' '(' 'x' tail ')' '^' int rhs ')'      (x - c)^n - u*p^m
            | '(' 'x' '^' int rhs ')'                    x^n - u*p^m
            | '(' 'x' tail ')'                           x - c
    rhs    := sign [INT '*'] 'p' ['^' int]
    tail   := {sign ('(' [sign] atom {sign atom} ')' | atom)}
    atom   := INT ['*' zeta] | zeta ['*' INT]
    zeta   := 'zeta' '(' int ')' ['^' int]
    int    := {sign} INT

Its parentheses nest four deep at most: it is a regular language, written
once as ``_TERM_RE``.  The first of these checks that fails names the error:

1. ParseError: a character that starts no token, two words or numbers with
   no operator between them, or text that is not {sign} term {'*' term}
   with each term an INT, p[^k] or a balanced parenthesised group;
2. UnsupportedFactor, naming it: the first such group that is no factor;
3. term by term from the left, ParseError for an integer past the
   interpreter's digit limit, a zero INT, a negative power of p or a zeta
   conductor below 1, and UnsupportedFactor, naming the factor, for a
   centre's conductor past the caps above, n < 1, m < 1 or p | u;
4. UnsupportedFactor: the lcm of the centres' conductors past the caps;
5. DegreeTooSmall: deg f < 5.

Each root is written straight into its tower columns (``extract_roots``).
The oracle's input, f over Z (``expand_to_integer_poly``), is one flat
integer product over Z[x, zeta_N], reduced mod Phi_N once at the end
(``_integer_product``).

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
from .numutil import (cyclotomic_poly, is_prime, mult_order, poly_divmod_monic, poly_mul,
                      resultant, vp)
from .tame import add_branch


# ------------------------------------------------------------------
# exact cyclotomic integers Z[zeta_N]
# ------------------------------------------------------------------

class Cyclo:
    """An element of Z[zeta_N], reduced modulo the N-th cyclotomic polynomial."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N, coeffs):
        self.N = N
        phi_N = cyclotomic_poly(N)
        c = list(coeffs)
        if len(c) >= len(phi_N):
            c = poly_divmod_monic(c, phi_N)[1]
        self.coeffs = tuple(c + [0] * (len(phi_N) - 1 - len(c)))

    @classmethod
    def integer(cls, n, N=1):
        return cls(N, [n])

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

    @property
    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

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
        return math.lcm(*(f.center.N for f in self.factors))

    def c_f(self):
        return self.c_unit * self.p ** self.c_pow


# ------------------------------------------------------------------
# parser: the grammar of the module docstring, over compact text
# ------------------------------------------------------------------

MAX_CONDUCTOR = 1000       # the caps of the module docstring
MAX_ZETA_DEGREE = 24

_NON_TOKEN_RE = re.compile(r"[^\s\dA-Za-z()^*+\-]")    # starts no token
_INT = r"[+-]*\d+"
_ZETA = rf"zeta\(({_INT})\)(?:\^({_INT}))?"
_ATOM = rf"(?:(\d+)(?:\*{_ZETA})?|{_ZETA}(?:\*(\d+))?)"
# a sign before each atom, optional before a group's first one
_TAIL = rf"(?:[+-](?:\((?:(?:[+-]|(?<=\()){_ATOM})+\)|{_ATOM}))*"
# (x - c)^n - u*p^m has a power, x^n - u*p^m no tail, and x - c no power
_TERM_RE = re.compile(
    rf"(?:(?P<int>\d+)|p(?:\^(?P<k>{_INT}))?|(?P<factor>\((?P<shift>\()?x(?P<tail>{_TAIL})"
    rf"(?(shift)\)(?=\^)|(?=\)|(?<=x)\^))"
    rf"(?:\^(?P<n>{_INT})(?P<rhs>[+-])(?:(?P<unit>\d+)\*)?p(?:\^(?P<m>{_INT}))?)?\)))"
    rf"(?:\*(?=.)|\Z)")
_ATOM_RE = re.compile(rf"(\)?)([+-]?)(\(?)([+-]?){_ATOM}")     # a tail's atom and what precedes it


def _int(literal):
    """The value of {sign} digits; ParseError past the interpreter's digit limit."""
    digits = literal.lstrip("+-")
    try:
        value = int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long") from None
    return -value if literal.count("-") % 2 else value


def _compact(text):
    """text with "**" read as "^" and its whitespace removed, once each character
    starts a token and whitespace separates no two words or numbers."""
    bad = _NON_TOKEN_RE.search(text)
    if bad:
        end = len(text[:bad.start()].rstrip())      # reported from the token before it
        raise ParseError(f"unexpected character at {text[end:end + 10]!r}")
    chunks = text.replace("**", "^").split()
    for a, b in zip(chunks, chunks[1:]):
        if a[-1].isalnum() and b[0].isalnum():
            raise ParseError(f"missing operator in {a[-10:] + ' ' + b[:10]!r}")
    return "".join(chunks)


def _terms(s):
    """The term matches of compact text s, or None if s does not fit the grammar."""
    pos, terms = len(s) - len(s.lstrip("+-")), []
    while not terms or pos < len(s):
        term = _TERM_RE.match(s, pos)
        if term is None:
            return None
        terms.append(term)
        pos = term.end()
    return terms


def _malformed(s):
    """The error for compact text s that does not fit the grammar: UnsupportedFactor
    for the first top-level group that is no factor, if s fits it with each such
    group read as (x); else ParseError."""
    if re.search(r"\d[A-Za-z]|[A-Za-z]\d", s):
        return ParseError(f"missing operator in {s[:40]!r}")
    depth, cuts = 0, [0]                # the ends of the groups and of the text between
    for paren in re.finditer("[()]", s):
        depth += 1 if paren[0] == "(" else -1
        if depth < 0:
            break
        if (depth, paren[0]) in ((1, "("), (0, ")")):
            cuts.append(paren.start() if depth else paren.end())
    else:
        cuts.append(len(s))
        if not depth and _terms("(x)".join(s[i:j] for i, j in zip(cuts[::2], cuts[1::2]))):
            bad = next(g for g in (s[i:j] for i, j in zip(cuts[1::2], cuts[2::2]))
                       if not _TERM_RE.fullmatch(g))
            return UnsupportedFactor(
                f"factor {bad[:40]!r} is not (x - c)^n - u*p^m, x^n - u*p^m or x - c")
    return ParseError(f"{s[:40]!r} is not {{sign}} term {{'*' term}}")


def _bound_conductor(N, p, where):
    """UnsupportedFactor naming where when the zeta conductor N passes MAX_CONDUCTOR,
    or p does not divide N and ord_N(p) passes MAX_ZETA_DEGREE."""
    if N > MAX_CONDUCTOR or N % p and mult_order(p, N) > MAX_ZETA_DEGREE:
        raise UnsupportedFactor(
            f"{where} has zeta conductor N = {N}: only N <= {MAX_CONDUCTOR} with "
            f"ord_N(p) <= {MAX_ZETA_DEGREE} is supported")


def _center(tail, p, factor):
    """The centre c of the factor x + tail: its signed atoms, negated."""
    terms, group = [], ""
    for close, op, open_, sign, a, n1, k1, n2, k2, b in _ATOM_RE.findall(tail):
        if close or open_:
            group = op if open_ else ""             # the sign before the open group
        N = n1 or n2
        if N and _int(N) < 1:
            raise ParseError("zeta conductor must be >= 1")
        terms.append((-_int(group + (sign if open_ else op) + (a or b or "1")),
                      (_int(N), _int(k1 or k2 or "1")) if N else None))
    _bound_conductor(math.lcm(*(z[0] for _, z in terms if z)), p, f"factor {factor[:40]!r}")
    return _combine_center(terms)


def _factor(term, p):
    """The Linear or Binomial of a factor term."""
    center = _center(term["tail"], p, term["factor"])
    if term["n"] is None:
        return Linear(center)
    n, m = _int(term["n"]), _int(term["m"] or "1")
    u = -_int(term["rhs"] + (term["unit"] or "1"))       # x^n - u*p^m
    if n < 1 or m < 1 or u % p == 0:
        raise UnsupportedFactor(
            f"factor {term['factor'][:40]!r} needs n >= 1, m >= 1 and u prime to p")
    return Binomial(center, n, u, m)


def _combine_center(terms):
    """Combine (coeff, zeta-or-None) terms into one Cyclo over the lcm conductor."""
    N = math.lcm(*(z[0] for _, z in terms if z))
    out = [0] * N
    for coeff, z in terms:
        out[z[1] * (N // z[0]) % N if z else 0] += coeff
    return Cyclo(N, out)


def require_odd_prime(p):
    if not is_prime(p) or p == 2:
        raise ParseError(f"p = {p} must be an odd prime")


def parse_expr(text, p):
    """Parse one curve expression for the prime p."""
    require_odd_prime(p)
    s = _compact(text)
    terms = _terms(s)
    if terms is None:
        raise _malformed(s)
    c_unit, c_pow, factors = _int(s[:len(s) - len(s.lstrip("+-"))] + "1"), 0, []
    for term in terms:
        if term["factor"]:
            factors.append(_factor(term, p))
        elif term["int"]:
            c_unit *= _int(term["int"])
            if not c_unit:
                raise ParseError("zero leading coefficient")
        else:
            k = _int(term["k"] or "1")
            if k < 0:
                raise ParseError("negative power of p in leading coefficient")
            c_pow += k
    # absorb p-divisibility of the unit part
    while c_unit % p == 0:
        c_unit //= p
        c_pow += 1
    # promote all centers to the common conductor
    N = math.lcm(*(f.center.N for f in factors))
    _bound_conductor(N, p, "the curve")
    if N > 1:
        factors = [f._replace(center=f.center.substitute(N, N // f.center.N)) for f in factors]
    expr = CurveExpr(p, c_unit, c_pow, factors, _frob_partners(p, factors),
                     text=text.strip())
    if expr.degree < 5:
        raise DegreeTooSmall(f"deg f = {expr.degree} < 5")
    return expr


# ------------------------------------------------------------------
# Galois closure and tower requirements
# ------------------------------------------------------------------

def _frob_partners(p, factors):
    """Per factor, the index of the one with its roots' images under zeta_N -> zeta_N^p, or None."""
    index = {f: fi for fi, f in enumerate(factors)}
    return tuple(index.get(f._replace(center=f.center.substitute(f.center.N, p)))
                 for f in factors)


def galois_closure_check(expr):
    """Check the factor multiset is stable under zeta_N -> zeta_N^p."""
    fs = expr.factors
    for f, fi2 in zip(fs, expr.frob, strict=True):
        if fi2 is None or fs.count(fs[fi2]) != fs.count(f):
            raise NotGaloisClosed(
                f"factor with center {f.center!r} has an incomplete Frobenius orbit")
    return True


def required_tower(expr):
    """Degrees (d, e) of the tame tower needed to split f: e = lcm of the n_i,
    and d the least with zeta_N, zeta_e and every n_i-th root of u_i in
    F_{p^d}; UnsupportedFactor when that d passes MAX_ZETA_DEGREE."""
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
    Ne = math.lcm(N, e)
    for d in range(1, MAX_ZETA_DEGREE + 1):
        q1 = p ** d - 1
        # u is an n-th power in F_q iff u^((q-1)/gcd(n, q-1)) = 1, read in F_p
        if q1 % Ne == 0 and all(
                pow(f.rhs_unit, q1 // math.gcd(f.n, q1), p) == 1
                for f in expr.factors if isinstance(f, Binomial)):
            return d, e
    raise UnsupportedFactor(
        f"the curve needs residue degree d > {MAX_ZETA_DEGREE}: only d <= "
        f"{MAX_ZETA_DEGREE} is supported")


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

def _integer_product(N, factors):
    """The integer coefficients of the product of (x - c)^n - a over (c, n, a), for c
    the coefficients of a centre in Z[zeta_N] and a an integer.

    The product runs in Z[x, z], z standing for zeta_N, with x^i z^j stored
    flat at index i*S + j, S = D(phi(N) - 1) + 1 for D the total degree.
    The coefficient of x^i has z-degree at most (D - i)(phi(N) - 1) < S in
    every partial product, so the flat lists multiply as integer
    polynomials in one variable, x = X^S and z = X, with nothing carried
    between x-coefficients.  Each x-coefficient is reduced mod Phi_N once,
    at the end; NonRationalCoefficient if one is not rational.  For N = 1,
    S = 1 and this is integer polynomial multiplication.
    """
    phi_N = cyclotomic_poly(N)
    S = sum(n for _, n, _ in factors) * (len(phi_N) - 2) + 1
    poly = [1]
    for c, n, a in factors:
        x_minus_c = [-cj for cj in c] + [0] * (S - len(c)) + [1]
        fac = [1]
        for _ in range(n):
            fac = poly_mul(x_minus_c, fac)
        fac[0] -= a
        poly = poly_mul(fac, poly)
    out = []
    for i in range(0, len(poly), S):
        r = poly_divmod_monic(poly[i:i + S], phi_N)[1]
        if any(r[1:]):
            raise NonRationalCoefficient("expanded coefficient has a nonzero cyclotomic part")
        out.append(r[0])
    return out


def _shape(f, p):
    """(n, a) with f = (x - c)^n - a: a linear factor is n = 1, a = 0."""
    return (f.n, f.rhs_unit * p ** f.rhs_pow) if isinstance(f, Binomial) else (1, 0)


def expand_to_integer_poly(expr):
    """Exact coefficients of f over Z, including the leading coefficient."""
    cf = expr.c_f()
    return [cf * c for c in _integer_product(
        expr.conductor, [(f.center.coeffs, *_shape(f, expr.p)) for f in expr.factors])]


def resultant_norm(f, g, p):
    """The norm to Q of res(f, g), 0 exactly when the factors share a root.

    With y = x - (f's centre) and d = f's centre - g's, it is the resultant
    of y^n - a with the product of (y + d)^n' - a' over d's conjugates (a
    linear factor has n = 1, a = 0), an integer polynomial.
    """
    N = f.center.N
    f, g = sorted((f, g), key=lambda h: -h.degree)          # the product over g's degree
    (n, a), (n2, a2) = _shape(f, p), _shape(g, p)
    minus_d = Cyclo(N, [y - x for x, y in zip(f.center.coeffs, g.center.coeffs)])
    conjugates = [minus_d] if minus_d.is_rational else [
        minus_d.substitute(N, k) for k in range(N) if math.gcd(k, N) == 1]
    product = _integer_product(N, [(c.coeffs, n2, a2) for c in conjugates])
    return resultant([-a] + [0] * (n - 1) + [1], product)


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
                p = _int(m.group(1))
                continue
            if p is None:
                raise ParseError("curve file must start with a 'p = <int>' header")
            exprs.append(line)
    if p is None or not exprs:
        raise ParseError("curve file needs a header and at least one expression")
    return p, exprs
