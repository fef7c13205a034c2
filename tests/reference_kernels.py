"""The compare half's kernels as they were first written, kept as references.

``curves.expand_to_integer_poly`` and ``curves.resultant_norm`` multiply
in one flat integer product over Z[x, zeta_N] (``curves._integer_product``),
and ``numutil.resultant`` runs the subresultant PRS.  These are the code
they replaced: a product of polynomials whose coefficients are ``Cyclo``
objects, each reduced mod Phi_N as it is made, and Bareiss elimination on
the Sylvester matrix.  ``tests/test_compare_kernels.py`` checks that both
give the same integers and raise on the same inputs.

The oracle recentres a class by a synthetic-division Taylor shift
(``oracle._substitute``) and lifts its square-root witness with the
Newton lift it uses for simple roots (``oracle._refine_root``).
``reference_substitute`` and ``reference_unit_sqrt_mod`` are the code
they replaced: F(a + p x) from the derivatives of F, their values at a and
exact division by k!, and a Newton iteration for y^2 = u of its own.

``clusters.default_precision`` reads v_p of an element of Z[zeta_N] from
its coefficients, exact where p is inert in Q(zeta_N) with no norm taken
(``clusters._cyclo_valuation``).  ``reference_cyclo_valuation`` is the
code it replaced, which takes the norm, the resultant with Phi_N, for
every irrational unit.
"""

import math

from clustersol.curves import Binomial, Cyclo, Linear
from clustersol.errors import NonRationalCoefficient
from clustersol.fq import get_field
from clustersol.numutil import (cyclotomic_poly, poly_deriv, poly_eval, poly_trim,
                                resultant, vp)


class ArithCyclo(Cyclo):
    """A ``Cyclo`` with the ring operations it once had."""

    __slots__ = ()

    @classmethod
    def of(cls, c):
        return cls(c.N, c.coeffs)

    def __add__(self, other):
        assert self.N == other.N
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return ArithCyclo(self.N, a)

    def __neg__(self):
        return ArithCyclo(self.N, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        assert self.N == other.N
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ArithCyclo(self.N, out)

    def to_int(self):
        if not self.is_rational:
            raise NonRationalCoefficient(f"{self} is not rational")
        return self.coeffs[0]


def _cyclo_poly_mul(a, b):
    N = a[0].N
    out = [ArithCyclo.integer(0, N) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def reference_expand_to_integer_poly(expr):
    """``curves.expand_to_integer_poly`` by a product of ``Cyclo`` coefficients."""
    N = expr.conductor
    one = ArithCyclo.integer(1, N)
    poly = [one]
    for f in expr.factors:
        c = ArithCyclo.of(f.center)
        if isinstance(f, Linear):
            fac = [-c, one]
        else:
            negc_pow = [one]
            for _ in range(f.n):
                negc_pow.append(negc_pow[-1] * (-c))
            fac = [ArithCyclo.integer(math.comb(f.n, k), N) * negc_pow[f.n - k]
                   for k in range(f.n + 1)]
            fac[0] = fac[0] - ArithCyclo.integer(f.rhs_unit * expr.p ** f.rhs_pow, N)
        poly = _cyclo_poly_mul(poly, fac)
    cf = expr.c_f()
    out = []
    for coeff in poly:
        if not coeff.is_rational:
            raise NonRationalCoefficient(
                "expanded coefficient has a nonzero cyclotomic part")
        out.append(cf * coeff.to_int())
    return out


def reference_resultant_norm(f, g, p):
    """``curves.resultant_norm`` with its conjugate product over ``Cyclo`` coefficients."""
    N, one = f.center.N, ArithCyclo.integer(1, f.center.N)
    f, g = sorted((f, g), key=lambda h: -h.degree)
    n, a = (f.n, f.rhs_unit * p ** f.rhs_pow) if isinstance(f, Binomial) else (1, 0)
    n2, a2 = (g.n, g.rhs_unit * p ** g.rhs_pow) if isinstance(g, Binomial) else (1, 0)
    d, product = ArithCyclo.of(f.center) - ArithCyclo.of(g.center), [one]
    for k in ([1] if d.is_rational else range(N)):
        if math.gcd(k, N) == 1:
            conj = [one]
            for _ in range(n2):
                conj = _cyclo_poly_mul(conj, [ArithCyclo.of(d.substitute(N, k)), one])
            conj[0] = conj[0] - ArithCyclo.integer(a2, N)
            product = _cyclo_poly_mul(product, conj)
    return bareiss_resultant([-a] + [0] * (n - 1) + [1], [c.to_int() for c in product])


def bareiss_resultant(f, g):
    """Resultant of two integer polynomials via Bareiss on the Sylvester matrix."""
    f, g = poly_trim(list(f)), poly_trim(list(g))
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        return 0
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    size = n + m
    mat = [[0] * size for _ in range(size)]
    for i in range(m):
        for j, a in enumerate(reversed(f)):
            mat[i][i + j] = a
    for i in range(n):
        for j, b in enumerate(reversed(g)):
            mat[m + i][i + j] = b
    # Bareiss fraction-free elimination
    prev = 1
    sign = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, size):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


def reference_substitute(F, a, p):
    """Coefficients of F(a + p x), from F^(k)(a) p^k / k!."""
    out = [0] * len(F)
    acc = [poly_eval(F, a)]
    cur = list(F)
    fact = 1
    powp = 1
    for k in range(len(F)):
        if k:
            cur = poly_deriv(cur)
            fact *= k
            powp *= p
            if not cur:
                break
            acc.append(poly_eval(cur, a) * powp // fact)
        out[k] = acc[k]
    return out


def reference_unit_sqrt_mod(u, p, digits):
    """y with y^2 = u mod p^digits, for u a quadratic residue unit mod p."""
    fp = get_field(p, 1)
    y = fp.canonical_sqrt(fp.from_int(u))[0]
    k = 1
    while k < digits:
        k = min(2 * k, digits)
        pk = p ** k
        y = (y + u * pow(y, -1, pk)) * pow(2, -1, pk) % pk
    return y


def reference_cyclo_valuation(coeffs, p, N):
    """``clusters._cyclo_valuation`` deciding v = v_p(x) by the norm of x / p^v alone."""
    if not any(coeffs):
        return math.inf, [0], True
    v = min(vp(c, p) for c in coeffs if c)
    unit = tuple(c // p ** v for c in coeffs)
    return v, unit, not any(unit[1:]) or resultant(cyclotomic_poly(N), unit) % p != 0
