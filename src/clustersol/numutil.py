"""Small exact number-theory helpers: primality, factoring, integer polynomials."""

import functools
import math


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond any input we see."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    if n % 2 == 0:
        return 2
    x, c = 2, 1
    while True:
        y, d = x, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        x, c = c + 2, c + 1


def factorint(n):
    """Return the prime factorisation of n >= 1 as a dict {prime: exponent}."""
    fac = {}
    for q in (2, 3, 5, 7, 11, 13):
        while n % q == 0:
            fac[q] = fac.get(q, 0) + 1
            n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return fac


def mult_order(a, m):
    """Multiplicative order of a modulo m (m >= 1, gcd(a, m) = 1)."""
    if m == 1:
        return 1
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} not invertible mod {m}")
    k, x = 1, a % m
    while x != 1:
        x = x * a % m
        k += 1
    return k


def vp(n, p):
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def lowest_terms(n, d):
    """(numerator, denominator) of n/d in lowest terms, for d > 0."""
    g = math.gcd(n, d)
    return n // g, d // g


def rational_str(n, d):
    """n/d for d > 0, written as str(Fraction(n, d)) writes it: "n" or "a/b"."""
    n, d = lowest_terms(n, d)
    return str(n) if d == 1 else f"{n}/{d}"


# --- exact integer polynomials, little-endian coefficient lists ---

def poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def poly_eval(f, x):
    acc = 0
    for a in reversed(f):
        acc = acc * x + a
    return acc


def poly_deriv(f):
    return poly_trim([i * a for i, a in enumerate(f)][1:])


def poly_divmod_monic(f, g):
    """(quotient, remainder) of integer polynomials f by a monic g.

    The remainder is the low len(g) - 1 coefficients, untrimmed (all of f
    when f is shorter).
    """
    r = list(f)
    n = len(g) - 1
    quot = [0] * max(len(r) - n, 0)
    for k in range(len(r) - n - 1, -1, -1):
        c = r[k + n]
        if c:
            quot[k] = c
            for i in range(n):
                r[k + i] -= c * g[i]
    return quot, r[:n]


def poly_mul(f, g):
    """The product of two nonempty integer polynomials, by schoolbook; f's zeros are skipped."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return out


def resultant(f, g):
    """Resultant of two integer polynomials by the subresultant PRS.

    Collins's algorithm as Cohen writes it (A Course in Computational
    Algebraic Number Theory, Algorithm 3.3.7): the contents come out first,
    and each pseudo-remainder is divided by g h^delta, which keeps its
    coefficients subresultants; O(deg f deg g) coefficient operations.
    """
    a, b = poly_trim(list(f)), poly_trim(list(g))
    if not a or not b:
        return 0
    n, m = len(a) - 1, len(b) - 1
    if n == 0 or m == 0:
        return a[-1] ** m * b[-1] ** n
    ca, cb = math.gcd(*a), math.gcd(*b)
    a, b = [x // ca for x in a], [x // cb for x in b]
    t, s = ca ** m * cb ** n, 1
    if n < m:
        a, b = b, a
        s = -1 if n % 2 and m % 2 else 1
    g = h = 1
    while len(b) > 1:
        n, m = len(a) - 1, len(b) - 1
        delta = n - m
        if n % 2 and m % 2:
            s = -s
        r = a
        for k in range(n, m - 1, -1):       # r = lc(b)^(delta + 1) a mod b
            c = r[k]
            r = [b[-1] * x for x in r[:k]]
            for i in range(m):
                r[k - m + i] -= c * b[i]
        r = poly_trim(r)
        if not r:
            return 0
        a, b = b, [x // (g * h ** delta) for x in r]
        g = a[-1]
        h = g ** delta * h // h ** delta
    n = len(a) - 1
    return s * t * (b[-1] ** n * h // h ** n)


@functools.cache
def cyclotomic_poly(n):
    """Integer coefficients of the n-th cyclotomic polynomial, as a tuple."""
    f = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            f, rem = poly_divmod_monic(f, cyclotomic_poly(d))
            if any(rem):
                raise ValueError("inexact polynomial division")
    return tuple(f)
