"""Arithmetic in the residue field F_q, q = p^d, for odd p.

Elements are coefficient tuples (c_0, ..., c_{d-1}) with 0 <= c_i < p,
representing c_0 + c_1*t + ... modulo a fixed monic degree-d modulus.
The modulus is the lexicographically least primitive polynomial over F_p
(coefficient tuples (a_0, ..., a_{d-1}) of t^d + a_{d-1} t^{d-1} + ... + a_0
compared left to right), so t generates the multiplicative group and the
construction is reproducible across runs and machines.

F_q is the unramified ring W = Z_p[t]/(Ptilde) of ``tame.py`` read mod p:
both are Z[t]/(t^d + low(t)) with coefficients mod m, m = p here and
m = p^M for W, and both multiply and exponentiate with the one kernel
``_mulmod`` / ``_powmod`` below.  The kernel has closed forms at d = 1
and d = 2, the degrees most towers have at small p, and loops above.

Euclid's algorithm over F_p is written once too, as the extended form
``_inverse``: it inverts elements (``FqField.inv``) and, by answering None
when its argument shares a factor with the modulus, runs the
irreducibility sieve of the modulus search (``_is_irreducible``).
"""

import functools
import math

from .errors import NonOddPrime
from .numutil import factorint, is_prime


def _mulmod(f, g, low, m):
    """f * g in Z[t]/(t^d + low(t)) with coefficients mod m, d = len(low).

    At d = 2, t^2 = -low[0] - low[1] t folds the top coefficient f1 g1 of
    the product into the two below it; at d > 2 the loops do the same, one
    coefficient at a time from the top.
    """
    d = len(low)
    if d == 1:
        return (f[0] * g[0] % m,)
    if d == 2:
        f0, f1 = f
        g0, g1 = g
        c = f1 * g1 % m
        return ((f0 * g0 - c * low[0]) % m, (f0 * g1 + f1 * g0 - c * low[1]) % m)
    out = [0] * (2 * d - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = out[k] % m
        if c:
            for j in range(d):
                out[k - d + j] -= c * low[j]
    return tuple([v % m for v in out[:d]])


def _powmod(f, n, low, m):
    """f^n in Z[t]/(t^d + low(t)) with coefficients mod m; ValueError for n < 0.

    Right to left over n's bits: the running product starts as the power
    of f at n's lowest set bit, not as 1 times it, and f is squared only up
    to n's top bit.
    """
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    d = len(low)
    if d == 1:
        return (pow(f[0], n, m),)
    if not n:
        return (1,) + (0,) * (d - 1)
    while not n & 1:
        f = _mulmod(f, f, low, m)
        n >>= 1
    r = f
    n >>= 1
    while n:
        f = _mulmod(f, f, low, m)
        if n & 1:
            r = _mulmod(r, f, low, m)
        n >>= 1
    return r


def _inverse(a, low, p):
    """a^-1 in F_p[t]/(t^d + low(t)) by the extended Euclidean algorithm, or
    None when a shares a factor with the modulus, as a = 0 does."""
    if len(low) == 1:
        return (pow(a[0], -1, p),) if a[0] else None
    # s0 * a = r0 and s1 * a = r1 modulo the modulus throughout
    r0, r1 = list(low) + [1], list(a)
    s0, s1 = [0], [1]
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if len(r1) <= 1:
            break
        lead = pow(r1[-1], -1, p)
        shift = len(r0) - len(r1)
        s = s0 + [0] * (shift + len(s1) - len(s0))
        for k in range(shift, -1, -1):
            c = r0[k + len(r1) - 1] * lead % p
            if c:
                for j, b in enumerate(r1):
                    r0[k + j] = (r0[k + j] - c * b) % p
                for j, b in enumerate(s1):
                    s[k + j] -= c * b
        r0, r1 = r1, r0[:len(r1) - 1]
        s0, s1 = s1, [x % p for x in s]
    if not r1:
        return None
    c = pow(r1[0], -1, p)
    return tuple([x * c % p for x in s1] + [0] * (len(low) - len(s1)))


def _is_irreducible(low, p):
    """Irreducibility of P = t^d + low(t) over F_p by distinct-degree sieve.

    P (squarefree or not) is irreducible iff it has no irreducible factor
    of degree <= d/2, i.e. gcd(t^(p^k) - t, P) = 1, so that t^(p^k) - t
    has an inverse mod P, for k = 1..d//2; the incremental Frobenius walk
    exits at the first one without, so a root in F_p, a linear factor, is
    found at k = 1 (Ben-Or).
    """
    d = len(low)
    t = (0, 1) + (0,) * (d - 2)
    h = t
    for _ in range(d // 2):
        h = _powmod(h, p, low, p)
        if _inverse([(h[i] - t[i]) % p for i in range(d)], low, p) is None:
            return False
    return True


class FqField:
    """The field F_{p^d} with its fixed multiplicative generator omega."""

    def __init__(self, p, d):
        if p == 2 or not is_prime(p):
            raise NonOddPrime(f"p = {p} must be an odd prime")
        if d < 1:
            raise ValueError("d must be >= 1")
        self.p = p
        self.d = d
        self.q = p ** d
        self.q1_factors = factorint(self.q - 1)
        self.modulus = self._find_modulus()
        self.zero = (0,) * d
        self.one = self.from_int(1)
        if d == 1:
            self.omega = self.from_int(-self.modulus[0])
        else:
            self.omega = tuple(1 if i == 1 else 0 for i in range(d))

    def _find_modulus(self):
        """Lexicographically least primitive monic polynomial.

        Coefficient tuples (a_0, ..., a_{d-1}) are scanned left to right,
        a_0 most significant.  Whole a_0 blocks are skipped when
        (-1)^d a_0, the norm of the generator-to-be, is not a primitive
        root mod p; primitivity is impossible there and the blocks
        dominate the search space.  In the blocks kept, t^((q-1)/ell) =
        N(t)^((p-1)/ell) is not 1 for a prime ell | p - 1, as t^((q-1)/(p-1))
        is the norm N(t) of t; so an irreducible modulus is primitive iff
        t^((q-1)/ell) != 1 for the primes ell | q - 1 that do not divide p - 1.
        """
        p, d = self.p, self.d
        one = (1,) + (0,) * (d - 1)
        p1_factors = factorint(p - 1) if p > 2 else {}
        ells = [ell for ell in self.q1_factors if ell not in p1_factors]

        def primitive_root_mod_p(x):
            x %= p
            if x == 0:
                return False
            return all(pow(x, (p - 1) // ell, p) != 1 for ell in p1_factors)

        for a0 in range(p):
            norm = (a0 if d % 2 == 0 else -a0) % p
            if not primitive_root_mod_p(norm):
                continue
            if d == 1:
                return (a0,)
            gen = (0, 1) + (0,) * (d - 2)
            for idx in range(p ** (d - 1)):
                digits = []
                v = idx
                for _ in range(d - 1):
                    digits.append(v % p)
                    v //= p
                low = (a0,) + tuple(reversed(digits))
                if not _is_irreducible(low, p):
                    continue
                if all(_powmod(gen, (self.q - 1) // ell, low, p) != one
                       for ell in ells):
                    return low
        raise RuntimeError("no primitive polynomial found")  # unreachable

    # --- element arithmetic ---

    def from_int(self, n):
        return ((n % self.p),) + (0,) * (self.d - 1)

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        return _mulmod(a, b, self.modulus, self.p)

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        return _powmod(a, e, self.modulus, self.p)

    def inv(self, a):
        """a^-1; ZeroDivisionError for a = 0."""
        b = _inverse(a, self.modulus, self.p)
        if b is None:
            raise ZeroDivisionError("inverse of zero in F_q")
        return b

    # --- roots ---

    def _prime_root(self, a, ell):
        """One solution of x^ell = a (ell prime), or None."""
        q1 = self.q - 1
        if q1 % ell != 0:
            return self.pow(a, pow(ell, -1, q1))
        if self.pow(a, q1 // ell) != self.one:
            return None
        t, m = 0, q1
        while m % ell == 0:
            m //= ell
            t += 1
        g = self.pow(self.omega, m)          # generates the ell-Sylow subgroup
        v = self.pow(a, m)
        z = self.pow(g, ell ** (t - 1))      # has order ell
        table = {}
        w = self.one
        for i in range(ell):
            table[w] = i
            w = self.mul(w, z)
        k = 0
        for i in range(t):                   # discrete log of v base g, digit by digit
            c = self.pow(self.mul(v, self.pow(g, -k)), ell ** (t - 1 - i))
            k += table[c] * ell ** i
        if k % ell != 0:
            return None
        y = self.pow(g, k // ell)
        alpha = pow(ell, -1, m) if m > 1 else 0
        beta = (1 - alpha * ell) // m
        return self.mul(self.pow(a, alpha), self.pow(y, beta))

    def nth_roots(self, a, n):
        """All solutions of x^n = a in F_q, sorted lexicographically."""
        if a == self.zero:
            return [self.zero]
        r = a
        for ell, mult in sorted(factorint(n).items()):
            for _ in range(mult):
                r = self._prime_root(r, ell)
                if r is None:
                    return []
        g = math.gcd(n, self.q - 1)
        zeta = self.pow(self.omega, (self.q - 1) // g)
        roots = set()
        w = self.one
        for _ in range(g):
            roots.add(self.mul(r, w))
            w = self.mul(w, zeta)
        return sorted(roots)

    def sqrt_pair(self, a):
        """(r, alpha), r^2 omega^alpha = a: a's least square root and 0, else a/omega's and 1.

        Tonelli-Shanks with q - 1 = 2^s m, m odd, and the generator omega
        as the non-residue: x = a^((m+1)/2) has x^2 = a b for b = a^m in
        the 2-Sylow subgroup, and each step multiplies x by a power of
        omega^m that lowers the order of b, until b = 1.  Both come from
        one power, a^((m-1)/2) = x/a.  b has order 2^s when a is not a
        square, and then x omega^((m-1)/2) and b omega^m serve a/omega.
        """
        if a == self.zero:
            return a, 0
        m, s = self.q - 1, 0
        while m % 2 == 0:
            m, s = m // 2, s + 1
        t = self.pow(a, (m - 1) // 2)
        x = self.mul(t, a)
        b, g, alpha = self.mul(t, x), self.pow(self.omega, m), 0
        while b != self.one:
            i, c = 0, b
            while c != self.one:
                c, i = self.mul(c, c), i + 1
            if i == s:               # b has order 2^s: a is not a square
                x, b, alpha = self.mul(x, self.pow(self.omega, (m - 1) // 2)), self.mul(b, g), 1
                continue
            g = self.pow(g, 1 << (s - i - 1))
            x, g, s = self.mul(x, g), self.mul(g, g), i
            b = self.mul(b, g)
        return min(x, self.neg(x)), alpha

    def canonical_sqrt(self, a):
        """The lexicographically least square root, or None."""
        r, alpha = self.sqrt_pair(a)
        return None if alpha else r

    def canonical_nth_root(self, a, n):
        roots = self.nth_roots(a, n)
        return roots[0] if roots else None


@functools.cache
def get_field(p, d):
    return FqField(p, d)
