"""Exact-as-needed arithmetic in a tamely ramified extension L of Q_p.

L has unramified degree d over Q_p and ramification index e prime to p,
with uniformiser pi satisfying pi^e = p exactly.  Internally an element is

    pi^vL * (col_0 + col_1*pi + ... + col_{e-1}*pi^{e-1})

where each column col_i lives in the unramified ring W = Z_p[t]/(Ptilde),
Ptilde the monic integer lift of the residue-field modulus, and column
coordinates are stored modulo p^M.  The residue field F_q is W mod p, so
W columns are multiplied and raised to powers by the same kernel as F_q
(``fq._mulmod`` / ``fq._powmod``), at modulus p^M instead of p.
Valuations are normalised so that v(p) = 1 and v(pi) = 1/e.

The two tame Galois generators are

    tau:  fixes W pointwise and sends pi to zeta_e * pi
          (zeta_e the Teichmueller lift of omega^((q-1)/e)),
    frob: fixes pi and acts on W as the unique automorphism reducing
          to x -> x^p on the residue field.

They satisfy frob o tau = tau^p o frob, and chi(tau) = zeta_e,
chi(frob) = 1 for the ramification character chi(s) = s(pi)/pi mod m.
No element is ever moved by them here: on the roots of a curve their
action is read exactly from the roots' (factor, branch) tags
(``curves.galois_perms``), and on square roots from residues, as pairs
(s, alpha) for s sqrt(omega)^alpha (``clusters.canonical_sqrt_symbol``).

Every lift into W is a Newton iteration that inverts nothing in W: the
m-th roots of unity by z <- z + z(1 - z^m)/m on X^m - 1, and unit n-th
roots by inverse-root Newton r <- r + r(1 - u r^n)/n.  The only inverse
is a residue's, by the extended Euclidean algorithm in F_p[t].

Roots of unity and the unit radicals u^(1/n) mod p^M depend only on W,
on M and on the integers m, u and n, not on e or on any curve, so they
are lifted lazily into one store per (p, d, M), ``_lifts``, which every
tower over W at M digits keeps as its own.  Each lift runs Newton from its
residue and is checked before it is stored, so a lift another tower took
is the very value that passed that check.  ``get_tower`` keeps one tower
per (p, d, e, prec).

Each element carries ``rel``, the number of trusted p-adic digits of its
unit part; additions that cancel below the trusted level raise
PrecisionExhausted rather than fabricating digits.

A root c + w pi^k of a curve is written straight into columns
(``add_branch``), and the (p, d, M) store keeps each radical's Frobenius
shift (``Tower.frob_shift``), so deciding a curve does no ring
arithmetic on elements: the ring operations of ``Elt`` serve the kernel
timing of ``Elt.__mul__`` and the tests' references.
"""

import functools
import math
from typing import NamedTuple

from .errors import (InternalError, NonOddPrime, PrecisionExhausted,
                     WildRamification, ZeroElement)
from .fq import _mulmod, _powmod, get_field
from .numutil import is_prime, vp

INF = math.inf


class GaloisWord(NamedTuple):
    """The group word tau^a o frob^b acting on the tower."""

    a: int = 0
    b: int = 0


TAU = GaloisWord(1, 0)
FROB = GaloisWord(0, 1)


@functools.cache
def _lifts(p, d, M):
    """The lifts into W = Z_p[t]/(Ptilde) mod p^M, kept by every tower over it.

    Maps m to zeta_m, (u, n) to y = u^(1/n) (``Tower.unit_nth_root``) and
    ("shift", u, n) to the Frobenius shift of y (``Tower.frob_shift``).
    """
    return {}


@functools.cache
def get_tower(p, d, e, prec):
    """This process's tower for (p, d, e, prec)."""
    return Tower(p, d, e, prec)


def stored_digits(prec, e):
    """p-adic digits per column a tower of ramification e stores for pi-adic prec."""
    return max(-(-prec // e), 8)


class Tower:
    """A tame tower over Q_p; entry point for all tame-field arithmetic."""

    def __init__(self, p, d, e, prec):
        if not is_prime(p) or p == 2:
            raise NonOddPrime(f"p = {p} must be an odd prime")
        if math.gcd(e, p) != 1:
            raise WildRamification(f"gcd(e, p) != 1 for e = {e}, p = {p}")
        if d < 1 or e < 1 or prec < 1:
            raise ValueError("d, e, prec must all be >= 1")
        self.p = p
        self.d = d
        self.e = e
        self.prec = prec                      # requested pi-adic digits
        self.M = stored_digits(prec, e)       # stored p-adic digits per column
        self.pM = p ** self.M
        self.fq = get_field(p, d)
        self.q = self.fq.q
        if e > 1 and (self.q - 1) % e != 0:
            raise WildRamification(
                f"residue field F_{p}^{d} lacks the {e}-th roots of unity "
                "needed for a Galois tame tower")
        self._kept = _lifts(p, d, self.M)

    # ------------------------------------------------------------------
    # W = Z_p[t]/(Ptilde) arithmetic on coordinate tuples mod p^M
    # ------------------------------------------------------------------

    def w_zero(self):
        return (0,) * self.d

    def w_one(self):
        return (1,) + (0,) * (self.d - 1)

    def w_from_int(self, n):
        return (n % self.pM,) + (0,) * (self.d - 1)

    def w_add(self, a, b):
        pM = self.pM
        return tuple((x + y) % pM for x, y in zip(a, b))

    def w_sub(self, a, b):
        pM = self.pM
        return tuple((x - y) % pM for x, y in zip(a, b))

    def w_scale(self, a, c):
        pM = self.pM
        return tuple(x * c % pM for x in a)

    def w_mul(self, a, b):
        return _mulmod(a, b, self.fq.modulus, self.pM)

    def w_pow(self, a, n):
        return _powmod(a, n, self.fq.modulus, self.pM)

    def w_residue(self, a):
        p = self.p
        return tuple(x % p for x in a)

    def w_vp(self, a):
        """min p-adic valuation of the coordinates, or None if 0 mod p^M."""
        return min([vp(x, self.p) for x in a if x], default=None)

    def w_divp(self, a, k):
        pk = self.p ** k
        return tuple(x // pk for x in a)

    def _inverse_root(self, u, n, r):
        """The root of u X^n = 1 lifting the residue r, by r <- r + r(1 - u r^n)/n.

        With u r^n = 1 + eps the step leaves u r^n = 1 + O(eps^2), and it
        inverts nothing in W.  Each step doubles the correct digits, and
        the root is checked before it is returned.
        """
        one = self.w_one()
        inv_n = pow(n, -1, self.pM)
        k = 1
        while k < self.M:
            g = self.w_sub(one, self.w_scale(self.w_pow(r, n), u))
            r = self.w_add(r, self.w_scale(self.w_mul(r, g), inv_n))
            k *= 2
        if self.w_scale(self.w_pow(r, n), u) != one:
            raise InternalError(f"the root of {u} X^{n} = 1 failed to converge")
        return r

    def zeta(self, m):
        """Teichmueller m-th root of unity lifting omega^((q-1)/m); requires m | q-1.

        The unique m-th root of unity in W with that residue: z^m = 1 is
        u X^m = 1 at u = 1.
        """
        if m not in self._kept:
            if (self.q - 1) % m != 0:
                raise InternalError(f"mu_{m} not contained in the residue field")
            self._kept[m] = self._inverse_root(
                1, m, self.fq.pow(self.fq.omega, (self.q - 1) // m))
        return self._kept[m]

    # ------------------------------------------------------------------
    # elements
    # ------------------------------------------------------------------

    def zero(self):
        return Elt(self, None, None, self.M)

    def from_int(self, n):
        if n == 0:
            return self.zero()
        v = vp(n, self.p)
        unit = (self.w_from_int(n // self.p ** v),) + (self.w_zero(),) * (self.e - 1)
        return Elt(self, self.e * v, unit, self.M)

    def from_w(self, col, vL=0):
        vp = self.w_vp(col)
        if vp is None:
            return self.zero()
        if vp:
            col = self.w_divp(col, vp)
        unit = (col,) + (self.w_zero(),) * (self.e - 1)
        return Elt(self, vL + self.e * vp, unit, self.M - vp)

    def unit_nth_root(self, u, n):
        """Canonical n-th root in W of an integer u coprime to p.

        The root whose residue is the lexicographically least n-th root of
        u mod p in F_q, refined p-adically: r = u^(-1/n) is the lift from
        the inverse of that residue, and y = u r^(n-1) is the root, since
        u r^n = 1 gives y^n = u.  The (p, d, M) store keeps y.
        """
        if (u, n) not in self._kept:
            res = self.fq.canonical_nth_root(self.fq.from_int(u), n)
            if res is None:
                raise InternalError(f"{u} has no {n}-th root in the residue field")
            r = self._inverse_root(u, n, self.fq.inv(res))
            self._kept[u, n] = self.w_scale(self.w_pow(r, n - 1), u)
        return self._kept[u, n]

    def frob_shift(self, u, n):
        """The s with frob(y) = zeta_n^s y, for y = u^(1/n) (``unit_nth_root``).

        frob(y) is an n-th root of u, so it is zeta_n^s y for one s < n;
        reducing, res(y)^(p-1) = res(zeta_n)^s in F_q decides s, since
        n | q - 1 makes the powers of res(zeta_n) distinct.  s depends
        only on (p, d, u, n), and it is kept beside the lift of y in the
        (p, d, M) store, for every tower over W at M digits.
        """
        key = "shift", u, n
        if key not in self._kept:
            fq = self.fq
            target = fq.pow(self.w_residue(self.unit_nth_root(u, n)), self.p - 1)
            zeta, z, s = self.w_residue(self.zeta(n)), fq.one, 0
            while z != target:
                z, s = fq.mul(z, zeta), s + 1
                if s == n:
                    raise InternalError("Frobenius image of a radical is not a root")
            self._kept[key] = s
        return self._kept[key]


class Elt:
    """One tower element; immutable."""

    __slots__ = ("tower", "vL", "unit", "rel")

    def __init__(self, tower, vL, unit, rel):
        self.tower = tower
        self.vL = vL          # pi-adic valuation (int), None for zero
        self.unit = unit      # tuple of e W-columns, col_0 a unit
        self.rel = rel        # trusted p-adic digits of the unit part

    # --- basics ---

    @property
    def is_zero(self):
        return self.vL is None

    @property
    def abs_prec(self):
        """The pi-adic level below which the digits are trusted; INF for zero."""
        return INF if self.is_zero else self.vL + self.tower.e * self.rel

    def valuation(self):
        if self.is_zero:
            return INF
        from fractions import Fraction    # not on the decision path: only repr and tests
        return Fraction(self.vL, self.tower.e)

    def residue(self):
        if self.is_zero:
            raise ZeroElement("residue of zero")
        return self.tower.w_residue(self.unit[0])

    def __repr__(self):
        if self.is_zero:
            return "Elt(0)"
        return f"Elt(v={self.valuation()}, res={self.residue()}, rel={self.rel})"

    # --- ring operations ---

    def _combine(self, other, sign):
        """self + sign * other, for sign = +1 or -1."""
        if other.is_zero:
            return self
        if self.is_zero:
            return other if sign == 1 else -other
        t = self.tower
        pM = t.pM
        v0 = min(self.vL, other.vL)
        raw = tuple(tuple([(a + sign * b) % pM for a, b in zip(c1, c2)])
                    for c1, c2 in zip(_aligned(self, v0), _aligned(other, v0)))
        return _normalise(t, v0, raw, min(self.abs_prec, other.abs_prec))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        if self.is_zero:
            return self
        t = self.tower
        return Elt(t, self.vL, tuple(t.w_scale(c, -1) for c in self.unit), self.rel)

    def __mul__(self, other):
        """Column products summed raw, then one reduction per column.

        pi^e = p folds column e + k onto column k with a factor p; zero
        columns, common in embedded roots, are skipped.
        """
        t = self.tower
        if self.is_zero or other.is_zero:
            return t.zero()
        e, d, p, pM, low = t.e, t.d, t.p, t.pM, t.fq.modulus
        vL, rel = self.vL + other.vL, min(self.rel, other.rel)
        if e == 1:
            return Elt(t, vL, (_mulmod(self.unit[0], other.unit[0], low, pM),), rel)
        acc = [[0] * d for _ in range(2 * e - 1)]
        bs = [(j, b) for j, b in enumerate(other.unit) if any(b)]
        for i, a in enumerate(self.unit):
            if any(a):
                for j, b in bs:
                    col = acc[i + j]
                    for k, c in enumerate(_mulmod(a, b, low, pM)):
                        col[k] += c
        out = [tuple([(x + p * y) % pM for x, y in zip(acc[k], acc[k + e])])
               for k in range(e - 1)]
        out.append(tuple([x % pM for x in acc[e - 1]]))
        return Elt(t, vL, tuple(out), rel)


def _aligned(x, v0):
    """The unit of x re-expressed at valuation v0 <= x.vL."""
    t = x.tower
    delta = x.vL - v0
    if delta == 0:
        return x.unit
    cols = [None] * t.e                   # column i lands in slot (i + delta) mod e
    for i, col in enumerate(x.unit):
        k = i + delta
        cols[k % t.e] = t.w_scale(col, t.p ** (k // t.e))
    return tuple(cols)


def add_branch(c, k, w):
    """c + w pi^k for a unit w of W, written straight into columns.

    At v0 = min(v(c), k) the columns are c's, with p^((k - v0) // e) w
    added into column (k - v0) mod e.  Column 0 is then a unit unless
    v(c) = k, the one case where the sum can cancel, down to an exact
    zero; only that case is normalised.  w pi^k is taken as known in all
    M digits, so the digits are trusted below min(abs_prec(c), k + eM),
    exactly as for c + Elt(w pi^k); a zero c gives w pi^k itself.
    """
    t = c.tower
    e, M = t.e, t.M
    if c.vL is None:
        return Elt(t, k, (w,) + (t.w_zero(),) * (e - 1), M)
    v0 = min(c.vL, k)
    level = min(c.vL + e * c.rel, k + e * M)
    q, i = divmod(k - v0, e)
    pq, pM = t.p ** q, t.pM
    cols = list(_aligned(c, v0))
    cols[i] = tuple([(a + pq * b) % pM for a, b in zip(cols[i], w)])
    if c.vL == k:
        return _normalise(t, k, tuple(cols), level)
    return Elt(t, v0, tuple(cols), min((level - v0) // e, M))


def _normalise(tower, v0, raw, abs_pi):
    """Strip leading zero pi-digits from raw columns at valuation v0.

    Only digits below pi^abs_pi are trusted.  A value whose trusted digits
    are all zero is 0 + O(pi^abs_pi), and raises PrecisionExhausted; it is
    the zero element only when abs_pi reaches every stored digit,
    v0 + e*M, as for r + (-r).
    """
    t = tower
    best = None                           # pi-offset of the first nonzero digit
    for i, col in enumerate(raw):
        vpcol = t.w_vp(col)
        if vpcol is not None and (best is None or i + t.e * vpcol < best):
            best = i + t.e * vpcol
    if best is None:
        if abs_pi >= v0 + t.e * t.M:
            return t.zero()
        raise PrecisionExhausted(f"zero known only below pi^{abs_pi}")
    if v0 + best >= abs_pi:
        raise PrecisionExhausted(
            f"cancellation below trusted precision (pi^{v0 + best} vs O(pi^{abs_pi}))")
    # divide by pi^best
    k, r = divmod(best, t.e)
    cols = list(raw)
    if k:
        cols = [t.w_divp(c, k) for c in cols]
    for _ in range(r):
        head = cols[0]
        cols = cols[1:] + [t.w_divp(head, 1)]
    rel = (abs_pi - (v0 + best)) // t.e
    if rel < 1:
        raise PrecisionExhausted("no trusted leading digit after cancellation")
    return Elt(t, v0 + best, tuple(cols), min(rel, t.M))
