import functools
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import clustersol.clusters as clusters_mod
import clustersol.decision as decision_mod
from clustersol.clusters import canonical_sqrt_symbol
from clustersol.corpus import generate_corpus
from clustersol.curves import (Binomial, Cyclo, Linear, RootSet, embed_cyclo, parse_expr,
                               reject_repeated_factors)
from clustersol.errors import InternalError, PrecisionExhausted
from clustersol.tame import (FROB, INF, TAU, Elt, GaloisWord, _aligned, _lifts, _normalise,
                             get_tower)

EX1 = ("(x^4-p^17)*(x^3-p^2)", 17)
EX2 = "p*((x-1)^2+p^2)*((x-zeta(3))^2+p^2)*((x-zeta(3)^2)^2+p^2)"
EX3 = ("p*(x^3-p^2)*((x-1)^3-p^2)", 7)


def latex_structure(text):
    """Nesting structure and depth labels of rendered LaTeX, for tests.

    Returns a nested tuple (label, (children...)) with leaves as 'r<k>';
    byte-level details (names, spacing) are deliberately discarded.
    """
    clusters = {}
    order = []
    for m in re.finditer(r"\\ClusterLDName (c\d+)\[\]\[([^\]]*)\]\[[^\]]*\] = ((?:\([^)]+\))+);",
                         text):
        cid, label, members = m.group(1), m.group(2), m.group(3)
        items = re.findall(r"\(([^)]+)\)", members)
        clusters[cid] = (label, items)
        order.append(cid)

    def build(cid):
        label, items = clusters[cid]
        frac = re.fullmatch(r"\\frac\{(-?\d+)\}\{(\d+)\}", label)
        depth = Fraction(int(frac.group(1)), int(frac.group(2))) if frac else Fraction(label)
        return (depth, tuple(build(i) if i.startswith("c") else i for i in items))

    return build(order[-1])  # the top cluster is emitted last


def as_fractions(A, node):
    """A proper node's depth, nu, lambda and vKc as Fractions.

    The analysis keeps them on the node as integers over the tower's e
    (lambda over 2e).
    """
    e = A.tower.e
    return SimpleNamespace(depth=Fraction(node.level, e), nu=Fraction(node.nu_e, e),
                           lam=Fraction(node.lam_2e, 2 * e), vKc=Fraction(node.vKc_e, e))


def nested_trie(node):
    """The tree under node as a root index or (level, {digit: child}), children in order."""
    if not node.is_proper:
        return node.roots[0]
    return (node.level, {c.digit: nested_trie(c) for c in node.children})


def reference_precision(expr, e):
    """8e(1 + the largest p-power valuation in the input) pi-adic digits: far
    above the sized precision, so the references' towers have digits to spare."""
    maxval = max([expr.c_pow, 1] +
                 [f.rhs_pow for f in expr.factors if hasattr(f, "rhs_pow")])
    return 8 * e * (1 + maxval)


def shifted_center(c, a):
    """The centre c + a, for c in Z[zeta_N] and a an integer."""
    return Cyclo(c.N, (c.coeffs[0] + a,) + c.coeffs[1:])


def curve_text(expr):
    """expr written back as grammar text, each centre as (x-(...)) over its conductor."""
    def center(c):
        return "".join(f"{a:+d}*zeta({c.N})^{j}" if j else f"{a:+d}"
                       for j, a in enumerate(c.coeffs) if a) or "0"

    factors = [f"(x-({center(f.center)}))" if isinstance(f, Linear) else
               f"((x-({center(f.center)}))^{f.n}{-f.rhs_unit:+d}*p^{f.rhs_pow})"
               for f in expr.factors]
    return "*".join([f"{expr.c_unit}*p^{expr.c_pow}"] + factors)


def mobius_dual(expr, s):
    """The curve in the chart x -> p^s/x, for centres all 0 and binomial units +-1.

    With X = p^s/x, x^n - u p^m = -u p^m X^-n (X^n - u p^(sn - m)) as
    u = 1/u, and the factor x is p^s X^-1; multiplying y by a power of X
    clears the denominators, leaving the factor X when the degree is odd.  The two
    curves are isomorphic, so they have the same Q_p-points.  Raises
    ValueError unless every centre is 0, every unit u is +-1 and
    sn - m >= 1 for every binomial.  The result has no text; write it
    with ``curve_text``.
    """
    bins = [f for f in expr.factors if isinstance(f, Binomial)]
    if any(any(f.center.coeffs) for f in expr.factors):
        raise ValueError("a centre is not 0")
    if any(f.rhs_unit not in (1, -1) or s * f.n - f.rhs_pow < 1 for f in bins):
        raise ValueError("a unit is not +-1, or p^s does not exceed a root's p^m")
    c_unit = expr.c_unit
    for f in bins:
        c_unit *= -f.rhs_unit
    factors = [f._replace(rhs_pow=s * f.n - f.rhs_pow) for f in bins]
    factors += [Linear(Cyclo.integer(0))] * (expr.degree % 2)
    c_pow = expr.c_pow + s * (len(bins) < len(expr.factors)) + sum(f.rhs_pow for f in bins)
    return expr._replace(c_unit=c_unit, c_pow=c_pow, factors=factors,
                         frob=(None,) * len(factors), text="")


def odd_degree_corpus(seed, n, p_list):
    """The first n odd-degree curves of ``generate_corpus(seed, m, p_list)``, doubling m
    until there are n.  The generator draws the same whether it keeps a curve or not,
    so every m gives the same curves in the same order."""
    m = n
    while True:
        odd = [(p, text) for p, text in generate_corpus(seed, m, p_list)
               if parse_expr(text, p).degree % 2]
        if len(odd) >= n:
            return odd[:n]
        m *= 2


def size_one_digit_short(monkeypatch):
    """Make ``clusters.default_precision`` size every curve one p-adic digit short."""
    real = clusters_mod.default_precision
    monkeypatch.setattr(clusters_mod, "default_precision", lambda expr, e: real(expr, e) - e)


def decide_with_doubled_recheck(expr):
    """``solubility_decide``, checked against a second analysis at doubled precision.

    The reference for the precision certificate: the theorem's reports on
    ``analyse(expr, prec=2 * prec)``, for prec the verdict's own, must equal
    those behind the verdict, else InternalError.  Both calls go through ``clustersol.decision``, so
    a test that patches them there sees this pass too.
    """
    verdict, A = decision_mod.solubility_decide(expr)
    A2 = decision_mod.analyse(expr, prec=2 * A.tower.prec)
    if decision_mod.theorem_decide(A2) != (verdict.component_yes, verdict.reports):
        raise InternalError("a certified verdict changed at doubled precision")
    return verdict, A


def flip_canonical_sqrt(monkeypatch):
    """Make the cluster analysis take the other canonical square root everywhere.

    Returns the list of radicands the flipped choice was asked for, so a
    test can show that the flip took effect.
    """
    real = clusters_mod.canonical_sqrt_symbol
    calls = []

    def flipped(fq, u):
        calls.append(u)
        s, alpha = real(fq, u)
        return fq.neg(s), alpha

    monkeypatch.setattr(clusters_mod, "canonical_sqrt_symbol", flipped)
    return calls


# --- the reference root construction by ring arithmetic ---
#
# The package writes each root straight into its columns
# (``tame.add_branch``), stepping the branches in W.  This builds them as
# they were first built: the centre plus the branch, each branch the last
# one times zeta_n, all as tower elements.

def reference_extract_roots(expr, tower):
    """``curves.extract_roots`` by tower arithmetic: center + branch, branch * zeta_n."""
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
        y = tower.unit_nth_root(u, n)
        branch = pi_shift(tower.from_w(y, 0), m * tower.e // n)
        zeta_n = tower.from_w(tower.zeta(n), 0) if n > 1 else tower.from_int(1)
        for j in range(n):
            roots.append(center + branch)
            tags.append((fi, j))
            branch = branch * zeta_n
    return RootSet(expr, tower, roots, tags)


def pi_shift(x, k):
    """x * pi^k, exactly: the same unit and trust, the valuation moved by k."""
    if x.is_zero:
        return x
    return Elt(x.tower, x.vL + k, x.unit, x.rel)


def clear_lift_stores():
    """Drop this process's towers and lifts, so the next analysis lifts from residues."""
    get_tower.cache_clear()
    _lifts.cache_clear()


# --- the reference Galois action on tower elements ---
#
# tau fixes W and sends pi to zeta_e pi; frob fixes pi and acts on W as the
# lift of x -> x^p.  The package reads the action on roots from their tags
# (``curves.galois_perms``); these move elements, for checking it.

def frob_t_image(t):
    """Image of the W generator t under the Frobenius lift, with powers.

    The lift is the root of Ptilde congruent to t^p.  Coupled Newton
    refines it together with v, an approximate inverse of Ptilde'(z):
    v <- v (2 - Ptilde'(z) v), then z <- z - Ptilde(z) v, so only v's
    residue is inverted.
    """
    d = t.d
    if d == 1:
        return [t.w_one()]
    low = t.fq.modulus

    def ptilde(z):
        """Ptilde(z) and Ptilde'(z), by one Horner pass."""
        val, der = t.w_one(), t.w_zero()
        for c in reversed(low):
            der = t.w_add(t.w_mul(der, z), val)
            val = t.w_add(t.w_mul(val, z), t.w_from_int(c))
        return val, der

    z = t.w_pow((0, 1) + (0,) * (d - 2), t.p)
    v = t.fq.inv(t.w_residue(ptilde(z)[1]))
    k = 1
    while k < t.M:
        val, der = ptilde(z)
        v = t.w_mul(v, t.w_sub(t.w_from_int(2), t.w_mul(der, v)))
        z, k = t.w_sub(z, t.w_mul(val, v)), 2 * k
    if ptilde(z)[0] != t.w_zero():
        raise InternalError("the Frobenius lift of t failed to converge")
    pows = [t.w_one()]
    for _ in range(d - 1):
        pows.append(t.w_mul(pows[-1], z))
    return pows


def w_frob(t, a):
    """The Frobenius lift applied to a W value."""
    if t.d == 1:
        return a
    acc = [0] * t.d
    for c, row in zip(a, frob_t_image(t)):
        for k, x in enumerate(row):
            acc[k] += c * x
    return tuple(x % t.pM for x in acc)


def zeta_e_res(t):
    """zeta_e mod pi: omega^((q - 1)/e), the residue of the tower's zeta_e."""
    return t.fq.pow(t.fq.omega, (t.q - 1) // t.e)


def zeta_e_pows(t):
    """[1, zeta_e, ..., zeta_e^(e-1)] in W."""
    pows = [t.w_one()]
    for _ in range(t.e - 1):
        pows.append(t.w_mul(pows[-1], t.zeta(t.e)))
    return pows


def tau(x):
    """tau(x): column i of pi^vL * sum col_i pi^i gains zeta_e^(vL + i)."""
    t = x.tower
    if x.is_zero or t.e == 1:
        return x
    zp = zeta_e_pows(t)
    shift = x.vL % t.e
    return Elt(t, x.vL, tuple(t.w_mul(col, zp[(i + shift) % t.e]) if any(col) else col
                              for i, col in enumerate(x.unit)), x.rel)


def frob(x):
    """frob(x): the Frobenius lift on every column."""
    t = x.tower
    if x.is_zero or t.d == 1:
        return x
    return Elt(t, x.vL, tuple(w_frob(t, c) for c in x.unit), x.rel)


def reference_canonical_sqrt(fq, a):
    """``FqField.canonical_sqrt`` as it was first taken: the least of all square roots."""
    roots = fq.nth_roots(a, 2)
    return roots[0] if roots else None


# --- the reference Galois data and radicands on sets of roots ---
#
# The package reads both off the cluster tree (``ClusterAnalysis``): the
# action as node maps, the radicands from the children's digits.  These
# enumerate the permutation group and subtract roots, as they were first
# computed.

def reference_group(A):
    """All permutations of the roots generated by tau and frob."""
    gens = [tuple(A.rs.tau_perm), tuple(A.rs.frob_perm)]
    seen = {tuple(range(A.rs.size))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = tuple(h[i] for i in g)
                if gh not in seen:
                    seen.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return sorted(seen)


def reference_image(A, node, word):
    """The node whose root set is the image of the node's under tau^a frob^b."""
    idx = set(node.roots)
    for _ in range(word.b):
        idx = {A.rs.frob_perm[i] for i in idx}
    for _ in range(word.a):
        idx = {A.rs.tau_perm[i] for i in idx}
    return next(n for n in A.picture.nodes if set(n.roots) == idx)


def word_compose(t, w1, w2):
    """Composition w1 o w2 in normal form tau^a frob^b.

    Exponents are reduced modulo (2e, 2d), the quotient in which both
    the action on L and the epsilon characters factor.
    """
    mod_a, mod_b = 2 * t.e, 2 * t.d
    a = (w1.a + w2.a * pow(t.p, w1.b % mod_b, mod_a)) % mod_a
    return GaloisWord(a, (w1.b + w2.b) % mod_b)


def all_words(t):
    """The words tau^a frob^b with a < 2e and b < 2d: the quotient every epsilon factors through."""
    return [GaloisWord(a, b) for a in range(2 * t.e) for b in range(2 * t.d)]


def word_image(A, node, word):
    """The node's image under tau^a frob^b, composing the analysis's two generator maps."""
    for gen, k in ((FROB, word.b), (TAU, word.a)):
        for _ in range(k):
            node = A.image(node, gen)
    return node


def word_epsilon(A, node, word):
    """epsilon_s(tau^a frob^b) from the generator values, by the cocycle.

    epsilon_s(tau^a frob^b) = epsilon_{frob^b s}(tau^a) epsilon_s(frob^b),
    and each power expands one generator step at a time:
    epsilon_s(g^k) = prod_{j < k} epsilon_{g^j s}(g).
    """
    if not (node.is_even or node.cotwin):
        return 0
    sign = 1
    for gen, k in ((FROB, word.b), (TAU, word.a)):
        for _ in range(k):
            sign *= A.epsilon(node, gen)
            node = A.image(node, gen)
    return sign


def reference_galois(A):
    """{node: (fixed_inertia, fixed_frob, stable_children, orbit)} for proper nodes.

    Stable children are fixed by every group element stabilising the
    node; orbits are numbered by the first appearance of their least
    sorted image in ``picture.proper()``.
    """
    group = reference_group(A)
    out, orbits = {}, {}
    for node in A.picture.proper():
        s = frozenset(node.roots)
        stab = [g for g in group if frozenset(g[i] for i in node.roots) == s]
        stable = tuple(c for c in node.children
                       if all(frozenset(g[i] for i in c.roots) == frozenset(c.roots)
                              for g in stab))
        key = min(tuple(sorted(g[i] for i in node.roots)) for g in group)
        orbit = orbits.setdefault(key, len(orbits))
        out[node] = (frozenset(A.rs.tau_perm[i] for i in node.roots) == s,
                     frozenset(A.rs.frob_perm[i] for i in node.roots) == s,
                     stable, orbit)
    return out


def reference_radicand(A, node):
    """(W, u) of c_f prod_{r not in node}(z - r), subtracting every root from z."""
    t = A.tower
    z = A.rs.roots[node.roots[0]]
    lead = pi_shift(t.from_int(A.expr.c_unit), t.e * A.expr.c_pow)
    w, u = lead.vL, lead.residue()
    for i, r in enumerate(A.rs.roots):
        if i not in node.roots:
            diff = z - r
            w += diff.vL
            u = t.fq.mul(u, diff.residue())
    return w, u


# --- the reference zeta_2e and symbol arithmetic ---
#
# The package keeps a square root s sqrt(omega)^alpha as a pair (s, alpha)
# (``clusters.canonical_sqrt_symbol``), takes zeta_2e^m in closed form
# (``clusters.zeta_2e``), and moves a star's pair in ``epsilon`` by the
# closed forms of frob and of a zeta_2e factor.  These wrap its pairs in a
# symbol of their own, multiply, negate and invert symbols, raise them by
# repeated multiplication, and compute zeta_2e as it was first computed,
# from the canonical square root of zeta_e.

class SqrtSymbol:
    """A residue-level value s * sqrt(omega)^alpha, s in F_q, alpha in {0,1}."""

    __slots__ = ("fq", "s", "alpha")

    def __init__(self, fq, s, alpha):
        self.fq = fq
        self.s = s
        self.alpha = alpha & 1

    def __mul__(self, other):
        s = self.fq.mul(self.s, other.s)
        if self.alpha and other.alpha:
            s = self.fq.mul(s, self.fq.omega)
        return SqrtSymbol(self.fq, s, self.alpha ^ other.alpha)

    def __eq__(self, other):
        return self.s == other.s and self.alpha == other.alpha

    def __neg__(self):
        return SqrtSymbol(self.fq, self.fq.neg(self.s), self.alpha)

    def frob_iter(self, b):
        """Image under frob^b: radicals of unity are raised to the p^b."""
        fq = self.fq
        pb = pow(fq.p, b, 2 * (fq.q - 1))
        s = fq.pow(self.s, pb)
        if self.alpha:
            s = fq.mul(s, fq.pow(fq.omega, (pb - 1) // 2))
        return SqrtSymbol(fq, s, self.alpha)


def reference_sqrt(fq, u):
    """The package's canonical square root of u as a symbol."""
    return SqrtSymbol(fq, *canonical_sqrt_symbol(fq, u))


def symbol_power(sym, k):
    """sym^k by repeated multiplication, k >= 0."""
    out = SqrtSymbol(sym.fq, sym.fq.one, 0)
    for _ in range(k):
        out = out * sym
    return out


def symbol_inv(sym):
    """1/sym: s^-1, times omega^-1 when the symbol carries sqrt(omega)."""
    fq = sym.fq
    s = fq.inv(sym.s)
    if sym.alpha:
        s = fq.mul(s, fq.inv(fq.omega))
    return SqrtSymbol(fq, s, sym.alpha)


def symbol_sign(sym):
    """+1 or -1 when the symbol is literally that sign, else None."""
    fq = sym.fq
    if sym.alpha:
        return None
    return {fq.one: 1, fq.neg(fq.one): -1}.get(sym.s)


@functools.cache
def reference_zeta2e(fq, e):
    """The canonical square root of zeta_e, negated unless its e-th power is -1."""
    zeta_e = fq.pow(fq.omega, (fq.q - 1) // e)
    sym = reference_sqrt(fq, zeta_e)
    if symbol_sign(symbol_power(sym, e)) != -1:
        sym = -sym
    if symbol_sign(symbol_power(sym, e)) != -1:
        raise InternalError("no primitive 2e-th root of unity found")
    return sym


def reference_zeta2e_power(fq, e, m):
    """zeta_2e^m, taking the square root of zeta_e only for odd m with e even.

    Even powers are powers of zeta_e; for odd e, zeta_2e = -zeta_e^((e+1)/2).
    """
    m %= 2 * e
    if m % 2 and e % 2 == 0:
        return symbol_power(reference_zeta2e(fq, e), m)
    s = fq.one
    if m % 2:
        m += e                   # zeta_2e^m = -zeta_2e^(m+e)
        s = fq.neg(s)
    zeta_e = fq.pow(fq.omega, (fq.q - 1) // e)
    return SqrtSymbol(fq, fq.mul(s, fq.pow(zeta_e, m // 2)), 0)


# --- the reference reads that subtract tower elements ---
#
# The package reads every digit through ``curves.digit`` and the centroid
# from the digits of its cluster's split (``ClusterAnalysis``).  These read
# keys of digits, sums of roots and leading terms of differences, as they
# were first computed.

def match_key(x, N):
    """The pi-adic digits of x below pi^N, as a hashable key.

    Two elements have equal keys exactly when v(x - y) >= N: the same vL
    and, column by column, the same W coordinates mod p^ceil((N - vL - i)/e)
    for column i.  Elements with vL >= N (and zero) share the key None.
    Only trusted digits are read; a key that needs more raises
    PrecisionExhausted.
    """
    if x.is_zero or x.vL >= N:
        return None
    t = x.tower
    if N > x.abs_prec:
        raise PrecisionExhausted(
            f"matching needs digits below pi^{N}, trusted only below pi^{x.abs_prec}")
    key = [x.vL]
    for i, col in enumerate(x.unit):
        k = -(-(N - x.vL - i) // t.e)
        if k <= 0:
            break
        m = t.p ** k
        key.append(tuple([c % m for c in col]))
    return tuple(key)


def elt_inv(x):
    """1/x by Newton's iteration z <- z(2 - xz) from the residue's inverse."""
    if x.is_zero:
        raise ZeroDivisionError("inverse of zero")
    t = x.tower
    res_inv = t.fq.inv(x.residue())
    z = Elt(t, 0, (res_inv,) + (t.w_zero(),) * (t.e - 1), x.rel)
    u = Elt(t, 0, x.unit, x.rel)
    two = t.from_int(2)
    for _ in range(max(t.e * t.M, 2).bit_length() + 1):
        z = z * (two - u * z)
    return Elt(t, -x.vL, z.unit, min(x.rel, z.rel))


def truncated_sum(tower, elts, N=INF):
    """(z, N'): the sum of elts, not all zero, read below pi^N' = min(N, their trust).

    v(z - sum) >= N'.  One alignment and one normalisation for all terms,
    so no partial sum is read.  When every digit below pi^N' cancels, z is
    zero and the sum is known only to be 0 + O(pi^N'); it truncates there
    rather than raising.
    """
    t = tower
    live = [x for x in elts if not x.is_zero]
    trust = min(x.abs_prec for x in live)
    cut = min(N, trust)
    v0 = min(x.vL for x in live)
    raw = tuple(tuple([sum(cs) % t.pM for cs in zip(*cols)])
                for cols in zip(*[_aligned(x, v0) for x in live]))
    vps = [(i, t.w_vp(col)) for i, col in enumerate(raw)]
    best = min([i + t.e * v for i, v in vps if v is not None], default=None)
    if best is None or v0 + best >= cut:
        return t.zero(), cut
    return _normalise(t, v0, raw, trust), cut


def reference_leading_term(A, z, roots, N):
    """(W, u, exact) for c_f prod_{r in roots}(z - r): valuations add, residues multiply.

    z stands for a value it agrees with below pi^N.  A factor z - r
    whose trusted digits run out is read below pi^N only
    (``truncated_sum``); one that is zero or has no digit below pi^N is
    known only to have valuation at least min(N, the level to which r is
    trusted): it adds that bound to W and leaves exact False.  Every
    difference is still computed, so a cancellation below the trusted
    digits raises wherever it occurs.
    """
    t = A.tower
    lead = pi_shift(t.from_int(A.expr.c_unit), t.e * A.expr.c_pow)
    w, u, exact = lead.vL, lead.residue(), True
    for r in roots:
        try:
            diff = z - r
        except PrecisionExhausted:    # trusted digits ran out: read below pi^N
            diff = truncated_sum(t, [z, -r], N)[0]
        if diff.is_zero or diff.vL >= N:
            w += min(N, r.abs_prec)
            exact = False
        else:
            w += diff.vL
            u = t.fq.mul(u, diff.residue())
    return w, u, exact


def reference_center_value_is_square(A, node):
    """``ClusterAnalysis.center_value_is_square`` by summing the node's roots.

    The centroid is read through a truncation z with v(z - centroid) >= N
    (``truncated_sum``); z is zero when the roots' sum cancels in every
    trusted digit.  A root r with v(z - r) < N gives centroid - r the
    leading term of z - r.  Any other root bounds v(centroid - r) from
    below only: that decides None when the bound already exceeds nu, and
    raises PrecisionExhausted otherwise.
    """
    t = A.tower
    n = node.size
    z, N = truncated_sum(t, [A.rs.roots[i] for i in node.roots])
    inv_n = t.from_int(pow(n, -1, t.pM)) if n % t.p else elt_inv(t.from_int(n))
    z = z * inv_n
    N = min(N + inv_n.vL, z.abs_prec)
    w, res, exact = reference_leading_term(A, z, A.rs.roots, N)
    nu_e = node.nu_e
    if not exact:
        if w > nu_e:
            return None
        raise PrecisionExhausted(f"centroid of cluster {node.name} known only below pi^{N}")
    if w != nu_e:
        return None
    if any(c != 0 for c in res[1:]):
        return None
    return pow(res[0], (t.p - 1) // 2, t.p) == 1
