import os
import re
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import clustersol.clusters as clusters_mod
import clustersol.decision as decision_mod
from clustersol.errors import InternalError
from clustersol.tame import Elt

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


def decide_with_doubled_recheck(expr, prec=None):
    """``solubility_decide``, checked against a second analysis at doubled precision.

    The reference for the precision certificate: the theorem's reports on
    ``analyse(expr, prec=2 * prec)`` must equal those behind the verdict,
    else InternalError.  Both calls go through ``clustersol.decision``, so
    a test that patches them there sees this pass too.
    """
    verdict, A = decision_mod.solubility_decide(expr, prec)
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
        return -real(fq, u)

    monkeypatch.setattr(clusters_mod, "canonical_sqrt_symbol", flipped)
    return calls


# --- the reference Galois action on tower elements ---
#
# tau fixes W and sends pi to zeta_e pi; frob fixes pi and acts on W as the
# lift of x -> x^p.  The package reads the action on roots from their tags
# (``curves.galois_perms``); these move elements, for checking it.

def frob_t_image(t):
    """Image of the W generator t under the Frobenius lift, with powers.

    The lift is the root of Ptilde congruent to t^p, kept in the (p, d)
    store under "frob".  Coupled Newton refines it together with v, an
    approximate inverse of Ptilde'(z): v <- v (2 - Ptilde'(z) v), then
    z <- z - Ptilde(z) v, so only v's residue is inverted.
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

    def start():
        z = t.w_pow((0, 1) + (0,) * (d - 2), t.p)
        return z, tuple(t.fq.inv(t.w_residue(ptilde(z)[1])))

    def step(z, v):
        val, der = ptilde(z)
        v = t.w_mul(v, t.w_sub(t.w_from_int(2), t.w_mul(der, v)))
        return [t.w_sub(z, t.w_mul(val, v)), v]

    z, _ = t._lift("frob", start, step, lambda z, v: ptilde(z)[0] == t.w_zero())
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
    lead = t.from_int(A.expr.c_unit).shift(t.e * A.expr.c_pow)
    w, u = lead.vL, lead.residue()
    for i, r in enumerate(A.rs.roots):
        if i not in node.roots:
            diff = z - r
            w += diff.vL
            u = t.fq.mul(u, diff.residue())
    return w, u
