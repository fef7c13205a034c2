"""Cluster pictures and their invariants.

The picture is the laminar family of subsets of the roots cut out by
p-adic discs, the roots' pi-adic digit trie (``build_picture``).  For
each proper cluster we compute depth, relative depth, nu, lambda, e,
genus, the classification flags, the Galois action, and the +-1
characters epsilon_s attached to even clusters and cotwins, and keep
them on the cluster's node.

Every quantity is read off the tree, as an integer or in F_q.  Depths
are kept as levels N in pi units, depth N/e for the tower's e, and nu,
lambda and the other invariants as integers over e or 2e; only a
printed picture or report writes them as fractions.  tau and frob act
as maps on the nodes.  Each radicand and f at a centroid lead with one
product of split digits, whose lemma ``_leading_unit`` states.

Character computation never enlarges the tower.  The radicand
theta^2 = c_f prod_{r not in s}(z_s - r) of the star s is read through its
leading term u pi^W, u in F_q, and the generators act on the formal
radicals by

    tau(sqrt(omega)) = sqrt(omega)        frob(sqrt(omega)) = sqrt(omega)^p
    tau(sqrt(pi))    = zeta_2e sqrt(pi)   frob(sqrt(pi))    = sqrt(pi)

with omega the residue-field generator and zeta_2e = sqrt(omega)^((q-1)/e),
a primitive 2e-th root of unity squaring to zeta_e, so zeta_2e^e = -1
(``zeta_2e``).  epsilon_s(g) is the sign with g(theta_s) = +-theta_{g(s)}.
On a generator that fixes the star the two square roots cancel, whichever
root is taken, and the value has a closed form with no F_q work:
zeta_2e^m is +-1 exactly when e | m, and then (-1)^(m/e), so
epsilon(tau) = (-1)^(W/e); u^((p-1)/2) is +-1 exactly when u lies in F_p,
and then it is u's Legendre symbol (u_0 / p) = epsilon(frob).  Any other
radicand raises.  On a generator that moves the star, each square root is
a pair (s, alpha) for s sqrt(omega)^alpha, s in F_q, alpha in {0, 1}: the
canonical one (``canonical_sqrt_symbol``) of the star's u and of its
image's.  frob sends (s, alpha) to (s^p omega^(alpha(p-1)/2), alpha), tau
multiplies it by zeta_2e^m, and the value is the sign between the result
and the image's pair; a pair that differs in alpha, or in s by other than
a sign, raises.

Lemma (the cocycle).  epsilon_s(gh) = epsilon_{h(s)}(g) epsilon_s(h), as
gh(theta_s) = g(epsilon_s(h) theta_{h(s)}).  The group is finite, so each
element is a word in tau and frob, and epsilon_s is trivial on the group
exactly when epsilon_t(tau) = epsilon_t(frob) = 1 at every t = h(s) in
the orbit of s (then epsilon_t(g) = epsilon_s(gh) epsilon_s(h)); on
inertia, exactly when epsilon_t(tau) = 1 on the tau-cycle of s.  So each
node keeps its two generator values, and no other word is evaluated.
"""

import math

from .errors import InternalError, PrecisionExhausted, RootCollision
from .curves import (Binomial, Cyclo, Linear, digit, extract_roots, galois_perms,
                     required_tower, resultant_norm)
from .numutil import cyclotomic_poly, mult_order, rational_str, resultant, vp
from .tame import FROB, TAU, get_tower, stored_digits


# ------------------------------------------------------------------
# picture construction
# ------------------------------------------------------------------

class ClusterNode:
    """A cluster: its roots, its level and children, and its invariants.

    The first slots are set when the tree is built, and the name by its
    ClusterPicture.  A node keeps no parent, so the tree is acyclic; the
    picture maps each node to its parent.  A ClusterAnalysis of the
    picture sets the rest on each proper node: integers over the tower's e,
    delta_e = e*(relative depth), None for the top cluster, nu_e = e*nu and
    vKc_e = e*vKc; lam_2e = 2e*lambda.  e is the cluster's own e_s.  The
    radicand c_f prod_{r not in s}(z - r), z in s, leads with radicand_u
    pi^vKc_e, radicand_u in F_q.  eps_tau is 0 when epsilon is undefined.
    """

    __slots__ = ("roots", "size", "is_proper", "is_even", "level",
                 "children", "name", "digit",
                 "delta_e", "nu_e", "lam_2e", "e", "genus", "vKc_e", "ubereven", "twin",
                 "cotwin", "principal", "fixed_inertia", "fixed_frob", "fixed_galois",
                 "orbit", "eps_tau", "eps_frob", "stable_children", "radicand_u")

    def __init__(self, roots, level, children):
        self.roots = tuple(sorted(roots))
        self.size = len(self.roots)
        self.is_proper = self.size > 1
        self.is_even = self.size % 2 == 0
        self.level = level            # depth level/e: pi units of the tower; None for singletons
        self.children = children
        self.name = None
        self.digit = None             # the roots' F_q digit at the parent's split level

    def __repr__(self):
        n = "inf" if self.level is None else self.level
        return f"ClusterNode({list(self.roots)}, N={n})"


class ClusterPicture:
    """The full laminar tree; e is the tower's.

    One walk from the top, parents first and children in order, lists the
    nodes, maps each to its parent in ``parent`` (the top to None), and
    names the proper ones in the order listed: the top R, twins t1, t2, ...
    and the others s1, s2, ....
    """

    def __init__(self, top, e):
        self.top = top
        self.e = e
        self.nodes = []
        self.parent = {top: None}
        top.name = "R"
        twins = others = 0
        todo = [top]
        while todo:
            node = todo.pop()
            self.nodes.append(node)
            if node.is_proper and node is not top:
                if node.size == 2:
                    twins += 1
                    node.name = f"t{twins}"
                else:
                    others += 1
                    node.name = f"s{others}"
            for c in reversed(node.children):
                self.parent[c] = node
                todo.append(c)

    def proper(self):
        return [n for n in self.nodes if n.is_proper]

    def serialize(self, node=None):
        """Nested textual form: {d=<rational> members...} with leaves as root tags."""
        node = node or self.top
        if not node.is_proper:
            return f"r{node.roots[0] + 1}"
        inner = " ".join(self.serialize(c) for c in node.children)
        return f"{{d={rational_str(node.level, self.e)} {inner}}}"


def _split(roots, block, N):
    """The subtree of a block of roots agreeing below pi^N (``build_picture``)."""
    if len(block) == 1:
        return ClusterNode(block, None, [])
    while True:
        buckets = {}
        for i in block:
            buckets.setdefault(digit(roots[i], N), []).append(i)
        if len(buckets) > 1:
            break
        N += 1
    kids = []
    for dg, b in buckets.items():
        kid = _split(roots, b, N + 1)
        kid.digit = dg
        kids.append(kid)
    return ClusterNode(block, N, kids)


def build_picture(rs, expr):
    """The roots' cluster tree, read from their pi-adic digits by ``_split``.

    A node's roots agree below pi^N but not below pi^(N+1), so N is their
    least pairwise valuation in pi units.  The children bucket them by
    their ``curves.digit`` at pi^N, which raises when the digit is not
    trusted, and each child keeps that digit.  Roots agreeing below pi^N
    that share that digit agree below pi^(N+1), so one digit per root and
    level splits the tree.  Roots equal in every stored digit raise
    PrecisionExhausted: at the precision ``default_precision`` sizes,
    distinct roots differ in a trusted digit, and ``extract_roots``
    rejects equal factors.
    """
    if rs.size < 5:
        raise InternalError("picture needs at least 5 roots")
    roots, tags = rs.roots, rs.tags
    groups = {}
    for i, r in enumerate(roots):
        groups.setdefault((r.vL, r.unit), []).append(i)
    pairs = [g[:2] for g in groups.values() if len(g) > 1]
    if pairs:
        i, j = min(pairs)
        raise PrecisionExhausted(f"roots {tags[i]} and {tags[j]} agree in every stored digit")
    top = _split(roots, list(range(rs.size)),
                 min([r.vL for r in roots if not r.is_zero], default=0))
    return ClusterPicture(top, rs.tower.e)


# ------------------------------------------------------------------
# square roots over the residue field, as pairs (s, alpha) for s sqrt(omega)^alpha
# ------------------------------------------------------------------

def canonical_sqrt_symbol(fq, u):
    """sqrt(u) as the pair (s, alpha) for s sqrt(omega)^alpha (``FqField.sqrt_pair``)."""
    return fq.sqrt_pair(u)


def zeta_2e(fq, e, m):
    """zeta_2e^m as a pair, for zeta_2e = sqrt(omega)^k, k = (q - 1)/e, and m >= 0.

    zeta_2e squares to zeta_e = omega^k, and its e-th power is
    omega^((q-1)/2) = -1.  It is s sqrt(omega)^(k mod 2) with s =
    omega^(k//2) for odd e, where k is even and no other s does both; for
    even e -s does too, and the lexicographically smaller of +-s is the
    root ``canonical_sqrt_symbol`` takes of zeta_e.  Its m-th power is
    s^m omega^((k mod 2) floor(m/2)) sqrt(omega)^(km mod 2).
    """
    k = (fq.q - 1) // e
    s = fq.pow(fq.omega, k // 2)
    if e % 2 == 0:
        s = min(s, fq.neg(s))
    return fq.mul(fq.pow(s, m), fq.pow(fq.omega, k % 2 * (m // 2))), k * m % 2


# ------------------------------------------------------------------
# invariants, Galois data, characters
# ------------------------------------------------------------------

def _leading_unit(fq, u, x, nodes):
    """u * prod_c (x - delta_c)^|c| in F_q over the nodes c, or None when some delta_c = x.

    Lemma (the leading term).  Let the nodes c be children of s, split at
    level N with digits delta_c, and c_f prod_{r not in s}(z - r) lead with
    u pi^W for z in s.  A z agreeing with s's roots below pi^N, with digit
    x there, meets each root outside s where s does, and r in c at
    (x - delta_c) pi^N.  So c_f times z - r over r outside s and in the
    nodes leads with u prod_c (x - delta_c)^|c| pi^(W + N sum |c|) when no
    delta_c = x, and has larger valuation when one does: a child's
    radicand over its siblings, f at the centroid over all the children.
    """
    for c in nodes:
        diff = tuple([(a - b) % fq.p for a, b in zip(x, c.digit)])
        if not any(diff):
            return None
        u = fq.mul(u, fq.pow(diff, c.size))
    return u


class ClusterAnalysis:
    """Everything the decision engine consumes, for one embedded curve.

    The invariants are set on the picture's proper nodes.
    """

    def __init__(self, expr, rs, picture):
        self.expr = expr
        self.rs = rs
        self.tower = rs.tower
        self.picture = picture
        self.curve_genus = expr.genus
        by_roots = {n.roots: n for n in picture.nodes}
        self._maps = {TAU: self._node_map(rs.tau_perm, by_roots),
                      FROB: self._node_map(rs.frob_perm, by_roots)}
        self._orbits = {}
        for node in picture.nodes:
            if node not in self._orbits:
                orbit = self._closure(node, TAU, FROB)
                self._orbits.update(dict.fromkeys(orbit, orbit))
        number = {}                   # orbits numbered by their first node in proper()
        for node in picture.proper():
            self._invariants(node, number.setdefault(self._orbits[node], len(number)))
        for node in picture.proper():
            node.eps_tau, node.eps_frob = self.epsilon(node, TAU), self.epsilon(node, FROB)

    # --- invariants ---

    def _invariants(self, node, orbit):
        """Set all but the characters on the node, from its parent's.

        e*nu = e*c_pow + sum over all roots r of min(N, e v(z - r)), z in
        the node, and e*vKc is e*c_pow plus its terms for r outside the
        node.  Such an r meets the node at the level of the least cluster
        holding both, so vKc(s) = vKc(P) + (|P| - |s|) level(P) for s's
        parent P, and u(s) is ``_leading_unit`` from u(P) over s's siblings
        at s's digit, with c_f's unit at the top.  nu feeds lambda, e and
        vKc.  A child is stable, fixed by every element fixing the node,
        exactly when its orbit is as large as the node's: its stabiliser
        lies in the node's.
        """
        n, e, P, fq = node.level, self.tower.e, self.picture.parent[node], self.tower.fq
        if P is None:
            node.vKc_e, node.radicand_u = e * self.expr.c_pow, fq.from_int(self.expr.c_unit)
        else:
            node.vKc_e = P.vKc_e + (P.size - node.size) * P.level
            node.radicand_u = _leading_unit(fq, P.radicand_u, node.digit,
                                            [b for b in P.children if b is not node])
        nu = node.vKc_e + node.size * n
        node.fixed_inertia = self.image(node, TAU) is node
        node.fixed_frob = self.image(node, FROB) is node
        node.fixed_galois = node.fixed_inertia and node.fixed_frob
        node.ubereven = all(c.is_even for c in node.children)
        has_2g_child = any(c.size == 2 * self.curve_genus for c in node.children)
        node.principal = node.size >= 3 and not has_2g_child and not (
            node is self.picture.top and node.is_even and len(node.children) == 2)
        node.cotwin = has_2g_child and not node.ubereven
        node.twin = node.size == 2
        node.delta_e = None if P is None else n - P.level
        node.nu_e = nu
        node.lam_2e = nu - 2 * n * sum(c.size // 2 for c in node.children)
        node.e = math.lcm(e // math.gcd(n, e), 2 * e // math.gcd(nu, 2 * e))
        node.genus = max(0, (sum(c.size % 2 for c in node.children) - 1) // 2)
        node.orbit = orbit
        size = len(self._orbits[node])
        node.stable_children = tuple(c for c in node.children if len(self._orbits[c]) == size)

    # --- Galois action on the picture ---

    def _node_map(self, perm, by_roots):
        """A root permutation on nodes: each node goes to the node holding
        its roots' images, found in by_roots, the picture's nodes keyed by
        their roots.  When no node holds exactly them, the image of a
        cluster is no cluster, and that raises."""
        try:
            return {n: by_roots[tuple(sorted([perm[r] for r in n.roots]))]
                    for n in self.picture.nodes}
        except KeyError:
            raise InternalError("Galois image of a cluster is not a cluster") from None

    def image(self, node, word):
        """Image cluster of a node under the generator TAU or FROB; KeyError for other words."""
        return self._maps[word][node]

    def _closure(self, node, *words):
        """The nodes reached from the node by the given generators: its orbit under them."""
        seen, todo = {node}, [node]
        while todo:
            n = todo.pop()
            for w in words:
                img = self._maps[w][n]
                if img not in seen:
                    seen.add(img)
                    todo.append(img)
        return frozenset(seen)

    # --- characters ---

    def star(self, node):
        """The cluster whose theta computes epsilon for this node."""
        if node.cotwin:
            return next(c for c in node.children if c.size == 2 * self.curve_genus)
        return node

    def epsilon(self, node, word):
        """epsilon_s on the generator TAU or FROB; 0 unless s is even or a cotwin.

        The sign with w(theta_s) zeta_2e^(aW) = +-theta_{w(s)}.  On a star
        the generator fixes it is the closed form: (-1)^(W/e) on tau, the
        Legendre symbol of u on frob.  A radicand with no +-1 value raises.
        """
        if not (node.is_even or node.cotwin):
            return 0
        t, fq = self.tower, self.tower.fq
        star = self.star(node)
        target = self.image(star, word)
        w, u = star.vKc_e, star.radicand_u
        m = word.a * w % (2 * t.e)
        if target is star:
            # zeta_2e^m = (-1)^(m/e) when e | m, and u^((p-1)/2) is u[0]'s
            # Legendre symbol when u lies in F_p; otherwise there is no sign
            if not word.b and m % t.e == 0:
                return -1 if m else 1
            if word.b and not any(u[1:]):
                return 1 if pow(u[0], (fq.p - 1) // 2, fq.p) == 1 else -1
        else:
            if target.vKc_e != w:
                raise InternalError("Galois image of a radicand changed valuation")
            # (s, alpha) for s sqrt(omega)^alpha: frob raises s and sqrt(omega)
            # to the p, tau multiplies by zeta_2e^m
            s, alpha = canonical_sqrt_symbol(fq, u)
            if word.b:
                s = fq.mul(fq.pow(s, fq.p), fq.pow(fq.omega, alpha * (fq.p - 1) // 2))
            else:
                z, beta = zeta_2e(fq, t.e, m)
                s = fq.mul(s, fq.mul(z, fq.omega) if alpha and beta else z)
                alpha ^= beta
            r, beta = canonical_sqrt_symbol(fq, target.radicand_u)
            if alpha == beta and s in (r, fq.neg(r)):
                return 1 if s == r else -1
        raise InternalError(
            f"epsilon value is not +-1 on cluster {node.name} (precision or convention bug)")

    def eps_trivial_galois(self, node):
        """Whether epsilon_s is trivial on the whole group: on tau and frob over s's orbit."""
        return all(n.eps_tau == 1 and n.eps_frob == 1 for n in self._orbits[node])

    def eps_trivial_inertia(self, node):
        """Whether epsilon_s is trivial on inertia: on tau over s's tau-cycle."""
        return all(n.eps_tau == 1 for n in self._closure(node, TAU))

    # --- auxiliary point-level data for the decision engine ---

    def center_value_is_square(self, node):
        """Whether f at the rational centroid of the node is a square unit times p^nu.

        The centroid of a Galois-fixed cluster is Q_p-rational; f evaluated
        there has valuation nu_s (for a twin always exactly), and the point
        search succeeds at the centre precisely when the unit part is a
        quadratic residue.  None when the valuation is not nu_s, or the
        value is not in Q_p; for a Galois-fixed cluster that raises.

        With p not dividing |s|, the centroid has digit m = sum |c| delta_c / |s|
        at s's split, and f there leads with ``_leading_unit`` at m.  When p
        divides |s| the mean leaves the cluster's disc, and there is no
        answer; the gate excludes that case, as p > 2(g^2 - 1) >= 2g + 2 >= |s|.
        """
        fq = self.tower.fq
        p, n = fq.p, node.size
        if n % p == 0:
            return None
        m = [0] * fq.d
        for c in node.children:
            for j, x in enumerate(c.digit):
                m[j] += c.size * x
        inv_n = pow(n, -1, p)
        m = [x * inv_n % p for x in m]
        u = _leading_unit(fq, node.radicand_u, m, node.children)
        if u is None:
            return None  # v(f(z)) > nu: no verdict from this test
        if any(u[1:]):
            if node.fixed_galois:
                raise InternalError(f"f at the centroid of cluster {node.name} is not in Q_p")
            return None  # the centroid of a moved cluster need not be Q_p-rational
        return pow(u[0], (p - 1) // 2, p) == 1

    def dual_pair_swap(self, cotwin_node):
        """Swap characters (under tau, frob) of the cotwin's dual pair.

        The pair is the complement of the size-2g child in the full root
        set, completed with the point at infinity when only one root
        remains; infinity is fixed by everything.
        """
        child = self.star(cotwin_node)
        comp = [i for i in range(self.rs.size) if i not in child.roots]
        if len(comp) == 1:
            return (False, False)  # pair {root, infinity}: never swapped
        a, b = comp
        return (self.rs.tau_perm[a] == b, self.rs.frob_perm[a] == b)


# ------------------------------------------------------------------
# pipeline entry
# ------------------------------------------------------------------

def _cyclo_valuation(coeffs, p, N):
    """(v, x / p^v, whether v = v_p(x)) for x = sum_j coeffs[j] zeta_N^j and v
    its coefficients' least valuation; (inf, [0], True) for x = 0.  v = v_p(x)
    when x / p^v is rational, when p is inert in Q(zeta_N), or when its norm,
    the resultant with Phi_N, is prime to p (``default_precision``'s lemma)."""
    if not any(coeffs):
        return math.inf, [0], True
    v = min(vp(c, p) for c in coeffs if c)
    unit = tuple(c // p ** v for c in coeffs)
    if not any(unit[1:]):
        return v, unit, True
    phi_N = cyclotomic_poly(N)
    return v, unit, mult_order(p, N) == len(phi_N) - 1 or resultant(phi_N, unit) % p != 0


def default_precision(expr, e):
    """The pi-adic precision e*M that decides the curve, sized from its factors.

    Lemma (the sizing).  Every root is trusted below at least e(M-1) + 1
    pi-digits: ``from_int`` and ``from_w`` trust e*M, and ``add_branch``
    trusts a sum below min(abs_prec(c), k + eM) up to its column floor.
    ``build_picture`` reads a root at levels up to its largest v(r - r'),
    and ``add_branch`` keeps a branch c + w pi^k with v(c) = k, the one
    sum that can cancel, when its valuation is at most e(M-1).  So
    M = max(8, ceil(B/e) + 1) stored digits decide the curve when B, in
    pi units, bounds every pairwise v(r - r') and the valuation of every
    branch with v(c) = k.  B is read from the factor data (c, n, u, m);
    no tower digit is read:

    * two roots of one binomial (x - c)^n - u p^m differ by a unit times
      pi^k, k = me/n, since p does not divide n;
    * two roots of different factors differ by (c - c') + w pi^k - w' pi^k'
      (a linear factor has no branch).  When the least of the three
      valuations is attained once, it is v(r - r').  When it is attained
      more than once, it still is unless the residues of the tied terms
      cancel: some w' - w equals c - c' mod p, for w and w' the n-th and
      n'-th roots of u and u' mod p (or 0 for a term not tied), which is
      the resultant of X^n - u and (X + c - c')^n' - u' vanishing mod p;
    * v_p of an element of Z[zeta_N] is the least valuation v of its
      coefficients when the norm of x/p^v is prime to p, since then x/p^v
      is a unit at every prime above p.  Otherwise, which needs p to
      split in Q(zeta_N), v_p(x) is only bounded below, and the centre
      difference is taken as for a tie that cancels, as is a tie whose
      centre difference is not rational;
    * when ord_N(p) = phi(N), p is inert in Q(zeta_N): Phi_N stays
      irreducible mod p, so Z[zeta_N]/p = F_p[X]/Phi_N is a field, and
      x/p^v, with a coefficient prime to p, is nonzero there, so a unit.
      Its norm is then prime to p, and ``_cyclo_valuation`` takes none;
    * where two factors f_i, f_j tie in a way that may cancel, their roots
      are integral, so each v(r - r') is at most the sum over their pairs
      of roots, v_p(res(f_i, f_j)), which is at most v_p of its norm to Q
      (``curves.resultant_norm``).  A zero norm is two factors sharing a
      root: RootCollision;
    * a branch c + w pi^k can cancel only if v(c) = k, or if v(c) is only
      bounded below; then v(r) is at most v_p of the norm of res(f_i, x),
      which is f_i(0) up to sign.  A root that is exactly 0 needs no bound,
      whatever its centre: then c^n = u p^m, and as p is unramified in
      Q(zeta_N), c/p^v is a unit for v the least valuation of c's
      coefficients, so ``curves.embed_cyclo`` trusts c in all M digits
      and ``add_branch`` reads the zero exactly.

    Identical factors are skipped: ``curves.extract_roots`` rejects them.
    At this precision two distinct roots differ in a trusted digit, and
    no read raises; PrecisionExhausted from a read is a fault in this
    lemma.
    """
    p, fs, N, inf = expr.p, expr.factors, expr.conductor, math.inf
    ks = [f.rhs_pow * e // f.n if isinstance(f, Binomial) else inf for f in fs]

    def shifted(f, tied, d):
        """(X + d)^n - u for f's branch if it is tied, else X + d."""
        n, u = (f.n, f.rhs_unit) if tied else (1, 0)
        return [math.comb(n, k) * d ** (n - k) - (k == 0) * u for k in range(n + 1)]

    bound = 0
    for i, f in enumerate(fs):
        if ks[i] < inf:
            v, _, exact = _cyclo_valuation(f.center.coeffs, p, N)
            bound = max(bound, ks[i] if f.n > 1 else 0)
            if not exact or e * v == ks[i]:                 # c + w pi^k may cancel
                norm = resultant_norm(f, Linear(Cyclo.integer(0, N)), p)
                bound = max(bound, e * vp(norm, p) if norm else 0)
        for j in range(i):
            if f == fs[j]:
                continue
            v, unit, exact = _cyclo_valuation([x - y for x, y in zip(f.center.coeffs,
                                                                     fs[j].center.coeffs)], p, N)
            low = min(e * v, ks[i], ks[j])
            centre = e * v == low
            if not exact or centre + (ks[i] == low) + (ks[j] == low) > 1 and (
                    centre and any(unit[1:]) or resultant(
                        shifted(f, ks[i] == low, 0),
                        shifted(fs[j], ks[j] == low, unit[0] % p if centre else 0)) % p == 0):
                norm = resultant_norm(fs[j], f, p)          # a tie that may cancel
                if not norm:
                    raise RootCollision(f"factors {j} and {i} share a root: f is not squarefree")
                low = e * vp(norm, p)
            bound = max(bound, low)
    return e * stored_digits(bound + e, e)


def analyse(expr, prec=None):
    """Embed the roots, build the picture, and compute all cluster data.

    The tower is this process's one for (p, d, e, prec) (``tame.get_tower``),
    at the sized precision (``default_precision``) or prec if that is larger.
    """
    d, e = required_tower(expr)
    tower = get_tower(expr.p, d, e, max(prec or 0, default_precision(expr, e)))
    rs = extract_roots(expr, tower)
    galois_perms(rs)
    picture = build_picture(rs, expr)
    return ClusterAnalysis(expr, rs, picture)
