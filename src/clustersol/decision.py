"""The combinatorial solubility criterion and verdict assembly.

A multiplicity-one component of the special fibre fixed by Frobenius
exists precisely when one of eighteen sub-conditions holds; under the
applicability gate (odd residue characteristic, tameness, and residue
field larger than 2(g^2 - 1)) this is equivalent to the curve having a
rational point over Q_p.  Every sub-condition is evaluated and reported,
even after one fires.

The criterion is data: ``CONDITIONS`` holds one ``Route`` per way a
condition fires, in ``CONDITION_IDS`` order and in one run per kind of
node, with its ``cid``; that ``kind`` (a Galois-fixed principal cluster,
a fixed principal child of one, a fixed twin, and when the top is not
principal, a fixed cotwin or each of the top's two children read against
the other); its ``conjuncts``, named tests ``(A, candidate)``; the
``interval`` ``(lo, hi, den)`` it needs an integer in, if any, and
whether it ``notes_empty`` ones; the ``witness`` builder of its
``consumed`` dict; and its convention ``marker``.

The evaluation order.  ``theorem_decide`` builds each kind's candidates
once, in picture order, with the reads their routes share: epsilon trivial
on an ubereven principal cluster, or on inertia at a twin or cotwin, and a
cotwin's dual-pair swaps where it is not.  Per run of one kind's records
and per candidate, it tries the routes in order, testing conjuncts left to
right up to the first that fails; a route whose conjuncts all hold claims
the candidate, and a later route of its condition skips it, as an ``elif``
would.  So each reader is asked about the nodes a hand-written ladder asks
about: ``center_value_is_square``, which raises on a fixed cluster whose
centroid value is outside F_p, only where the conjuncts before it hold.
"""

import math
from typing import NamedTuple

from .clusters import analyse
from .numutil import rational_str
from .tame import FROB, TAU


class ConditionReport:
    """One sub-condition's outcome, kept under its id; equal when all fields are."""

    __slots__ = ("satisfied", "witnesses", "consumed", "convention_marker")

    def __init__(self, satisfied=False, witnesses=None, consumed=None,
                 convention_marker=False):
        self.satisfied, self.convention_marker = satisfied, convention_marker
        self.witnesses = [] if witnesses is None else witnesses
        self.consumed = {} if consumed is None else consumed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)

    def fire(self, witness, consumed, marker):
        self.satisfied = True
        if witness not in self.witnesses:
            self.witnesses.append(witness)
        self.consumed.update(consumed)
        self.convention_marker = self.convention_marker or marker

    def note(self, witness, consumed, marker):
        """Record an evaluated-but-unsatisfied candidate, e.g. an empty interval."""
        self.consumed.setdefault("evaluated", {})[witness] = consumed
        self.convention_marker = self.convention_marker or marker


class SolubilityVerdict(NamedTuple):
    status: str                      # Soluble | Insoluble | Inapplicable
    component_yes: bool
    fired: list
    reports: dict
    reasons: dict
    odd_degree_shortcut: bool
    convention_dependent: bool


def interval_has_integer(lo, hi, den):
    """[lo/den, hi/den] cap Z nonempty, closed endpoints, for den > 0."""
    return -(-lo // den) <= hi // den


def is_int(n, den):
    """Whether n/den is an integer."""
    return n % den == 0


def is_even_int(n, den):
    """Whether n/den is an even integer."""
    return n % (2 * den) == 0


class Route(NamedTuple):
    """One way a condition fires (module docstring); ``witness`` builds a new dict per call."""
    cid: str
    kind: str
    conjuncts: tuple
    witness: object
    interval: object = None
    notes_empty: bool = False
    marker: bool = False


class Candidate(NamedTuple):
    """A node the routes of its kind are asked on, with what they share."""
    node: object               # the cluster; a nested child; a top child
    name: str                  # the witness
    eps_ok: bool = False       # principal: not ubereven, or epsilon trivial
    inertia: bool = False      # twin, cotwin: epsilon trivial on inertia
    swaps: tuple = None        # cotwin, inertia not trivial: dual pair (tau, frob) swaps


II = ("e > 1, epsilon trivial if ubereven", lambda A, c: c.node.e > 1 and c.eps_ok)
TOP = ("the top", lambda A, c: c.node is A.picture.top)
EPS = ("epsilon trivial", lambda A, c: A.eps_trivial_galois(c.node))
INERTIA = ("epsilon trivial on inertia", lambda A, c: c.inertia)
NO_INERTIA = ("epsilon not trivial on inertia", lambda A, c: not c.inertia)
FROB_NEG = ("eps(frob) = -1", lambda A, c: c.node.eps_frob == -1)
D_INT = ("d integral", lambda A, c: is_int(c.node.level, A.tower.e))
NU_EVEN = ("nu even", lambda A, c: is_even_int(c.node.nu_e, A.tower.e))
CENTRE = ("d integral or f square at the centroid", lambda A, c: is_int(
    c.node.level, A.tower.e) or A.center_value_is_square(c.node) is True)
ODD = ("odd", lambda A, c: c.node.size % 2 == 1)
EVEN_PROPER = ("even, proper", lambda A, c: c.node.size % 2 == 0 and c.node.is_proper)
FIXED_IN = ("fixed by tau", lambda A, c: A.image(c.node, TAU) is c.node)
FIXED_FR = ("fixed by frob", lambda A, c: A.image(c.node, FROB) is c.node)
MOVED_FR = ("moved by frob", lambda A, c: A.image(c.node, FROB) is not c.node)
SWAPS = ("swapped by tau", lambda A, c: A.image(c.node, TAU) is not c.node)
TOP_D_INT = ("d_R integral", lambda A, c: is_int(A.picture.top.level, A.tower.e))
TOP_FROB = ("eps_R(frob) = 1", lambda A, c: A.picture.top.eps_frob == 1)
_q = lambda A, n, den=1: rational_str(n, den * A.tower.e)
D_NU = lambda A, c: {"d": _q(A, c.node.level), "nu": _q(A, c.node.nu_e)}
NONE = lambda A, c: {}
DEPTHS = lambda A, c: (-c.node.level, -A.picture.parent[c.node].level, A.tower.e)
RELATIVE = lambda A, c: (-A.picture.parent[c.node].lam_2e - c.node.delta_e,
                         -A.picture.parent[c.node].lam_2e, 2 * A.tower.e)

CONDITIONS = ((  # one run of routes per kind of node
    Route("i", "principal", (("e = 1, epsilon trivial if ubereven",
                              lambda A, c: c.node.e == 1 and c.eps_ok),), lambda A, c: {"e": 1}),
    Route("ii.a", "principal", (II, TOP, ODD), lambda A, c: {"parity": "odd", "e": c.node.e}),
    Route("ii.a", "principal", (II, TOP, EPS), lambda A, c: {"parity": "even", "eps": "trivial"}),
    Route("ii.b", "principal", (II, ("a stable singleton child", lambda A, c: any(
        k.size == 1 for k in c.node.stable_children))), lambda A, c: {"route": "stable singleton"}),
    Route("ii.b", "principal", (
        II, ("genus 0, not ubereven", lambda A, c: c.node.genus == 0 and not c.node.ubereven),
        ("no proper stable odd child", lambda A, c: not any(
            k.size > 1 and k.size % 2 == 1 for k in c.node.stable_children)), NU_EVEN, CENTRE),
        lambda A, c: {"route": "genus 0, no proper stable odd child", "nu": _q(A, c.node.nu_e)},
        marker=True),
    Route("ii.c", "principal", (
        II, ("no proper stable child", lambda A, c: not any(
            k.size > 1 for k in c.node.stable_children)),
        ("lambda integral", lambda A, c: is_int(c.node.lam_2e, 2 * A.tower.e)), NU_EVEN,
        ("genus > 0 or ubereven", lambda A, c: c.node.genus > 0 or c.node.ubereven), CENTRE),
        lambda A, c: {"lambda": _q(A, c.node.lam_2e, 2), "nu": _q(A, c.node.nu_e)}, marker=True),
    Route("ii.d", "principal", (II, ("singleton children, all fixed", lambda A, c: any(
        k.size == 1 for k in c.node.children) and all(
            A.image(k, TAU) is k and A.image(k, FROB) is k
            for k in c.node.children if k.size == 1))),
        lambda A, c: {"singletons": sum(k.size == 1 for k in c.node.children)})), (
    Route("iii", "nested", (ODD,), lambda A, c: {"branch": "odd"}, RELATIVE, notes_empty=True),
    Route("iii", "nested", (EPS,), lambda A, c: {"branch": "even"}, DEPTHS)), (
    Route("iv.a", "twin", (EPS,), NONE, DEPTHS, notes_empty=True),
    Route("iv.b", "twin", (INERTIA, FROB_NEG, D_INT, NU_EVEN), D_NU),
    Route("iv.c", "twin", (NO_INERTIA, ("both roots fixed", lambda A, c: all(
        A.image(k, TAU) is k and A.image(k, FROB) is k for k in c.node.children))),
        lambda A, c: {"route": "rational branch points"}, marker=True),
    Route("iv.c", "twin", (NO_INERTIA, NU_EVEN, CENTRE), lambda A, c: {
        "route": "crosses fixed", "nu": _q(A, c.node.nu_e), "d": _q(A, c.node.level)}, marker=True)), (
    Route("v.a", "cotwin", (EPS, ("the star proper", lambda A, c: A.star(c.node).is_proper)),
          NONE, lambda A, c: (-A.star(c.node).level, -c.node.level, A.tower.e)),
    Route("v.b", "cotwin", (INERTIA, FROB_NEG, D_INT, NU_EVEN), D_NU),
    Route("v.c", "cotwin", (NO_INERTIA, ("the dual pair swapped by tau or fixed by frob",
                                         lambda A, c: c.swaps[0] or not c.swaps[1])),
          lambda A, c: {"dual_pair_tau_swaps": c.swaps[0],
                        "dual_pair_frob_swaps": c.swaps[1]}, marker=True)), (
    Route("vi.a", "top child", (ODD, ("a singleton, at infinite relative depth",
                                      lambda A, c: not c.node.is_proper), FIXED_IN, FIXED_FR),
          lambda A, c: {"interval": ["-inf", _q(A, -A.picture.top.lam_2e, 2)],
                        "note": "rational Weierstrass point"}, marker=True),
    Route("vi.a", "top child", (ODD, ("proper", lambda A, c: c.node.is_proper), FIXED_IN,
                                FIXED_FR), NONE, RELATIVE, notes_empty=True, marker=True),
    Route("vi.b", "top child", (ODD, FIXED_IN, MOVED_FR, TOP_D_INT, ("nu_R even", lambda A, c:
                                is_even_int(A.picture.top.nu_e, A.tower.e))), lambda A, c: {
        "d_R": _q(A, A.picture.top.level), "nu_R": _q(A, A.picture.top.nu_e)}, marker=True),
    Route("vi.c", "top child", (ODD, SWAPS, TOP_FROB), lambda A, c: {"eps_R_frob": 1}),
    Route("vi.d", "top child", (EVEN_PROPER, FIXED_IN, FIXED_FR, EPS), NONE, DEPTHS),
    Route("vi.e", "top child", (EVEN_PROPER, FIXED_IN, MOVED_FR, EPS, TOP_D_INT),
          lambda A, c: {"d_R": _q(A, A.picture.top.level)}),
    Route("vi.f", "top child", (EVEN_PROPER, SWAPS, EPS, TOP_FROB), lambda A, c: {"eps_R_frob": 1})))

CONDITION_IDS = list(dict.fromkeys(r.cid for run in CONDITIONS for r in run))


def _candidates(A):
    """Each kind's candidates, in picture order, with what their routes share."""
    top, fixed = A.picture.top, [s for s in A.picture.proper() if s.fixed_galois]
    principal = [s for s in fixed if s.principal]
    cotwins = [(s, A.eps_trivial_inertia(s)) for s in fixed if s.cotwin and not top.principal]
    return {
        "principal": [Candidate(s, s.name, eps_ok=not s.ubereven or A.eps_trivial_galois(s))
                      for s in principal],
        "nested": [Candidate(k, f"{k.name}<{s.name}") for s in principal for k in s.children
                   if k.is_proper and k.principal and k.fixed_galois],
        "twin": [Candidate(s, s.name, inertia=A.eps_trivial_inertia(s)) for s in fixed if s.twin],
        "cotwin": [Candidate(s, s.name, inertia=i, swaps=None if i else A.dual_pair_swap(s))
                   for s, i in cotwins],
        "top child": [Candidate(a, a.name or f"r{a.roots[0] + 1}") for a in top.children
                      if not top.principal and len(top.children) == 2],
    }


def theorem_decide(A):
    """(component_yes, {cid: ConditionReport}) from every route of ``CONDITIONS``.

    Depths, nu and relative depths are integers over the tower's e, and
    lambda, with the interval ends read from it, over 2e (``ClusterNode``).
    """
    reports, candidates = {cid: ConditionReport() for cid in CONDITION_IDS}, _candidates(A)
    for run in CONDITIONS:
        for c in candidates[run[0].kind]:
            claimed = None
            for r in run:
                if r.cid == claimed:
                    continue
                for _, test in r.conjuncts:
                    if not test(A, c):
                        break
                else:
                    claimed, report, consumed = r.cid, reports[r.cid], r.witness(A, c)
                    if r.interval:
                        lo, hi, den = r.interval(A, c)
                        consumed["interval"] = [rational_str(x, den) for x in (lo, hi)]
                    if not r.interval or interval_has_integer(lo, hi, den):
                        report.fire(c.name, consumed, r.marker)
                    elif r.notes_empty:
                        report.note(c.name, {**consumed, "integer_intersection": "empty"}, r.marker)
    return any(r.satisfied for r in reports.values()), reports


def tameness_flags(A):
    """Effective tameness requirements: p odd, p coprime to the tower and all e_s."""
    p = A.expr.p
    flags = {
        "p_odd": p % 2 == 1,
        "tower_tame": math.gcd(A.tower.e, p) == 1,
        "cluster_e_tame": all(math.gcd(s.e, p) == 1 for s in A.picture.proper()),
    }
    return flags


def corollary_gate(p, genus, tame_flags):
    """Applicable iff p odd, tame, and q = p exceeds 2(g^2 - 1)."""
    reasons = dict(tame_flags)
    reasons["q"] = p
    reasons["hasse_weil_bound"] = 2 * (genus * genus - 1)
    reasons["q_large_enough"] = p > 2 * (genus * genus - 1)
    applicable = all(v for k, v in reasons.items()
                     if k not in ("q", "hasse_weil_bound"))
    return applicable, reasons


def solubility_decide(expr):
    """Full pipeline: one certified analysis, gate, theorem, verdict.

    Lemma (the precision certificate).  ``theorem_decide`` reads only
    the cluster tree (levels, and the digit each child keeps at its
    parent's split), ``tau_perm`` and ``frob_perm``; depths, nu, lambda
    and the intervals are integers computed from the levels, and the
    radicands and the centroid's value are F_q products of split digits.
    Every digit is read by one reader, ``curves.digit``, which raises
    PrecisionExhausted on a digit at or above an element's trusted level:

    * ``clusters.build_picture`` buckets the roots of a block by their
      digit at its level N, and at the precision ``clusters.default_precision`` sizes from
      the factors no such read raises (the sizing lemma there);
    * each child keeps the digit it was bucketed by, and the radicands'
      leading coefficients u are products of differences of these digits
      (``clusters._leading_unit``);
    * the centroid of s has digit m = sum |c| delta_c / |s| at the level
      of its split, so f at the centroid leads with the radicand of s
      times prod_c (m - delta_c)^|c|, read from the same digits; when
      p divides |s| the read answers None, a case the gate excludes, as
      p > 2(g^2 - 1) >= 2g + 2 >= |s| (``center_value_is_square``).  No
      centroid read raises;
    * the permutations read no digit: ``curves.galois_perms`` derives
      them exactly from the roots' (factor, branch) tags, and the Galois
      data are their maps on the tree's nodes.

    Trusted digits are those of the exact roots, so every value above
    equals the one the exact roots give, and a pass at any higher
    precision (``analyse``'s prec, read as a floor) gives the same
    reports.  One pass decides the curve; the tests keep a second at
    doubled precision as the reference.
    """
    A = analyse(expr)
    component_yes, reports = theorem_decide(A)
    flags = tameness_flags(A)
    applicable, reasons = corollary_gate(expr.p, expr.genus, flags)
    fired = [cid for cid in CONDITION_IDS if reports[cid].satisfied]
    convention = any(reports[cid].convention_marker for cid in fired)
    verdict = SolubilityVerdict(
        status=("Soluble" if component_yes else "Insoluble") if applicable
               else "Inapplicable",
        component_yes=component_yes,
        fired=fired,
        reports=reports,
        reasons=reasons,
        odd_degree_shortcut=expr.degree % 2 == 1,
        convention_dependent=convention,
    )
    return verdict, A
