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
the other); its ``conjuncts``, named tests ``(A, s)`` of the analysis and
the node; the ``interval`` ``(lo, hi, den)`` it needs an integer in, if
any, and whether it ``notes_empty`` ones; the ``witness`` builder of its
``consumed`` dict; and its convention ``marker``.

The evaluation order.  ``theorem_decide`` lists each kind's nodes once,
in picture order, with their witness names; the routes read the facts
the analysis keeps on the nodes (``clusters.ClusterNode``).  Per run of
one kind's records and per node, it tries the routes in order, testing
conjuncts left to right up to the first that fails; a route whose
conjuncts all hold claims the node, and a later route of its condition
skips it, as an ``elif`` would.  So the one reader that is no field,
``center_value_is_square``, which raises on a fixed cluster whose
centroid value is outside F_p, is asked only where the conjuncts before
it hold.

Lemma ((ii.d) is implied by (ii.b)).  Wherever (ii.d) fires on a
principal cluster s, (ii.b)'s first route fires on s too.  The two share
their first conjunct.  s is Galois-fixed, so its orbit is {s}.  (ii.d)
needs a singleton child k, fixed by tau and by frob; these generate the
group, so the orbit of k is {k}, as large as the orbit of s, and k is a
stable child (``ClusterAnalysis._invariants``).  So s has a stable
singleton child.  A mutant that never fires (ii.d) thus moves no
verdict: it is equivalent on verdicts, and differs only in the report.
"""

import math
from typing import NamedTuple

from .clusters import analyse
from .numutil import rational_str


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


II = ("e > 1, epsilon trivial if ubereven",
      lambda A, s: s.e > 1 and (not s.ubereven or s.eps_trivial_galois))
TOP = ("the top", lambda A, s: s is A.picture.top)
EPS = ("epsilon trivial", lambda A, s: s.eps_trivial_galois)
INERTIA = ("epsilon trivial on inertia", lambda A, s: s.eps_trivial_inertia)
NO_INERTIA = ("epsilon not trivial on inertia", lambda A, s: not s.eps_trivial_inertia)
FROB_NEG = ("eps(frob) = -1", lambda A, s: s.eps_frob == -1)
D_INT = ("d integral", lambda A, s: is_int(s.level, A.tower.e))
NU_EVEN = ("nu even", lambda A, s: is_even_int(s.nu_e, A.tower.e))
CENTRE = ("d integral or f square at the centroid", lambda A, s: is_int(
    s.level, A.tower.e) or A.center_value_is_square(s) is True)
ODD = ("odd", lambda A, s: s.size % 2 == 1)
EVEN_PROPER = ("even, proper", lambda A, s: s.size % 2 == 0 and s.is_proper)
FIXED_IN = ("fixed by tau", lambda A, s: s.fixed_inertia)
FIXED_FR = ("fixed by frob", lambda A, s: s.fixed_frob)
MOVED_FR = ("moved by frob", lambda A, s: not s.fixed_frob)
SWAPS = ("swapped by tau", lambda A, s: not s.fixed_inertia)
TOP_D_INT = ("d_R integral", lambda A, s: is_int(A.picture.top.level, A.tower.e))
TOP_FROB = ("eps_R(frob) = 1", lambda A, s: A.picture.top.eps_frob == 1)
_q = lambda A, n, den=1: rational_str(n, den * A.tower.e)
D_NU = lambda A, s: {"d": _q(A, s.level), "nu": _q(A, s.nu_e)}
NONE = lambda A, s: {}
DEPTHS = lambda A, s: (-s.level, -A.picture.parent[s].level, A.tower.e)
RELATIVE = lambda A, s: (-A.picture.parent[s].lam_2e - s.delta_e,
                         -A.picture.parent[s].lam_2e, 2 * A.tower.e)

CONDITIONS = ((  # one run of routes per kind of node
    Route("i", "principal", (("e = 1, epsilon trivial if ubereven", lambda A, s: s.e == 1 and (
        not s.ubereven or s.eps_trivial_galois)),), lambda A, s: {"e": 1}),
    Route("ii.a", "principal", (II, TOP, ODD), lambda A, s: {"parity": "odd", "e": s.e}),
    Route("ii.a", "principal", (II, TOP, EPS), lambda A, s: {"parity": "even", "eps": "trivial"}),
    Route("ii.b", "principal", (II, ("a stable singleton child", lambda A, s: any(
        k.size == 1 for k in s.stable_children))), lambda A, s: {"route": "stable singleton"}),
    Route("ii.b", "principal", (
        II, ("genus 0, not ubereven", lambda A, s: s.genus == 0 and not s.ubereven),
        ("no proper stable odd child", lambda A, s: not any(
            k.size > 1 and k.size % 2 == 1 for k in s.stable_children)), NU_EVEN, CENTRE),
        lambda A, s: {"route": "genus 0, no proper stable odd child", "nu": _q(A, s.nu_e)},
        marker=True),
    Route("ii.c", "principal", (
        II, ("no proper stable child", lambda A, s: not any(
            k.size > 1 for k in s.stable_children)),
        ("lambda integral", lambda A, s: is_int(s.lam_2e, 2 * A.tower.e)), NU_EVEN,
        ("genus > 0 or ubereven", lambda A, s: s.genus > 0 or s.ubereven), CENTRE),
        lambda A, s: {"lambda": _q(A, s.lam_2e, 2), "nu": _q(A, s.nu_e)}, marker=True),
    Route("ii.d", "principal", (II, ("singleton children, all fixed", lambda A, s: any(
        k.size == 1 for k in s.children) and all(
            k.fixed_galois for k in s.children if k.size == 1))),
        lambda A, s: {"singletons": sum(k.size == 1 for k in s.children)})), (
    Route("iii", "nested", (ODD,), lambda A, s: {"branch": "odd"}, RELATIVE, notes_empty=True),
    Route("iii", "nested", (EPS,), lambda A, s: {"branch": "even"}, DEPTHS)), (
    Route("iv.a", "twin", (EPS,), NONE, DEPTHS, notes_empty=True),
    Route("iv.b", "twin", (INERTIA, FROB_NEG, D_INT, NU_EVEN), D_NU),
    Route("iv.c", "twin", (NO_INERTIA, ("both roots fixed", lambda A, s: all(
        k.fixed_galois for k in s.children))),
        lambda A, s: {"route": "rational branch points"}, marker=True),
    Route("iv.c", "twin", (NO_INERTIA, NU_EVEN, CENTRE), lambda A, s: {
        "route": "crosses fixed", "nu": _q(A, s.nu_e), "d": _q(A, s.level)}, marker=True)), (
    Route("v.a", "cotwin", (EPS, ("the star proper", lambda A, s: A.star(s).is_proper)),
          NONE, lambda A, s: (-A.star(s).level, -s.level, A.tower.e)),
    Route("v.b", "cotwin", (INERTIA, FROB_NEG, D_INT, NU_EVEN), D_NU),
    Route("v.c", "cotwin", (NO_INERTIA, ("the dual pair swapped by tau or fixed by frob",
                                         lambda A, s: s.dual_pair_swap[0]
                                         or not s.dual_pair_swap[1])),
          lambda A, s: {"dual_pair_tau_swaps": s.dual_pair_swap[0],
                        "dual_pair_frob_swaps": s.dual_pair_swap[1]}, marker=True)), (
    Route("vi.a", "top child", (ODD, ("a singleton, at infinite relative depth",
                                      lambda A, s: not s.is_proper), FIXED_IN, FIXED_FR),
          lambda A, s: {"interval": ["-inf", _q(A, -A.picture.top.lam_2e, 2)],
                        "note": "rational Weierstrass point"}, marker=True),
    Route("vi.a", "top child", (ODD, ("proper", lambda A, s: s.is_proper), FIXED_IN,
                                FIXED_FR), NONE, RELATIVE, notes_empty=True, marker=True),
    Route("vi.b", "top child", (ODD, FIXED_IN, MOVED_FR, TOP_D_INT, ("nu_R even", lambda A, s:
                                is_even_int(A.picture.top.nu_e, A.tower.e))), lambda A, s: {
        "d_R": _q(A, A.picture.top.level), "nu_R": _q(A, A.picture.top.nu_e)}, marker=True),
    Route("vi.c", "top child", (ODD, SWAPS, TOP_FROB), lambda A, s: {"eps_R_frob": 1}),
    Route("vi.d", "top child", (EVEN_PROPER, FIXED_IN, FIXED_FR, EPS), NONE, DEPTHS),
    Route("vi.e", "top child", (EVEN_PROPER, FIXED_IN, MOVED_FR, EPS, TOP_D_INT),
          lambda A, s: {"d_R": _q(A, A.picture.top.level)}),
    Route("vi.f", "top child", (EVEN_PROPER, SWAPS, EPS, TOP_FROB),
          lambda A, s: {"eps_R_frob": 1})))

CONDITION_IDS = list(dict.fromkeys(r.cid for run in CONDITIONS for r in run))


def _candidates(A):
    """Each kind's (witness, node) pairs, in picture order."""
    top, fixed = A.picture.top, [s for s in A.picture.proper() if s.fixed_galois]
    principal = [s for s in fixed if s.principal]
    return {
        "principal": [(s.name, s) for s in principal],
        "nested": [(f"{k.name}<{s.name}", k) for s in principal for k in s.children
                   if k.is_proper and k.principal and k.fixed_galois],
        "twin": [(s.name, s) for s in fixed if s.twin],
        "cotwin": [(s.name, s) for s in fixed if s.cotwin and not top.principal],
        "top child": [(a.name, a) for a in top.children
                      if not top.principal and len(top.children) == 2],
    }


def theorem_decide(A):
    """(component_yes, {cid: ConditionReport}) from every route of ``CONDITIONS``.

    Depths, nu and relative depths are integers over the tower's e, and
    lambda, with the interval ends read from it, over 2e (``ClusterNode``).
    """
    reports, candidates = {cid: ConditionReport() for cid in CONDITION_IDS}, _candidates(A)
    for run in CONDITIONS:
        for name, s in candidates[run[0].kind]:
            claimed = None
            for r in run:
                if r.cid == claimed:
                    continue
                for _, test in r.conjuncts:
                    if not test(A, s):
                        break
                else:
                    claimed, report, consumed = r.cid, reports[r.cid], r.witness(A, s)
                    if r.interval:
                        lo, hi, den = r.interval(A, s)
                        consumed["interval"] = [rational_str(x, den) for x in (lo, hi)]
                    if not r.interval or interval_has_integer(lo, hi, den):
                        report.fire(name, consumed, r.marker)
                    elif r.notes_empty:
                        report.note(name, {**consumed, "integer_intersection": "empty"}, r.marker)
    return any(r.satisfied for r in reports.values()), reports


def tameness_flags(A):
    """Effective tameness requirements: p odd, p coprime to the tower and all e_s."""
    p = A.expr.p
    return {
        "p_odd": p % 2 == 1,
        "tower_tame": math.gcd(A.tower.e, p) == 1,
        "cluster_e_tame": all(math.gcd(s.e, p) == 1 for s in A.picture.proper()),
    }


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
