"""The combinatorial solubility criterion and verdict assembly.

A multiplicity-one component of the special fibre fixed by Frobenius
exists precisely when one of eighteen sub-conditions holds; under the
applicability gate (odd residue characteristic, tameness, and residue
field larger than 2(g^2 - 1)) this is equivalent to the curve having a
rational point over Q_p.  Every sub-condition is evaluated and reported,
even after one fires.
"""

import math
from typing import NamedTuple

from .clusters import analyse
from .numutil import rational_str
from .tame import FROB, TAU

CONDITION_IDS = ["i", "ii.a", "ii.b", "ii.c", "ii.d", "iii",
                 "iv.a", "iv.b", "iv.c", "v.a", "v.b", "v.c",
                 "vi.a", "vi.b", "vi.c", "vi.d", "vi.e", "vi.f"]


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

    def fire(self, witness, consumed=None, marker=False):
        self.satisfied = True
        if witness not in self.witnesses:
            self.witnesses.append(witness)
        if consumed:
            self.consumed.update(consumed)
        self.convention_marker = self.convention_marker or marker

    def note(self, witness, consumed, marker=False):
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


def theorem_decide(A):
    """Evaluate all theorem conditions on a ClusterAnalysis.

    Depths, nu and relative depths are integers over the tower's e, lambda
    and the (iii) and (vi.a) interval ends over 2e (``ClusterNode``);
    witnesses write them as fractions.  Returns (component_yes,
    {cid: ConditionReport}).
    """
    reports = {cid: ConditionReport() for cid in CONDITION_IDS}
    top = A.picture.top
    proper = A.picture.proper()
    e = A.tower.e
    e2 = 2 * e

    def q(n, den=e):
        return rational_str(n, den)

    def eps_ok_if_ubereven(n):
        return not n.ubereven or A.eps_trivial_galois(n)

    def center_ok(n):
        return is_int(n.level, e) or A.center_value_is_square(n) is True

    def fire_or_note(cid, witness, lo, hi, den, marker=False, **head):
        """Fire when [lo/den, hi/den] holds an integer, else note it as empty."""
        consumed = {**head, "interval": [q(lo, den), q(hi, den)]}
        if interval_has_integer(lo, hi, den):
            reports[cid].fire(witness, consumed, marker)
        else:
            reports[cid].note(witness, {**consumed, "integer_intersection": "empty"}, marker)

    def fire_if_frob_negates(cid, s, triv_inertia):
        """(iv.b), (v.b): epsilon trivial on inertia and -1 on frob, d integral, nu even."""
        if (triv_inertia and s.eps_frob == -1
                and is_int(s.level, e) and is_even_int(s.nu_e, e)):
            reports[cid].fire(s.name, {"d": q(s.level), "nu": q(s.nu_e)})

    # (i) and the (ii) preamble
    for s in proper:
        if not (s.principal and s.fixed_galois):
            continue
        if s.e == 1 and eps_ok_if_ubereven(s):
            reports["i"].fire(s.name, {"e": 1})
        if s.e > 1 and eps_ok_if_ubereven(s):
            # (ii)(a)
            if s is top:
                if top.size % 2 == 1:
                    reports["ii.a"].fire(s.name, {"parity": "odd", "e": s.e})
                elif A.eps_trivial_galois(top):
                    reports["ii.a"].fire(s.name, {"parity": "even", "eps": "trivial"})
            # (ii)(b)
            stable = s.stable_children
            if any(c.size == 1 for c in stable):
                reports["ii.b"].fire(s.name, {"route": "stable singleton"})
            elif (s.genus == 0 and not s.ubereven
                  and not any(c.size > 1 and c.size % 2 == 1 for c in stable)
                  and is_even_int(s.nu_e, e) and center_ok(s)):
                reports["ii.b"].fire(s.name,
                                     {"route": "genus 0, no proper stable odd child",
                                      "nu": q(s.nu_e)}, marker=True)
            # (ii)(c)
            if (not any(c.size > 1 for c in stable)
                    and is_int(s.lam_2e, e2) and is_even_int(s.nu_e, e)
                    and (s.genus > 0 or s.ubereven) and center_ok(s)):
                reports["ii.c"].fire(s.name, {"lambda": q(s.lam_2e, e2), "nu": q(s.nu_e)},
                                     marker=True)
            # (ii)(d)
            singles = [c for c in s.children if c.size == 1]
            if singles and all(
                    A.image(c, TAU) is c and A.image(c, FROB) is c for c in singles):
                reports["ii.d"].fire(s.name, {"singletons": len(singles)})

    # (iii) linking chains between nested principal clusters
    for s in proper:
        if not (s.principal and s.fixed_galois):
            continue
        for sp in s.children:
            if not (sp.is_proper and sp.principal and sp.fixed_galois):
                continue
            if sp.size % 2 == 1:
                fire_or_note("iii", f"{sp.name}<{s.name}", -s.lam_2e - sp.delta_e, -s.lam_2e,
                             e2, branch="odd")
            else:
                lo, hi = -sp.level, -s.level
                if A.eps_trivial_galois(sp) and interval_has_integer(lo, hi, e):
                    reports["iii"].fire(f"{sp.name}<{s.name}",
                                        {"branch": "even", "interval": [q(lo), q(hi)]})

    # (iv) twins
    for s in proper:
        if not (s.twin and s.fixed_galois):
            continue
        triv_inertia = A.eps_trivial_inertia(s)
        if A.eps_trivial_galois(s):
            fire_or_note("iv.a", s.name, -s.level, -s.parent.level, e)
        fire_if_frob_negates("iv.b", s, triv_inertia)
        if not triv_inertia:
            if all(A.image(c, TAU) is c and A.image(c, FROB) is c for c in s.children):
                reports["iv.c"].fire(s.name, {"route": "rational branch points"},
                                     marker=True)
            elif is_even_int(s.nu_e, e) and center_ok(s):
                reports["iv.c"].fire(s.name, {"route": "crosses fixed",
                                              "nu": q(s.nu_e), "d": q(s.level)},
                                     marker=True)

    if not top.principal:
        # (v) cotwins, read with t the cotwin and s its child of size 2g
        for s in proper:
            if not (s.cotwin and s.fixed_galois):
                continue
            child = A.star(s)
            triv_inertia = A.eps_trivial_inertia(s)
            if A.eps_trivial_galois(s) and child.is_proper:
                lo, hi = -child.level, -s.level
                if interval_has_integer(lo, hi, e):
                    reports["v.a"].fire(s.name, {"interval": [q(lo), q(hi)]})
            fire_if_frob_negates("v.b", s, triv_inertia)
            if not triv_inertia:
                tau_swaps, frob_swaps = A.dual_pair_swap(s)
                if tau_swaps or not frob_swaps:
                    reports["v.c"].fire(s.name,
                                        {"dual_pair_tau_swaps": tau_swaps,
                                         "dual_pair_frob_swaps": frob_swaps},
                                        marker=True)

        # (vi) top cluster with exactly two children
        if len(top.children) == 2:
            for a_node, b_node in (top.children, list(reversed(top.children))):
                fixed_in = A.image(a_node, TAU) is a_node
                fixed_fr = A.image(a_node, FROB) is a_node
                swaps = A.image(a_node, TAU) is b_node
                name = a_node.name or f"r{a_node.roots[0] + 1}"
                if a_node.size % 2 == 1:
                    if not a_node.is_proper and fixed_in and fixed_fr:
                        # singleton child: the relative depth is infinite, the
                        # interval unbounded below, and the root is rational
                        reports["vi.a"].fire(name,
                                             {"interval": ["-inf", q(-top.lam_2e, e2)],
                                              "note": "rational Weierstrass point"},
                                             marker=True)
                    if a_node.is_proper and fixed_in and fixed_fr:
                        fire_or_note("vi.a", name, -top.lam_2e - a_node.delta_e, -top.lam_2e,
                                     e2, marker=True)
                    if (fixed_in and not fixed_fr and is_int(top.level, e)
                            and is_even_int(top.nu_e, e)):
                        reports["vi.b"].fire(name, {"d_R": q(top.level),
                                                    "nu_R": q(top.nu_e)},
                                             marker=True)
                    if swaps and top.eps_frob == 1:
                        reports["vi.c"].fire(name, {"eps_R_frob": 1})
                else:
                    if not a_node.is_proper:
                        continue
                    if fixed_in and fixed_fr and A.eps_trivial_galois(a_node):
                        lo, hi = -a_node.level, -top.level
                        if interval_has_integer(lo, hi, e):
                            reports["vi.d"].fire(name, {"interval": [q(lo), q(hi)]})
                    if (fixed_in and not fixed_fr and A.eps_trivial_galois(a_node)
                            and is_int(top.level, e)):
                        reports["vi.e"].fire(name, {"d_R": q(top.level)})
                    if (swaps and A.eps_trivial_galois(a_node)
                            and top.eps_frob == 1):
                        reports["vi.f"].fire(name, {"eps_R_frob": 1})

    component_yes = any(r.satisfied for r in reports.values())
    return component_yes, reports


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
