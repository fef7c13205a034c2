"""Ground-truth local solubility of y^2 = f(x) over Q_p by residue search.

Classes {x = a mod p^k} are decided exactly: once v_p(f(a)) < k the
valuation and leading unit of f are constant on the class, so parity of
the valuation plus quadratic residuosity settle it; classes dominated by
a nearby simple root are settled by Hensel's lemma; the rest refine.
The driver decides classes in recentered form, substituting x = a + p t
and stripping p-content at every level, so the tree stays linear in
p * deg f * depth instead of fanning out across valuation plateaus.
F(a + p t) is a Taylor shift by synthetic division followed by t -> p t
(``_substitute``).  For squarefree f the recursion is complete and
terminates within 2 v_p(disc f) + 4 levels.
The oracle computes v_p(disc f) itself, from res(f, f') by the
subresultant PRS (``numutil.resultant``), and rejects f when it is 0.

Everything is exact integer arithmetic; every Accept carries a witness
with an explicit Hensel certificate.  One Newton lift (``_refine_root``)
makes both witnesses: a simple root of f, and y with y^2 = u for a
residue unit u, as the root of y^2 - u over canonical_sqrt's root mod p.
"""

from typing import NamedTuple

from .errors import NotSquarefree
from .fq import get_field
from .numutil import poly_deriv, poly_eval, resultant, vp

WITNESS_DIGITS = 6


class OracleResult(NamedTuple):
    soluble: bool            # None when inconclusive
    witness: dict
    nodes_explored: int
    max_level_reached: int
    status: str = "ok"       # ok | max-level-exceeded


def infinity_chart(f):
    """Coefficients of u^(2g+2) f(1/u), the second affine chart."""
    rev = list(reversed(f))
    if (len(f) - 1) % 2 == 1:
        rev = [0] + rev
    return rev


def disc_valuation(f, p):
    """v_p of disc(f) = res(f, f') / lc(f), by the subresultant PRS; NotSquarefree on zero."""
    res = resultant(f, poly_deriv(f))
    if res == 0:
        raise NotSquarefree("gcd(f, f') is not constant")
    return vp(res, p) - vp(f[-1], p)


def _refine_root(f, fprime, a, p, digits):
    """Newton-refine the Hensel root of f near a, mod p^digits."""
    x = a
    pk = p ** (2 * digits + 2 * vp(poly_eval(fprime, a), p))
    for _ in range(digits.bit_length() + 3):
        fx = poly_eval(f, x)
        if fx % pk == 0:
            break
        fpx = poly_eval(fprime, x)
        w = vp(fpx, p)
        step = (fx // p ** w) * pow(fpx // p ** w, -1, pk) % pk
        x = (x - step) % pk
    return x % p ** digits


def _strip_content(F, p):
    v0 = min(vp(c, p) for c in F if c != 0)
    if v0 == 0:
        return F, 0
    return [c // p ** v0 for c in F], v0


def _solve(F, p, vtot, level, budget, counters, center, scale):
    """Search x in Z_p with p^vtot * F(x) a square; x reported as center + scale*x."""
    if level > budget:
        counters["exceeded"] = True
        return None
    G, v0 = _strip_content(F, p)
    vtot += v0
    Gp = poly_deriv(G)
    for a in range(p):
        counters["nodes"] += 1
        counters["level"] = max(counters["level"], level)
        Ga = poly_eval(G, a)
        if Ga == 0:
            return {"x": center + scale * a, "y": 0, "precision": WITNESS_DIGITS,
                    "certificate": "exact rational root"}
        w = vp(Ga, p)
        if w == 0:
            if vtot % 2 == 0 and pow(Ga % p, (p - 1) // 2, p) == 1:
                fp = get_field(p, 1)
                y0 = fp.canonical_sqrt(fp.from_int(Ga))[0]
                yu = _refine_root([-Ga, 0, 1], [0, 2], y0, p, WITNESS_DIGITS)
                prec = vtot // 2 + WITNESS_DIGITS
                return {"x": center + scale * a,
                        "y": yu * p ** (vtot // 2) % p ** prec, "precision": prec,
                        "certificate": f"v(y^2 - f(x)) >= {vtot + WITNESS_DIGITS}"
                                       f" > 2 v(y) + 1 = {vtot + 1}"}
            continue
        Gpa = poly_eval(Gp, a)
        if Gpa != 0 and w > 2 * vp(Gpa, p):
            digits = max(WITNESS_DIGITS, w)
            x = _refine_root(G, Gp, a, p, digits)
            return {"x": center + scale * x, "y": 0, "precision": digits,
                    "certificate": f"v(g(a)) = {w} > 2 v(g'(a)) = {2 * vp(Gpa, p)}"}
        shifted = _substitute(G, a, p)
        found = _solve(shifted, p, vtot, level + 1, budget, counters,
                       center + scale * a, scale * p)
        if found is not None:
            return found
    return None


def _substitute(F, a, p):
    """Coefficients of F(a + p x): the Taylor shift F(x + a), then x -> p x.

    The shift is repeated synthetic division by x - a (Horner's scheme):
    pass k leaves the coefficient of x^k final, n(n - 1)/2 multiply-adds
    in all for n = deg F, with no derivative, factorial or division.
    """
    c = list(F)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    pk = 1
    for k in range(len(c)):
        c[k] *= pk
        pk *= p
    return c


def is_locally_soluble(f, p, max_level=None):
    """Decide whether y^2 = f(x) has a Q_p-point; f integer coefficients."""
    if p == 2:
        raise ValueError("p must be odd")
    if len(f) - 1 < 5:
        raise ValueError("deg f must be >= 5")
    vdisc = disc_valuation(f, p)   # also rejects non-squarefree input
    if max_level is None:
        max_level = 2 * max(vdisc, 0) + 4
    counters = {"nodes": 0, "level": 0, "exceeded": False}
    if (len(f) - 1) % 2 == 1:
        return OracleResult(True, {"chart": "infinity", "note": "point at infinity",
                                   "certificate": "odd degree"},
                            counters["nodes"], 0)
    w = _solve(list(f), p, 0, 1, max_level, counters, 0, 1)
    if w is not None:
        w["chart"] = "affine-x"
        return OracleResult(True, w, counters["nodes"], counters["level"])
    g = infinity_chart(f)
    w = _solve(_substitute(g, 0, p), p, 0, 1, max_level, counters, 0, p)
    if w is not None:
        w["chart"] = "infinity"
        return OracleResult(True, w, counters["nodes"], counters["level"])
    if counters["exceeded"]:
        return OracleResult(None, {}, counters["nodes"], counters["level"],
                            status="max-level-exceeded")
    return OracleResult(False, {}, counters["nodes"], counters["level"])


def exhaustive_soluble(f, p, span=6):
    """Independent flat checker: scan every x mod p^span on both charts.

    Decided by exact evaluation at class representatives, extended by the
    valuation-parity argument and the Hensel inequality; no recursion, no
    pruning, no recentering.  Complete whenever 2 v_p(disc f) + 1 < span.
    """
    if (len(f) - 1) % 2 == 1:
        return True  # odd degree: point at infinity
    for ci, F in enumerate([f, infinity_chart(f)]):
        Fp = poly_deriv(F)
        xs = range(p ** span) if ci == 0 else range(0, p ** span, p)
        for x in xs:
            val = poly_eval(F, x)
            if val == 0:
                return True
            v = vp(val, p)
            if v % 2 == 0 and pow((val // p ** v) % p, (p - 1) // 2, p) == 1:
                return True
            fpx = poly_eval(Fp, x)
            if fpx != 0 and v > 2 * vp(fpx, p):
                return True
    return False
