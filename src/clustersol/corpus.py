"""Seeded random curve corpus inside the exact-ingestion grammar.

Curves are emitted as expression text, so everything round-trips through
the parser.  Factors draw from small integer centers, occasional
Frobenius-closed zeta_3 pairs, exponents prime to p, and p-power depths
1..8; leading coefficients cover units, non-residues, and p-multiples.
Rejection sampling keeps degree >= 5, the requested genus range, and
squarefree root sets.
"""

import random

from .curves import expand_to_integer_poly, galois_closure_check, parse_expr
from .decision import corollary_gate
from .errors import ClusterSolError, CorpusError
from .numutil import poly_deriv, resultant


def smallest_nonresidue(p):
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) != 1:
            return u
    raise ValueError("no non-residue found")


def _rhs_text(u, m):
    mag = abs(u)
    head = "-" if u > 0 else "+"
    body = ("p" if m == 1 else f"p^{m}") if mag == 1 else \
           (f"{mag}*p" if m == 1 else f"{mag}*p^{m}")
    return head + body


def _center_text(c):
    if isinstance(c, int):
        if c == 0:
            return ""
        return f"-{c}" if c > 0 else f"+{-c}"
    return f"-{c}"  # zeta strings carry their own form


def _factor_text(center, n, u=None, m=None):
    ctail = _center_text(center)
    if u is None:
        return f"(x{ctail})"
    if ctail:
        return f"((x{ctail})^{n}{_rhs_text(u, m)})"
    return f"(x^{n}{_rhs_text(u, m)})"


_MAX_TRIES = 200       # draws per curve before the generator gives up


def random_curve_text(rng, p, genus_range=(2, 4)):
    """One random curve expression with degree in the genus window."""
    lo, hi = genus_range
    units = [u for u in (1, -1, 2, -2, 3, -3) if u % p != 0]
    exponents = [n for n in (1, 2, 3, 4) if n % p != 0]
    for _ in range(_MAX_TRIES):
        factors = []
        slots = rng.randint(2, 4)
        for _ in range(slots):
            n = rng.choice(exponents)
            u = rng.choice(units)
            m = rng.randint(1, 8)
            if p != 3 and rng.random() < 0.15:
                for z in ("zeta(3)", "zeta(3)^2"):
                    factors.append((z, n, u, m))
                continue
            center = rng.choice([0, 0, 1, 1, 2])
            if n == 1 and rng.random() < 0.5:
                factors.append((center, 1, None, None))   # plain linear factor
            else:
                factors.append((center, n, u, m))
        deg = sum(f[1] for f in factors)
        genus = -(-deg // 2) - 1
        if deg < 5 or not lo <= genus <= hi:
            continue
        if len({f for f in factors}) != len(factors):
            continue
        cf = rng.choice(["", "p*", f"{smallest_nonresidue(p)}*",
                         f"{smallest_nonresidue(p)}*p*"])
        text = cf + "*".join(_factor_text(*f) for f in factors)
        try:
            expr = parse_expr(text, p)
            galois_closure_check(expr)
        except ClusterSolError:
            continue
        return text
    raise CorpusError("corpus generator failed to produce a curve")


def generate_corpus(seed, count, p_list, genus_range=(2, 4)):
    """Deterministic list of (p, text) pairs passing the applicability gate.

    A genus range that no p in p_list admits (q > 2(g^2 - 1)) is rejected
    before any curve is drawn.
    """
    lo, hi = genus_range
    if not any(corollary_gate(p, g, {})[0] for p in p_list for g in range(lo, hi + 1)):
        raise CorpusError(f"no genus in {lo}..{hi} passes the gate q > 2(g^2 - 1) "
                          f"for p in {list(p_list)}")
    rng = random.Random(seed)
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 200 * count + 1000:
            raise CorpusError("corpus generation not converging")
        p = rng.choice(list(p_list))
        text = random_curve_text(rng, p, genus_range)
        expr = parse_expr(text, p)
        if not corollary_gate(p, expr.genus, {})[0]:
            continue
        f = expand_to_integer_poly(expr)
        if resultant(f, poly_deriv(f)) == 0:
            continue  # cross-factor root collision: f not squarefree
        out.append((p, text))
    return out
