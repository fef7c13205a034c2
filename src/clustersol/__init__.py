"""Local solubility of tame hyperelliptic curves over Q_p via cluster pictures."""

from .clusters import ClusterAnalysis, analyse, build_picture
from .curves import (CurveExpr, expand_to_integer_poly, extract_roots,
                     galois_closure_check, galois_perms, parse_expr,
                     required_tower)
from .decision import (SolubilityVerdict, corollary_gate, solubility_decide,
                       theorem_decide)
from .tame import FROB, TAU, GaloisWord, Tower

__all__ = [
    "ClusterAnalysis", "analyse", "build_picture",
    "CurveExpr", "parse_expr", "galois_closure_check", "required_tower",
    "extract_roots", "galois_perms", "expand_to_integer_poly",
    "SolubilityVerdict", "solubility_decide", "theorem_decide", "corollary_gate",
    "OracleResult", "is_locally_soluble", "exhaustive_soluble",
    "Tower", "GaloisWord", "TAU", "FROB",
]


def __getattr__(name):
    """The oracle's names, imported on first use: deciding a curve never runs it."""
    if name in ("OracleResult", "exhaustive_soluble", "is_locally_soluble"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
