#!/usr/bin/env python3
"""Time one warm small-p pass stage by stage, and count its kernel calls.

The corpus is the seed-42 ``small_p`` one of the benchmark:
``generate_corpus(42, 640, (7, 11, 13, 17), genus_range=(2, 4))``.  One
untimed pass warms the towers and caches; the timed pass then runs
``solubility_decide``'s steps one by one and prints the milliseconds each
took over all curves:

    parse     parse_expr
    closure   galois_closure_check
    roots     required_tower, the tower, extract_roots
    perms     galois_perms
    picture   build_picture: the digit trie, built as the picture's nodes
    analysis  ClusterAnalysis
    theorem   theorem_decide and the gate

A third pass, untimed, counts calls of ``FqField.pow``, ``fq._mulmod``,
``FqField.canonical_sqrt`` and ``Cyclo`` constructions.  A curve that
raises is counted as an error in the stage that raised.  It takes no
options:

    python3 scripts/stage_profile.py
"""

import os
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import clustersol.fq as fq_mod
import clustersol.tame as tame_mod
from clustersol.clusters import ClusterAnalysis, build_picture, default_precision
from clustersol.corpus import generate_corpus
from clustersol.curves import (Cyclo, extract_roots, galois_closure_check,
                               galois_perms, parse_expr, required_tower)
from clustersol.decision import corollary_gate, tameness_flags, theorem_decide
from clustersol.errors import ClusterSolError
from clustersol.tame import get_tower

STAGES = ("parse", "closure", "roots", "perms", "picture", "analysis", "theorem")


def curve_stages(text, p):
    """The pipeline of one curve as (stage, thunk) steps, each fed by the last."""
    state = {}

    def roots():
        expr = state["expr"]
        d, e = required_tower(expr)
        tower = get_tower(p, d, e, default_precision(expr, e))
        state["rs"] = extract_roots(expr, tower)

    def picture():
        state["picture"] = build_picture(state["rs"], state["expr"])

    def analysis():
        state["A"] = ClusterAnalysis(state["expr"], state["rs"], state["picture"])

    def theorem():
        A = state["A"]
        theorem_decide(A)
        corollary_gate(p, A.expr.genus, tameness_flags(A))

    return [("parse", lambda: state.update(expr=parse_expr(text, p))),
            ("closure", lambda: galois_closure_check(state["expr"])),
            ("roots", roots),
            ("perms", lambda: galois_perms(state["rs"])),
            ("picture", picture),
            ("analysis", analysis),
            ("theorem", theorem)]


def run_pass(corpus, ms=None, errors=None):
    """Decide every curve step by step; add each step's time to ms when given."""
    for p, text in corpus:
        for stage, step in curve_stages(text, p):
            t0 = time.perf_counter()
            try:
                step()
            except ClusterSolError:
                if errors is not None:
                    errors[stage] += 1
                break
            finally:
                if ms is not None:
                    ms[stage] += (time.perf_counter() - t0) * 1e3


def counting(counts, name, fn):
    def wrapped(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def count_pass(corpus):
    """Call counts of the kernels over one pass, by patching them for its duration."""
    counts = Counter()
    patches = [(fq_mod.FqField, "pow"), (fq_mod.FqField, "canonical_sqrt"),
               (Cyclo, "__init__"), (fq_mod, "_mulmod"), (tame_mod, "_mulmod")]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in patches]
    names = {"pow": "fq.pow", "canonical_sqrt": "canonical_sqrt",
             "__init__": "Cyclo", "_mulmod": "_mulmod"}
    try:
        for owner, attr, fn in saved:
            setattr(owner, attr, counting(counts, names[attr], fn))
        run_pass(corpus)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return counts


def main():
    corpus = generate_corpus(42, 640, (7, 11, 13, 17), genus_range=(2, 4))
    run_pass(corpus)
    ms, errors = Counter(), Counter()
    run_pass(corpus, ms, errors)
    counts = count_pass(corpus)
    print(f"one warm pass over {len(corpus)} curves "
          f"({sum(errors.values())} raised: {dict(errors)})")
    for stage in STAGES:
        print(f"  {stage:<9} {ms[stage]:8.1f} ms")
    print(f"  {'total':<9} {sum(ms.values()):8.1f} ms")
    print("calls in one pass:")
    for name in ("fq.pow", "_mulmod", "canonical_sqrt", "Cyclo"):
        print(f"  {name:<15} {counts[name]:7d}")


if __name__ == "__main__":
    main()
