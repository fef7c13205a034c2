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
    expand    expand_to_integer_poly, the oracle's input
    oracle    is_locally_soluble

The last two are the compare half: ``compare`` runs them after the
decision.  Each stage's median per curve is printed for the curves with
zeta centres and for the rational ones apart, and so is the share of
zeta-centre curves among those whose decide time (parse to theorem) is
above its p90.  The warm-up pass, the first in the process, counts the
Newton lifts into W (``Tower._inverse_root``) and the residue roots they
start from (``FqField.canonical_nth_root``).  A third pass, untimed,
counts calls of ``FqField.pow``, ``fq._mulmod``, ``FqField.sqrt_pair``,
``ClusterAnalysis.epsilon``, ``numutil.resultant``, ``Cyclo``
constructions, and the oracle's ``poly_eval``, ``poly_deriv`` and
``_refine_root``, each split by the stage that made it, and the
``_mulmod`` calls by the degree d of their modulus.  The timed pass also
watches the cyclic garbage collector through ``gc.callbacks``: it prints
the collections per generation, their total ms, and how many curves had
one inside a timed step.  A curve that raises is counted as an error in
the stage that raised.  It takes no options:

    python3 scripts/stage_profile.py
"""

import gc
import os
import statistics
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import clustersol.clusters as clusters_mod
import clustersol.curves as curves_mod
import clustersol.fq as fq_mod
import clustersol.oracle as oracle_mod
import clustersol.tame as tame_mod
from clustersol.clusters import ClusterAnalysis, build_picture, default_precision
from clustersol.corpus import generate_corpus
from clustersol.curves import (Cyclo, expand_to_integer_poly, extract_roots,
                               galois_closure_check, galois_perms, parse_expr, required_tower)
from clustersol.decision import corollary_gate, tameness_flags, theorem_decide
from clustersol.errors import ClusterSolError
from clustersol.tame import get_tower

STAGES = ("parse", "closure", "roots", "perms", "picture", "analysis", "theorem",
          "expand", "oracle")


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
            ("theorem", theorem),
            ("expand", lambda: state.update(poly=expand_to_integer_poly(state["expr"]))),
            ("oracle", lambda: oracle_mod.is_locally_soluble(state["poly"], p))]


def run_pass(corpus, times=None, errors=None, running=None):
    """Decide every curve step by step; append each curve's {stage: ms} to
    times when given, and keep the running step's name in running[0], None
    between steps."""
    for p, text in corpus:
        ms = {}
        for stage, step in curve_stages(text, p):
            if running is not None:
                running[0] = stage
            t0 = time.perf_counter()
            try:
                step()
            except ClusterSolError:
                if errors is not None:
                    errors[stage] += 1
                break
            finally:
                ms[stage] = (time.perf_counter() - t0) * 1e3
                if running is not None:
                    running[0] = None
        if times is not None:
            times.append(ms)


def counting(counts, name, running, fn):
    def wrapped(*args, **kwargs):
        counts[name, running[0]] += 1
        return fn(*args, **kwargs)
    return wrapped


def counting_by_degree(counts, name, running, fn):
    """counting, and each call also under (name, "d=<degree>") of its modulus, args[2]."""
    counted = counting(counts, name, running, fn)

    def wrapped(*args, **kwargs):
        counts[name, f"d={len(args[2])}"] += 1
        return counted(*args, **kwargs)
    return wrapped


# (name, owner, attribute) of the calls each counting pass counts
LIFTS = [("Newton lifts", tame_mod.Tower, "_inverse_root"),
         ("residue roots", fq_mod.FqField, "canonical_nth_root")]
KERNELS = [("fq.pow", fq_mod.FqField, "pow"), ("_mulmod", fq_mod, "_mulmod"),
           ("_mulmod", tame_mod, "_mulmod"), ("sqrt_pair", fq_mod.FqField, "sqrt_pair"),
           ("epsilon", ClusterAnalysis, "epsilon"), ("resultant", clusters_mod, "resultant"),
           ("resultant", curves_mod, "resultant"), ("resultant", oracle_mod, "resultant"),
           ("Cyclo", Cyclo, "__init__"), ("poly_eval", oracle_mod, "poly_eval"),
           ("poly_deriv", oracle_mod, "poly_deriv"), ("_refine_root", oracle_mod, "_refine_root")]


def count_pass(corpus, patches):
    """Call counts of the patched calls over one pass, keyed (name, stage), by
    patching them for its duration."""
    counts, running = Counter(), [None]
    saved = [(owner, attr, getattr(owner, attr)) for _, owner, attr in patches]
    try:
        for name, owner, attr in patches:
            wrap = counting_by_degree if name == "_mulmod" else counting
            setattr(owner, attr, wrap(counts, name, running, getattr(owner, attr)))
        run_pass(corpus, running=running)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return counts


def collector_watch(log, running, times):
    """A ``gc.callbacks`` entry: it counts the collections per generation in
    log["gen"] and their ms in log["ms"], and adds to log["curves"] the
    index in times of each curve with one inside a timed step."""
    def watch(phase, info):
        if phase == "start":
            log["t0"] = time.perf_counter()
            if running[0] is not None:
                log["curves"].add(len(times))
        else:
            log["gen"][info["generation"]] += 1
            log["ms"] += (time.perf_counter() - log["t0"]) * 1e3
    return watch


def median_ms(times, stage):
    vals = [ms[stage] for ms in times if stage in ms]
    return f"{statistics.median(vals):8.3f}" if vals else f"{'-':>8}"


def main():
    corpus = generate_corpus(42, 640, (7, 11, 13, 17), genus_range=(2, 4))
    lifts = count_pass(corpus, LIFTS)
    times, errors, running = [], Counter(), [None]
    collector = {"gen": Counter(), "ms": 0.0, "curves": set()}
    watch = collector_watch(collector, running, times)
    gc.callbacks.append(watch)
    try:
        run_pass(corpus, times, errors, running)
    finally:
        gc.callbacks.remove(watch)
    counts = count_pass(corpus, KERNELS)
    zeta = ["zeta" in text for _, text in corpus]
    classes = {"zeta": [ms for ms, z in zip(times, zeta) if z],
               "rational": [ms for ms, z in zip(times, zeta) if not z]}
    print(f"one warm pass over {len(corpus)} curves "
          f"({sum(errors.values())} raised: {dict(errors)})")
    print(f"  {'stage':<9} {'total ms':>8}   median ms per curve: "
          + "  ".join(f"{name} ({len(ts)})" for name, ts in classes.items()))
    for stage in STAGES:
        print(f"  {stage:<9} {sum(ms.get(stage, 0) for ms in times):8.1f}   "
              + "  ".join(median_ms(ts, stage) for ts in classes.values()))
    print(f"  {'total':<9} {sum(sum(ms.values()) for ms in times):8.1f}")
    decide = [sum(ms.get(stage, 0) for stage in STAGES[:STAGES.index("expand")])
              for ms in times]
    p90 = statistics.quantiles(decide, n=10)[8]
    tail = [z for t, z in zip(decide, zeta) if t > p90]
    print(f"curves above the decide p90 ({p90:.3f} ms): {len(tail)}, "
          f"{sum(tail)} of them with zeta centres ({sum(tail) / len(tail):.0%}; "
          f"{sum(zeta) / len(zeta):.0%} of the corpus)")
    print(f"collector in the timed pass: "
          + ", ".join(f"gen{g} {collector['gen'][g]}" for g in range(3))
          + f" collections, {collector['ms']:.2f} ms, inside a timed step of "
          f"{len(collector['curves'])} curves")
    print("calls in the warm-up pass:")
    for name, _, _ in LIFTS:
        print(f"  {name:<15} {sum(lifts[name, stage] for stage in STAGES):7d}")
    print("calls in one warm pass, and by stage:")
    for name in dict.fromkeys(name for name, _, _ in KERNELS):
        by_stage = {stage: counts[name, stage] for stage in STAGES if counts[name, stage]}
        print(f"  {name:<15} {sum(by_stage.values()):7d}   "
              + ", ".join(f"{stage} {n}" for stage, n in by_stage.items()))
    by_degree = sorted((int(key[2:]), n) for (name, key), n in counts.items()
                       if name == "_mulmod" and key.startswith("d="))
    print("  _mulmod by d    " + ", ".join(f"d={d} {n}" for d, n in by_degree))


if __name__ == "__main__":
    main()
