"""Workload process for the clustersol benchmark.

``run.py`` starts this file as a fresh interpreter for each measurement and
sends one JSON job line on standard input; the result goes back as one JSON
object on standard output.  Modes:

    setup   import clustersol and build every tower the corpus needs; the
            elapsed time is one ``setup_s`` sample
    serve   the untraced workload, warm: reads chunks of curves, one JSON
            line each, and per curve times parse + closure check +
            ``solubility_decide`` (latency), then the rest of the compare
            path (``expand_to_integer_poly`` + ``is_locally_soluble``)
    trace   per curve, ``solubility_decide`` as the untraced reference, then
            the same pipeline recomposed from its public steps with each
            step timed; then the fq / tame kernel microbenchmarks

clustersol is imported inside the mode functions, not at the top, so that
the setup sample includes the package import.
"""

import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Kernel microbenchmark sizes: calls per kernel, drawn over the corpus mix.
KERNEL_CALLS = {"fq.mul": 20000, "fq.inv": 1000, "fq.pow": 1000,
                "fq.sqrt": 300, "tame.w_mul": 20000, "tame.elt_mul": 400}


def _import_clustersol():
    sys.path.insert(0, str(SRC))
    import clustersol
    if Path(clustersol.__file__).resolve().parent != SRC / "clustersol":
        raise ImportError(f"clustersol imported from {clustersol.__file__}, not {SRC}")


def _build_towers(towers):
    from clustersol.tame import Tower
    return {tuple(t): Tower(*t) for t in towers}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setup(job):
    t0 = time.perf_counter()
    _import_clustersol()
    _build_towers(job["towers"])
    return {"setup_s": time.perf_counter() - t0}


def _verdict_row(p, text, verdict=None, error=None):
    if error is not None:
        return [p, text, f"error:{type(error).__name__}", []]
    return [p, text, verdict.status, list(verdict.fired)]


def _shape(A, expr):
    return {"d": A.tower.d, "e": A.tower.e, "degree": expr.degree,
            "clusters": len(A.picture.proper())}


def _decide_chunk(curves):
    """Per curve: latency of parse + closure + decide, then the compare path."""
    from clustersol import (expand_to_integer_poly, galois_closure_check,
                            is_locally_soluble, parse_expr, solubility_decide)
    rows = []
    for p, text in curves:
        row = {}
        t0 = time.perf_counter()
        try:
            expr = parse_expr(text, p)
            galois_closure_check(expr)
            verdict, A = solubility_decide(expr)
            t1 = time.perf_counter()
            res = is_locally_soluble(expand_to_integer_poly(expr), p)
            t2 = time.perf_counter()
        except Exception as ex:  # one bad curve must not hide the rest
            row["verdict"] = _verdict_row(p, text, error=ex)
            row["error"] = f"{type(ex).__name__}: {ex}"
            rows.append(row)
            continue
        row.update(verdict=_verdict_row(p, text, verdict), latency_ms=(t1 - t0) * 1e3,
                   compare_ms=(t2 - t0) * 1e3, oracle=res.soluble,
                   convention=verdict.convention_dependent, shape=_shape(A, expr))
        rows.append(row)
    return rows


def run_serve(job):
    """Warm up, then decide each chunk of curves read from stdin, one per line."""
    _import_clustersol()
    _build_towers(job["towers"])
    for line in sys.stdin:
        sys.stdout.write(json.dumps(_decide_chunk(json.loads(line))) + "\n")
        sys.stdout.flush()
    return {"peak_rss_mb": _peak_rss_mb()}


class _Clock:
    """Sums wall time per layer name across curves."""

    def __init__(self):
        self.ms = Counter()

    def time(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.ms[name] += (time.perf_counter() - t0) * 1e3
        return out


def _recompose(clock, p, text):
    """solubility_decide's steps called one by one, each timed.

    Returns (status, fired, expr) the way solubility_decide assembles
    them; raises what the steps raise.
    """
    from clustersol import (ClusterAnalysis, Tower, analyse, build_picture,
                            corollary_gate, extract_roots, galois_closure_check,
                            galois_perms, parse_expr, required_tower, theorem_decide)
    from clustersol.clusters import default_precision
    from clustersol.decision import CONDITION_IDS, tameness_flags
    from clustersol.errors import PrecisionExhausted

    def parse():
        expr = parse_expr(text, p)
        galois_closure_check(expr)
        return expr

    def tower(expr):
        d, e = required_tower(expr)
        return Tower(p, d, e, default_precision(expr, e))

    def decide(A):
        yes, reports = theorem_decide(A)
        applicable, _ = corollary_gate(p, A.expr.genus, tameness_flags(A))
        return yes, reports, applicable

    def recheck(expr, A):
        A2 = analyse(expr, prec=2 * A.tower.prec)
        return theorem_decide(A2)

    expr = clock.time("curves.parse_ms", parse)
    t = clock.time("tame.tower_ms", tower, expr)
    rs = clock.time("curves.embed_ms", extract_roots, expr, t)
    clock.time("curves.galois_perms_ms", galois_perms, rs)
    picture = clock.time("clusters.picture_ms", build_picture, rs, expr)
    A = clock.time("clusters.analysis_ms", ClusterAnalysis, expr, rs, picture)
    yes, reports, applicable = clock.time("decision.theorem_ms", decide, A)
    yes2, reports2 = clock.time("decision.recheck_ms", recheck, expr, A)
    if yes2 != yes or any(reports[c].satisfied != reports2[c].satisfied
                          for c in CONDITION_IDS):
        raise PrecisionExhausted("verdict unstable under precision doubling")
    status = ("Soluble" if yes else "Insoluble") if applicable else "Inapplicable"
    fired = [c for c in CONDITION_IDS if reports[c].satisfied]
    return status, fired, expr


DECIDE_LAYERS = ("curves.parse_ms", "tame.tower_ms", "curves.embed_ms",
                 "curves.galois_perms_ms", "clusters.picture_ms",
                 "clusters.analysis_ms", "decision.theorem_ms", "decision.recheck_ms")


def _trace_curve(clock, p, text):
    """Untraced reference then traced recomposition for one curve.

    Returns (reference verdict row, recomposed verdict row, oracle result or
    None, whether the reference verdict is convention-dependent).
    """
    from clustersol import (expand_to_integer_poly, galois_closure_check,
                            is_locally_soluble, parse_expr, solubility_decide)
    from clustersol.cli import build_report

    t0 = time.perf_counter()
    try:
        expr = parse_expr(text, p)
        galois_closure_check(expr)
        verdict, A = solubility_decide(expr)
        ref = _verdict_row(p, text, verdict)
    except Exception as ex:  # the recomposition must fail the same way
        verdict, ref = None, _verdict_row(p, text, error=ex)
    clock.ms["trace.untraced_ms"] += (time.perf_counter() - t0) * 1e3

    try:
        status, fired, expr2 = _recompose(clock, p, text)
        got = [p, text, status, fired]
    except Exception as ex:
        return ref, _verdict_row(p, text, error=ex), None, False
    poly = clock.time("curves.expand_ms", expand_to_integer_poly, expr2)
    res = clock.time("oracle.search_ms", is_locally_soluble, poly, p)
    if verdict is not None:
        clock.time("cli.report_ms",
                   lambda: json.dumps(build_report(expr, verdict, A), indent=2))
    return ref, got, res, verdict is not None and verdict.convention_dependent


def _time_calls(ops):
    """ns per call; each result is kept so the call cannot be skipped."""
    sink = []
    t0 = time.perf_counter()
    for fn, args in ops:
        sink.append(fn(*args))
    return (time.perf_counter() - t0) * 1e9 / len(ops)


def _mul_cmults(d):
    """Coefficient products in one schoolbook multiply + reduction (dense operands)."""
    return 1 if d == 1 else d * d + d * (d - 1)


def _pow_cmults(d, n):
    """Coefficient products of square-and-multiply for exponent n."""
    return (n.bit_length() + bin(n).count("1")) * _mul_cmults(d)


def run_kernels(mix, towers, seed):
    """fq and tame kernel timings over the corpus's (p, d, e, prec) mix.

    Each kernel call draws its tuple with the corpus's frequency and gets
    fresh random operands; the coefficient-multiplication count per call is
    computed from d and the column count e (None where data-dependent).
    """
    from clustersol.fq import get_field
    from clustersol.tame import Elt

    rng = random.Random(seed)
    field_mix = Counter()
    for (p, d, e, prec), n in mix.items():
        field_mix[(p, d)] += n

    def fq_elt(fq):
        while True:
            a = tuple(rng.randrange(fq.p) for _ in range(fq.d))
            if a != fq.zero:
                return a

    def w_col(t):
        return tuple(rng.randrange(t.pM) for _ in range(t.d))

    def unit(t):
        while True:
            cols = tuple(w_col(t) for _ in range(t.e))
            if any(c % t.p for c in cols[0]):
                return Elt(t, 0, cols, t.M)

    def fq_mul(k):
        fq = get_field(*k)
        return fq.mul, (fq_elt(fq), fq_elt(fq)), _mul_cmults(fq.d)

    def fq_inv(k):
        fq = get_field(*k)
        return fq.inv, (fq_elt(fq),), _pow_cmults(fq.d, fq.q - 2)

    def fq_pow(k):
        fq = get_field(*k)
        n = rng.randrange(1, fq.q - 1)
        return fq.pow, (fq_elt(fq), n), _pow_cmults(fq.d, n)

    def fq_sqrt(k):
        fq = get_field(*k)
        return fq.canonical_sqrt, (fq_elt(fq),), None

    def w_mul(k):
        t = towers[k]
        return t.w_mul, (w_col(t), w_col(t)), _mul_cmults(t.d)

    def elt_mul(k):
        t = towers[k]
        return Elt.__mul__, (unit(t), unit(t)), t.e * t.e * _mul_cmults(t.d) + (t.e - 1) * t.d

    kernels = {"fq.mul": (field_mix, fq_mul), "fq.inv": (field_mix, fq_inv),
               "fq.pow": (field_mix, fq_pow), "fq.sqrt": (field_mix, fq_sqrt),
               "tame.w_mul": (mix, w_mul), "tame.elt_mul": (mix, elt_mul)}
    out, cmults = {}, {}
    for name, (weights, case) in kernels.items():
        keys = rng.choices(list(weights), list(weights.values()), k=KERNEL_CALLS[name])
        cases = [case(k) for k in keys]
        out[f"{name}_ns"] = _time_calls([(fn, args) for fn, args, _ in cases])
        if cases[0][2] is not None:
            cmults[name] = statistics.mean(c for _, _, c in cases)
    return out, cmults


def run_trace(job):
    _import_clustersol()
    towers = _build_towers(job["towers"])
    clock = _Clock()
    rows, mismatches, failures = [], [], Counter()
    nodes, inconclusive = 0, 0
    for p, text in job["curves"]:
        ref, got, res, convention = _trace_curve(clock, p, text)
        rows.append({"verdict": ref, "oracle": None if res is None else res.soluble,
                     "convention": convention})
        if got != ref:
            mismatches.append({"untraced": ref, "traced": got})
        if ref[2].startswith("error:"):
            failures[ref[2][6:]] += 1
        if res is not None:
            nodes += res.nodes_explored
            inconclusive += res.soluble is None
    layers = {name: clock.ms[name] for name in DECIDE_LAYERS + (
        "curves.expand_ms", "oracle.search_ms", "cli.report_ms", "trace.untraced_ms")}
    layers["trace.traced_ms"] = sum(clock.ms[n] for n in DECIDE_LAYERS)
    layers["decision.recheck_share"] = (clock.ms["decision.recheck_ms"]
                                        / layers["trace.traced_ms"])
    n = len(job["curves"])
    layers["oracle.nodes"] = nodes
    layers["oracle.inconclusive_frac"] = inconclusive / n
    layers["fail_frac"] = sum(failures.values()) / n
    mix = Counter()
    for t in job["tower_uses"]:
        mix[tuple(t)] += 1
    kernels, cmults = run_kernels(mix, towers, job["seed"])
    layers.update(kernels)
    return {"curves": rows, "mismatches": mismatches, "failures": dict(failures),
            "layers": layers, "kernel_cmults": cmults, "peak_rss_mb": _peak_rss_mb()}


MODES = {"setup": run_setup, "serve": run_serve, "trace": run_trace}


if __name__ == "__main__":
    job = json.loads(sys.stdin.readline())
    json.dump(MODES[job["mode"]](job), sys.stdout)
