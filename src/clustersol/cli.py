"""Command-line entry points: analyze, oracle, compare, render.

Exit codes: 0 ok, 1 usage or parse failure, 2 inapplicable input,
3 internal error, 4 precision exhausted (a read past the digits that
``clusters.default_precision`` sized from the factors: a fault in its
lemma).  All output is deterministic for fixed inputs and seeds; the
JSON schema is

    {curve, p, tower: {d, e, prec}, picture, invariants[], conditions[],
     component_verdict, solubility, convention_markers[], oracle?}

with tower.prec the sized pi-adic precision e*M that decided the curve.

A batch (``analyze --curve FILE``, ``compare``) fails only the bad curve:
it becomes the row {curve, p, error: {class, message}} and the others are
still reported.  The exit code is then that of the first failing curve's
error class, else 2 if any curve is inapplicable (``analyze``), else 0.
"""

import argparse
import json
import sys

from .curves import (expand_to_integer_poly, galois_closure_check, parse_expr,
                     read_curve_file, require_odd_prime)
from .decision import CONDITION_IDS, solubility_decide
from .errors import ClusterSolError, InternalError, ParseError, PrecisionExhausted
from .numutil import rational_str

# The oracle, corpus generator and renderer are imported by the subcommands
# that run them, so that a one-curve ``analyze`` neither loads nor compiles them.


def _invariant_row(node, e):
    """A cluster's invariants, its rationals (integers over e or 2e) written as fractions."""
    return {
        "name": node.name,
        "roots": [r + 1 for r in node.roots],
        "size": node.size,
        "d": rational_str(node.level, e),
        "delta": None if node.delta_e is None else rational_str(node.delta_e, e),
        "nu": rational_str(node.nu_e, e),
        "lambda": rational_str(node.lam_2e, 2 * e),
        "e": node.e,
        "genus": node.genus,
        "vKc": rational_str(node.vKc_e, e),  # convention value, see markers
        "parity": "even" if node.is_even else "odd",
        "flags": {
            "ubereven": node.ubereven,
            "twin": node.twin,
            "cotwin": node.cotwin,
            "principal": node.principal,
        },
        "fixed": {
            "inertia": node.fixed_inertia,
            "frobenius": node.fixed_frob,
            "galois": node.fixed_galois,
        },
        "orbit": node.orbit,
        "epsilon": None if node.eps_tau == 0 else
                   {"tau": node.eps_tau, "frob": node.eps_frob},
        "stable_children": [c.name or f"r{c.roots[0] + 1}"
                            for c in node.stable_children],
    }


def build_report(expr, verdict, analysis, oracle_result=None):
    reports = verdict.reports
    markers = sorted(cid for cid in CONDITION_IDS if reports[cid].convention_marker)
    out = {
        "curve": expr.text,
        "p": expr.p,
        "tower": {"d": analysis.tower.d, "e": analysis.tower.e,
                  "prec": analysis.tower.e * analysis.tower.M},
        "picture": analysis.picture.serialize(),
        "invariants": [_invariant_row(n, analysis.tower.e) for n in analysis.picture.proper()],
        "conditions": [{
            "id": cid,
            "satisfied": reports[cid].satisfied,
            "witnesses": reports[cid].witnesses,
            "consumed": reports[cid].consumed,
            "convention_marker": reports[cid].convention_marker,
        } for cid in CONDITION_IDS],
        "component_verdict": "yes" if verdict.component_yes else "no",
        "solubility": verdict.status,
        "reasons": verdict.reasons,
        "odd_degree_shortcut": verdict.odd_degree_shortcut,
        "convention_markers": markers,
    }
    if oracle_result is not None:
        out["oracle"] = {
            "soluble": oracle_result.soluble,
            "witness": oracle_result.witness,
            "nodes_explored": oracle_result.nodes_explored,
            "max_level_reached": oracle_result.max_level_reached,
            "status": oracle_result.status,
        }
    return out


def _print_text_report(rep):
    print(f"curve:   {rep['curve']}   (p = {rep['p']})")
    t = rep["tower"]
    print(f"tower:   d = {t['d']}, e = {t['e']}, prec = {t['prec']} pi-digits")
    print(f"picture: {rep['picture']}")
    print("clusters:")
    for row in rep["invariants"]:
        eps = row["epsilon"]
        eps_s = f" eps(tau)={eps['tau']:+d} eps(frob)={eps['frob']:+d}" if eps else ""
        flags = ",".join(k for k, v in row["flags"].items() if v) or "-"
        fixed = ",".join(k for k, v in row["fixed"].items() if v) or "none"
        print(f"  {row['name']:>3}: size {row['size']}  d={row['d']}  nu={row['nu']}"
              f"  lambda={row['lambda']}  e={row['e']}  g={row['genus']}"
              f"  vKc={row['vKc']}  [{flags}] fixed:{fixed}{eps_s}")
    fired = [c["id"] for c in rep["conditions"] if c["satisfied"]]
    print(f"conditions satisfied: {', '.join(fired) if fired else 'none'}")
    for c in rep["conditions"]:
        if c["satisfied"] or c["consumed"]:
            mark = "  [convention]" if c["convention_marker"] else ""
            print(f"  ({c['id']}) {'SAT' if c['satisfied'] else 'not satisfied'} "
                  f"witnesses={c['witnesses']} {c['consumed']}{mark}")
    print(f"component of multiplicity 1 fixed by Frobenius: {rep['component_verdict']}")
    print(f"verdict: {rep['solubility']}")
    if rep["convention_markers"]:
        print(f"convention-dependent conditions: {', '.join(rep['convention_markers'])}")
    if "oracle" in rep:
        o = rep["oracle"]
        print(f"oracle:  soluble={o['soluble']} witness={o['witness']} "
              f"({o['nodes_explored']} classes explored)")


def _exit_code(ex):
    """1 for parse and input errors, 3 internal, 4 precision exhausted."""
    if isinstance(ex, InternalError):
        return 3
    return 4 if isinstance(ex, PrecisionExhausted) else 1


def _error_row(p, text, ex):
    return {"curve": text, "p": p,
            "error": {"class": type(ex).__name__, "message": str(ex)}}


def _analyze_one(p, text):
    expr = parse_expr(text, p)
    galois_closure_check(expr)
    verdict, analysis = solubility_decide(expr)
    return build_report(expr, verdict, analysis)


def cmd_analyze(cfg):
    if cfg.curve_file:
        p, exprs = read_curve_file(cfg.curve_file)
        reports, failure = [], None
        for text in exprs:
            try:
                reports.append(_analyze_one(p, text))
            except ClusterSolError as ex:       # fail this curve, not the batch
                reports.append(_error_row(p, text, ex))
                failure = failure or _exit_code(ex)
    else:
        reports, failure = [_analyze_one(cfg.p, cfg.expr)], None
    if cfg.as_json:
        print(json.dumps(reports[0] if len(reports) == 1 else reports, indent=2))
    else:
        for i, rep in enumerate(reports):
            if i:
                print("-" * 60)
            if "error" in rep:
                print(f"curve:   {rep['curve']}   (p = {rep['p']})")
                print(f"error ({rep['error']['class']}): {rep['error']['message']}")
            else:
                _print_text_report(rep)
    if failure:
        return failure
    return 2 if any(rep.get("solubility") == "Inapplicable" for rep in reports) else 0


def cmd_oracle(cfg):
    from .oracle import is_locally_soluble
    expr = parse_expr(cfg.expr, cfg.p)
    galois_closure_check(expr)
    poly = expand_to_integer_poly(expr)
    res = is_locally_soluble(poly, cfg.p, max_level=cfg.max_level)
    if cfg.as_json:
        print(json.dumps({"curve": expr.text, "p": cfg.p, "f": [str(c) for c in poly],
                          "soluble": res.soluble, "witness": res.witness,
                          "nodes_explored": res.nodes_explored,
                          "max_level_reached": res.max_level_reached,
                          "status": res.status}, indent=2))
    else:
        print(f"f = {poly}")
        print(f"soluble over Q_{cfg.p}: {res.soluble}  (status: {res.status})")
        if res.witness:
            print(f"witness: {res.witness}")
        print(f"classes explored: {res.nodes_explored}, "
              f"deepest level: {res.max_level_reached}")
    return 0


def _compare_one(args):
    """(row, exit code of its error or 0) for one corpus curve."""
    from .oracle import is_locally_soluble
    p, text = args
    try:
        expr = parse_expr(text, p)
        verdict, analysis = solubility_decide(expr)
        oracle_res = is_locally_soluble(expand_to_integer_poly(expr), p)
    except ClusterSolError as ex:               # fail this curve, not the batch
        return _error_row(p, text, ex), _exit_code(ex)
    return {
        "p": p,
        "curve": text,
        "theorem": verdict.status,
        "fired": verdict.fired,
        "convention": verdict.convention_dependent,
        "oracle": oracle_res.soluble,
        "oracle_status": oracle_res.status,
    }, 0


def cmd_compare(cfg):
    from .corpus import generate_corpus
    for p in cfg.p_list:
        require_odd_prime(p)
    pairs = generate_corpus(cfg.seed, cfg.count, list(cfg.p_list),
                            genus_range=cfg.genus_range)
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor   # only here: slow to import
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_compare_one, pairs))
    else:
        results = [_compare_one(pair) for pair in pairs]
    rows = [row for row, _ in results]
    matrix = {"soluble/soluble": 0, "insoluble/insoluble": 0}
    disagreements, quarantined, inconclusive, failed = [], [], [], []
    errors = {}
    coverage = {cid: 0 for cid in CONDITION_IDS}
    for row in rows:
        if "error" in row:
            failed.append(row)
            cls = row["error"]["class"]
            errors[cls] = errors.get(cls, 0) + 1
            continue
        for cid in row["fired"]:
            coverage[cid] += 1
        if row["oracle"] is None:
            inconclusive.append(row)
            continue
        th = row["theorem"] == "Soluble"
        if th == row["oracle"]:
            key = "soluble/soluble" if th else "insoluble/insoluble"
            matrix[key] += 1
        elif row["convention"]:
            quarantined.append(row)
        else:
            disagreements.append(row)
    report = {
        "seed": cfg.seed,
        "count": len(rows),
        "p_list": list(cfg.p_list),
        "agreement_matrix": matrix,
        "agreements": matrix["soluble/soluble"] + matrix["insoluble/insoluble"],
        "disagreements": disagreements,
        "quarantined_convention_disagreements": quarantined,
        "oracle_inconclusive": inconclusive,
        "errors": dict(sorted(errors.items())),
        "failed": failed,
        "condition_coverage": coverage,
    }
    if cfg.as_json:
        print(json.dumps(report, indent=2))
    else:
        print(f"compare: seed={cfg.seed} count={len(rows)} p in {list(cfg.p_list)}")
        print(f"  agree: {report['agreements']}/{len(rows)} "
              f"(soluble {matrix['soluble/soluble']}, "
              f"insoluble {matrix['insoluble/insoluble']})")
        print(f"  disagreements: {len(disagreements)}, "
              f"quarantined (convention): {len(quarantined)}, "
              f"inconclusive: {len(inconclusive)}")
        for row in disagreements + quarantined:
            print(f"    p={row['p']} {row['curve']}: theorem={row['theorem']} "
                  f"fired={row['fired']} oracle={row['oracle']}")
        print(f"  errors: {report['errors'] or 'none'}")
        for row in failed:
            print(f"    p={row['p']} {row['curve']}: "
                  f"error ({row['error']['class']}): {row['error']['message']}")
        fired_counts = {k: v for k, v in coverage.items() if v}
        print(f"  condition coverage: {fired_counts}")
    return next((code for _, code in results if code), 0)


def cmd_render(cfg):
    from .render import render_ascii, render_latex
    expr = parse_expr(cfg.expr, cfg.p)
    galois_closure_check(expr)
    analysis = solubility_decide(expr)[1]
    if cfg.fmt == "latex":
        print(render_latex(analysis.picture))
    else:
        print(render_ascii(analysis.picture))
    return 0


def _int_at_least(lo):
    """argparse type: an integer >= lo."""
    def convert(text):
        try:
            n = int(text)
        except ValueError:
            n = lo - 1
        if n < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return n
    return convert


def _int_list(text):
    """argparse type: comma-separated integers, as a tuple."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _genus_range(text):
    """argparse type: 'lo..hi' or one genus, as (lo, hi)."""
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo..hi or one genus, got {text!r}") from None


def _parse_args(argv):
    top = argparse.ArgumentParser(prog="clustersol",
                                  description="Local solubility of tame hyperelliptic "
                                              "curves via cluster pictures")
    sub = top.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="full cluster-picture analysis and verdict")
    src = an.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", dest="curve_file", metavar="CURVE",
                     help="curve file with a 'p = <int>' header")
    src.add_argument("--expr", help="inline curve expression")
    an.add_argument("--p", type=int, help="prime (required with --expr)")
    an.add_argument("--json", dest="as_json", action="store_true")

    orc = sub.add_parser("oracle", help="brute-force point search over Q_p")
    orc.add_argument("--expr", required=True)
    orc.add_argument("--p", type=int, required=True)
    orc.add_argument("--max-level", type=_int_at_least(0))
    orc.add_argument("--json", dest="as_json", action="store_true")

    cmp_ = sub.add_parser("compare", help="random corpus: theorem vs oracle")
    cmp_.add_argument("--seed", type=int, required=True)
    cmp_.add_argument("--count", type=_int_at_least(0), required=True)
    cmp_.add_argument("--p-list", type=_int_list, required=True,
                      help="comma-separated odd primes, e.g. 7,11,17")
    cmp_.add_argument("--genus", dest="genus_range", metavar="GENUS", default="2..4",
                      type=_genus_range, help="genus range lo..hi")
    cmp_.add_argument("--jobs", type=_int_at_least(1), default=1)
    cmp_.add_argument("--json", dest="as_json", action="store_true")

    ren = sub.add_parser("render", help="render the cluster picture")
    ren.add_argument("--expr", required=True)
    ren.add_argument("--p", type=int, required=True)
    ren.add_argument("--format", dest="fmt", choices=("ascii", "latex"), default="ascii")

    ns = top.parse_args(argv)
    if ns.command == "analyze":
        if ns.expr and ns.p is None:
            top.error("--p is required with --expr")
        if ns.curve_file and ns.p is not None:
            top.error("--p conflicts with --curve (the file header sets p)")
    return ns


def main(argv=None):
    try:
        cfg = _parse_args(argv)
    except SystemExit as ex:
        return 1 if ex.code not in (0, None) else 0
    try:
        if cfg.command == "analyze":
            return cmd_analyze(cfg)
        if cfg.command == "oracle":
            return cmd_oracle(cfg)
        if cfg.command == "compare":
            return cmd_compare(cfg)
        if cfg.command == "render":
            return cmd_render(cfg)
        return 1
    except ClusterSolError as ex:
        if isinstance(ex, ParseError):
            print(f"error: {ex}", file=sys.stderr)
        elif isinstance(ex, InternalError):
            print(f"internal error: {ex}", file=sys.stderr)
        else:
            print(f"error ({type(ex).__name__}): {ex}", file=sys.stderr)
        return _exit_code(ex)


if __name__ == "__main__":
    sys.exit(main())
