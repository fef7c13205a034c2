"""clustersol benchmark: per-curve decision latency, timed layer by layer.

    python3 perfbench/run.py --workload small_p --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; clustersol is imported from
``src/`` there.  The seed makes the curve corpus; each workload runs in its
own fresh worker process as a closed loop with one client (each curve starts
when the previous one is done).  With ``--trace 0`` the end-to-end metrics
are printed, with ``--trace 1`` the per-layer ones.  Either way every curve
whose oracle verdict is conclusive and which passes the applicability gate
must agree with the theorem, and for the default seed the verdict digest
must equal the one in ``baseline.json``.  The last line of standard output
is the JSON result; ``--record LABEL`` also stores it in ``baseline.json``.
See README.md in this directory for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
WORKER = HERE / "worker.py"

DEFAULT_SEED = 42
PREFIX = 20            # curves covered by the always-checked prefix digest
MIN_CURVES = PREFIX
SETUP_SAMPLES = 11
STARTUP_SAMPLES = 5
CLI_SNIPPET = ("import resource, sys; from clustersol.cli import main; "
               "code = main(sys.argv[1:]); "
               "print('maxrss', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); "
               "sys.exit(code)")
IMPORT_SNIPPET = ("import sys, time; t = time.perf_counter(); import clustersol.cli; "
                  "sys.stdout.write(repr(time.perf_counter() - t))")


@dataclass(frozen=True)
class Workload:
    p_list: tuple
    genus_range: tuple
    rate: float          # curves per second of --seconds, sized on the seed commit
    cli: bool = False    # one fresh ``clustersol analyze`` process per curve


WORKLOADS = {
    "small_p": Workload((7, 11, 13, 17), (2, 4), 16.0),
    "cli_cold": Workload((7, 11, 13, 17), (2, 4), 4.5, cli=True),
    # Not in BENCHMARK.json: per-curve cost spans 20 ms to 40 s, so a run
    # of a minute cannot hold its p50/p90 steady across seeds.
    "mid_p_high_genus": Workload((101, 103, 107, 109), (4, 6), 2.0),
}

END_TO_END = {"curve_p50_ms": "ms", "curve_p90_ms": "ms", "curves_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "curves.parse_ms": "ms", "tame.tower_ms": "ms", "curves.embed_ms": "ms",
    "curves.galois_perms_ms": "ms", "clusters.picture_ms": "ms",
    "clusters.analysis_ms": "ms", "decision.theorem_ms": "ms",
    "decision.recheck_ms": "ms", "decision.recheck_share": "ratio",
    "curves.expand_ms": "ms", "oracle.search_ms": "ms", "oracle.nodes": "count",
    "oracle.inconclusive_frac": "ratio", "cli.import_ms": "ms", "cli.startup_ms": "ms",
    "cli.report_ms": "ms", "fq.mul_ns": "ns", "fq.inv_ns": "ns", "fq.pow_ns": "ns",
    "fq.sqrt_ns": "ns", "tame.w_mul_ns": "ns", "tame.elt_mul_ns": "ns",
    "trace.untraced_ms": "ms", "trace.traced_ms": "ms", "fail_frac": "ratio",
}


def _load_clustersol():
    if not (SRC / "clustersol" / "__init__.py").is_file():
        sys.exit(f"perfbench: no clustersol sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_worker(job, seconds):
    proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(job),
                          capture_output=True, text=True, cwd=ROOT, env=_env(),
                          timeout=120 + 4 * seconds)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {job['mode']} worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def make_corpus(name, seed, seconds):
    """The seeded curves and the (p, d, e, prec) towers each one uses."""
    from clustersol import parse_expr, required_tower
    from clustersol.clusters import default_precision
    from clustersol.corpus import generate_corpus

    wl = WORKLOADS[name]
    count = max(MIN_CURVES, round(wl.rate * seconds))
    curves = generate_corpus(seed, count, wl.p_list, genus_range=wl.genus_range)
    uses = []
    for p, text in curves:
        expr = parse_expr(text, p)
        d, e = required_tower(expr)
        prec = default_precision(expr, e)
        uses += [(p, d, e, prec), (p, d, e, 2 * prec)]
    return [list(c) for c in curves], uses


def digest(rows):
    """sha256 over the sorted (p, curve, status, fired) tuples."""
    blob = json.dumps(sorted(rows), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class WarmWorker:
    """One warm worker process that decides chunks of curves on request."""

    def __init__(self, towers):
        self.proc = subprocess.Popen([sys.executable, str(WORKER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env())
        self._send({"mode": "serve", "towers": towers})

    def _send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def run(self, chunk):
        self._send(chunk)
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"perfbench: worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        """Ends the worker and returns its peak RSS in MB."""
        self.proc.stdin.close()
        rss = json.loads(self.proc.stdout.read())["peak_rss_mb"]
        self.proc.wait(timeout=60)
        return rss

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def run_cli(chunk):
    """One fresh ``analyze --json`` process per curve, timed from outside."""
    from clustersol import parse_expr

    rows = []
    for p, text in chunk:
        argv = [sys.executable, "-c", CLI_SNIPPET, "analyze", "--expr", text,
                "--p", str(p), "--json"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              env=_env(), timeout=120)
        wall = time.perf_counter() - t0
        row = {}
        if proc.returncode in (0, 2):
            rep = json.loads(proc.stdout)
            fired = [c["id"] for c in rep["conditions"] if c["satisfied"]]
            row["verdict"] = [p, text, rep["solubility"], fired]
            row["convention"] = any(c["satisfied"] and c["convention_marker"]
                                    for c in rep["conditions"])
            row["latency_ms"] = row["compare_ms"] = wall * 1e3
            row["shape"] = {"d": rep["tower"]["d"], "e": rep["tower"]["e"],
                            "degree": parse_expr(text, p).degree,
                            "clusters": len(rep["invariants"])}
            row["rss_mb"] = int(re.search(r"maxrss (\d+)", proc.stderr).group(1)) / 1024.0
        else:
            cls = _cli_error_class(proc)
            row["verdict"] = [p, text, f"error:{cls}", []]
            row["error"] = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        rows.append(row)
    return rows


def _setup_sample(towers, seconds):
    return _run_worker({"mode": "setup", "towers": towers}, seconds)["setup_s"]


def measure(wl, curves, towers, seconds):
    """Passes over the corpus until ``seconds`` are used (at least one).

    The first pass is cut into SETUP_SAMPLES chunks with one fresh-process
    set-up sample after each, so the set-up samples see the same machine as
    the curves. Returns (per-pass rows, set-up samples, peak RSS in MB).
    """
    size = -(-len(curves) // SETUP_SAMPLES)
    chunks = [curves[i:i + size] for i in range(0, len(curves), size)]
    worker = None if wl.cli else WarmWorker(towers)
    passes, setups = [], []
    try:
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rows = []
            for chunk in chunks:
                rows += run_cli(chunk) if wl.cli else worker.run(chunk)
                if len(setups) < SETUP_SAMPLES:
                    setups.append(_setup_sample(towers, seconds))
            passes.append(rows)
            now = time.perf_counter()
            if (now - t_start) + (now - t0) > seconds:
                break
        if wl.cli:
            rss = max(r.get("rss_mb", 0.0) for rows in passes for r in rows)
        else:
            rss = worker.close()
    finally:
        if worker is not None:
            worker.kill()
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_sample(towers, seconds))
    return passes, setups, rss


def merge_passes(passes):
    """Per-curve median times over the passes; False if any verdict changed."""
    first = passes[0]
    stable = all(r["verdict"] == f["verdict"] for rows in passes[1:]
                 for r, f in zip(rows, first))
    merged = []
    for i, row in enumerate(first):
        row = dict(row)
        if "latency_ms" in row:
            for key in ("latency_ms", "compare_ms"):
                row[key] = statistics.median(rows[i][key] for rows in passes
                                             if key in rows[i])
        merged.append(row)
    return merged, stable


def add_oracle(rows):
    """Oracle verdicts for the cli workload, computed outside the timed runs."""
    from clustersol import expand_to_integer_poly, is_locally_soluble, parse_expr

    for row in rows:
        if "latency_ms" in row:
            p, text = row["verdict"][:2]
            poly = expand_to_integer_poly(parse_expr(text, p))
            row["oracle"] = is_locally_soluble(poly, p).soluble


def _cli_error_class(proc):
    err = proc.stderr.strip()
    m = re.search(r"error \((\w+)\)", err)
    if m:
        return m.group(1)
    if err.startswith("internal error"):
        return "InternalError"
    if err.startswith("error:"):
        return "ParseError"
    last = err.splitlines()[-1] if err else ""
    m = re.match(r"(\w+)(:|$)", last)
    return m.group(1) if m else f"exit{proc.returncode}"


def check_rows(name, seed, rows, out, recording=False):
    """Oracle agreement and the recorded default-seed digests; returns ok.

    A disagreement fails the run unless the verdict is convention-dependent
    (a fired condition carries the program's convention marker); such a
    curve is printed as quarantined, the way ``clustersol compare`` reports
    it.  A missing prefix digest fails the run unless this run is recording
    it.
    """
    ok = True
    checked = quarantined = 0
    for row in rows:
        p, text, status, fired = row["verdict"]
        if row.get("oracle") is None or status not in ("Soluble", "Insoluble"):
            continue
        checked += 1
        if (status == "Soluble") == row["oracle"]:
            continue
        if row["convention"]:
            quarantined += 1
            out(f"QUARANTINED (convention-dependent) p={p} {text}: theorem={status} "
                f"fired={fired} oracle={row['oracle']}")
        else:
            ok = False
            out(f"DISAGREEMENT p={p} {text}: theorem={status} fired={fired} "
                f"oracle={row['oracle']}")
    out(f"oracle agreement: {checked} conclusive applicable curves checked, "
        f"{quarantined} quarantined, ok={ok}")
    verdicts = [r["verdict"] for r in rows]
    full = digest(verdicts)
    out(f"verdict digest: {full} ({len(rows)} curves)")
    if seed == DEFAULT_SEED:
        base = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"digests": {}}
        ref = base["digests"].get(name, {})
        for key, got in (("prefix", digest(verdicts[:PREFIX])), (str(len(rows)), full)):
            want = ref.get(key)
            if want is None and key == "prefix" and not recording:
                ok = False
                out(f"no recorded {key} digest for {name}")
            elif want is not None and want != got:
                ok = False
                out(f"DIGEST MISMATCH ({key}): recorded {want}, got {got}")
            elif want is not None:
                out(f"digest ({key}) matches the recorded default-seed digest")
    return ok


def failure_counts(rows):
    return Counter(r["verdict"][2][6:] for r in rows if r["verdict"][2].startswith("error:"))


def end_to_end(name, curves, uses, seconds, out):
    wl = WORKLOADS[name]
    towers = sorted(set(uses))
    passes, setups, rss = measure(wl, curves, towers, seconds)
    rows, stable = merge_passes(passes)
    if wl.cli:
        add_oracle(rows)
    done = [r for r in rows if "latency_ms" in r]
    lat = [r["latency_ms"] for r in done]
    metrics = {
        "curve_p50_ms": statistics.median(lat),
        "curve_p90_ms": _quantile(lat, 90),
        "curves_per_s": len(done) / (sum(r["compare_ms"] for r in done) / 1e3),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    fails = failure_counts(rows)
    out(f"workload {name}: {len(curves)} curves, {len(towers)} towers, "
        f"{len(passes)} pass(es)")
    for key, unit in END_TO_END.items():
        out(f"{key} {metrics[key]} {unit}")
    out(f"latency samples: {len(lat)}, beyond p90: {sum(x > metrics['curve_p90_ms'] for x in lat)}")
    out(f"setup_s samples (one after each of {SETUP_SAMPLES} chunks of the first pass): {setups}")
    out(f"fail_frac {sum(fails.values()) / len(rows)} ratio; failures by class: {dict(fails)}")
    for r in rows:
        if "error" in r:
            out(f"  failed p={r['verdict'][0]} {r['verdict'][1]}: {r['error']}")
    out("slowest curves (p, d, e, degree, proper clusters, ms):")
    for r in sorted(done, key=lambda r: -r["latency_ms"])[:10]:
        s = r["shape"]
        out(f"  p={r['verdict'][0]} d={s['d']} e={s['e']} deg={s['degree']} "
            f"clusters={s['clusters']} {r['latency_ms']:.1f} ms  {r['verdict'][1]}")
    if not stable:
        out("verdicts changed between passes")
    return metrics, rows, stable, sum(fails.values())


def _startup_samples():
    bare, imports = [], []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT, env=_env())
        bare.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], check=True,
                              capture_output=True, text=True, cwd=ROOT, env=_env())
        imports.append(float(proc.stdout) * 1e3)
    return statistics.median(bare), statistics.median(imports)


def per_layer(name, curves, uses, seed, seconds, out):
    res = _run_worker({"mode": "trace", "curves": curves, "towers": sorted(set(uses)),
                       "tower_uses": uses, "seed": seed}, seconds)
    metrics = dict(res["layers"])
    metrics["cli.startup_ms"], metrics["cli.import_ms"] = _startup_samples()
    out(f"workload {name} (traced): {len(curves)} curves")
    for key, unit in PER_LAYER.items():
        out(f"{key} {metrics[key]} {unit}")
    overhead = metrics["trace.traced_ms"] / metrics["trace.untraced_ms"] - 1
    out(f"tracing overhead: traced {metrics['trace.traced_ms']:.1f} ms against untraced "
        f"{metrics['trace.untraced_ms']:.1f} ms ({overhead:+.2%})")
    out(f"kernel coefficient multiplications per call: {res['kernel_cmults']}")
    out(f"failures by class: {res['failures']}")
    for m in res["mismatches"]:
        out(f"RECOMPOSITION MISMATCH: {m}")
    ok = not res["mismatches"]
    extra = {"tracing_overhead": overhead, "kernel_cmults": res["kernel_cmults"]}
    return metrics, res["curves"], ok, sum(res["failures"].values()), extra


def environment():
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit}


def record(label, name, args, count, metrics, rows, extra, ok):
    """Store this run under ``label`` in baseline.json (and the default-seed digests).

    Runs that fail a check are stored too, so the record shows them.
    """
    base = json.loads(BASELINE.read_text()) if BASELINE.exists() else {
        "default_seed": DEFAULT_SEED, "digests": {}, "entries": []}
    verdicts = [r["verdict"] for r in rows]
    if args.seed == DEFAULT_SEED:  # a recorded digest is never replaced
        d = base["digests"].setdefault(name, {})
        d.setdefault("prefix", digest(verdicts[:PREFIX]))
        d.setdefault(str(count), digest(verdicts))
    entry = next((e for e in base["entries"] if e["label"] == label), None)
    if entry is None:
        entry = {"label": label, "env": environment(), "workloads": {}}
        base["entries"].append(entry)
    wl = entry["workloads"].setdefault(name, {})
    wl[f"trace{args.trace}"] = {"seed": args.seed, "seconds": args.seconds,
                                "curves": count, "correct": ok,
                                "verdict_digest": digest(verdicts),
                                "metrics": metrics, **extra}
    BASELINE.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="LABEL",
                    help="store the result under LABEL in baseline.json")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    _load_clustersol()

    def out(line):
        print(line, flush=True)

    env = environment()
    out(f"environment: {env}")
    curves, uses = make_corpus(args.workload, args.seed, args.seconds)
    if args.trace:
        metrics, rows, ok, failed, extra = per_layer(args.workload, curves, uses,
                                                     args.seed, args.seconds, out)
        units = PER_LAYER
    else:
        metrics, rows, ok, failed = end_to_end(args.workload, curves, uses,
                                               args.seconds, out)
        extra, units = {}, END_TO_END
    ok = check_rows(args.workload, args.seed, rows, out, bool(args.record)) and ok
    if args.record:
        record(args.record, args.workload, args, len(curves), metrics, rows, extra, ok)
    print(json.dumps({"correct": ok, "attempted": len(rows), "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
