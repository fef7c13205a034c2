#!/usr/bin/env python3
"""Never-fire mutants of the condition table, scored against the oracle.

    python3 scripts/condition_mutants.py

Each record of ``decision.CONDITIONS`` is a route by which one condition
fires.  Its mutant is the table with that record swapped, in this process,
for one that has an extra conjunct that never holds, so the route never
claims a node and a later route of its condition is tried where it
would have; no source is patched.  The curves are
``generate_corpus(seed, 600, [7, 11, 13, 17, 19, 23])`` for seeds 1-8;
each is analysed once, its oracle verdict taken once, and the theorem
re-run under each mutant on the same analysis.  For each record the
script prints, over the curves:

* ``fires``: the curves the route fires on, in the unmutated table;
* ``alone``: those on which no other route fires;
* ``moved``: the curves whose verdict the mutant changes;
* ``killed``: those whose verdict agreed with the oracle and no longer
  does.

A record that no curve kills is a route the corpus does not test: the
verdicts would read the same without it.  Curves on which the oracle is
inconclusive count for ``fires``, ``alone`` and ``moved`` only.
"""

import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import clustersol.decision as decision
from clustersol.clusters import analyse
from clustersol.corpus import generate_corpus
from clustersol.curves import expand_to_integer_poly, parse_expr
from clustersol.errors import ClusterSolError
from clustersol.oracle import is_locally_soluble

SEEDS, COUNT, PRIMES = range(1, 9), 600, [7, 11, 13, 17, 19, 23]
NEVER = ("never", lambda A, s: False)


def labels(table):
    """The record names: the condition id, with #k on a condition of two routes."""
    ids = [r.cid for run in table for r in run]
    return [cid if ids.count(cid) == 1 else f"{cid}#{ids[:i].count(cid) + 1}"
            for i, cid in enumerate(ids)]


def _mapped(table, f):
    """The table with each record r, the i-th in order, replaced by f(i, r)."""
    index = itertools.count()
    return tuple(tuple(f(next(index), r) for r in run) for run in table)


def _spied(table, fired):
    """The table, each witness builder adding its record's index to fired when it fires."""
    def spy(i, r):
        def witness(A, c):
            if r.interval is None or decision.interval_has_integer(*r.interval(A, c)):
                fired.add(i)
            return r.witness(A, c)
        return r._replace(witness=witness)
    return _mapped(table, spy)


def _verdict(applicable, A):
    component_yes, _ = decision.theorem_decide(A)
    return ("Soluble" if component_yes else "Insoluble") if applicable else "Inapplicable"


def kill_matrix(curves):
    """({record: {fires, alone, moved, killed}}, curves decided, errors) over (p, text) pairs."""
    table, names = decision.CONDITIONS, labels(decision.CONDITIONS)
    mutants = [_mapped(table, lambda i, r, m=m: r._replace(conjuncts=r.conjuncts + (NEVER,))
                       if i == m else r) for m in range(len(names))]
    rows = [dict(fires=0, alone=0, moved=0, killed=0) for _ in names]
    decided = errors = 0
    fired = set()
    for p, text in curves:
        try:
            expr = parse_expr(text, p)
            A = analyse(expr)
            flags = decision.tameness_flags(A)
            applicable, _ = decision.corollary_gate(p, expr.genus, flags)
            oracle = is_locally_soluble(expand_to_integer_poly(expr), p).soluble
            fired.clear()
            decision.CONDITIONS = _spied(table, fired)
            base = _verdict(applicable, A)
            verdicts = []
            for mutant in mutants:
                decision.CONDITIONS = mutant
                verdicts.append(_verdict(applicable, A))
        except ClusterSolError:
            errors += 1
            continue
        finally:
            decision.CONDITIONS = table
        decided += 1
        for i, (row, verdict) in enumerate(zip(rows, verdicts)):
            row["fires"] += i in fired
            row["alone"] += fired == {i}
            row["moved"] += verdict != base
            row["killed"] += (oracle is not None and (base == "Soluble") == oracle
                              and (verdict == "Soluble") != oracle)
    return dict(zip(names, rows)), decided, errors


def print_matrix(matrix, decided, errors):
    """One line of counts per record, after the curves decided and the errors."""
    print(f"curves {decided}  errors {errors}")
    print(f"{'record':<8} {'fires':>6} {'alone':>6} {'moved':>6} {'killed':>6}")
    for name, row in matrix.items():
        print(f"{name:<8} {row['fires']:>6} {row['alone']:>6} {row['moved']:>6} "
              f"{row['killed']:>6}" + ("  survives" if not row["killed"] else ""))


def main():
    print_matrix(*kill_matrix([pt for seed in SEEDS
                               for pt in generate_corpus(seed, COUNT, PRIMES)]))


if __name__ == "__main__":
    main()
