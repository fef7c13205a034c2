"""``compare`` arguments, and the process pool behind ``--jobs N``: it is
imported only when used, and the report is the same as with one job.  A
genus range no prime admits is a one-line error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from clustersol.cli import _parse_args, main
from clustersol.corpus import generate_corpus
from clustersol.errors import ClusterSolError, CorpusError

SRC = Path(__file__).resolve().parent.parent / "src"


# modules a one-curve analyze never runs: the process pool, dataclasses
# (which load inspect), the oracle, the corpus generator and the renderer
LAZY = ("concurrent.futures.process", "dataclasses", "inspect",
        "clustersol.oracle", "clustersol.corpus", "clustersol.render")
IMPORT_CHECK = f"""
import sys, clustersol, clustersol.cli
print(sorted(m for m in {LAZY!r} if m in sys.modules))
from clustersol import is_locally_soluble, OracleResult, exhaustive_soluble
print(is_locally_soluble.__module__, OracleResult.__module__, exhaustive_soluble.__module__)
try:
    clustersol.no_such_name
except AttributeError as ex:
    print(ex)
"""


def test_import_leaves_the_process_pool_out():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_CHECK],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "[]",
        "clustersol.oracle clustersol.oracle clustersol.oracle",
        "module 'clustersol' has no attribute 'no_such_name'"]


def test_import_leaves_fractions_out():
    # the analysis keeps its rationals as integers; fractions loads decimal
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c",
                    "import clustersol.cli, sys; assert 'fractions' not in sys.modules"],
                   env=env, check=True)


def test_compare_jobs_2_prints_the_jobs_1_report(capsys):
    reports = []
    for jobs in ("1", "2"):
        code = main(["compare", "--seed", "1", "--count", "6", "--p-list", "7,11",
                     "--jobs", jobs, "--json"])
        assert code == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert '"count": 6' in reports[0]


def test_compare_lists_parse_to_tuples():
    base = ["compare", "--seed", "1", "--count", "2", "--p-list", "7,11"]
    ns = _parse_args(base)
    assert (ns.p_list, ns.genus_range, ns.jobs, ns.as_json) == ((7, 11), (2, 4), 1, False)
    assert _parse_args(base + ["--genus", "3..5"]).genus_range == (3, 5)
    assert _parse_args(base + ["--genus", "3"]).genus_range == (3, 3)


@pytest.mark.parametrize("flag, value, expected", [
    ("--p-list", "7,x", "comma-separated integers"),
    ("--genus", "2..x", "lo..hi or one genus"),
])
def test_compare_malformed_numbers_are_usage_errors(capsys, flag, value, expected):
    code = main(["compare", "--seed", "1", "--count", "2", "--p-list", "7", flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage: clustersol compare")
    assert f"argument {flag}: expected {expected}, got '{value}'" in err


@pytest.mark.parametrize("p", [9, 2])
def test_compare_rejects_a_p_that_is_not_an_odd_prime(capsys, p):
    code = main(["compare", "--seed", "1", "--count", "2", "--p-list", f"7,{p}"])
    err = capsys.readouterr().err
    assert code == 1 and err == f"error: p = {p} must be an odd prime\n"
    assert main(["analyze", "--expr", "(x-1)*(x^4-p)", "--p", str(p)]) == 1
    assert capsys.readouterr().err == err           # the message analyze gives


def test_compare_rejects_a_genus_no_prime_admits(capsys):
    # genus 3 needs q > 16; neither 7 nor 11 is
    code = main(["compare", "--seed", "3", "--count", "4", "--p-list", "7,11",
                 "--genus", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error (CorpusError): no genus in 3..3") and err.count("\n") == 1


def test_corpus_errors_are_cluster_sol_errors():
    with pytest.raises(CorpusError, match="passes the gate"):
        generate_corpus(3, 4, (7, 11), genus_range=(3, 3))
    with pytest.raises(CorpusError, match="failed to produce"):   # degree 32 at most
        generate_corpus(3, 1, (1009,), genus_range=(20, 20))
    assert issubclass(CorpusError, ClusterSolError)
