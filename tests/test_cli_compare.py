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


def test_import_leaves_the_process_pool_out():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, clustersol.cli; print('concurrent.futures.process' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
