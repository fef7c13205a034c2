"""A smoke run of ``scripts/condition_mutants.py``, the table's never-fire mutants, on 30 curves."""

import importlib.util
from pathlib import Path

import pytest

import clustersol.decision as decision_mod
from clustersol.corpus import generate_corpus

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "condition_mutants.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("condition_mutants", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture(scope="module")
def scored(script):
    """The table before the run, and the kill matrix of 30 curves."""
    table = decision_mod.CONDITIONS
    return table, script.kill_matrix(generate_corpus(1, 30, script.PRIMES))


def test_kill_matrix_scores_every_record_and_restores_the_table(script, scored):
    table, (matrix, decided, errors) = scored
    assert decision_mod.CONDITIONS is table
    assert (decided, errors) == (30, 0)
    records = sum(map(len, table))
    assert list(matrix) == script.labels(table) and len(set(matrix)) == records == 23
    assert {"i", "ii.b#1", "ii.b#2", "vi.f"} <= set(matrix)
    for row in matrix.values():
        assert row["alone"] <= row["fires"] and row["killed"] <= row["moved"]
    assert matrix["i"]["fires"] and any(row["killed"] for row in matrix.values())


def test_the_script_prints_one_line_per_record(script, scored, capsys):
    script.print_matrix(*scored[1])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "curves 30  errors 0"
    assert len(lines) == 2 + len(scored[1][0])
    assert lines[2].split()[0] == "i" and all(
        line.endswith("survives") == (row["killed"] == 0)
        for line, row in zip(lines[2:], scored[1][0].values()))
