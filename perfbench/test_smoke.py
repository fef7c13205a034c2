"""Smoke tests for the benchmark: python3 -m pytest perfbench/test_smoke.py"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def tiny(workload, trace, seed=run.DEFAULT_SEED):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(re.fullmatch(rf"{re.escape(name)} \S+ {re.escape(unit)}", ln)
                   for ln in lines), name
    digest = next(re.match(r"verdict digest: (\w+)", ln).group(1)
                  for ln in lines if ln.startswith("verdict digest:"))
    return result, digest, proc.stdout


def test_untraced_metrics_and_repeatable_digest():
    _, first, out = tiny("small_p", 0)
    _, second, _ = tiny("small_p", 0)
    assert first == second
    assert "digest (prefix) matches the recorded default-seed digest" in out


def test_traced_run_reproduces_untraced_digest():
    _, untraced, _ = tiny("small_p", 0, seed=7)
    _, traced, out = tiny("small_p", 1, seed=7)
    assert traced == untraced
    assert "RECOMPOSITION MISMATCH" not in out


def test_cli_cold_matches_in_process_verdicts():
    _, warm, _ = tiny("small_p", 0, seed=3)
    _, cold, _ = tiny("cli_cold", 0, seed=3)
    assert cold == warm


def test_recomposition_equals_solubility_decide():
    from clustersol.corpus import generate_corpus
    clock = worker._Clock()
    for p, text in generate_corpus(11, 8, [7, 11, 13, 17]):
        ref, got, _, _ = worker._trace_curve(clock, p, text)
        assert got == ref
    assert all(clock.ms[name] > 0 for name in worker.DECIDE_LAYERS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "small_p", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_disagreement_fails_unless_convention_dependent():
    lines = []
    row = {"verdict": [13, "2*(x^4+p^6)*(x^2+p)", "Soluble", ["v.c"]], "oracle": False}
    assert run.check_rows("small_p", 1, [dict(row, convention=True)], lines.append)
    assert lines[0].startswith("QUARANTINED (convention-dependent) p=13")
    lines.clear()
    assert not run.check_rows("small_p", 1, [dict(row, convention=False)], lines.append)
    assert lines[0].startswith("DISAGREEMENT p=13")
