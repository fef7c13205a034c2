import json

from conftest import EX1, EX2, EX3
from clustersol.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "--expr", EX1[0], "--p", "17")
    assert code == 0
    assert "verdict: Soluble" in out and "(ii.a)" in out


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "--expr", EX3[0], "--p", "7", "--json")
    assert code == 0
    rep = json.loads(out)
    for key in ("curve", "p", "tower", "picture", "invariants", "conditions",
                "component_verdict", "solubility", "convention_markers"):
        assert key in rep
    assert rep["solubility"] == "Insoluble"
    assert rep["tower"] == {"d": 1, "e": 3, "prec": 72}
    assert {c["id"] for c in rep["conditions"]} >= {"i", "ii.a", "vi.f"}


def test_analyze_reports_effective_precision(capsys):
    # --prec 1 is raised to the floor of 8 stored p-adic digits per column
    code, out, _ = run(capsys, "analyze", "--expr", EX3[0], "--p", "7",
                       "--prec", "1", "--json")
    assert code == 0
    assert json.loads(out)["tower"] == {"d": 1, "e": 3, "prec": 8 * 3}
    code, out, _ = run(capsys, "analyze", "--expr", EX3[0], "--p", "7", "--prec", "1")
    assert code == 0 and "prec = 24 pi-digits" in out


def test_analyze_curve_file(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("p = 7\np*(x^3-p^2)*((x-1)^3-p^2)\n")
    code, out, _ = run(capsys, "analyze", "--curve", str(path))
    assert code == 0 and "Insoluble" in out


def test_analyze_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "--expr", "(x^2-zeta(3))*(x^3-p)", "--p", "7")
    assert code == 1 and "error" in err


def test_analyze_inapplicable_exit_code(capsys):
    code, out, _ = run(capsys, "analyze", "--expr", "(x^8-p)*(x-1)", "--p", "7")
    assert code == 2 and "Inapplicable" in out


def test_analyze_precision_exhausted_exit_code(capsys):
    # a cancellation on this curve falls below the trusted digits
    code, _, err = run(capsys, "analyze", "--expr",
                       "2*(x^1+2*p^3)*(x^4-p^7)*(x^1-2*p^3)", "--p", "13")
    assert code == 4 and "error (PrecisionExhausted):" in err


def test_usage_error(capsys):
    assert run(capsys, "analyze", "--expr", EX1[0])[0] == 1   # missing --p


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--expr", EX2, "--p", "11", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["soluble"] is False and rep["status"] == "ok"


def test_oracle_max_level_flag(capsys):
    code, out, _ = run(capsys, "oracle", "--expr", EX2, "--p", "11",
                       "--max-level", "1", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "max-level-exceeded" and rep["soluble"] is None


def test_render_formats(capsys):
    code, out, _ = run(capsys, "render", "--expr", EX3[0], "--p", "7",
                       "--format", "ascii")
    assert code == 0 and out.strip() == \
        "((r1 r2 r3 | d=2/3) (r4 r5 r6 | d=2/3) | d=0)"
    code, out, _ = run(capsys, "render", "--expr", EX3[0], "--p", "7",
                       "--format", "latex")
    assert code == 0 and "\\clusterpicture" in out


def test_compare_small_and_deterministic(capsys):
    args = ("compare", "--seed", "5", "--count", "6", "--p-list", "7,11", "--json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2          # byte-identical across runs
    rep = json.loads(out1)
    assert rep["agreements"] == rep["count"] == 6
    assert rep["disagreements"] == []


def test_compare_zero_count(capsys):
    code, out, _ = run(capsys, "compare", "--seed", "1", "--count", "0",
                       "--p-list", "7", "--json")
    assert code == 0 and json.loads(out)["count"] == 0
