import json

import pytest

from conftest import EX1, EX2, EX3, size_one_digit_short
from clustersol.cli import main
from test_certificate import close_centres


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
    assert rep["tower"] == {"d": 1, "e": 3, "prec": 24}
    assert {c["id"] for c in rep["conditions"]} >= {"i", "ii.a", "vi.f"}


def test_analyze_reports_effective_precision(capsys):
    # the roots 1 and 1 + 7^20 meet at level 20: the tower is sized to 21 digits
    code, out, _ = run(capsys, "analyze", "--expr", close_centres(20), "--p", "7", "--json")
    assert code == 0
    assert json.loads(out)["tower"] == {"d": 1, "e": 1, "prec": 21}
    code, out, _ = run(capsys, "analyze", "--expr", close_centres(20), "--p", "7")
    assert code == 0 and "prec = 21 pi-digits" in out


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


def test_analyze_precision_exhausted_exit_code(capsys, monkeypatch):
    # sized one digit short, the roots 1 and 1 + 7^200 agree in every stored digit
    size_one_digit_short(monkeypatch)
    code, _, err = run(capsys, "analyze", "--expr", close_centres(200), "--p", "7")
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


def test_render_climbs_the_precision_ladder(capsys):
    # roots 1 and 1 + 7^20 agree in 20 digits; render draws the picture of
    # the pass that decides the curve, at its sized precision of 21 digits
    code, out, _ = run(capsys, "render", "--expr", close_centres(20), "--p", "7")
    assert code == 0 and "d=20" in out


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


def _usage_error(capsys, command, args, flag, lo):
    code, out, err = run(capsys, command, *args)
    assert code == 1 and out == ""
    assert err.startswith("usage: clustersol " + command)
    assert f"argument {flag}: expected an integer >= {lo}" in err


@pytest.mark.parametrize("count", ["-3", "-1", "x"])
def test_compare_negative_count_is_a_usage_error(capsys, count):
    _usage_error(capsys, "compare", ["--seed", "1", "--count", count, "--p-list", "7"],
                 "--count", 0)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_compare_jobs_below_one_is_a_usage_error(capsys, jobs):
    _usage_error(capsys, "compare", ["--seed", "1", "--count", "2", "--p-list", "7",
                                     "--jobs", jobs], "--jobs", 1)


def test_oracle_negative_max_level_is_a_usage_error(capsys):
    _usage_error(capsys, "oracle", ["--expr", EX2, "--p", "11", "--max-level", "-1"],
                 "--max-level", 0)
    code, out, _ = run(capsys, "oracle", "--expr", EX2, "--p", "11",
                       "--max-level", "0", "--json")
    assert code == 0 and json.loads(out)["max_level_reached"] == 0


def test_analyze_curve_file_reports_good_curves_around_a_bad_one(capsys, tmp_path):
    # the middle curve is not squarefree; the batch still reports the others
    path = tmp_path / "c.txt"
    path.write_text(f"p = 7\n{EX3[0]}\n(x^3-p^2)*(x^3-p^2)\n(x-1)*(x^4-p)\n")
    code, out, _ = run(capsys, "analyze", "--curve", str(path), "--json")
    rows = json.loads(out)
    assert [r.get("solubility") for r in rows] == ["Insoluble", None, "Soluble"]
    assert rows[1]["curve"] == "(x^3-p^2)*(x^3-p^2)" and rows[1]["p"] == 7
    assert rows[1]["error"]["class"] == "RootCollision"
    assert code == 1
    code, out, _ = run(capsys, "analyze", "--curve", str(path))
    assert code == 1 and "error (RootCollision):" in out
    assert out.count("verdict:") == 2


def test_a_curve_past_the_residue_degree_cap_fails_only_its_row(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(f"p = 7\n{EX3[0]}\n(x^101-2*p)*(x^2-p)\n")
    code, out, _ = run(capsys, "analyze", "--curve", str(path), "--json")
    rows = json.loads(out)
    assert rows[0]["solubility"] == "Insoluble"
    assert rows[1]["error"]["class"] == "UnsupportedFactor"
    assert code == 1


def test_analyze_curve_file_exit_code_is_the_first_failure(capsys, tmp_path, monkeypatch):
    # sized one digit short, the second curve raises PrecisionExhausted
    size_one_digit_short(monkeypatch)
    path = tmp_path / "c.txt"
    path.write_text(f"p = 13\n(x^8-p)*(x-1)\n(x-1)*(x-{1 + 13**100})*(x-2)*(x-3)*(x-4)\n"
                    "(x^3-p^2)*(x^3-p^2)\n")
    code, out, _ = run(capsys, "analyze", "--curve", str(path), "--json")
    rows = json.loads(out)
    assert rows[0]["solubility"] == "Inapplicable"
    assert [r["error"]["class"] for r in rows[1:]] == ["PrecisionExhausted", "RootCollision"]
    assert code == 4
    path.write_text("p = 13\n(x^8-p)*(x-1)\n(x-1)*(x^4-p)\n")
    assert run(capsys, "analyze", "--curve", str(path))[0] == 2


def test_compare_counts_errors_by_class(capsys, monkeypatch):
    import clustersol.corpus

    corpus = [(7, EX3[0]), (7, "(x^3-p^2)*(x^3-p^2)"), (7, "(x-1)*(x^4-p)")]
    monkeypatch.setattr(clustersol.corpus, "generate_corpus", lambda *args, **kwargs: corpus)
    code, out, _ = run(capsys, "compare", "--seed", "1", "--count", "3",
                       "--p-list", "7", "--json")
    rep = json.loads(out)
    assert code == 1
    assert rep["count"] == 3 and rep["agreements"] == 2
    assert rep["errors"] == {"RootCollision": 1}
    assert [r["curve"] for r in rep["failed"]] == [corpus[1][1]]
