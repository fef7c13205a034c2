import re
from fractions import Fraction

from conftest import EX2, EX3, latex_structure
from clustersol.clusters import analyse
from clustersol.corpus import generate_corpus
from clustersol.curves import parse_expr
from clustersol.render import render_ascii, render_latex


def parse_ascii(text):
    """Inverse of render_ascii; returns (depth, [children])."""
    pos = 0

    def parse():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            children = []
            while True:
                while text[pos] == " ":
                    pos += 1
                if text[pos] == "|":
                    break
                children.append(parse())
            m = re.match(r"\| d=([-\d/]+)\)", text[pos:])
            if not m:
                raise ValueError(f"bad depth label at {text[pos:pos + 20]!r}")
            pos += m.end()
            return (Fraction(m.group(1)), children)
        m = re.match(r"r(\d+)", text[pos:])
        if not m:
            raise ValueError(f"bad leaf at {text[pos:pos + 20]!r}")
        pos += m.end()
        return f"r{m.group(1)}"

    return parse()


def test_ascii_flat():
    A = analyse(parse_expr("(x-1)*(x-2)*(x-3)*(x-4)*(x-5)", 7))
    assert render_ascii(A.picture) == "(r1 r2 r3 r4 r5 | d=0)"


def test_ascii_example3():
    A = analyse(parse_expr(EX3[0], EX3[1]))
    assert render_ascii(A.picture) == \
        "((r1 r2 r3 | d=2/3) (r4 r5 r6 | d=2/3) | d=0)"


def _shape(node):
    if isinstance(node, str):
        return node
    depth, children = node
    return (depth, tuple(sorted(map(str, (_shape(c) for c in children)))))


def test_ascii_round_trip():
    for p, text in generate_corpus(17, 20, [7, 11, 13]):
        A = analyse(parse_expr(text, p))
        art = render_ascii(A.picture)
        parsed = parse_ascii(art)

        def from_picture(node):
            if not node.is_proper:
                return f"r{node.roots[0] + 1}"
            return (Fraction(node.level, A.tower.e), [from_picture(c) for c in node.children])

        assert _shape(parsed) == _shape(from_picture(A.picture.top))


def test_latex_figure1_structure():
    A = analyse(parse_expr(EX2, 11))
    struct = latex_structure(render_latex(A.picture))
    # top at depth 0 containing three twins of relative depth 1
    depth, children = struct
    assert depth == 0
    assert len(children) == 3
    for child in children:
        d, leaves = child
        assert d == 1 and len(leaves) == 2


def test_latex_figure2_structure():
    A = analyse(parse_expr(EX3[0], EX3[1]))
    depth, children = latex_structure(render_latex(A.picture))
    assert depth == 0
    assert len(children) == 2
    for d, leaves in children:
        assert d == Fraction(2, 3) and len(leaves) == 3


def test_latex_macro_lines():
    A = analyse(parse_expr(EX2, 11))
    text = render_latex(A.picture)
    assert text.startswith("\\clusterpicture")
    assert text.rstrip().endswith("\\endclusterpicture")
    assert text.count("\\Root[] {} {first} {r1};") == 1
    assert "\\ClusterLDName" in text and "\\Rcal" in text and "\\tfrak_1" in text


def test_render_deterministic():
    for p, text in generate_corpus(23, 10, [7, 11]):
        A1 = analyse(parse_expr(text, p))
        A2 = analyse(parse_expr(text, p))
        assert render_ascii(A1.picture) == render_ascii(A2.picture)
        assert render_latex(A1.picture) == render_latex(A2.picture)
