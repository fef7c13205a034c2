"""Cluster picture rendering: ASCII nesting and the LaTeX macro dialect.

ASCII:   (r1 r2 (r3 r4 | d=1) | d=0)   with exact rational depth labels.
LaTeX:   \\clusterpicture ... \\endclusterpicture built from \\Root lines
         (each referencing the previously placed object) and
         \\ClusterLDName lines carrying relative-depth labels and the
         names R, s_i, t_i rendered as \\Rcal, \\s_i, \\tfrak_i.

Both renderers order children by least root index, so output is
deterministic.
"""

from .numutil import lowest_terms, rational_str


def _fmt_depth_latex(level, e):
    n, d = lowest_terms(level, e)
    if d == 1:
        return str(n)
    return f"\\frac{{{n}}}{{{d}}}"


def render_ascii(picture, node=None):
    node = node or picture.top
    if not node.is_proper:
        return f"r{node.roots[0] + 1}"
    inner = " ".join(render_ascii(picture, c) for c in node.children)
    return f"({inner} | d={rational_str(node.level, picture.e)})"


def _latex_name(node, picture):
    if node is picture.top:
        return "\\Rcal"
    if node.name.startswith("t"):
        return "\\tfrak_" + node.name[1:]
    return "\\s_" + node.name[1:]


def render_latex(picture):
    lines = ["\\clusterpicture"]
    counter = {"c": 0}
    ids = {}
    last = ["first"]

    def walk(node):
        if not node.is_proper:
            rid = f"r{node.roots[0] + 1}"
            lines.append(f"\\Root[] {{}} {{{last[0]}}} {{{rid}}};")
            ids[node] = rid
            last[0] = rid
            return
        for c in node.children:
            walk(c)
        counter["c"] += 1
        cid = f"c{counter['c']}"
        rel = node.level if node.parent is None else node.level - node.parent.level
        members = "".join(f"({ids[c]})" for c in node.children)
        lines.append(f"\\ClusterLDName {cid}[][{_fmt_depth_latex(rel, picture.e)}]"
                     f"[{_latex_name(node, picture)}] = {members};")
        ids[node] = cid
        last[0] = cid

    walk(picture.top)
    lines.append("\\endclusterpicture")
    return "\n".join(lines)
