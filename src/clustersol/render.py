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
    order = []
    todo = [picture.top]
    while todo:                       # parents first, the last child first
        node = todo.pop()
        order.append(node)
        todo.extend(node.children)
    lines = ["\\clusterpicture"]
    ids = {}
    last = "first"
    clusters = 0
    for node in reversed(order):      # children first, in order
        if node.is_proper:
            clusters += 1
            ids[node] = f"c{clusters}"
            P = picture.parent[node]
            rel = node.level if P is None else node.level - P.level
            members = "".join(f"({ids[c]})" for c in node.children)
            lines.append(f"\\ClusterLDName {ids[node]}[][{_fmt_depth_latex(rel, picture.e)}]"
                         f"[{_latex_name(node, picture)}] = {members};")
        else:
            ids[node] = f"r{node.roots[0] + 1}"
            lines.append(f"\\Root[] {{}} {{{last}}} {{{ids[node]}}};")
        last = ids[node]
    lines.append("\\endclusterpicture")
    return "\n".join(lines)
