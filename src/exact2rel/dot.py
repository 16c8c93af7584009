"""DOT (graphviz) export.  Edge weights become labels; 0-weight edges
are drawn dashed.  Output is deterministic for a given input."""

from __future__ import annotations

from itertools import count

from .graphs import Graph, OrientedGraph
from .trees import LabeledTree


def _edge_attrs(w: int) -> str:
    if w == 0:
        return ' [label="0", style=dashed]'
    return f' [label="{w}"]'


def tree_to_dot(t: LabeledTree) -> str:
    """Leaves are named after their labels, unnamed vertices ``i0``,
    ``i1``, ... in vertex order, skipping the ids that are leaf names."""
    taken = set(t.names.values())
    fresh = (i for i in map("i{}".format, count()) if i not in taken)
    ids = {v: t.names[v] if v in t.names else next(fresh)
           for v in range(t.nv)}
    lines = ["graph tree {"]
    for v in sorted(t.names):
        lines.append(f'  "{ids[v]}";')
    for v in range(t.nv):
        if v not in t.names:
            lines.append(f'  "{ids[v]}" [shape=point];')
    for u, v, w in sorted(t.weighted_edges()):
        lines.append(f'  "{ids[u]}" -- "{ids[v]}"{_edge_attrs(w)};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(g: Graph) -> str:
    lines = ["graph g {"]
    for v in range(g.n):
        lines.append(f'  "{v}";')
    for u, v in sorted(g.edges):
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def oriented_to_dot(d: OrientedGraph) -> str:
    lines = ["digraph g {"]
    for v in range(d.n):
        lines.append(f'  "{v}";')
    for u, v in sorted(d.arcs):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
