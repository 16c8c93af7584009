"""Rooted weighted trees and the directed leaf relation.

In a rooted tree an arc (x, y) between leaves holds at level ``k`` when
the weights from x up to the meeting point (lowest common ancestor) sum
to 0 and the weights from there down to y sum to exactly ``k``.  This
module provides that relation, recognition and construction for the
oriented graphs it produces at k=2, and the enumeration of all rooted
canonical trees over a given unrooted canonical tree.

The root is always an anonymous vertex and never a leaf, even when it
has a single child.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphs import (Graph, OrientedGraph, TwinPartition,
                     connected_components, directed_quotient, find_cycle,
                     from_arc_list, underlying_graph)
from .newick import subtree_text
from .trees import (LabeledTree, _compact, _weighted_adjacency,
                    certify_relation, flat_form, is_canonical, relation_pairs,
                    subtree_key)


class RootedLabeledTree:
    """Immutable rooted tree with weighted edges and named leaves.

    Leaves are the non-root vertices of degree <= 1; each carries a
    unique name.  The root is unnamed and may have any degree >= 1.
    """

    __slots__ = ("nv", "adj", "names", "root", "parent", "_name_to_vertex")

    def __init__(self, nv, adj, names, root, parent):
        self.nv = nv
        self.adj = adj
        self.names = names
        self.root = root
        self.parent = parent
        self._name_to_vertex = {s: v for v, s in names.items()}

    @classmethod
    def build(cls, nv: int, edges: Iterable[tuple[int, int, int]],
              names: Mapping[int, str], root: int) -> "RootedLabeledTree":
        """Validate and build.  ``names`` must cover exactly the non-root
        vertices of degree <= 1; the root must not be named."""
        adj, count = _weighted_adjacency(nv, edges)
        if not (0 <= root < nv):
            raise ValueError("root out of range")
        if count != nv - 1:
            raise ValueError(f"{count} edges on {nv} vertices is not a tree")
        parent: list[int | None] = [None] * nv
        order = [root]
        seen = {root}
        for x in order:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    parent[y] = x
                    order.append(y)
        if len(seen) != nv:
            raise ValueError("edge set is not connected")
        named = dict(names)
        leaf_vs = {v for v in range(nv) if v != root and len(adj[v]) <= 1}
        if root in named:
            raise ValueError("the root must not carry a name")
        if set(named) != leaf_vs:
            raise ValueError("names must cover exactly the non-root degree<=1 vertices")
        vals = list(named.values())
        if len(set(vals)) != len(vals):
            raise ValueError("duplicate leaf name")
        if nv == 1:
            raise ValueError("a rooted tree needs at least one leaf under the root")
        return cls(nv, tuple(adj), named, root, tuple(parent))

    # -- queries -------------------------------------------------------

    @property
    def leaf_names(self) -> list[str]:
        return sorted(self.names.values())

    @property
    def n_leaves(self) -> int:
        return len(self.names)

    def vertex_of(self, name: str) -> int:
        return self._name_to_vertex[name]

    def children(self, v: int) -> list[int]:
        return [u for u in self.adj[v] if u != self.parent[v]]

    def weighted_edges(self) -> list[tuple[int, int, int]]:
        return [(u, v, w) for u in range(self.nv)
                for v, w in self.adj[u].items() if u < v]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RootedLabeledTree)
                and flat_form(rooted_canonical_form(self))
                == flat_form(rooted_canonical_form(other)))

    def __hash__(self) -> int:
        return hash(rooted_canonical_form(self))

    def __repr__(self) -> str:
        return f"RootedLabeledTree(leaves={self.leaf_names})"


# ======================================================================
# Canonical form, canonicity, serialization
# ======================================================================

def rooted_canonical_form(t: RootedLabeledTree) -> tuple:
    """Hashable form; equal exactly for trees with the same root
    position, shape, weights, and leaf names."""
    return ("R", subtree_key(t.adj, t.names, t.root))


def is_canonical_rooted(t: RootedLabeledTree) -> bool:
    """True when every non-leaf vertex (root included) has at least two
    children and every edge between two non-leaf vertices has positive
    weight."""
    for v in range(t.nv):
        if v not in t.names and len(t.children(v)) < 2:
            return False
    for u, v, w in t.weighted_edges():
        if w == 0 and u not in t.names and v not in t.names:
            return False
    return True


def format_rooted_newick(t: RootedLabeledTree) -> str:
    """Serialize; the written top-level node is the root."""
    return f"{subtree_text(t.adj, t.names, t.root)};"


# ======================================================================
# The directed relation
# ======================================================================

def directed_relation_pairs(t: RootedLabeledTree, k: int) -> set[tuple[str, str]]:
    """Ordered leaf-name pairs (x, y) with up-weight(x -> lca) = 0 and
    down-weight(lca -> y) = k, as ``relation_pairs`` lists them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return {(t.names[x], t.names[y])
            for x, y in relation_pairs(t, t.root, k, directed=True)}


def directed_explain(t: RootedLabeledTree, k: int) -> OrientedGraph:
    """The oriented graph of the directed relation; graph vertex ``i`` is
    the i-th leaf name in sorted order.

    The result never contains a 2-cycle: opposite arcs would force both
    leaves at up-weight 0 from their meeting point and simultaneously at
    positive down-weight, which is impossible.
    """
    names = t.leaf_names
    idx = {s: i for i, s in enumerate(names)}
    arcs = [(idx[a], idx[b]) for a, b in directed_relation_pairs(t, k)]
    return from_arc_list(len(names), arcs)


def underlying_tree(t: RootedLabeledTree) -> LabeledTree:
    """Forget the root.  A root left dangling as an unnamed degree-1
    vertex (possible when it had a single child) lies on no leaf-to-leaf
    path and is dropped."""
    adj: dict[int, dict[int, int]] = {v: dict(t.adj[v]) for v in range(t.nv)}
    names = dict(t.names)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v not in names and len(adj[v]) <= 1 and len(adj) > 1:
                for u in list(adj[v]):
                    del adj[u][v]
                del adj[v]
                changed = True
    return _compact(adj, names)


# ======================================================================
# Enumeration of rooted canonical trees over an unrooted one
# ======================================================================

def enumerate_rooted(t: LabeledTree) -> set[RootedLabeledTree]:
    """All rooted canonical trees whose unrooted reduction is ``t``,
    generated by three moves: root at an interior vertex; subdivide a
    positive-weight leaf edge, hanging the leaf from the new root by a
    0-edge; subdivide an edge of weight m > 1 into positive parts
    (j, m - j).

    Args:
        t: canonical tree with at least 2 vertices.

    Raises:
        ValueError: single-vertex tree, or a non-canonical input.

    Note: for the one degenerate canonical tree none of the moves apply
    to — two leaves joined by a weight-0 edge — this returns the empty
    set even though rooting mid-edge would be shape-valid; see the
    package tests for the precise boundary.
    """
    if t.nv < 2:
        raise ValueError("cannot root a single-vertex tree")
    if not is_canonical(t):
        raise ValueError("input tree must be canonical")

    out: set[RootedLabeledTree] = set()
    base_edges = t.weighted_edges()

    for v in t.interior_vertices():
        out.add(RootedLabeledTree.build(t.nv, base_edges, t.names, root=v))

    r = t.nv  # id for the inserted root
    for v in t.leaf_vertices:
        (w,) = t.adj[v].keys()
        lam = t.adj[v][w]
        if lam <= 0:
            continue
        edges = [e for e in base_edges if set(e[:2]) != {v, w}]
        edges += [(v, r, 0), (r, w, lam)]
        out.add(RootedLabeledTree.build(t.nv + 1, edges, t.names, root=r))

    for u, v, m in base_edges:
        if m <= 1:
            continue
        for j in range(1, m):
            edges = [e for e in base_edges if set(e[:2]) != {u, v}]
            edges += [(u, r, j), (r, v, m - j)]
            out.add(RootedLabeledTree.build(t.nv + 1, edges, t.names, root=r))

    return out


# ======================================================================
# Recognition and construction at k=2
# ======================================================================

@dataclass(frozen=True)
class OrientedOutcome:
    """Decision for an oriented graph, with a refusal certificate.

    On ``decision=False`` the certificate is either the vertex set of a
    cycle in the underlying graph, or a triple (x, y, z) of original
    vertices whose twin-class representatives induce x -> z <- y in the
    quotient.
    """

    decision: bool
    certificate: tuple[int, ...] | None
    reason: str


def recognize_oriented(d: OrientedGraph) -> OrientedOutcome:
    """Decide whether some rooted tree produces ``d`` at level 2.

    Holds exactly when the directed twin quotient is a disjoint union of
    arborescences: its underlying graph is a forest and no quotient
    vertex has two in-neighbors (equivalently, every quotient component
    has a unique source).  Both conditions live on the quotient, not on
    ``d`` itself: merging twins can break underlying cycles, and e.g.
    ``{a->c, a->d, b->c, b->d}`` (underlying C4) collapses to a single
    arc and is produced by a root with children a, b at weight 0 and
    c, d at weight 2.
    """
    return _decide(d, build=False)[0]


def construct_oriented(d: OrientedGraph) -> RootedLabeledTree:
    """Build a rooted tree whose level-2 directed relation is ``d``.

    Per quotient component: vertices with out-arcs become interior tree
    vertices, each quotient arc an edge of weight 2; arc-less endpoints
    stay leaves at weight 2; every interior vertex receives its class
    members as pendant 0-edge leaves (members of arc-less classes attach
    at weight 2 instead); the component is rooted at its unique source.
    Multiple components hang from a fresh root by weight-3 edges; a
    component that is a single unpaired vertex hangs as a bare weight-3
    leaf, so no interior vertex is left with only one child.

    Raises:
        ValueError: when recognition refuses ``d``.
    """
    outcome, t = _decide(d, build=True)
    if t is None:
        raise ValueError(f"not explainable ({outcome.reason}): "
                         f"certificate {outcome.certificate}")
    return t


def _decide(d: OrientedGraph, build: bool
            ) -> tuple[OrientedOutcome, RootedLabeledTree | None]:
    """``recognize_oriented``'s outcome and, on yes when ``build`` is
    set, ``construct_oriented``'s tree, from one directed quotient and
    one underlying graph of it."""
    qres = directed_quotient(d)
    p, q = qres.partition, qres.graph
    reps = p.representatives
    u = underlying_graph(q)
    cyc = find_cycle(u)
    if cyc is not None:
        return OrientedOutcome(False, tuple(sorted(reps[v] for v in cyc)),
                               "cycle"), None
    for z in range(q.n):
        if len(q.in_adj[z]) >= 2:
            x, y = sorted(q.in_adj[z])[:2]
            return OrientedOutcome(False, (reps[x], reps[y], reps[z]),
                                   "in-star"), None
    return (OrientedOutcome(True, None, ""),
            _construct(d, p, q, u) if build else None)


def _construct(d: OrientedGraph, p: TwinPartition, q: OrientedGraph,
               u: Graph) -> RootedLabeledTree:
    """``construct_oriented`` from the partition, the quotient and its
    underlying graph ``u`` that ``_decide`` accepted, self-checked."""
    members = p.classes  # by quotient vertex
    # quotient components, by smallest quotient vertex
    comps = [sorted(c) for c in connected_components(u)]

    edges: list[tuple[int, int, int]] = []
    names: dict[int, str] = {}
    next_id = [0]

    def fresh() -> int:
        next_id[0] += 1
        return next_id[0] - 1

    def build_component(comp: list[int], solo: bool) -> int:
        """Returns the component's root vertex id."""
        internal = [v for v in comp if q.out_adj[v]]
        if not internal:
            # a single arc-less quotient vertex
            (v,) = comp
            if len(members[v]) == 1 and not solo:
                # a lone vertex can hang straight off the shared root
                leaf = fresh()
                names[leaf] = str(members[v][0])
                return leaf
            hub = fresh()
            for m in members[v]:
                leaf = fresh()
                names[leaf] = str(m)
                edges.append((hub, leaf, 0))
            return hub
        vert = {v: fresh() for v in internal}
        for v in internal:
            for m in members[v]:
                leaf = fresh()
                names[leaf] = str(m)
                edges.append((vert[v], leaf, 0))
            for y in q.out_adj[v]:
                if y in vert:
                    edges.append((vert[v], vert[y], 2))
                else:
                    for m in members[y]:
                        leaf = fresh()
                        names[leaf] = str(m)
                        edges.append((vert[v], leaf, 2))
        (source,) = [v for v in comp if not q.in_adj[v]]
        return vert[source]

    roots = [build_component(c, len(comps) == 1) for c in comps]
    if len(roots) == 1:
        root = roots[0]
    else:
        root = fresh()
        for rc in roots:
            edges.append((root, rc, 3))

    t = RootedLabeledTree.build(next_id[0], edges, names, root=root)
    vertex = [t.vertex_of(str(v)) for v in range(d.n)]
    arcs = [(vertex[x], vertex[y]) for x, nbrs in enumerate(d.out_adj)
            for y in nbrs]
    if not certify_relation(t, t.root, arcs, 2, directed=True):
        raise AssertionError("internal error: constructed tree does not "
                             "reproduce the input relation")
    return t
