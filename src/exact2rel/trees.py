"""Edge-weighted trees with named leaves, unrooted and rooted.

A tree here has internal vertex ids ``0 .. nv-1``; every vertex of
degree <= 1 carries a unique string name (interior vertices are
anonymous).  A rooted tree adds a root, an anonymous vertex that is
never a leaf, even when it has a single child.  Edge weights are
non-negative integers.  The central notion: two leaves are related at
level ``k`` when the weights on the path between them sum to exactly
``k``; a tree explains a graph when the graph's edges are exactly the
related leaf pairs.

A tree is *canonical* when every interior vertex has degree >= 3 (a
root: two children) and no edge between two interior vertices has
weight 0.  Trees with at most two leaves are canonical by definition.
``canonicalize`` reduces any tree to canonical shape without changing
any leaf-to-leaf path weight relation it realizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

from .graphs import Graph, from_edge_list


class _Tree:
    """What both tree types share: the storage, the queries, and
    equality and hashing by one key, its canonical form, kept once built."""

    __slots__ = ("nv", "adj", "names", "_vertex", "_form")

    def __init__(self, nv: int, adj: tuple[dict[int, int], ...],
                 names: dict[int, str]):
        self.nv = nv
        self.adj = adj
        self.names = names
        self._vertex: dict[str, int] = {}  # name -> vertex, built on first use
        self._form: tuple = ()  # the key, built on first use

    @property
    def leaf_names(self) -> list[str]:
        return sorted(self.names.values())

    @property
    def n_leaves(self) -> int:
        return len(self.names)

    def vertex_of(self, name: str) -> int:
        self._vertex = self._vertex or {s: v for v, s in self.names.items()}
        return self._vertex[name]

    def weighted_edges(self) -> list[tuple[int, int, int]]:
        return [(u, v, w) for u in range(self.nv)
                for v, w in self.adj[u].items() if u < v]

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(leaves={self.leaf_names})"


class LabeledTree(_Tree):
    """Immutable unrooted tree with weighted edges and named leaves."""

    __slots__ = ()

    @classmethod
    def build(cls, nv: int, edges: Iterable[tuple[int, int, int]],
              names: Mapping[int, str]) -> "LabeledTree":
        """Validate and build a tree.

        Args:
            nv: number of vertices.
            edges: triples ``(u, v, weight)``; must form a tree on all
                ``nv`` vertices.
            names: leaf names; must cover exactly the vertices of degree
                <= 1, with no duplicates.

        Raises:
            ValueError: if the edge set is not a tree, a weight is
                negative or non-integer, or the naming is wrong.
        """
        return cls(nv, *_validate(nv, edges, names, None))

    def interior_vertices(self) -> list[int]:
        return [v for v in range(self.nv) if len(self.adj[v]) >= 2]

    def total_weight(self) -> int:
        return sum(w for _, _, w in self.weighted_edges())

    def _key(self) -> tuple:
        self._form = self._form or canonical_form(self)
        return self._form


class RootedLabeledTree(_Tree):
    """Immutable rooted tree with weighted edges and named leaves.

    Leaves are the non-root vertices of degree <= 1; each carries a
    unique name.  The root is unnamed and may have any degree >= 1.
    """

    __slots__ = ("root",)

    @classmethod
    def build(cls, nv: int, edges: Iterable[tuple[int, int, int]],
              names: Mapping[int, str], root: int) -> "RootedLabeledTree":
        """Validate and build.  ``names`` must cover exactly the non-root
        vertices of degree <= 1; the root must not be named."""
        adj, named = _validate(nv, edges, names, root)
        if nv == 1:
            raise ValueError("a rooted tree needs at least one leaf under the root")
        return cls._hung(nv, adj, named, root)

    @classmethod
    def _hung(cls, nv: int, adj: tuple[dict[int, int], ...],
              names: dict[int, str], root: int) -> "RootedLabeledTree":
        """Already valid storage, unchecked; every root is set here."""
        t = cls(nv, adj, names)
        t.root = root
        return t

    def _key(self) -> tuple:
        self._form = self._form or rooted_canonical_form(self)
        return self._form


def _validate(nv: int, edges: Iterable[tuple[int, int, int]],
              names: Mapping[int, str], root: int | None
              ) -> tuple[tuple[dict[int, int], ...], dict[int, str]]:
    """Check that ``edges`` form a tree on ``0 .. nv-1`` whose leaves,
    the vertices of degree <= 1 other than ``root`` (``None`` for an
    unrooted tree), are exactly the keys of ``names``, with distinct
    non-empty names.  Returns the adjacency and the names."""
    adj: list[dict[int, int]] = [dict() for _ in range(nv)]
    count = 0
    for u, v, w in edges:
        if not (0 <= u < nv and 0 <= v < nv) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise ValueError(f"edge ({u}, {v}) needs a non-negative integer weight")
        if v in adj[u]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        adj[u][v] = adj[v][u] = w
        count += 1
    if root is None:
        if nv == 0:
            raise ValueError("tree needs at least one vertex")
    elif not 0 <= root < nv:
        raise ValueError("root out of range")
    if count != nv - 1:
        raise ValueError(f"{count} edges on {nv} vertices is not a tree")
    order, seen = [0], [True] + [False] * (nv - 1)
    for x in order:
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                order.append(y)
    if len(order) != nv:
        raise ValueError("edge set is not connected")
    named = dict(names)
    if root in named:
        raise ValueError("the root must not carry a name")
    if set(named) != {v for v in range(nv) if v != root and len(adj[v]) <= 1}:
        raise ValueError("names must cover exactly the "
                         f"{'' if root is None else 'non-root '}degree<=1 vertices")
    vals = list(named.values())
    if len(set(vals)) != len(vals):
        raise ValueError("duplicate leaf name")
    if not all(vals):
        raise ValueError("empty leaf name")
    return tuple(adj), named


@dataclass(frozen=True)
class DistanceMatrix:
    """Leaf-to-leaf path weights, rows and columns in sorted-name order."""

    names: tuple[str, ...]
    dist: tuple[tuple[int, ...], ...]

    def get(self, a: str, b: str) -> int:
        i = self.names.index(a)
        j = self.names.index(b)
        return self.dist[i][j]


# ======================================================================
# Distances and the explained graph
# ======================================================================

def leaf_distance_matrix(t: LabeledTree) -> DistanceMatrix:
    """Path-weight sums between all leaf pairs."""
    names = t.leaf_names
    verts = [t.vertex_of(s) for s in names]
    rows = []
    for v in verts:
        _, _, dv = tree_layout(t.adj, v)
        rows.append(tuple(dv[u] for u in verts))
    return DistanceMatrix(tuple(names), tuple(rows))


def tree_layout(adj: tuple[dict[int, int], ...],
                root: int) -> tuple[list[int], list[int], list[int]]:
    """Pre-order, parent (-1 at the root) and weighted depth of the tree
    with adjacency ``adj`` hung from ``root``, from one explicit-stack
    walk.  Every subtree is a contiguous run of the pre-order, so its
    reverse is a post-order.  A cycle in ``adj`` raises ValueError."""
    n = len(adj)
    parent = [-1] * n
    depth = [0] * n
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        if len(order) > n:
            raise ValueError("the adjacency holds a cycle")
        for u, w in adj[v].items():
            if u != parent[v]:
                parent[u] = v
                depth[u] = depth[v] + w
                stack.append(u)
    return order, parent, depth


def sibling_order(adj: tuple[dict[int, int], ...], names: Mapping[int, str],
                  top: int) -> dict[int, list[tuple[str, int]]]:
    """Each unnamed vertex's children in the tree hung from ``top``, as
    sorted ``(smallest leaf name below, child)`` pairs, from one pass over
    the reversed pre-order of ``tree_layout``, so any depth works."""
    order, parent, _ = tree_layout(adj, top)
    smallest = dict(names)
    kids: dict[int, list[tuple[str, int]]] = {}
    for v in reversed(order):
        if v not in names:
            kids[v] = sorted((smallest[c], c) for c in adj[v] if c != parent[v])
            smallest[v] = kids[v][0][0]
    return kids


def relation_pairs(t, root: int, k: int,
                   directed: bool = False) -> list[tuple[int, int]]:
    """Each leaf pair related at level ``k`` in ``t`` (a ``LabeledTree``
    or a rooted tree) hung from ``root``, once, as vertex ids, in
    O(nv * (k + 1) + nv * log nv + output) steps.

    Undirected, (x, y) is related when its path weight is ``k``;
    directed, when x sits at weight 0 below the two leaves' lowest
    common ancestor and y at weight ``k``.  One pass over the reversed
    pre-order of ``tree_layout`` keeps, per vertex, the leaves below it
    bucketed by relative depth 0..k; a pair is listed at its lowest
    common ancestor, where a child's bucket at d meets the siblings'
    before it at k - d.  The smaller of two merged buckets joins the
    larger, so each leaf moves O(log nv) times.
    """
    order, parent, _ = tree_layout(t.adj, root)
    below: dict[int, dict[int, list[int]]] = {}  # vertex -> depth -> leaves
    out: list[tuple[int, int]] = []
    for v in reversed(order):
        acc = {0: [v]} if v in t.names else {}
        for c, w in t.adj[v].items():
            if c == parent[v]:
                continue
            shifted = {d + w: ls for d, ls in below.pop(c).items()
                       if d + w <= k}
            if directed:
                out += [(x, y) for x in acc.get(0, ()) for y in shifted.get(k, ())]
                out += [(x, y) for x in shifted.get(0, ()) for y in acc.get(k, ())]
            else:
                for d, ls in shifted.items():
                    out += [(x, y) for x in ls for y in acc.get(k - d, ())]
            for d, ls in shifted.items():
                have = acc.get(d, [])
                if len(have) < len(ls):
                    have, ls = ls, have
                have += ls
                acc[d] = have
        below[v] = acc
    return out


def relation_matches(t, root: int, k: int, adj: Sequence[AbstractSet[int]],
                     directed: bool = False) -> bool:
    """The one check of a tree against a graph: hung from ``root``, the
    leaves of ``t`` (``str(i)`` for vertex ``i``) relate at level ``k``
    as the sets ``adj`` say (out-neighbours when ``directed``)."""
    vertex = {x: int(s) for x, s in t.names.items()}
    pairs = relation_pairs(t, root, k, directed)
    return (len(pairs) == sum(map(len, adj)) // (1 if directed else 2)
            and all(vertex[y] in adj[vertex[x]] for x, y in pairs))


def explain(t: LabeledTree, k: int) -> Graph:
    """The graph whose vertices are the leaves (graph vertex ``i`` is the
    i-th leaf name in sorted order) and whose edges are the leaf pairs at
    path weight exactly ``k``, as ``relation_pairs`` lists them.

    Args:
        t: any tree.
        k: relation level, >= 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    index = {t.vertex_of(s): i for i, s in enumerate(t.leaf_names)}
    return from_edge_list(len(index), [(index[x], index[y])
                                       for x, y in relation_pairs(t, 0, k)])


# ======================================================================
# Canonicalization, restriction and forgetting the root
# ======================================================================

def _compact(adj: dict[int, dict[int, int]], names: dict[int, str],
             root: int | None = None) -> LabeledTree | RootedLabeledTree:
    """Rebuild a tree from a mutable adjacency, renumbering ids, as its
    edges stream into the build in id order, each vertex popped as read:
    a LabeledTree, or a RootedLabeledTree hung from ``root`` if given."""
    verts = sorted(adj)
    new_id = {v: i for i, v in enumerate(verts)}
    new_names = {new_id[v]: s for v, s in names.items() if v in new_id}
    edges = ((new_id[u], new_id[v], w) for u in verts
             for v, w in adj.pop(u).items() if u < v)  # ids keep their order
    if root is None:
        return LabeledTree.build(len(verts), edges, new_names)
    return RootedLabeledTree.build(len(verts), edges, new_names, root=new_id[root])


class _Draft:
    """A tree under construction: weighted adjacency, leaf names and
    fresh ids in increasing order; ``tree`` builds it, consuming it."""

    __slots__ = ("adj", "names", "nv")

    def __init__(self) -> None:
        self.adj: dict[int, dict[int, int]] = {}
        self.names: dict[int, str] = {}
        self.nv = 0

    def vertex(self, name: str | None = None) -> int:
        v = self.nv
        self.nv += 1
        self.adj[v] = {}
        if name is not None:
            self.names[v] = name
        return v

    def link(self, u: int, v: int, w: int) -> None:
        self.adj[u][v] = w
        self.adj[v][u] = w

    def add_tree(self, t: LabeledTree) -> list[int]:
        """Copy ``t`` in; returns the new ids of its vertices, in order."""
        ids = [self.vertex(t.names.get(v)) for v in range(t.nv)]
        for u, v, w in t.weighted_edges():
            self.link(ids[u], ids[v], w)
        return ids

    def tree(self, root: int | None = None) -> LabeledTree | RootedLabeledTree:
        return _compact(self.adj, self.names, root)


def _smooth(adj: dict[int, dict[int, int]], v: int) -> None:
    """Remove the degree-2 vertex ``v`` of a mutable adjacency, joining
    its two neighbours by one edge of the summed weight.  No other
    vertex changes degree."""
    (a, wa), (b, wb) = adj.pop(v).items()
    del adj[a][v]
    del adj[b][v]
    adj[a][b] = wa + wb
    adj[b][a] = wa + wb


def _prune(adj: dict[int, dict[int, int]], names: Mapping[int, str]) -> None:
    """Remove from a mutable adjacency every unnamed vertex that lies on
    no path between named ones, from a worklist of unnamed vertices of
    degree <= 1.  ``names`` must name at least one vertex."""
    due = [v for v in adj if v not in names and len(adj[v]) <= 1]
    while due:
        v = due.pop()
        for u in adj.pop(v):
            del adj[u][v]
            if u not in names and len(adj[u]) == 1:
                due.append(u)


def canonicalize(t: LabeledTree) -> LabeledTree:
    """Reduce to canonical shape: contract interior 0-weight edges and
    smooth interior degree-2 vertices (summing the two weights), until
    neither occurs.  Leaf-to-leaf path weights are unchanged, so the
    explained graph is preserved for every level.

    Args:
        t: tree with at least 2 leaves.
    """
    if t.n_leaves < 2:
        raise ValueError("canonicalize needs a tree with >= 2 leaves")
    return _canonicalize({v: dict(t.adj[v]) for v in range(t.nv)},
                         dict(t.names))


def _canonicalize(adj: dict[int, dict[int, int]],
                  names: dict[int, str]) -> LabeledTree:
    """``canonicalize`` on a mutable adjacency, consumed, then one
    validated build of the result."""
    # One pass in id order.  A vertex is due when it has degree 2 or a
    # 0-edge to an interior neighbour.  No reduction makes a vertex due
    # that was not due before (a new interior 0-edge replaces one to the
    # removed vertex), so each step reduces the smallest due vertex and
    # the surviving ids do not depend on anything but the input.
    for v in sorted(adj):
        if v in names or v not in adj:
            continue
        nbrs = adj[v]
        if len(nbrs) == 2:
            _smooth(adj, v)
            continue
        # merge v into its first interior neighbour across a 0-edge
        target = next((u for u, w in nbrs.items()
                       if w == 0 and u not in names), None)
        if target is not None:
            del adj[target][v]
            del adj[v][target]
            for u, w in adj[v].items():
                del adj[u][v]
                adj[u][target] = w
                adj[target][u] = w
            del adj[v]
    return _compact(adj, names)


def restrict(t: LabeledTree, leaf_subset: Iterable[str]) -> LabeledTree:
    """The tree displayed on a subset of leaves: prune everything off the
    paths between kept leaves, then smooth degree-2 vertices with summed
    weights.  0-weight edges are left alone, so path weights between kept
    leaves are exactly those of ``t``.

    Args:
        t: any tree.
        leaf_subset: non-empty collection of leaf names of ``t``.
    """
    keep = set(leaf_subset)
    if not keep:
        raise ValueError("leaf subset must be non-empty")
    unknown = keep - set(t.names.values())
    if unknown:
        raise ValueError(f"not leaves of this tree: {sorted(unknown)}")

    if len(keep) == 1:
        (name,) = keep
        return LabeledTree.build(1, [], {0: name})

    adj: dict[int, dict[int, int]] = {v: dict(t.adj[v]) for v in range(t.nv)}
    names = {v: s for v, s in t.names.items() if s in keep}
    _prune(adj, names)
    for v in list(adj):
        if v not in names and len(adj[v]) == 2:
            _smooth(adj, v)
    return _compact(adj, names)


def underlying_tree(t: RootedLabeledTree) -> LabeledTree:
    """Forget the root.  A root left dangling as an unnamed degree-1
    vertex (possible when it had a single child) lies on no leaf-to-leaf
    path and is dropped."""
    adj = {v: dict(t.adj[v]) for v in range(t.nv)}
    _prune(adj, t.names)
    return _compact(adj, t.names)


# ======================================================================
# Predicates
# ======================================================================

def _is_canonical(t: _Tree, root: int | None) -> bool:
    """True when every unnamed vertex has degree >= 3, ``root`` (``None``
    for none) >= 2, and no edge between two unnamed vertices has weight 0."""
    for v in range(t.nv):
        if v not in t.names and (
                len(t.adj[v]) + (v == root) < 3
                or any(w == 0 and u not in t.names
                       for u, w in t.adj[v].items())):
            return False
    return True


def is_canonical(t: LabeledTree) -> bool:
    """True when every interior vertex has degree >= 3 and no
    interior-to-interior edge has weight 0."""
    return _is_canonical(t, None)


def is_canonical_rooted(t: RootedLabeledTree) -> bool:
    """True when every non-leaf vertex (root included) has at least two
    children and every edge between two non-leaf vertices has positive
    weight."""
    return _is_canonical(t, t.root)


def is_zero_discrete(t: LabeledTree | RootedLabeledTree) -> bool:
    """True when no two distinct leaves sit at path weight 0: a walk
    over the 0-weight edges from each leaf meets no other leaf."""
    seen: set[int] = set()
    for v in t.names:
        seen.add(v)
        stack = [v]
        while stack:
            for y, w in t.adj[stack.pop()].items():
                if w == 0 and y not in seen:
                    if y in t.names:
                        return False
                    seen.add(y)
                    stack.append(y)
    return True


# ======================================================================
# Canonical form (leaf-labeled equality with weights)
# ======================================================================

def canonical_form(t: LabeledTree) -> tuple:
    """The key of ``t``, equal exactly for trees with the same named
    leaves, shape and weights: hung from the smallest leaf's neighbour,
    the form ``("T", ("I", ((smallest leaf, weight, child), ...)))``, with
    siblings in ``sibling_order`` and leaves ``("L", name)``, written
    top-down as each tuple's items and a closing ``""``.  Names are not
    empty, so ``""`` sorts first, as the end of a shorter tuple does:
    keys sort as the nested forms do."""
    if t.n_leaves == 1:
        return ("V", t.leaf_names[0], "")
    if t.nv == 2:
        a, b = t.leaf_names
        return ("E", a, b, t.adj[0][1], "")
    (anchor,) = t.adj[min(t.names, key=t.names.get)]  # an interior vertex
    return _flat_key("T", t, anchor)


def rooted_canonical_form(t: RootedLabeledTree) -> tuple:
    """``canonical_form`` with the head ``"R"``, hung from the root."""
    return _flat_key("R", t, t.root)


def _flat_key(head: str, t: _Tree, top: int) -> tuple:
    adj, names = t.adj, t.names
    kids = sibling_order(adj, names, top)
    out = [head]
    stack: list = [top]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            out += x
            continue
        out.append("I")
        stack.append(("", ""))
        for s, c in reversed(kids[x]):
            w = adj[x][c]
            stack += ([(s, w, "L", s, "", "")] if c in names
                      else [("",), c, (s, w)])
    out.append("")
    return tuple(out)
