"""Exhaustive brute force over small trees: the independent ground truth
against which everything else is tested.

The oracle enumerates every tree shape with up to 7 named leaves, every
weight assignment within a budget, and (for the rooted questions) every
root placement, recording which graphs arise.  It deliberately shares no
code with the recognition pipeline: graphs are handled as bitmasks over
vertex pairs, trees are walked by dumb loops, and isomorphism reduction
is a minimum over all vertex permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Iterator

from ._kernel import (enumerate_relation_masks, enumerate_rooted_arc_masks,
                      matching_weightings)
from .graphs import (Graph, OrientedGraph, false_twin_partition, from_arc_list,
                     from_edge_list, is_block_graph, is_forest, quotient,
                     underlying_graph)
from .rooted import (RootedLabeledTree, is_canonical_rooted, recognize_oriented,
                     underlying_tree)
from .trees import LabeledTree, canonical_form, canonicalize, is_canonical

LETTERS = "abcdefg"


@dataclass(frozen=True)
class EnumerationBudget:
    """Bounds for brute-force enumeration.

    ``max_weight=None`` means ``k + 1`` at point of use — larger weights
    never enlarge the family of realizable graphs (checked by a test
    comparing caps k+1 and k+2).  ``canonical_only`` restricts interior
    edge weights to >= 1, which loses no graphs since canonicalization
    preserves the relation.
    """

    max_leaves: int = 5
    max_weight: int | None = None
    canonical_only: bool = True
    zero_discrete_only: bool = False

    def resolve_weight(self, k: int) -> int:
        return self.max_weight if self.max_weight is not None else k + 1

    def validate(self) -> None:
        if not 1 <= self.max_leaves <= 7:
            raise ValueError("max_leaves must be in 1..7")
        if self.max_weight is not None and self.max_weight < 1:
            raise ValueError("max_weight must be >= 1")


# ======================================================================
# Tree shapes
# ======================================================================

_TOPO_CACHE: dict[int, list[LabeledTree]] = {}


def enumerate_topologies(n: int) -> list[LabeledTree]:
    """All tree shapes with ``n`` named leaves and interior degrees >= 3,
    each exactly once up to leaf-labeled isomorphism (weights all 0;
    multifurcations included).  Built by inserting leaf after leaf onto
    an edge (making a new degree-3 vertex) or onto an interior vertex.

    Args:
        n: leaf count, 1 <= n <= 7.
    """
    if not 1 <= n <= 7:
        raise ValueError("leaf count must be in 1..7")
    if n in _TOPO_CACHE:
        return list(_TOPO_CACHE[n])
    if n == 1:
        result = [LabeledTree.build(1, [], {0: LETTERS[0]})]
    elif n == 2:
        result = [LabeledTree.build(2, [(0, 1, 0)], {0: "a", 1: "b"})]
    else:
        seen: dict[tuple, LabeledTree] = {}
        new_name = LETTERS[n - 1]
        for t in enumerate_topologies(n - 1):
            base = t.weighted_edges()
            for u, v, _ in base:
                mid, leaf = t.nv, t.nv + 1
                edges = [e for e in base if set(e[:2]) != {u, v}]
                edges += [(u, mid, 0), (mid, v, 0), (mid, leaf, 0)]
                names = dict(t.names)
                names[leaf] = new_name
                cand = LabeledTree.build(t.nv + 2, edges, names)
                seen.setdefault(canonical_form(cand), cand)
            for v in t.interior_vertices():
                leaf = t.nv
                edges = base + [(v, leaf, 0)]
                names = dict(t.names)
                names[leaf] = new_name
                cand = LabeledTree.build(t.nv + 1, edges, names)
                seen.setdefault(canonical_form(cand), cand)
        result = [seen[key] for key in sorted(seen)]
    _TOPO_CACHE[n] = result
    return list(result)


def count_topologies_reference(n: int) -> int:
    """Leaf-labeled shape count by an independent recurrence (for
    cross-checking ``enumerate_topologies``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return 1

    # Suppressing one distinguished leaf turns an unrooted shape on n
    # leaves into a rooted shape on n - 1 leaves, so count those.  A
    # forest groups labeled leaves into rooted shapes; splitting off the
    # component holding the lowest label gives the convolution below,
    # and a one-component forest is itself a rooted shape, which is why
    # the forest count is exactly twice the rooted count.
    m = n - 1
    rooted = [0] * (m + 1)
    forests = [0] * (m + 1)
    rooted[1] = 1
    forests[0] = forests[1] = 1
    for j in range(2, m + 1):
        rooted[j] = sum(
            math.comb(j - 1, s - 1) * rooted[s] * forests[j - s]
            for s in range(1, j)
        )
        forests[j] = 2 * rooted[j]
    return rooted[m]


# ======================================================================
# Shape preprocessing for the kernels
# ======================================================================

@dataclass
class _Shape:
    n_leaves: int
    edges: list[tuple[int, int]]
    paths: list[list[int]]
    pair_index: list[list[int]]
    min_w_canonical: list[int]
    min_w_free: list[int]
    interior_roots: list[list[list[int]]]
    edge_roots: list[tuple[bool, bool, list[int], list[list[int]]]]


def _prepare(t: LabeledTree) -> _Shape:
    names = t.leaf_names
    leaves = [t.vertex_of(s) for s in names]
    n = len(leaves)
    edges = [(u, v) for u, v, _ in t.weighted_edges()]
    eidx = {}
    for i, (u, v) in enumerate(edges):
        eidx[(u, v)] = i
        eidx[(v, u)] = i
    adj_e: list[list[tuple[int, int]]] = [[] for _ in range(t.nv)]
    for i, (u, v) in enumerate(edges):
        adj_e[u].append((v, i))
        adj_e[v].append((u, i))

    def paths_from(src: int) -> list[list[int]]:
        path: list[list[int] | None] = [None] * t.nv
        path[src] = []
        stack = [src]
        while stack:
            x = stack.pop()
            for y, e in adj_e[x]:
                if path[y] is None:
                    path[y] = path[x] + [e]
                    stack.append(y)
        return path  # type: ignore[return-value]

    from_leaf = [paths_from(v) for v in leaves]
    pairs = list(combinations(range(n), 2))
    paths = [from_leaf[i][leaves[j]] for i, j in pairs]
    pair_index = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        pair_index[i][j] = p
        pair_index[j][i] = p

    is_leaf = [len(t.adj[v]) <= 1 for v in range(t.nv)]
    min_w_canonical = [0 if is_leaf[u] or is_leaf[v] else 1 for u, v in edges]
    min_w_free = [0] * len(edges)

    interior_roots = [[from_leaf[x][r] for x in range(n)]
                      for r in t.interior_vertices()]
    edge_roots = []
    for u, v in edges:
        side = [1 if eidx[(u, v)] not in from_leaf[x][u] else 0
                for x in range(n)]
        # a leaf is on the u side exactly when its path to u avoids (u,v)
        near = [from_leaf[x][u] if side[x] else from_leaf[x][v]
                for x in range(n)]
        edge_roots.append((is_leaf[u], is_leaf[v], side, near))
    return _Shape(n, edges, paths, pair_index, min_w_canonical, min_w_free,
                  interior_roots, edge_roots)


def _tree_with_weights(t: LabeledTree, shape: _Shape,
                       weights: tuple[int, ...],
                       rename: dict[str, str] | None = None) -> LabeledTree:
    edges = [(u, v, weights[i]) for i, (u, v) in enumerate(shape.edges)]
    names = t.names
    if rename is not None:
        names = {v: rename[s] for v, s in t.names.items()}
    return LabeledTree.build(t.nv, edges, names)


# ======================================================================
# Isomorphism-class bookkeeping via bitmasks
# ======================================================================

_PAIR_MAPS: dict[int, list[list[int]]] = {}
_ARC_MAPS: dict[int, list[list[int]]] = {}


def _pair_maps(n: int) -> list[list[int]]:
    if n not in _PAIR_MAPS:
        pairs = list(combinations(range(n), 2))
        index = {pr: i for i, pr in enumerate(pairs)}
        maps = []
        for perm in permutations(range(n)):
            maps.append([index[tuple(sorted((perm[a], perm[b])))]
                         for a, b in pairs])
        _PAIR_MAPS[n] = maps
    return _PAIR_MAPS[n]


def _arc_maps(n: int) -> list[list[int]]:
    if n not in _ARC_MAPS:
        maps = []
        for perm in permutations(range(n)):
            remap = [0] * (n * n)
            for x in range(n):
                for y in range(n):
                    if x != y:
                        remap[x * n + y] = perm[x] * n + perm[y]
            maps.append(remap)
        _ARC_MAPS[n] = maps
    return _ARC_MAPS[n]


def graph_to_mask(g: Graph) -> int:
    mask = 0
    for p, (u, v) in enumerate(combinations(range(g.n), 2)):
        if g.has_edge(u, v):
            mask |= 1 << p
    return mask


def mask_to_graph(n: int, mask: int) -> Graph:
    edges = [pr for p, pr in enumerate(combinations(range(n), 2))
             if mask >> p & 1]
    return from_edge_list(n, edges)


def _images(mask: int, remaps: list[list[int]]) -> Iterator[int]:
    """The image of ``mask`` under each bit remap, in order."""
    for remap in remaps:
        x = 0
        m = mask
        p = 0
        while m:
            if m & 1:
                x |= 1 << remap[p]
            m >>= 1
            p += 1
        yield x


def canonical_mask_of(mask: int, n: int) -> int:
    """Smallest pair-mask over all vertex relabelings."""
    return min(_images(mask, _pair_maps(n)))


def canonical_mask(g: Graph) -> int:
    return canonical_mask_of(graph_to_mask(g), g.n)


def oriented_to_mask(d: OrientedGraph) -> int:
    mask = 0
    for u, v in d.arcs:
        mask |= 1 << (u * d.n + v)
    return mask


def mask_to_oriented(n: int, mask: int) -> OrientedGraph:
    arcs = [(x, y) for x in range(n) for y in range(n)
            if x != y and mask >> (x * n + y) & 1]
    return from_arc_list(n, arcs)


def canonical_arc_mask_of(mask: int, n: int) -> int:
    return min(_images(mask, _arc_maps(n)))


def canonical_arc_mask(d: OrientedGraph) -> int:
    return canonical_arc_mask_of(oriented_to_mask(d), d.n)


def all_graph_classes(n: int) -> list[int]:
    """Canonical masks of all isomorphism classes of graphs on n vertices."""
    n_pairs = n * (n - 1) // 2
    seen: set[int] = set()
    out = []
    for mask in range(1 << n_pairs):
        if mask in seen:
            continue
        orbit = set(_images(mask, _pair_maps(n)))
        seen |= orbit
        out.append(min(orbit))
    return sorted(out)


def all_oriented_classes(n: int) -> list[int]:
    """Canonical arc masks of all oriented-graph isomorphism classes."""
    pairs = list(combinations(range(n), 2))
    seen: set[int] = set()
    out = []

    def assignments(i: int, mask: int) -> None:
        if i == len(pairs):
            if mask not in seen:
                orbit = set(_images(mask, _arc_maps(n)))
                seen.update(orbit)
                out.append(min(orbit))
            return
        u, v = pairs[i]
        assignments(i + 1, mask)
        assignments(i + 1, mask | 1 << (u * n + v))
        assignments(i + 1, mask | 1 << (v * n + u))

    assignments(0, 0)
    return sorted(out)


# ======================================================================
# Explainable sets
# ======================================================================

@dataclass(frozen=True, eq=False)
class ExplainableSet:
    """Canonical masks of realizable graphs, keyed by leaf count."""

    k: int
    budget: EnumerationBudget
    masks: dict[int, frozenset[int]]

    def contains(self, g: Graph) -> bool:
        if g.n not in self.masks:
            raise ValueError(f"n={g.n} outside the enumerated budget")
        return canonical_mask(g) in self.masks[g.n]

    def graphs(self, n: int) -> list[Graph]:
        return [mask_to_graph(n, m) for m in sorted(self.masks[n])]


@dataclass(frozen=True, eq=False)
class RootedExplainableSet:
    """Canonical arc masks of realizable oriented graphs, by leaf count."""

    k: int
    budget: EnumerationBudget
    masks: dict[int, frozenset[int]]

    def contains(self, d: OrientedGraph) -> bool:
        if d.n not in self.masks:
            raise ValueError(f"n={d.n} outside the enumerated budget")
        return canonical_arc_mask(d) in self.masks[d.n]

    def oriented_graphs(self, n: int) -> list[OrientedGraph]:
        return [mask_to_oriented(n, m) for m in sorted(self.masks[n])]


def explainable_set(budget: EnumerationBudget, k: int,
                    progress: Callable[[str], None] | None = None) -> ExplainableSet:
    """Every graph realizable as a level-``k`` relation within budget,
    one canonical mask per isomorphism class, keyed by leaf count."""
    budget.validate()
    if k < 1:
        raise ValueError("k must be >= 1")
    W = budget.resolve_weight(k)
    out: dict[int, frozenset[int]] = {}
    for n in range(1, budget.max_leaves + 1):
        acc: set[int] = set()
        for ti, topo in enumerate(enumerate_topologies(n)):
            shape = _prepare(topo)
            min_w = (shape.min_w_canonical if budget.canonical_only
                     else shape.min_w_free)
            acc |= enumerate_relation_masks(
                len(shape.paths), shape.paths, min_w, W, k,
                budget.zero_discrete_only)
            if progress is not None:
                progress(f"n={n} shape {ti + 1}")
        out[n] = frozenset(canonical_mask_of(m, n) for m in acc)
    return ExplainableSet(k, budget, out)


def all_witnesses(g: Graph, budget: EnumerationBudget, k: int) -> list[LabeledTree]:
    """Every tree within budget whose level-``k`` relation is exactly
    ``g`` (leaves named after its vertices), deduplicated; sorted
    deterministically.  Empty when ``g.n`` exceeds the budget."""
    budget.validate()
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n == 0 or g.n > budget.max_leaves:
        return []
    W = budget.resolve_weight(k)
    target = graph_to_mask(g)
    rename = {LETTERS[i]: str(i) for i in range(g.n)}
    found: dict[tuple, LabeledTree] = {}
    for topo in enumerate_topologies(g.n):
        shape = _prepare(topo)
        min_w = (shape.min_w_canonical if budget.canonical_only
                 else shape.min_w_free)
        for wvec in matching_weightings(len(shape.paths), shape.paths, min_w,
                                        W, k, budget.zero_discrete_only,
                                        target):
            t = _tree_with_weights(topo, shape, wvec, rename)
            found.setdefault(canonical_form(t), t)
    return [found[key] for key in sorted(found)]


def rooted_explainable_set(budget: EnumerationBudget, k: int,
                           progress: Callable[[str], None] | None = None
                           ) -> RootedExplainableSet:
    """Every oriented graph realizable as a level-``k`` directed relation
    of a rooted tree within budget.

    Root placements cover each interior vertex and each split of an edge
    into two non-negative parts; with ``canonical_only`` a zero part
    toward an interior vertex is skipped.  A single leaf below the root
    gives the 1-vertex empty relation, recorded specially.
    """
    budget.validate()
    if k < 1:
        raise ValueError("k must be >= 1")
    W = budget.resolve_weight(k)
    out: dict[int, frozenset[int]] = {}
    for n in range(1, budget.max_leaves + 1):
        if n == 1:
            out[1] = frozenset({0})
            continue
        acc: set[int] = set()
        for ti, topo in enumerate(enumerate_topologies(n)):
            shape = _prepare(topo)
            min_w = (shape.min_w_canonical if budget.canonical_only
                     else shape.min_w_free)
            acc |= enumerate_rooted_arc_masks(
                n, shape.pair_index, shape.paths, min_w, W, k,
                budget.zero_discrete_only, budget.canonical_only,
                shape.interior_roots, shape.edge_roots)
            if progress is not None:
                progress(f"rooted n={n} shape {ti + 1}")
        out[n] = frozenset(canonical_arc_mask_of(m, n) for m in acc)
    return RootedExplainableSet(k, budget, out)


def brute_force_rootings(t: LabeledTree) -> set[RootedLabeledTree]:
    """All rooted canonical trees whose unrooted reduction is ``t``,
    found by trying every placement directly: the root at each interior
    vertex, or splitting each edge weight into (a, w - a) for every a.
    Placements failing rooted canonicity or not reducing back to ``t``
    are discarded.  Independent of the three-move enumeration in
    ``rooted``; used to validate it.
    """
    if t.nv < 2:
        raise ValueError("cannot root a single-vertex tree")
    if not is_canonical(t):
        raise ValueError("input tree must be canonical")
    out: set[RootedLabeledTree] = set()
    base = t.weighted_edges()
    for v in t.interior_vertices():
        rt = RootedLabeledTree.build(t.nv, base, t.names, root=v)
        if is_canonical_rooted(rt) and canonicalize(underlying_tree(rt)) == t:
            out.add(rt)
    r = t.nv
    for u, v, m in base:
        for a in range(m + 1):
            edges = [e for e in base if set(e[:2]) != {u, v}]
            edges += [(u, r, a), (r, v, m - a)]
            rt = RootedLabeledTree.build(t.nv + 1, edges, t.names, root=r)
            if is_canonical_rooted(rt) and canonicalize(underlying_tree(rt)) == t:
                out.add(rt)
    return out


# ======================================================================
# Characterization check
# ======================================================================

@dataclass(eq=False)
class CharacterizationReport:
    """Outcome of comparing brute-force sets against the closed-form
    criteria.  Each discrepancy is (side, n, canonical mask, in the
    enumerated set?, predicted by the criterion?)."""

    k: int
    budget: EnumerationBudget
    counts: dict[tuple[str, int], tuple[int, int]]
    discrepancies: list[tuple[str, int, int, bool, bool]]
    oriented_cap: int | None
    non_members: dict[int, list[int]]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _undirected_criterion(g: Graph, k: int, zero_discrete: bool) -> bool:
    if k == 2:
        if zero_discrete:
            return is_block_graph(g)
        q = quotient(g, false_twin_partition(g)).graph
        return is_block_graph(q)
    if k == 1:
        return is_forest(g)
    raise ValueError(f"no closed-form criterion for k={k}")


def _oriented_criterion(d: OrientedGraph, zero_discrete: bool) -> bool:
    if zero_discrete:
        return (is_forest(underlying_graph(d))
                and all(len(d.in_adj[v]) <= 1 for v in range(d.n)))
    return recognize_oriented(d).decision


def check_characterization(budget: EnumerationBudget,
                           k: int = 2) -> CharacterizationReport:
    """Compare the enumerated explainable sets with the closed-form
    membership criteria, both directions, on every isomorphism class
    within budget.

    For k=2 the undirected criterion is: the false-twin quotient is a
    block graph (the graph itself, under ``zero_discrete_only``); the
    oriented criterion is forest shape plus in-degree <= 1 in the twin
    quotient (in the graph itself under ``zero_discrete_only``).  The
    oriented side is capped at 4 vertices to keep the permutation
    reduction cheap.  For k=1 the criterion is forest; it only holds
    under ``zero_discrete_only`` (or trivially for max_leaves <= 3),
    other uses are refused.

    Raises:
        ValueError: a level with no known criterion, or k=1 without the
            zero-discrete restriction on a budget beyond 3 leaves.
    """
    budget.validate()
    if k not in (1, 2):
        raise ValueError(f"no closed-form criterion for k={k}")
    if k == 1 and not budget.zero_discrete_only and budget.max_leaves > 3:
        raise ValueError("the k=1 forest criterion needs zero_discrete_only "
                         "beyond 3 leaves")

    counts: dict[tuple[str, int], tuple[int, int]] = {}
    discrepancies: list[tuple[str, int, int, bool, bool]] = []
    non_members: dict[int, list[int]] = {}

    es = explainable_set(budget, k)
    for n in range(1, budget.max_leaves + 1):
        classes = all_graph_classes(n)
        member_count = 0
        non_members[n] = []
        for mask in classes:
            g = mask_to_graph(n, mask)
            member = mask in es.masks[n]
            predicted = _undirected_criterion(g, k, budget.zero_discrete_only)
            member_count += member
            if not member:
                non_members[n].append(mask)
            if member != predicted:
                discrepancies.append(("graph", n, mask, member, predicted))
        counts[("graph", n)] = (len(classes), member_count)

    oriented_cap = None
    if k == 2:
        oriented_cap = min(budget.max_leaves, 4)
        rbudget = EnumerationBudget(oriented_cap, budget.max_weight,
                                    budget.canonical_only,
                                    budget.zero_discrete_only)
        rs = rooted_explainable_set(rbudget, k)
        for n in range(1, oriented_cap + 1):
            classes = all_oriented_classes(n)
            member_count = 0
            for mask in classes:
                d = mask_to_oriented(n, mask)
                member = mask in rs.masks[n]
                predicted = _oriented_criterion(d, budget.zero_discrete_only)
                member_count += member
                if member != predicted:
                    discrepancies.append(("oriented", n, mask, member, predicted))
            counts[("oriented", n)] = (len(classes), member_count)

    return CharacterizationReport(k, budget, counts, discrepancies,
                                  oriented_cap, non_members)


def format_report(report: CharacterizationReport) -> str:
    """Line-oriented text summary, byte-stable for fixed inputs."""
    b = report.budget
    lines = [
        f"characterization check: k={report.k} max_leaves={b.max_leaves} "
        f"max_weight={b.resolve_weight(report.k)} "
        f"canonical_only={b.canonical_only} "
        f"zero_discrete_only={b.zero_discrete_only}"
    ]
    for (side, n), (total, members) in sorted(report.counts.items()):
        lines.append(f"{side} n={n}: {total} classes, {members} explainable")
    # list the non-members for the largest undirected n (small counts only)
    top_n = b.max_leaves
    masks = report.non_members.get(top_n, [])
    if 0 < len(masks) <= 50:
        for mask in masks:
            g = mask_to_graph(top_n, mask)
            txt = " ".join(f"{u}-{v}" for u, v in sorted(g.edges))
            lines.append(f"non-member n={top_n}: {txt or 'edgeless'}")
    for side, n, mask, member, predicted in report.discrepancies:
        lines.append(f"DISCREPANCY {side} n={n} mask={mask} "
                     f"enumerated={member} predicted={predicted}")
    lines.append(f"result: {'OK' if report.ok else 'MISMATCH'} "
                 f"({len(report.discrepancies)} discrepancies)")
    return "\n".join(lines) + "\n"
