"""Exhaustive brute force over small trees: the independent ground truth
against which everything else is tested.

The oracle covers every tree shape with up to 7 named leaves, every
weight assignment within a budget, and (for the rooted questions) every
root placement, recording which graphs arise.  It deliberately shares no
code with the recognition pipeline: graphs are handled as bitmasks over
vertex pairs, the kernels in ``_kernel`` read each shape as flat
edge-index lists hung from leaf 0 (the rooted kernel reroots that
hanging at every root placement), and isomorphism reduction is a
minimum over all vertex permutations, taken once per orbit and read
from per-permutation tables (``_columns``); as it closes over
relabelings, the explainable sets call their kernel once per unlabeled
shape.  What a kernel needs of a shape is prepared once per process,
per leaf count: the unlabeled shapes for the explainable sets, the
labeled topologies for ``all_witnesses``, which assembles each witness
from its topology's edges and weights without re-validating the tree.
``all_witnesses`` searches no topology in which two leaves on one
vertex have neighbour sets in the target that differ but meet; that
rule is a fact about distances in trees, and it reads no code of the
recognizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product
from operator import itemgetter, or_
from typing import Iterable, NamedTuple

from ._kernel import (enumerate_relation_masks, enumerate_rooted_arc_masks,
                      matching_weightings)
from .graphs import (Graph, OrientedGraph, collector_paused, directed_quotient,
                     from_arc_list, from_edge_list, is_block_graph, is_forest,
                     quotient, underlying_graph)
from .trees import LabeledTree, canonical_form

LETTERS = "abcdefg"


@dataclass(frozen=True)
class EnumerationBudget:
    """Bounds for brute-force enumeration.

    ``max_weight=None`` means ``k + 1`` at point of use.  Larger caps
    never enlarge the family of realizable graphs: an edge of weight
    k+1 or more puts every path through it above k, so all such weights
    give the same relation, and the mask kernels stop at k+1 whatever
    the cap (witness lists do grow with it).  ``canonical_only``
    restricts interior edge weights to >= 1, which loses no graphs
    since canonicalization preserves the relation.
    """

    max_leaves: int = 5
    max_weight: int | None = None
    canonical_only: bool = True
    zero_discrete_only: bool = False

    def resolve_weight(self, k: int) -> int:
        return self.max_weight if self.max_weight is not None else k + 1

    def validate(self, k: int = 1) -> None:
        if not 1 <= self.max_leaves <= 7:
            raise ValueError("max_leaves must be in 1..7")
        if self.max_weight is not None and self.max_weight < 1:
            raise ValueError("max_weight must be >= 1")
        if k < 1:
            raise ValueError("k must be >= 1")


# ======================================================================
# Tree shapes
# ======================================================================

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
    return list(_topologies(n))


@cache
def _topologies(n: int) -> tuple[LabeledTree, ...]:
    if n == 1:
        return (LabeledTree.build(1, [], {0: LETTERS[0]}),)
    if n == 2:
        return (LabeledTree.build(2, [(0, 1, 0)], {0: "a", 1: "b"}),)
    seen: dict[tuple, LabeledTree] = {}
    new_name = LETTERS[n - 1]
    for t in _topologies(n - 1):
        base, mid = t.weighted_edges(), t.nv
        # the new leaf on a new vertex inside each edge, then at each
        # interior vertex: (edges, the new leaf's id)
        grown = [([e for e in base if set(e[:2]) != {u, v}]
                  + [(u, mid, 0), (mid, v, 0), (mid, mid + 1, 0)], mid + 1)
                 for u, v, _ in base]
        grown += [(base + [(v, mid, 0)], mid) for v in t.interior_vertices()]
        for edges, leaf in grown:
            cand = LabeledTree.build(leaf + 1, edges, {**t.names, leaf: new_name})
            seen.setdefault(canonical_form(cand), cand)
    return tuple(seen[key] for key in sorted(seen))


@cache
def unlabeled_shapes(n: int) -> tuple[LabeledTree, ...]:
    """The first topology of each unlabeled shape with ``n`` leaves, keyed
    by its smallest ``_shape_form`` hung from an interior vertex."""
    seen: dict[tuple, LabeledTree] = {}
    for t in enumerate_topologies(n):
        seen.setdefault(min((_shape_form(t.adj, v)
                             for v in t.interior_vertices()), default=()), t)
    return tuple(seen.values())


def _shape_form(adj: tuple[dict[int, int], ...], v: int, up: int = -1) -> tuple:
    """The tree hung from ``v``, away from ``up``, without names or
    weights: the sorted tuple of its children's forms, so a leaf is
    ``()``.  Shapes have at most 7 leaves, so the recursion is shallow."""
    return tuple(sorted(_shape_form(adj, c, v) for c in adj[v] if c != up))


# ======================================================================
# Shape preprocessing for the kernels
# ======================================================================

@dataclass(frozen=True)
class _Shape:
    """A topology as the kernels read it.  Its edges are numbered
    breadth-first from leaf 0, each as (upper end, lower end), so the
    path of pair p = (0, j), ``paths[j - 1]``, is strictly increasing;
    pairs are numbered in ``combinations(range(n), 2)`` order.  All
    three kernels read the shape off ``paths``, hung from leaf 0; the
    rooted kernel reroots that hanging at every root placement."""

    edges: tuple[tuple[int, int], ...]
    # per vertex, (neighbour, edge index) in the topology's own order
    nbrs: tuple[tuple[tuple[int, int], ...], ...]
    paths: tuple[tuple[int, ...], ...]
    min_w_canonical: tuple[int, ...]
    min_w_free: tuple[int, ...]


def _prepare(t: LabeledTree) -> _Shape:
    names = t.leaf_names
    leaves = [t.vertex_of(s) for s in names]
    n = len(leaves)
    order = [(-1, leaves[0])]
    for up, u in order:  # breadth-first: the list grows as it is read
        order += [(u, v) for v in t.adj[u] if v != up]
    edges = tuple(order[1:])
    number: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(edges):
        number[u, v] = number[v, u] = i
    adj_e = [[(y, number[x, y]) for y in t.adj[x]] for x in range(t.nv)]

    def paths_from(src: int) -> list[tuple[int, ...]]:
        path: list[tuple[int, ...] | None] = [None] * t.nv
        path[src] = ()
        stack = [src]
        while stack:
            x = stack.pop()
            for y, e in adj_e[x]:
                if path[y] is None:
                    path[y] = path[x] + (e,)
                    stack.append(y)
        return path  # type: ignore[return-value]

    from_leaf = [paths_from(v) for v in leaves]
    paths = tuple(from_leaf[i][leaves[j]]
                  for i, j in combinations(range(n), 2))

    is_leaf = [len(t.adj[v]) <= 1 for v in range(t.nv)]
    min_w_canonical = tuple(0 if is_leaf[u] or is_leaf[v] else 1
                            for u, v in edges)
    return _Shape(edges, tuple(map(tuple, adj_e)), paths, min_w_canonical,
                  (0,) * len(edges))


@cache
def _shapes(n: int) -> tuple[_Shape, ...]:
    """The prepared unlabeled shapes with ``n`` leaves, which the
    explainable sets walk."""
    return tuple(map(_prepare, unlabeled_shapes(n)))


class _Labeled(NamedTuple):
    """A labeled topology as ``all_witnesses`` walks it: its shape, its
    leaf names as graph vertices ("0" for a, "1" for b, ...), its sort
    key as constants and weight slots (see ``_labeled``), and its
    sibling pairs, the leaves hanging from one vertex, as a pair mask
    over those graph vertices."""

    shape: _Shape
    names: tuple[tuple[int, str], ...]
    consts: tuple[str, ...]
    key: itemgetter  # applied to the weights followed by ``consts``
    siblings: int


@cache
def _labeled(n: int) -> tuple[_Labeled, ...]:
    """The labeled topologies with ``n`` leaves, prepared for
    ``all_witnesses``.

    Siblings in ``canonical_form`` are sorted by their smallest leaf
    names, which are distinct, so all weightings of one topology share
    one token sequence with a slot per edge weight: the key of the
    topology with weight ``-1 - e`` on edge ``e``, taken once.  An int
    token is the slot of a weight, every other token a constant, so a
    witness's key is its ``canonical_form``.  The sibling pairs are the
    pairs whose path has two edges, bit ``p`` for pair ``p`` in
    ``combinations(range(n), 2)`` order, as ``graph_to_mask`` numbers
    the pairs of the target."""
    out = []
    for t in _topologies(n):
        sh = _prepare(t)
        names = tuple((v, str(LETTERS.index(s))) for v, s in t.names.items())
        siblings = sum(1 << p for p, path in enumerate(sh.paths)
                       if len(path) == 2)
        slots = tuple({y: -1 - e for y, e in nb} for nb in sh.nbrs)
        consts: list[str] = []
        index: list[int] = []
        for x in canonical_form(LabeledTree(t.nv, slots, dict(names))):
            if isinstance(x, int):
                index.append(-1 - x)
            else:
                index.append(len(sh.edges) + len(consts))
                consts.append(x)
        out.append(_Labeled(sh, names, tuple(consts), itemgetter(*index),
                            siblings))
    return tuple(out)


# ======================================================================
# Isomorphism-class bookkeeping via bitmasks
# ======================================================================

def _pair_maps(n: int) -> list[tuple[int, ...]]:
    """Per permutation of ``range(n)``, the pair each pair goes to."""
    pairs = list(combinations(range(n), 2))
    index = {pr: i for i, pr in enumerate(pairs)}
    return [tuple(index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs)
            for perm in permutations(range(n))]


def _arc_maps(n: int) -> list[tuple[int, ...]]:
    """Per permutation of ``range(n)``, the arc bit each arc bit goes to."""
    maps = []
    for perm in permutations(range(n)):
        remap = [0] * (n * n)
        for x in range(n):
            for y in range(n):
                if x != y:
                    remap[x * n + y] = perm[x] * n + perm[y]
        maps.append(tuple(remap))
    return maps


def _columns(remaps: list[tuple[int, ...]], bits: int) -> tuple:
    """Per 4-bit chunk of a ``bits``-bit mask, per value of the chunk: its
    image under every remap, in order.  Each entry is the one without its
    lowest set bit ORed with that bit's images."""
    columns = []
    for c in range(0, max(bits, 1), 4):
        col = [(0,) * len(remaps)]
        for v in range(1, 1 << min(4, bits - c)):
            low = v & -v
            if v == low:
                p = c + low.bit_length() - 1
                col.append(tuple(1 << remap[p] for remap in remaps))
            else:
                col.append(tuple(map(or_, col[v ^ low], col[low])))
        columns.append(tuple(col))
    return tuple(columns)


@cache
def _pair_columns(n: int) -> tuple:
    """``_columns`` of the pair masks on ``n`` vertices."""
    return _columns(_pair_maps(n), n * (n - 1) // 2)


@cache
def _arc_columns(n: int) -> tuple:
    """``_columns`` of the arc masks on ``n`` vertices."""
    return _columns(_arc_maps(n), n * n)


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


def _images(mask: int, columns: tuple) -> Iterable[int]:
    """The image of ``mask`` under each permutation of ``columns``, in
    order: one column read per nonzero 4-bit chunk, ORed across chunks."""
    images = columns[0][mask & 15]
    for col in columns[1:]:
        mask >>= 4
        if not mask:
            break
        if mask & 15:
            images = map(or_, images, col[mask & 15])
    return images


def canonical_mask_of(mask: int, n: int) -> int:
    """Smallest pair-mask over all vertex relabelings."""
    return min(_images(mask, _pair_columns(n)))


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
    return min(_images(mask, _arc_columns(n)))


def canonical_arc_mask(d: OrientedGraph) -> int:
    return canonical_arc_mask_of(oriented_to_mask(d), d.n)


def _orbit_minima(masks: Iterable[int], columns: tuple) -> set[int]:
    """The smallest image of every orbit that ``masks`` meets: each orbit
    is generated once, at its first mask, and marked seen as a whole."""
    seen: set[int] = set()
    out = set()
    for mask in masks:
        if mask not in seen:
            orbit = set(_images(mask, columns))
            seen |= orbit
            out.add(min(orbit))
    return out


@cache
def all_graph_classes(n: int) -> tuple[int, ...]:
    """Canonical masks of all isomorphism classes of graphs on n vertices."""
    return tuple(sorted(_orbit_minima(range(1 << n * (n - 1) // 2),
                                      _pair_columns(n))))


@cache
def all_oriented_classes(n: int) -> tuple[int, ...]:
    """Canonical arc masks of all oriented-graph isomorphism classes."""
    choices = [(0, 1 << (u * n + v), 1 << (v * n + u))
               for u, v in combinations(range(n), 2)]
    return tuple(sorted(_orbit_minima(map(sum, product(*choices)),
                                      _arc_columns(n))))


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


def explainable_set(budget: EnumerationBudget, k: int) -> ExplainableSet:
    """Every graph realizable as a level-``k`` relation within budget,
    one canonical mask per isomorphism class, keyed by leaf count."""
    budget.validate(k)
    W = budget.resolve_weight(k)
    out: dict[int, frozenset[int]] = {}
    for n in range(1, budget.max_leaves + 1):
        acc: set[int] = set()
        for shape in _shapes(n):
            min_w = (shape.min_w_canonical if budget.canonical_only
                     else shape.min_w_free)
            acc |= enumerate_relation_masks(
                len(shape.paths), shape.paths, min_w, W, k,
                budget.zero_discrete_only)
        out[n] = frozenset(_orbit_minima(acc, _pair_columns(n)))
    return ExplainableSet(k, budget, out)


def _split_pairs(g: Graph) -> int:
    """The pair mask of the vertex pairs x, y of ``g`` that no tree
    realizing ``g`` hangs from one vertex: N(x) - y and N(y) - x differ
    but meet."""
    nb = [sum(1 << u for u in adj) for adj in g.adj]
    out = 0
    for p, (x, y) in enumerate(combinations(range(g.n), 2)):
        a, b = nb[x] & ~(1 << y), nb[y] & ~(1 << x)
        if a != b and a & b:
            out |= 1 << p
    return out


def all_witnesses(g: Graph, budget: EnumerationBudget, k: int) -> list[LabeledTree]:
    """Every tree within budget whose level-``k`` relation is exactly
    ``g`` (leaves named after its vertices), each weighting of each
    labeled topology once, sorted by ``canonical_form``.  Empty when
    ``g.n`` exceeds the budget.

    A labeled topology is searched only if each of its sibling pairs x, y
    (``_Labeled.siblings``) has N(x) - y and N(y) - x equal or disjoint
    in ``g``.  Proof: with x and y on one vertex p, every other leaf z
    lies at w_x + d(p, z) from x and at w_y + d(p, z) from y.  So x and y
    are related to the same leaves (w_x = w_y) or to no common one
    (w_x != w_y), whatever the level, the cap or the weight
    restrictions, and a topology with a pair of ``_split_pairs(g)``
    among its siblings has no witness."""
    budget.validate(k)
    if g.n == 0 or g.n > budget.max_leaves:
        return []
    W = budget.resolve_weight(k)
    target = graph_to_mask(g)
    split = _split_pairs(g)
    found: list[tuple[tuple, LabeledTree]] = []
    with collector_paused():
        for lt in _labeled(g.n):
            if lt.siblings & split:
                continue
            sh = lt.shape
            min_w = (sh.min_w_canonical if budget.canonical_only
                     else sh.min_w_free)
            for w in matching_weightings(len(sh.paths), sh.paths, min_w, W,
                                         k, budget.zero_discrete_only, target):
                # the topology is a valid tree: no re-validating build
                adj = tuple([{y: w[e] for y, e in nb} for nb in sh.nbrs])
                found.append((lt.key(w + lt.consts),
                              LabeledTree(len(adj), adj, dict(lt.names))))
    found.sort(key=itemgetter(0))
    return [t for _, t in found]


def rooted_explainable_set(budget: EnumerationBudget,
                           k: int) -> RootedExplainableSet:
    """Every oriented graph realizable as a level-``k`` directed relation
    of a rooted tree within budget, the root at each interior vertex or
    at each split of an edge into two non-negative parts."""
    budget.validate(k)
    W = budget.resolve_weight(k)
    out: dict[int, frozenset[int]] = {}
    for n in range(1, budget.max_leaves + 1):
        acc: set[int] = set()
        for shape in _shapes(n):
            min_w = (shape.min_w_canonical if budget.canonical_only
                     else shape.min_w_free)
            acc |= enumerate_rooted_arc_masks(
                n, [], shape.paths, min_w, W, k, budget.zero_discrete_only)
        out[n] = frozenset(_orbit_minima(acc, _arc_columns(n)))
    return RootedExplainableSet(k, budget, out)


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
    non_members: dict[int, list[int]]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _undirected_criterion(g: Graph, k: int, zero_discrete: bool) -> bool:
    if k == 2:
        if zero_discrete:
            return is_block_graph(g)
        q = quotient(g).graph
        return is_block_graph(q)
    if k == 1:
        return is_forest(g)
    raise ValueError(f"no closed-form criterion for k={k}")


def _oriented_criterion(d: OrientedGraph, zero_discrete: bool) -> bool:
    q = d if zero_discrete else directed_quotient(d).graph
    return (all(len(ins) <= 1 for ins in q.in_adj)
            and is_forest(underlying_graph(q)))


def check_characterization(budget: EnumerationBudget,
                           k: int = 2) -> CharacterizationReport:
    """Compare the enumerated explainable sets with the closed-form
    membership criteria, both directions, on every isomorphism class
    within budget.

    For k=2 the undirected criterion is: the false-twin quotient is a
    block graph (the graph itself, under ``zero_discrete_only``); the
    oriented criterion, ``recognize_oriented``'s closed form, is forest
    shape plus in-degree <= 1 in the twin quotient (in the graph itself
    under ``zero_discrete_only``).  The
    oriented side stays capped at 4 vertices to keep the report text
    byte-stable, not for cost.  For k=1 the criterion is forest; it holds
    only under ``zero_discrete_only`` (or trivially for max_leaves <= 3),
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
                                  non_members)


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
