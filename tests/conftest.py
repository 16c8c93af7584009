"""Shared generators and small reference implementations for the tests.

Everything here is deliberately naive: the point is to cross-check the
package against code with no shared logic.
"""

import math
from functools import cache, reduce
from itertools import combinations
from types import SimpleNamespace
from typing import NamedTuple

from exact2rel import (GraphFormatError, LabeledTree, RootedLabeledTree,
                       TreeFormatError, VerificationResult, canonicalize,
                       enumerate_rooted,
                       enumerate_topologies, format_rooted_newick,
                       from_arc_list, from_edge_list, is_canonical,
                       is_canonical_rooted, leaf_distance_matrix,
                       underlying_tree)
from exact2rel._kernel import (enumerate_relation_masks,
                               enumerate_rooted_arc_masks, matching_weightings)
from exact2rel.graphs import collector_paused
from exact2rel.newick import _Parser
from exact2rel.oracle import (LETTERS, _arc_columns, _orbit_minima,
                              _pair_columns, _prepare, graph_to_mask)
from exact2rel.trees import _compact


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edge_list(n, [pr for p, pr in enumerate(pairs)
                                 if mask >> p & 1])


def all_labeled_oriented(n):
    """Every oriented graph on n vertices: each pair absent, forward,
    or backward."""
    pairs = list(combinations(range(n), 2))
    for code in range(3 ** len(pairs)):
        arcs, rest = [], code
        for u, v in pairs:
            rest, state = divmod(rest, 3)
            if state == 1:
                arcs.append((u, v))
            elif state == 2:
                arcs.append((v, u))
        yield from_arc_list(n, arcs)


def random_graph(rng, n, p=0.5):
    return from_edge_list(n, [pr for pr in combinations(range(n), 2)
                              if rng.random() < p])


def random_tree(rng, nv, max_weight=3):
    """Random weighted tree on ``nv`` vertices by sequential attachment.

    Degree-2 vertices and 0-weight edges are likely, which is what the
    canonicalization tests want.
    """
    edges = [(rng.randrange(v), v, rng.randint(0, max_weight))
             for v in range(1, nv)]
    deg = [0] * nv
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    names = {v: f"L{v}" for v in range(nv) if deg[v] <= 1}
    return LabeledTree.build(nv, edges, names)


def random_canonical_tree(rng, n_leaves, max_weight=3):
    topo = rng.choice(enumerate_topologies(n_leaves))
    interior = set(topo.interior_vertices())
    edges = []
    for u, v, _ in topo.weighted_edges():
        lo = 1 if (u in interior and v in interior) else 0
        edges.append((u, v, rng.randint(lo, max_weight)))
    return LabeledTree.build(topo.nv, edges, dict(topo.names))


def random_rooted_tree(rng, n_leaves, max_weight=3):
    while True:
        t = random_canonical_tree(rng, n_leaves, max_weight)
        roots = sorted(enumerate_rooted(t), key=format_rooted_newick)
        if roots:
            return rng.choice(roots)


def numbered(t):
    """``t`` with its leaves renamed "0" .. "n-1" in sorted-name order
    (a rooted tree keeps its root), so it can be checked against graphs."""
    rank = {s: str(i) for i, s in enumerate(t.leaf_names)}
    names = {v: rank[s] for v, s in t.names.items()}
    if isinstance(t, RootedLabeledTree):
        return RootedLabeledTree.build(t.nv, t.weighted_edges(), names,
                                       root=t.root)
    return LabeledTree.build(t.nv, t.weighted_edges(), names)


def adjacency(n, pairs, directed=False):
    """Adjacency sets on vertices ``0 .. n-1`` holding ``pairs`` (as
    out-neighbour sets when ``directed``), the form
    ``trees.relation_matches`` reads."""
    adj = [set() for _ in range(n)]
    for x, y in pairs:
        adj[x].add(y)
        if not directed:
            adj[y].add(x)
    return adj


def random_block_graph(rng, n):
    """Random block graph on exactly ``n`` vertices, possibly
    disconnected: grow by gluing small cliques at single vertices."""
    edges = []
    used = 1
    while used < n:
        if rng.random() < 0.15:
            used += 1           # seed of a separate component
            continue
        anchor = rng.randrange(used)
        extra = rng.randint(1, min(3, n - used))
        block = [anchor] + list(range(used, used + extra))
        used += extra
        edges.extend(combinations(block, 2))
    return from_edge_list(n, edges)


def random_false_twin_blowup(rng, g, max_n=12):
    """Replace each vertex by an independent class of 1-3 copies, joining
    classes completely along original edges."""
    counts = []
    total = 0
    for v in range(g.n):
        room = max_n - total - (g.n - v - 1)
        counts.append(max(1, min(rng.randint(1, 3), room)))
        total += counts[-1]
    start = []
    s = 0
    for c in counts:
        start.append(s)
        s += c
    edges = []
    for u, v in g.edges:
        edges.extend((start[u] + a, start[v] + b)
                     for a in range(counts[u]) for b in range(counts[v]))
    return from_edge_list(s, edges)


def random_arborescence_forest(rng, n):
    """Arcs parent->child with parent < child; every vertex has at most
    one parent, so each component has a unique source."""
    arcs = []
    for v in range(1, n):
        if rng.random() < 0.25:
            continue            # v starts its own component
        arcs.append((rng.randrange(v), v))
    return from_arc_list(n, arcs)


def random_directed_twin_blowup(rng, d, max_n=10):
    counts = []
    total = 0
    for v in range(d.n):
        room = max_n - total - (d.n - v - 1)
        counts.append(max(1, min(rng.randint(1, 3), room)))
        total += counts[-1]
    start = []
    s = 0
    for c in counts:
        start.append(s)
        s += c
    arcs = []
    for u, v in d.arcs:
        arcs.extend((start[u] + a, start[v] + b)
                    for a in range(counts[u]) for b in range(counts[v]))
    return from_arc_list(s, arcs)


# ----------------------------------------------------------------------
# naive references
# ----------------------------------------------------------------------

def are_isomorphic(g, h):
    """Isomorphism test by permutation search with degree pruning.

    Intended for small graphs (n <= 8); cost grows factorially beyond
    that.
    """
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False
    # group h's vertices by degree so candidate images are restricted
    deg_g = [g.degree(v) for v in range(g.n)]
    deg_h = [h.degree(v) for v in range(h.n)]

    order = sorted(range(g.n), key=lambda v: -deg_g[v])
    used = [False] * h.n
    image = [0] * g.n

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        for w in range(h.n):
            if used[w] or deg_h[w] != deg_g[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g.has_edge(u, v) != h.has_edge(image[u], w):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


def simple_cycle_edge_sets(g):
    """Edge sets of every simple cycle.  Exponential; tiny graphs only."""
    found = set()

    def extend(path, seen):
        u = path[-1]
        for w in sorted(g.adj[u]):
            if w == path[0] and len(path) >= 3:
                if path[1] < path[-1]:      # one traversal direction only
                    es = frozenset(
                        (min(a, b), max(a, b))
                        for a, b in zip(path, path[1:] + [path[0]]))
                    found.add(es)
            elif w > path[0] and w not in seen:
                extend(path + [w], seen | {w})

    for s in range(g.n):
        extend([s], {s})
    return found


def naive_blocks(g):
    """Blocks as classes of the edges-on-a-common-cycle relation, with
    bridges as 2-vertex blocks."""
    edges = sorted(g.edges)
    parent = {e: e for e in edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for es in simple_cycle_edge_sets(g):
        first, *rest = sorted(es)
        for other in rest:
            parent[find(other)] = find(first)
    groups = {}
    for e in edges:
        groups.setdefault(find(e), set()).update(e)
    return {frozenset(b) for b in groups.values()}


def naive_cut_vertices(g):
    def ncomp(skip):
        seen = set()
        c = 0
        for s in range(g.n):
            if s == skip or s in seen:
                continue
            c += 1
            stack = [s]
            seen.add(s)
            while stack:
                for w in g.adj[stack.pop()]:
                    if w != skip and w not in seen:
                        seen.add(w)
                        stack.append(w)
        return c

    base = ncomp(None)
    return {v for v in range(g.n)
            if g.degree(v) >= 1 and ncomp(v) > base}


def reference_verify(t, g, k):
    """``verify`` as an all-pairs comparison of path weights with the
    graph's edges."""
    want = {str(v) for v in range(g.n)}
    have = set(t.names.values())
    if want != have:
        diff = tuple(sorted(want.symmetric_difference(have)))
        return VerificationResult(False, diff, (), ())
    dm = leaf_distance_matrix(t)
    missing = []
    extra = []
    for a, b in combinations(dm.names, 2):
        u, v = sorted((int(a), int(b)))
        related = dm.get(a, b) == k
        if related and not g.has_edge(u, v):
            extra.append((u, v))
        elif not related and g.has_edge(u, v):
            missing.append((u, v))
    ok = not missing and not extra
    return VerificationResult(ok, (), tuple(sorted(missing)),
                              tuple(sorted(extra)))


def parents(t):
    """Each vertex's parent in the rooted tree ``t`` (``None`` at the
    root), from a breadth-first walk of its own."""
    up = {t.root: None}
    order = [t.root]
    for x in order:
        for y in t.adj[x]:
            if y not in up:
                up[y] = x
                order.append(y)
    return up


def ancestors(t, v, up=None):
    """v itself, then each ancestor up to and including the root of the
    rooted tree ``t``; ``up`` is ``parents(t)``, walked if not given."""
    up = up or parents(t)
    out = [v]
    while up[out[-1]] is not None:
        out.append(up[out[-1]])
    return out


def up_weight(t, v, ancestor, up=None):
    """Weight of the path from ``v`` up to its ``ancestor`` in ``t``."""
    up = up or parents(t)
    total = 0
    while v != ancestor:
        p = up[v]
        total += t.adj[v][p]
        v = p
    return total


def lca(t, a, b, up=None):
    """Lowest common ancestor of ``a`` and ``b`` in the rooted tree ``t``."""
    up = up or parents(t)
    anc = set(ancestors(t, a, up))
    x = b
    while x not in anc:
        x = up[x]
    return x


def reference_directed_relation_pairs(t, k):
    """``directed_relation_pairs`` pair by pair, through naive ancestor
    walks."""
    out = set()
    names = t.leaf_names
    up = parents(t)
    for a in names:
        for b in names:
            if a == b:
                continue
            x, y = t.vertex_of(a), t.vertex_of(b)
            m = lca(t, x, y, up)
            if up_weight(t, x, m, up) == 0 and up_weight(t, y, m, up) == k:
                out.add((a, b))
    return out


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


def reference_matching_weightings(n_pairs, paths, min_w, max_w, k,
                                  zero_discrete):
    """The unpruned odometer the relation kernels replaced: every
    admitted weighting, edge 0 varying fastest, grouped by its relation
    mask.  ``matching_weightings(..., target)`` must equal the list
    under ``target`` (or ``[]``), and ``enumerate_relation_masks`` the
    set of keys."""
    n_edges = len(min_w)
    w = list(min_w)
    found = {}
    while True:
        mask = 0
        ok = True
        for p in range(n_pairs):
            d = 0
            for e in paths[p]:
                d += w[e]
            if d == k:
                mask |= 1 << p
            elif d == 0 and zero_discrete:
                ok = False
                break
        if ok:
            found.setdefault(mask, []).append(tuple(w))
        e = 0
        while e < n_edges and w[e] == max_w:
            w[e] = min_w[e]
            e += 1
        if e == n_edges:
            return found
        w[e] += 1


def reference_configurations(n_pairs, paths, min_w_canonical, min_w_free,
                             max_w, k):
    """``reference_matching_weightings`` in all four configurations from
    one walk over the free box: each weighting's mask, zero-discrete
    flag and canonical flag are recorded once, and each configuration
    keeps the weightings it admits.  The walk sets the last edge
    outermost and edge 0 innermost, the odometer's order; a pair's
    weight is read when the smallest edge on its path is set.  A
    sub-box comes in the same order, so every list is in the order a
    direct call gives.  Yields ``(min_w, zero_discrete, by_mask)``,
    canonical weights first, zero-discrete off first."""
    n_edges = len(min_w_free)
    on_edge = [[p for p, path in enumerate(paths) if e in path]
               for e in range(n_edges)]
    closed_at = [[p for p, path in enumerate(paths) if min(path) == e]
                 for e in range(n_edges)]
    d = [0] * n_pairs
    w = [0] * n_edges
    walked = []

    def walk(e, mask, zd, canon):
        for x in range(min_w_free[e], max_w + 1):
            w[e] = x
            for p in on_edge[e]:
                d[p] += x
            m, z = mask, zd
            for p in closed_at[e]:
                if d[p] == k:
                    m |= 1 << p
                if d[p] == 0:
                    z = False
            c = canon and x >= min_w_canonical[e]
            if e:
                walk(e - 1, m, z, c)
            else:
                walked.append((tuple(w), m, z, c))
            for p in on_edge[e]:
                d[p] -= x

    if n_edges:
        walk(n_edges - 1, 0, True, True)
    else:
        walked.append(((), 0, True, True))
    for min_w, canonical in ((min_w_canonical, True), (min_w_free, False)):
        for zero_discrete in (False, True):
            by_mask = {}
            for ws, mask, zd, canon in walked:
                if (canon or not canonical) and (zd or not zero_discrete):
                    by_mask.setdefault(mask, []).append(ws)
            yield min_w, zero_discrete, by_mask


# The two mask kernels as they were before their states became level
# masks: kept as the references the rewritten kernels must equal.

@cache
def _plan(paths: tuple[tuple[int, ...], ...], n_edges: int) -> tuple[
        tuple[int, ...], tuple[tuple[tuple[int, bool], ...], ...]]:
    """An edge order that completes leaf-pair paths early: each next edge
    leaves the fewest pairs open (started, not complete), lowest index
    first.  Per position: (pair through the edge, path complete there?).
    Computed once per shape for ``previous_relation_masks``."""
    through: list[list[int]] = [[] for _ in range(n_edges)]
    for p, path in enumerate(paths):
        for e in path:
            through[e].append(p)
    left = [len(path) for path in paths]
    opened: set[int] = set()
    order: list[int] = []
    steps: list[tuple[tuple[int, bool], ...]] = []
    todo = list(range(n_edges))
    while todo:
        e = min(todo, key=lambda e: len(opened.union(through[e]))
                - sum(left[p] == 1 for p in through[e]))
        todo.remove(e)
        order.append(e)
        steps.append(tuple((p, left[p] == 1) for p in through[e]))
        for p in through[e]:
            left[p] -= 1
        opened = {p for p in opened.union(through[e]) if left[p]}
    return tuple(order), tuple(steps)


def previous_relation_masks(n_pairs: int, paths: list[list[int]],
                            min_w: list[int], max_w: int, k: int,
                            zero_discrete: bool) -> set[int]:
    """All achievable relation bitmasks for one tree shape.

    A dynamic program over the edges in ``_plan`` order.  A state is the
    mask of the complete pairs plus each open pair's partial path weight
    capped at ``k + 1``; equal states are merged after each edge.

    Args:
        n_pairs: number of leaf pairs; bit ``p`` of a mask says pair
            ``p`` is related (path weight exactly ``k``).
        paths: per pair, the edge indices on its path.
        min_w: per edge, the smallest allowed weight (1 on interior
            edges when only canonical trees are wanted, else 0).
        max_w: largest allowed weight, shared by all edges.
        k: relation level.
        zero_discrete: skip weightings placing two leaves at weight 0.
    """
    order, steps = _plan(tuple(map(tuple, paths)), len(min_w))
    cap = k + 1
    opened: list[int] = []  # the open pairs, in state order
    states = {(0,)}  # (mask, partial weight of each open pair, ...)
    for e, step in zip(order, steps):
        pos = {p: i for i, p in enumerate(opened, 1)}
        closing = [(pos.get(p, 0), 1 << p) for p, closes in step if closes]
        same = [pos[p] for p in opened if p not in dict(step)]
        grown = [pos[p] for p, closes in step if not closes and p in pos]
        fresh = [p for p, closes in step if not closes and p not in pos]
        opened = [opened[i - 1] for i in same + grown] + fresh
        nxt = set()
        for state in states:
            kept = tuple(state[i] for i in same)
            for w in range(min_w[e], max_w + 1):
                mask = state[0]
                for i, bit in closing:
                    d = w + state[i] if i else w
                    if d == k:
                        mask |= bit
                    elif d == 0 and zero_discrete:
                        break
                else:
                    nxt.add((mask, *kept,
                             *[min(state[i] + w, cap) for i in grown],
                             *[min(w, cap)] * len(fresh)))
        states = nxt
    return {state[0] for state in states}


def previous_rooted_arc_masks(
        n_leaves: int, pair_index: list[list[int]], paths: list[list[int]],
        min_w: list[int], max_w: int, k: int, zero_discrete: bool,
        interior_roots: list[list[list[int]]],
        edge_roots: list[tuple[int, int, list[int], list[list[int]]]]
) -> set[int]:
    """All arc bitmasks of the directed relation over every weighting and
    every root placement of one tree shape; bit ``x * n_leaves + y`` says
    x -> y.  Roots are every interior vertex and every split (a, w_e - a)
    of an edge.  ``interior_roots[r][x]`` lists the edges from leaf x to
    interior vertex r; ``edge_roots[e]`` is ``(u_is_leaf, v_is_leaf,
    side, near)``: ``side[x]`` is 1 for leaves on the u side, ``near[x]``
    lists the edges from x to its near endpoint.

    A dynamic program over subtrees: a state is an arc mask plus each
    leaf's depth below the top, capped at ``k + 1`` (-1 if outside).  Where
    subtrees meet, x -> y is set iff x is at depth 0 and y at ``k``; under
    ``zero_discrete`` two leaves at depth 0 drop the state.  The states
    below an edge, weight included, are built once per call, keyed by the
    edge and the leaf set below it, and shared by every root; an edge's
    split is applied only at the root.  A zero part toward an interior
    endpoint is skipped: that root is the endpoint's own placement.
    ``pair_index`` and ``paths`` are unused; they keep the signature the
    benchmark's hooks bind (``min_w``, ``max_w`` at 3-4).
    """
    n, cap, full = n_leaves, k + 1, (1 << n_leaves) - 1
    memo: dict[tuple[int, int], set] = {}  # (edge, leaves below) -> states
    step = [[min(d + w, cap) for d in range(cap + 1)] + [-1]
            for w in range(max_w + 1)]  # step[w][d]: depth d after w; -1 stays

    def branches(near: list[list[int]], leaves: int) -> list[tuple[int, int]]:
        """(edge, leaves beyond) per branch where ``near`` leads ``leaves``."""
        out: dict[int, int] = {}
        for x in range(n):
            if leaves >> x & 1 and near[x]:
                out[near[x][-1]] = out.get(near[x][-1], 0) | 1 << x
        return sorted(out.items())

    def shift(states: set, lo: int, hi: int) -> set:
        return {(m, tuple(map(step[w].__getitem__, ds)))
                for m, ds in states for w in range(lo, hi + 1)}

    def merge(a: set, b: set) -> set:
        # per state: mask, depths, rows of the depth-0 leaves, depth-k columns
        ends = [[(m, ds, sum(1 << x * n for x, d in enumerate(ds) if d == 0),
                  sum(1 << y for y, d in enumerate(ds) if d == k))
                 for m, ds in states] for states in (a, b)]
        out = set()
        for ma, da, za, ka in ends[0]:
            for mb, db, zb, kb in ends[1]:
                if not (zero_discrete and za and zb):
                    out.add((ma | mb | za * kb | zb * ka,
                             tuple(map(max, da, db))))
        return out

    def join(near: list[list[int]], leaves: int) -> set:
        """The states at the vertex that ``near`` leads ``leaves`` to."""
        alone = {(0, tuple(0 if leaves == 1 << y else -1 for y in range(n)))}
        return reduce(merge, [memo[b] for b in branches(near, leaves)], alone)

    def top(near: list[list[int]], leaves: int) -> set:
        """``join`` after filling ``memo`` below, children first."""
        stack = [b for b in branches(near, leaves) if b not in memo]
        while stack:
            e, side = stack[-1]
            below = edge_roots[e][3]
            missing = [b for b in branches(below, side) if b not in memo]
            stack += missing
            if not missing:
                memo[stack.pop()] = shift(join(below, side), min_w[e], max_w)
        return join(near, leaves)

    masks = {m for rts in interior_roots for m, _ in top(rts, full)}
    for e, (u_leaf, v_leaf, side, near) in enumerate(edge_roots):
        u_side = sum(side[x] << x for x in range(n))
        u, v = top(near, u_side), top(near, full ^ u_side)
        for w in range(min_w[e], max_w + 1):
            for a in range(w + 1):
                if (a or u_leaf) and (a < w or v_leaf):
                    root = merge(shift(u, a, a), shift(v, w - a, w - a))
                    masks.update(m for m, _ in root)
    return masks


def pair_index_of(n):
    """``pair_index[x][y]``: the number of the pair {x, y} in
    ``combinations(range(n), 2)`` order, for x != y."""
    index = [[0] * n for _ in range(n)]
    for p, (x, y) in enumerate(combinations(range(n), 2)):
        index[x][y] = index[y][x] = p
    return index


def reference_rooted_arc_masks(n_leaves, pair_index, paths, min_w_canonical,
                               max_w, k, interior_roots, edge_roots):
    """The unpruned odometer the rooted kernel replaced: every weighting
    with weights 0..``max_w``, every root placement, and the arc mask of
    each from every ordered leaf pair.  The shape is walked once; the
    result is the mask set of each kernel configuration, keyed
    ``(canonical_only, zero_discrete)``.  Canonical drops weightings
    below ``min_w_canonical`` and zero stubs toward an interior vertex;
    zero-discrete drops weightings with a leaf pair at weight 0.  The
    other arguments are those of ``enumerate_rooted_arc_masks``, which
    must return the set under its configuration."""
    n = n_leaves

    def arc_mask(pd, dr):
        mask = 0
        for x in range(n):
            for y in range(n):
                if x != y and pd[pair_index[x][y]] == k and dr[y] == dr[x] + k:
                    mask |= 1 << (x * n + y)
        return mask

    def record(mask, stub_ok):
        for canonical in (False, True):
            if canonical and not (canonical_w and stub_ok):
                continue
            out[canonical, False].add(mask)
            if not zero:
                out[canonical, True].add(mask)

    out = {(c, z): set() for c in (False, True) for z in (False, True)}
    n_edges = len(min_w_canonical)
    w = [0] * n_edges
    pd = [0] * (n * (n - 1) // 2)
    dr = [0] * n
    while True:
        zero = False
        for p in range(len(paths)):
            d = 0
            for e in paths[p]:
                d += w[e]
            pd[p] = d
            zero = zero or d == 0
        canonical_w = all(x >= m for x, m in zip(w, min_w_canonical))
        for rts in interior_roots:
            for x in range(n):
                d = 0
                for e in rts[x]:
                    d += w[e]
                dr[x] = d
            record(arc_mask(pd, dr), True)
        for ei in range(n_edges):
            u_is_leaf, v_is_leaf, side, near = edge_roots[ei]
            we = w[ei]
            base = [0] * n
            for x in range(n):
                d = 0
                for e in near[x]:
                    d += w[e]
                base[x] = d
            for a in range(we + 1):
                stub_ok = ((a > 0 or u_is_leaf) and (a < we or v_is_leaf))
                for x in range(n):
                    dr[x] = base[x] + (a if side[x] else we - a)
                record(arc_mask(pd, dr), stub_ok)
        e = 0
        while e < n_edges and w[e] == max_w:
            w[e] = 0
            e += 1
        if e == n_edges:
            return out
        w[e] += 1


def reference_images(mask, remaps):
    """The image of ``mask`` under each bit remap, in order, one bit at a
    time: the loop the oracle's column tables replaced."""
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


def reference_explainable_masks(budget, k, rooted=False):
    """``explainable_set(budget, k).masks`` (``rooted_explainable_set``
    when ``rooted``) from one kernel call per labeled topology, not one
    per unlabeled shape."""
    W = budget.resolve_weight(k)
    out = {1: frozenset({0})} if rooted else {}
    for n in range(1 + rooted, budget.max_leaves + 1):
        acc = set()
        for topo in enumerate_topologies(n):
            sh = _prepare(topo)
            min_w = (sh.min_w_canonical if budget.canonical_only
                     else sh.min_w_free)
            if rooted:
                acc |= enumerate_rooted_arc_masks(
                    n, pair_index_of(n), sh.paths, min_w, W, k,
                    budget.zero_discrete_only, sh.interior_roots,
                    sh.edge_roots)
            else:
                acc |= enumerate_relation_masks(
                    len(sh.paths), sh.paths, min_w, W, k,
                    budget.zero_discrete_only)
        columns = _arc_columns(n) if rooted else _pair_columns(n)
        out[n] = frozenset(_orbit_minima(acc, columns))
    return out


def _tree_with_weights(t, shape, weights, rename=None):
    """The topology ``t`` with weight ``weights[i]`` on edge ``i`` of its
    prepared ``shape``, leaves renamed by ``rename``, built validated."""
    edges = [(u, v, weights[i]) for i, (u, v) in enumerate(shape.edges)]
    names = t.names
    if rename is not None:
        names = {v: rename[s] for v, s in t.names.items()}
    return LabeledTree.build(t.nv, edges, names)


def reference_all_witnesses(g, budget, k):
    """``all_witnesses`` as it was before the shapes were cached: one
    ``_prepare`` per topology per call, the weightings from
    ``matching_weightings`` (which ``test_kernel`` holds to the
    odometer), one validated tree and one ``reference_canonical_form``
    per weighting, sorted by that form.  Built with the cyclic collector
    paused, as the listing is."""
    budget.validate(k)
    if g.n == 0 or g.n > budget.max_leaves:
        return []
    W = budget.resolve_weight(k)
    target = graph_to_mask(g)
    rename = {LETTERS[i]: str(i) for i in range(g.n)}
    found = {}
    with collector_paused():
        for topo in enumerate_topologies(g.n):
            shape = _prepare(topo)
            min_w = (shape.min_w_canonical if budget.canonical_only
                     else shape.min_w_free)
            for wvec in matching_weightings(
                    len(shape.paths), shape.paths, min_w, W, k,
                    budget.zero_discrete_only, target):
                t = _tree_with_weights(topo, shape, wvec, rename)
                found.setdefault(reference_canonical_form(t), t)
    return [found[key] for key in sorted(found)]


def brute_force_rootings(t: LabeledTree):
    """All rooted canonical trees whose unrooted reduction is ``t``,
    found by trying every placement directly: the root at each interior
    vertex, or splitting each edge weight into (a, w - a) for every a.
    Placements failing rooted canonicity or not reducing back to ``t``
    are discarded.  Independent of the two-move enumeration in
    ``rooted.enumerate_rooted``; used to validate it.
    """
    if t.nv < 2:
        raise ValueError("cannot root a single-vertex tree")
    if not is_canonical(t):
        raise ValueError("input tree must be canonical")
    out = set()
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


def reference_rootings(t: LabeledTree):
    """``rooted.enumerate_rooted``'s placements in its order, each through
    a validated ``RootedLabeledTree.build`` from an edge list, the way
    it made them before rootings shared their input's storage."""
    edges = t.weighted_edges()
    for v in t.interior_vertices():
        yield RootedLabeledTree.build(t.nv, edges, t.names, root=v)
    r = t.nv
    for i, (u, v, m) in enumerate(edges):
        if m == 0:
            continue
        for j in range(0 if u in t.names else 1,
                       m + 1 if v in t.names else m):
            yield RootedLabeledTree.build(
                t.nv + 1, edges[:i] + edges[i + 1:] + [(u, r, j), (r, v, m - j)],
                t.names, root=r)


def reference_enumerate_rooted(t: LabeledTree):
    """``rooted.enumerate_rooted`` as three moves, filtering each edge
    list by endpoints per rooting: root at an interior vertex; subdivide
    a positive-weight leaf edge, hanging the leaf from the new root by a
    0-edge; subdivide an edge of weight m > 1 into positive parts
    (j, m - j).  Used to gate the one-loop form."""
    if t.nv < 2:
        raise ValueError("cannot root a single-vertex tree")
    if not is_canonical(t):
        raise ValueError("input tree must be canonical")

    out = set()
    base_edges = t.weighted_edges()

    for v in t.interior_vertices():
        out.add(RootedLabeledTree.build(t.nv, base_edges, t.names, root=v))

    r = t.nv  # id for the inserted root
    for v in sorted(t.names):  # the leaves: the vertices of degree 1
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


def reference_non_clique_block(g, dec):
    """``graphs.non_clique_block`` as a test of every vertex pair of
    each block in sorted order, the loop ``recognize`` ran."""
    for blk in dec.blocks:
        vs = sorted(blk)
        if any(not g.has_edge(u, v) for u, v in combinations(vs, 2)):
            return blk
    return None


def reference_canonicalize(t):
    """``canonicalize`` as a rescan from the first vertex after every
    smoothing or contraction."""
    adj = {v: dict(t.adj[v]) for v in range(t.nv)}
    names = dict(t.names)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in names:
                continue
            nbrs = adj[v]
            if len(nbrs) == 2:
                (a, wa), (b, wb) = nbrs.items()
                del adj[v]
                del adj[a][v]
                del adj[b][v]
                adj[a][b] = wa + wb
                adj[b][a] = wa + wb
                changed = True
                break
            if len(nbrs) >= 3:
                target = None
                for u, w in nbrs.items():
                    if w == 0 and u not in names:
                        target = u
                        break
                if target is not None:
                    del adj[target][v]
                    del adj[v][target]
                    for u, w in adj[v].items():
                        del adj[u][v]
                        adj[u][target] = w
                        adj[target][u] = w
                    del adj[v]
                    changed = True
                    break
    return _compact(adj, names)


def reference_restrict(t, leaf_subset):
    """``restrict`` as a rescan of every vertex after each round of
    pruning and from the first vertex after every smoothing."""
    keep = set(leaf_subset)
    if not keep:
        raise ValueError("leaf subset must be non-empty")
    unknown = keep - set(t.names.values())
    if unknown:
        raise ValueError(f"not leaves of this tree: {sorted(unknown)}")

    if len(keep) == 1:
        (name,) = keep
        return LabeledTree.build(1, [], {0: name})

    adj = {v: dict(t.adj[v]) for v in range(t.nv)}
    names = {v: s for v, s in t.names.items() if s in keep}

    # prune: repeatedly remove unnamed (or dropped-name) degree<=1 vertices
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in names:
                continue
            if len(adj[v]) <= 1:
                for u in list(adj[v]):
                    del adj[u][v]
                del adj[v]
                changed = True
    # smooth degree-2 pass-through vertices
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in names or len(adj[v]) != 2:
                continue
            (a, wa), (b, wb) = adj[v].items()
            del adj[v]
            del adj[a][v]
            del adj[b][v]
            adj[a][b] = wa + wb
            adj[b][a] = wa + wb
            changed = True
            break
    return _compact(adj, names)


def reference_underlying_tree(t):
    """``underlying_tree`` as a rescan of every vertex after each round
    of pruning."""
    adj = {v: dict(t.adj[v]) for v in range(t.nv)}
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


# Recursive serializers: one function per form, each walking the tree
# from the top and sorting children by (smallest leaf, weight, form).

def _serialize(t, v, parent):
    if v in t.names:
        return ("L", t.names[v])
    entries = []
    for u, w in t.adj[v].items():
        if u == parent:
            continue
        sub = _serialize(t, u, v)
        entries.append((_min_leaf(sub), w, sub))
    entries.sort()
    return ("I", tuple(entries))


def _min_leaf(serial):
    if serial[0] == "L":
        return serial[1]
    return min(e[0] for e in serial[1])


def _subtree_text(t, v, parent):
    if v in t.names:
        return t.names[v], t.names[v]
    parts = []
    for u, w in t.adj[v].items():
        if u == parent:
            continue
        key, text = _subtree_text(t, u, v)
        parts.append((key, w, text))
    parts.sort()
    inner = ",".join(f"{text}:{w}" for _, w, text in parts)
    return parts[0][0], f"({inner})"


def _anchor(t):
    (anchor,) = t.adj[t.vertex_of(t.leaf_names[0])].keys()
    return anchor


def reference_canonical_form(t):
    if t.n_leaves == 1:
        return ("V", t.leaf_names[0])
    if t.nv == 2:
        a, b = sorted(t.names.values())
        (w,) = [w for _, _, w in t.weighted_edges()]
        return ("E", a, b, w)
    return ("T", _serialize(t, _anchor(t), None))


def reference_format_newick(t):
    if t.n_leaves == 1:
        return f"{t.leaf_names[0]};"
    if t.nv == 2:
        a, b = t.leaf_names
        w = t.adj[t.vertex_of(a)][t.vertex_of(b)]
        return f"({b}:{w}){a};"
    return _subtree_text(t, _anchor(t), None)[1] + ";"


def reference_rooted_canonical_form(t):
    return ("R", _serialize(t, t.root, None))


def reference_format_rooted_newick(t):
    return _subtree_text(t, t.root, None)[1] + ";"


def flat_form(form):
    """A nested form as a flat key, without recursion: each tuple as its
    items and a closing ``""``, as ``canonical_form`` writes its key."""
    out = []
    stack = [form]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.append("")
            stack += reversed(x)
        else:
            out.append(x)
    return tuple(out)


def reference_unlabeled_shapes(n):
    """``unlabeled_shapes`` keyed as it was: the first topology of each
    smallest recursive form hung from an interior vertex, with every
    leaf name blanked."""
    seen = {}
    for t in enumerate_topologies(n):
        blank = SimpleNamespace(adj=t.adj, names=dict.fromkeys(t.names, ""))
        seen.setdefault(min((_serialize(blank, v, None)
                             for v in t.interior_vertices()), default=()), t)
    return list(seen.values())


class _RecursiveParser(_Parser):
    """The Newick reader as one recursive call per node."""

    def node(self):
        children, name = [], None
        if self.peek() == "(":
            self.take("(")
            while True:
                child = self.node()
                children.append((child, self.weight()))
                if self.peek() == ",":
                    self.take(",")
                    continue
                break
            self.take(")")
        name = self.name()
        if not children and name is None:
            raise self.error("expected a leaf name or '('")
        return children, name

    def tree(self):
        top = self.node()
        self.take(";")
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing text after ';'")
        return top


def _collect(node, counter, edges, names):
    vid = counter[0]
    counter[0] += 1
    children, name = node
    for child, w in children:
        edges.append((vid, _collect(child, counter, edges, names), w))
    if not children:
        names[vid] = name
    return vid


def _reference_read(text):
    top = _RecursiveParser(text).tree()
    counter, edges, names = [0], [], {}
    _collect(top, counter, edges, names)
    return top, counter[0], edges, names


def reference_parse_newick(text):
    top, nv, edges, names = _reference_read(text)
    children, name = top
    if len(children) == 1 and name is not None:
        names[0] = name
    try:
        return LabeledTree.build(nv, edges, names)
    except ValueError as exc:
        raise TreeFormatError(str(exc)) from None


def reference_parse_rooted_newick(text):
    top, nv, edges, names = _reference_read(text)
    if not top[0]:
        raise TreeFormatError(
            "a rooted tree needs '(...)' around the root's children")
    try:
        return RootedLabeledTree.build(nv, edges, names, root=0)
    except ValueError as exc:
        raise TreeFormatError(str(exc)) from None


# ----------------------------------------------------------------------
# graphs stored as an edge set plus adjacency, built eagerly
# ----------------------------------------------------------------------

class RefGraph(NamedTuple):
    n: int
    edges: frozenset
    adj: tuple

    @property
    def m(self):
        return len(self.edges)


class RefOriented(NamedTuple):
    n: int
    arcs: frozenset
    out_adj: tuple
    in_adj: tuple

    @property
    def m(self):
        return len(self.arcs)


def reference_from_edge_list(n, pairs):
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    edges = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        edges.add((u, v) if u < v else (v, u))
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return RefGraph(n, frozenset(edges), tuple(frozenset(s) for s in adj))


def reference_from_arc_list(n, pairs):
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    arcs = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        arcs.add((u, v))
    for u, v in arcs:
        if (v, u) in arcs:
            raise ValueError(f"2-cycle between {u} and {v}")
    out_adj = [set() for _ in range(n)]
    in_adj = [set() for _ in range(n)]
    for u, v in arcs:
        out_adj[u].add(v)
        in_adj[v].add(u)
    return RefOriented(n, frozenset(arcs),
                       tuple(frozenset(s) for s in out_adj),
                       tuple(frozenset(s) for s in in_adj))


def _reference_content_lines(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _reference_parse_pairs(text):
    lines = _reference_content_lines(text)
    if not lines:
        raise GraphFormatError("empty input: expected a header line 'n m'")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: header must be two integers") from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: negative count in header")
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(
            f"header announces {m} edge lines but {len(body)} found")
    pairs = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: endpoint out of range")
        pairs.append((u, v))
    return n, pairs


def reference_parse_graph(text):
    n, pairs = _reference_parse_pairs(text)
    try:
        return reference_from_edge_list(n, pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def reference_parse_oriented(text):
    n, pairs = _reference_parse_pairs(text)
    try:
        return reference_from_arc_list(n, pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def reference_quotient(g, p):
    """The quotient as the subgraph induced on the representatives of
    the twin partition ``p``, rebuilt from the edge set."""
    reps = p.representatives
    new_id = {r: i for i, r in enumerate(reps)}
    vertex_to_new = {}
    for i, cls in enumerate(p.classes):
        for v in cls:
            vertex_to_new[v] = i
    edges = [(new_id[u], new_id[v]) for u, v in g.edges
             if u in new_id and v in new_id]
    return reference_from_edge_list(len(reps), edges), vertex_to_new


def reference_directed_quotient(d, p):
    reps = p.representatives
    new_id = {r: i for i, r in enumerate(reps)}
    vertex_to_new = {}
    for i, cls in enumerate(p.classes):
        for v in cls:
            vertex_to_new[v] = i
    arcs = [(new_id[u], new_id[v]) for u, v in d.arcs
            if u in new_id and v in new_id]
    return reference_from_arc_list(len(reps), arcs), vertex_to_new


def reference_induced_subgraph(g, keep):
    vs = sorted(set(keep))
    if any(v < 0 or v >= g.n for v in vs):
        raise ValueError("vertex out of range")
    new_id = {v: i for i, v in enumerate(vs)}
    edges = [(new_id[u], new_id[v]) for u, v in g.edges
             if u in new_id and v in new_id]
    return reference_from_edge_list(len(vs), edges)


def reference_underlying_graph(d):
    return reference_from_edge_list(d.n, list(d.arcs))


def assert_same_graph(g, ref):
    assert (g.n, g.m, g.adj, g.edges) == (ref.n, ref.m, ref.adj, ref.edges)


def assert_same_oriented(d, ref):
    assert ((d.n, d.m, d.out_adj, d.in_adj, d.arcs)
            == (ref.n, ref.m, ref.out_adj, ref.in_adj, ref.arcs))
