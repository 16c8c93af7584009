"""Enumeration kernels for the oracle.

These cover every weight assignment of a fixed tree shape and record
which leaf relations arise.  Shapes are preprocessed by the caller
(``oracle._prepare``) into flat index lists over edges numbered
breadth-first from leaf 0.  Both mask kernels read the shape hung from
leaf 0 (``_hang``) and merge the states of subtrees, leaf depths kept
as level masks, children first as descending edge numbers; the rooted
one then walks parents first to give each root placement the states
from above it.  The weighting search places the edges from the last to
edge 0, so it closes the paths between nearby leaves early, cuts
partial assignments instead of visiting each one, and emits weightings
in odometer order.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations, product
from math import isqrt
from operator import or_

USING_COMPILED = False  # kept for benchmark reports: no compiled kernel exists


@cache
def _hang(paths: tuple[tuple[int, ...], ...]) -> tuple[
        int, tuple[tuple[int, int, tuple[int, ...]], ...]]:
    """The shape hung from leaf 0, read off the paths of the pairs
    (0, j), which walk from leaf 0 down to leaf j through increasing
    edge numbers: the leaf count and, per edge from the last to edge 0
    (so children come before their parent, and edge 0 is the top),
    (edge, bit of the leaf at its lower end or 0, the edges below that
    end)."""
    n = (1 + isqrt(1 + 8 * len(paths))) // 2
    below: dict[int, list[int]] = {}
    leaf_at: dict[int, int] = {}
    for j, path in enumerate(paths[:n - 1], 1):
        for e, f in zip(path, path[1:] + (-1,)):
            kids = below.setdefault(e, [])
            if f >= 0 and f not in kids:
                kids.append(f)
        leaf_at[path[-1]] = 1 << j
    return n, tuple((e, leaf_at.get(e, 0), tuple(below[e]))
                    for e in reversed(range(len(below))))


@cache
def _cross_pairs(n: int) -> list[list[int]]:
    """``table[z][y]``: the mask of the pairs {a, b}, a in leaf set ``z``
    and b in the disjoint leaf set ``y``, pairs numbered in
    ``combinations(range(n), 2)`` order.  Each row is built from the one
    without its lowest leaf."""
    bit = [[0] * n for _ in range(n)]
    for p, (a, b) in enumerate(combinations(range(n), 2)):
        bit[a][b] = bit[b][a] = 1 << p
    size = 1 << n
    single = []  # single[a][y]: the pairs between leaf a and leaf set y
    for a in range(n):
        row = [0]
        for y in range(1, size):
            low = y & -y
            row.append(row[y ^ low] | bit[a][low.bit_length() - 1])
        single.append(row)
    table = [[0] * size]
    for z in range(1, size):
        low = z & -z
        table.append(list(map(or_, table[z ^ low],
                              single[low.bit_length() - 1])))
    return table


def _shift(states: set, lo: int, hi: int, n: int, keep: int) -> set:
    """``states`` seen across an edge of weight ``lo`` .. ``hi``: the
    level masks, ``n`` bits apart, move ``w`` levels deeper and the
    levels beyond ``keep`` drop out.  A weight of ``keep``'s level
    count drops them all, as does every larger one, so the weights stop
    there whatever ``hi`` is."""
    hi = min(hi, keep.bit_length() // n)
    return {(m, z << w * n & keep) for w in range(lo, hi + 1) for m, z in states}


def enumerate_relation_masks(n_pairs: int, paths: list[list[int]],
                             min_w: list[int], max_w: int, k: int,
                             zero_discrete: bool) -> set[int]:
    """All achievable relation bitmasks for one tree shape.

    A dynamic program over subtrees, the shape hung from leaf 0
    (``_hang``), so ``paths[j - 1]`` must walk from leaf 0 to leaf j
    through increasing edge numbers, as ``oracle._prepare`` numbers and
    lists them.  A state is a pair mask and the
    level masks z_0 .. z_k packed ``n`` bits apart, z_d holding the
    leaves at depth d below the subtree's top; deeper leaves meet no
    later leaf at weight exactly ``k`` and drop out.  Where subtrees
    meet, the levels are ORed and the pairs between z_d of one side and
    z_(k-d) of the other are added (``_cross_pairs``); under
    ``zero_discrete`` a state with a leaf at depth 0 on both sides is
    dropped.

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
    if not min_w:  # one leaf: no edge, no pair
        return {0}
    n, edges = _hang(tuple(map(tuple, paths)))
    cross = _cross_pairs(n)
    full, keep = (1 << n) - 1, (1 << (k + 1) * n) - 1
    levels = [d * n for d in range(k + 1)]

    def merge(a: set, b: set) -> set:
        # masks grouped by levels; per level mask of b, z_k .. z_0
        by_a: dict[int, list[int]] = {}
        by_b: dict[int, list[int]] = {}
        for m, z in a:
            by_a.setdefault(z, []).append(m)
        for m, z in b:
            by_b.setdefault(z, []).append(m)
        ends = [(zb, zb & full, [zb >> s & full for s in reversed(levels)], mb)
                for zb, mb in by_b.items()]
        out = set()
        for za, ma in by_a.items():
            rows = [cross[za >> s & full] for s in levels]
            for zb, b0, cols, mb in ends:
                if zero_discrete and b0 and za & full:
                    continue
                x = sum(map(list.__getitem__, rows, cols))
                z = za | zb
                out.update([(p | q | x, z) for p in ma for q in mb])
        return out

    below: dict[int, set] = {}  # per edge: its subtree's states, weight in
    for e, leaf, kids in edges:
        parts = [below.pop(c) for c in kids]
        if leaf:
            parts.append({(0, leaf)})
        below[e] = _shift(reduce(merge, parts), min_w[e], max_w, n, keep)
    return {m for m, _ in merge({(0, 1)}, below[0])}


@cache
def _bounds(paths: tuple[tuple[int, ...], ...],
            min_w: tuple[int, ...]) -> tuple:
    """Per edge, the pairs through it and their (pair, bit, least weight
    still to come, complete?) for a walk that places the edges from the
    last to edge 0, so a path is complete at its lowest edge.  None of
    it reads the target: built once per shape and lower bounds."""
    through: list[list[int]] = [[] for _ in min_w]
    for p, path in enumerate(paths):
        for e in path:
            through[e].append(p)
    low = [sum(min_w[e] for e in path) for path in paths]
    checks: list[tuple] = [()] * len(min_w)
    for e in reversed(range(len(min_w))):
        for p in through[e]:
            low[p] -= min_w[e]
        checks[e] = tuple((p, 1 << p, low[p], min(paths[p]) == e)
                          for p in through[e])
    return tuple(map(tuple, through)), tuple(checks)


def matching_weightings(n_pairs: int, paths: list[list[int]],
                        min_w: list[int], max_w: int, k: int,
                        zero_discrete: bool, target: int) -> list[tuple[int, ...]]:
    """Weight vectors whose relation mask equals ``target``, edge 0
    varying fastest.

    A depth-first search from the last edge down to edge 0 on one weight
    array and one array of partial path weights, undone on the way back.
    Each edge tries its weights in increasing order, so the weightings
    come out in odometer order.  No pair that ``target`` relates may
    exceed ``k`` even with the smallest weights still to come; a
    completed path must match its bit of ``target`` and, under
    ``zero_discrete``, weigh more than 0.  A weight above ``k`` fits
    only an edge that no related pair crosses, and there every weight
    from k + 1 up leaves the same completions: the search caps the
    weights at k + 1 and, when ``max_w`` is larger, widens each k + 1
    of a weighting found to every weight up to ``max_w``, so a search
    that finds nothing costs the same at any cap.
    """
    if target >> n_pairs:
        return []
    if not min_w:
        return [()]
    through, checks = _bounds(tuple(map(tuple, paths)), tuple(min_w))
    last = len(min_w) - 1
    w = list(min_w)
    d = [0] * n_pairs  # per pair: weight of its path's edges placed so far
    left: list = [None] * len(min_w)  # per edge: weights still to try
    cap = min(max_w, k + 1)
    found: list[tuple[int, ...]] = []
    e = last
    while e <= last:
        if left[e] is None:  # first visit: this edge's admissible weights
            lo, hi, avoid = min_w[e], cap, []
            for p, bit, rest, closes in checks[e]:
                r = k - d[p]  # what pair p still needs to weigh k
                if target & bit:
                    if hi > r - rest:
                        hi = r - rest
                    if closes and lo < r:
                        lo = r
                elif closes:
                    avoid += [r, r - k] if zero_discrete else [r]
            left[e] = iter([x for x in range(lo, hi + 1) if x not in avoid])
            if e == 0:  # emit them all; the walk goes back from here
                for w[0] in left[0]:
                    found.append(tuple(w))
        else:  # back from edge e - 1: undo this edge's weight
            for p in through[e]:
                d[p] -= w[e]
        x = next(left[e], None)
        if x is None:
            left[e] = None
            e += 1
            continue
        w[e] = x
        for p in through[e]:
            d[p] += x
        e -= 1
    if max_w > cap and found:
        wide = range(cap, max_w + 1)
        found = sorted((v for f in found for v in product(
            *[wide if x == cap else (x,) for x in f])), key=lambda v: v[::-1])
    return found


def enumerate_rooted_arc_masks(
        n_leaves: int, pair_index: list[list[int]], paths: list[list[int]],
        min_w: list[int], max_w: int, k: int, zero_discrete: bool) -> set[int]:
    """All arc bitmasks of the directed relation over every weighting and
    every root placement of one tree shape; bit ``x * n_leaves + y`` says
    x -> y.  Roots are every interior vertex and every split (a, w_e - a)
    of an edge.

    A rerooting dynamic program on the shape hung from leaf 0
    (``_hang``), as ``enumerate_relation_masks`` reads ``paths``.  A
    state is an arc mask and the level masks z_0 .. z_k packed
    ``n_leaves`` bits apart, z_d holding the leaves at depth d below the
    top (deeper ones join no later arc and drop out, so a shift is a bit
    shift cut at level k).  Where subtrees meet, the levels are ORed and
    x -> y is set iff x is at depth 0 and y at k: ``rows[z_0] * z_k``
    both ways; under ``zero_discrete`` two leaves at depth 0 drop the
    state.  Children first, ``at[e]`` holds the states at edge e's lower
    end from below and ``down[e]`` the same seen across e.  Parents
    first, ``up[e]`` holds the states at e's upper end from the leaves
    not below e, leaf 0 alone for edge 0; a child's ``up`` merges its
    parent's, seen across the parent edge, with its siblings' ``down``.
    An interior lower end is rooted as ``up`` across e merged with
    ``at``; a split of e has ``up[e]`` on its upper side and ``at[e]`` on
    its lower one, and its upper end is a leaf only for edge 0.  Splits
    with both parts above 0 put no leaf at depth 0 and all give
    ``m_u | m_v``, taken once per edge; a zero part toward an interior
    endpoint is skipped (that root is the endpoint's own placement).
    ``pair_index`` is unused; it keeps the signature the benchmark's
    hooks bind (``min_w``, ``max_w`` at 3-4).
    """
    if not min_w:  # one leaf: no edge, no arc
        return {0}
    n, full = n_leaves, (1 << n_leaves) - 1
    kn, keep = k * n, (1 << (k + 1) * n) - 1
    rows = [sum(1 << x * n for x in range(n) if z >> x & 1)
            for z in range(full + 1)]  # rows[z]: bit x * n per leaf x of z

    def merge(a: set, b: set) -> set:
        # per state: mask, rows of the depth-0 leaves, depth-k leaves, levels
        ends = [[(m, rows[z & full], z >> kn, z) for m, z in states]
                for states in (a, b)]
        out = set()
        for ma, ra, ka, za in ends[0]:
            for mb, rb, kb, zb in ends[1]:
                if not (zero_discrete and ra and rb):
                    out.add((ma | mb | ra * kb | rb * ka, za | zb))
        return out

    edges = _hang(tuple(map(tuple, paths)))[1]
    at: dict[int, set] = {}  # per edge: the states at its lower end
    down: dict[int, set] = {}  # the same across the edge, weight in
    for e, leaf, kids in edges:
        at[e] = reduce(merge, [down[c] for c in kids]) if kids else {(0, leaf)}
        down[e] = _shift(at[e], min_w[e], max_w, n, keep)
    masks: set[int] = set()
    up = {0: {(0, 1)}}  # per edge: the states at its upper end
    for e, leaf, kids in reversed(edges):
        u, v, lo = up.pop(e), at.pop(e), min_w[e]
        if kids:  # an interior lower end: its own root, and each child's up
            above = _shift(u, lo, max_w, n, keep)
            masks.update(m for m, _ in merge(above, v))
            for c in kids:
                up[c] = reduce(merge, [down[s] for s in kids if s != c], above)
        if e == 0:  # a = 0 at leaf 0 (and w > 0 unless v is a leaf too)
            root = merge(u, _shift(v, lo if leaf else max(lo, 1), max_w,
                                   n, keep))
            masks.update(m for m, _ in root)
        if leaf:  # a = w > 0
            root = merge(_shift(u, max(lo, 1), max_w, n, keep), v)
            masks.update(m for m, _ in root)
        if max_w >= 2:  # 0 < a < w: no leaf at depth 0, no arc added
            m_u, m_v = {m for m, _ in u}, {m for m, _ in v}
            masks.update(mu | mv for mu in m_u for mv in m_v)
    return masks
