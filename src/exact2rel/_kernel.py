"""Enumeration kernels for the oracle.

These cover every weight assignment of a fixed tree shape and record
which leaf relations arise.  The two undirected kernels take the edges
in an order that completes leaf-pair paths early, so they merge or cut
partial assignments instead of visiting each one; the rooted kernel
merges the states of subtrees, shared by every root placement.  Shapes
are preprocessed by the caller into flat index lists: edges are
numbered, and every quantity a kernel needs is a list of edge indices.
"""

from __future__ import annotations

from functools import cache, reduce

USING_COMPILED = False  # kept for benchmark reports: no compiled kernel exists


@cache
def _plan(paths: tuple[tuple[int, ...], ...], n_edges: int) -> tuple[
        tuple[int, ...], tuple[tuple[tuple[int, bool], ...], ...]]:
    """An edge order that completes leaf-pair paths early: each next edge
    leaves the fewest pairs open (started, not complete), lowest index
    first.  Per position: (pair through the edge, path complete there?).
    Computed once per shape: every kernel call on it shares the plan."""
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


def enumerate_relation_masks(n_pairs: int, paths: list[list[int]],
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


def matching_weightings(n_pairs: int, paths: list[list[int]],
                        min_w: list[int], max_w: int, k: int,
                        zero_discrete: bool, target: int) -> list[tuple[int, ...]]:
    """Weight vectors whose relation mask equals ``target``, edge 0
    varying fastest.

    A depth-first search over the edges in ``_plan`` order.  No pair that
    ``target`` relates may exceed ``k`` even with the smallest weights
    still to come; a completed path must match its bit of ``target`` and,
    under ``zero_discrete``, weigh more than 0.
    """
    if target >> n_pairs:
        return []
    if not min_w:
        return [()]
    order, steps = _plan(tuple(map(tuple, paths)), len(min_w))
    low = [sum(min_w[e] for e in path) for path in paths]
    checks = []  # per position: (pair, related?, smallest rest, complete?)
    for e, step in zip(order, steps):
        for p, _ in step:
            low[p] -= min_w[e]
        checks.append([(p, target >> p & 1, low[p], closes)
                       for p, closes in step])
    found: list[tuple[int, ...]] = []
    stack = [(0, [0] * n_pairs, list(min_w))]
    while stack:
        i, d, w = stack.pop()
        e = order[i]
        lo, hi, avoid = min_w[e], max_w, []
        for p, related, rest, closes in checks[i]:
            if related:
                if hi > k - d[p] - rest:
                    hi = k - d[p] - rest
                if closes and lo < k - d[p]:
                    lo = k - d[p]
            elif closes:
                avoid += [k - d[p], -d[p]] if zero_discrete else [k - d[p]]
        for x in range(lo, hi + 1):
            if x in avoid:
                continue
            w[e] = x
            if i + 1 == len(order):
                found.append(tuple(w))
                continue
            nd = d[:]
            for p, *_ in checks[i]:
                nd[p] += x
            stack.append((i + 1, nd, w[:]))
    found.sort(key=lambda w: w[::-1])
    return found


def enumerate_rooted_arc_masks(
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
