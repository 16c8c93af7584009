"""Enumeration kernels for the oracle.

These cover every weight assignment of a fixed tree shape and record
which leaf relations arise.  The two undirected kernels take the edges
in an order that completes leaf-pair paths early, so they merge or cut
partial assignments instead of visiting each one; the rooted kernel
still visits every assignment.  Shapes are preprocessed by the caller
into flat index lists: edges are numbered, and every quantity a kernel
needs is a list of edge indices to sum weights over.
"""

from __future__ import annotations

USING_COMPILED = False  # kept for benchmark reports: no compiled kernel exists


def _plan(paths: list[list[int]], n_edges: int
          ) -> tuple[list[int], list[list[tuple[int, bool]]]]:
    """An edge order that completes leaf-pair paths early: each next edge
    leaves the fewest pairs open (started, not complete), lowest index
    first.  Per position: (pair through the edge, path complete there?)."""
    through: list[list[int]] = [[] for _ in range(n_edges)]
    for p, path in enumerate(paths):
        for e in path:
            through[e].append(p)
    left = [len(path) for path in paths]
    opened: set[int] = set()
    order: list[int] = []
    steps: list[list[tuple[int, bool]]] = []
    todo = list(range(n_edges))
    while todo:
        e = min(todo, key=lambda e: len(opened.union(through[e]))
                - sum(left[p] == 1 for p in through[e]))
        todo.remove(e)
        order.append(e)
        steps.append([(p, left[p] == 1) for p in through[e]])
        for p in through[e]:
            left[p] -= 1
        opened = {p for p in opened.union(through[e]) if left[p]}
    return order, steps


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
    order, steps = _plan(paths, len(min_w))
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
    order, steps = _plan(paths, len(min_w))
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


def enumerate_rooted_arc_masks(n_leaves: int, pair_index: list[list[int]],
                               paths: list[list[int]], min_w: list[int],
                               max_w: int, k: int, zero_discrete: bool,
                               canonical_only: bool,
                               interior_roots: list[list[list[int]]],
                               edge_roots: list[tuple[int, int, list[int], list[list[int]]]]
                               ) -> set[int]:
    """All arc bitmasks of the directed relation over every weighting and
    every root placement of one tree shape.

    Bit ``x * n_leaves + y`` of a mask says the arc x -> y holds.  Root
    placements are every interior vertex and every split (a, w_e - a) of
    an edge; a zero-weight stub toward an interior endpoint is skipped
    when ``canonical_only``.

    Args:
        pair_index: ``pair_index[x][y]`` is the pair number for x != y.
        interior_roots: per interior vertex, per leaf, edge indices from
            the leaf to that vertex.
        edge_roots: per edge ``(u_is_leaf, v_is_leaf, side, near)``:
            ``side[x]`` is 1 when leaf x lies on the u side, and
            ``near[x]`` lists the edge indices from x to its near
            endpoint.
    """
    n_edges = len(min_w)
    w = list(min_w)
    masks: set[int] = set()
    pd = [0] * (n_leaves * (n_leaves - 1) // 2)
    dr = [0] * n_leaves
    while True:
        ok = True
        for p in range(len(paths)):
            d = 0
            for e in paths[p]:
                d += w[e]
            pd[p] = d
            if d == 0 and zero_discrete:
                ok = False
                break
        if ok:
            for rts in interior_roots:
                for x in range(n_leaves):
                    d = 0
                    for e in rts[x]:
                        d += w[e]
                    dr[x] = d
                masks.add(_arc_mask(n_leaves, pair_index, pd, dr, k))
            for ei in range(n_edges):
                u_is_leaf, v_is_leaf, side, near = edge_roots[ei]
                we = w[ei]
                base = [0] * n_leaves
                for x in range(n_leaves):
                    d = 0
                    for e in near[x]:
                        d += w[e]
                    base[x] = d
                for a in range(we + 1):
                    if canonical_only and a == 0 and not u_is_leaf:
                        continue
                    if canonical_only and a == we and not v_is_leaf:
                        continue
                    for x in range(n_leaves):
                        dr[x] = base[x] + (a if side[x] else we - a)
                    masks.add(_arc_mask(n_leaves, pair_index, pd, dr, k))
        e = 0
        while e < n_edges and w[e] == max_w:
            w[e] = min_w[e]
            e += 1
        if e == n_edges:
            return masks
        w[e] += 1


def _arc_mask(n_leaves: int, pair_index: list[list[int]],
              pd: list[int], dr: list[int], k: int) -> int:
    mask = 0
    for x in range(n_leaves):
        for y in range(n_leaves):
            if x != y and pd[pair_index[x][y]] == k and dr[y] == dr[x] + k:
                mask |= 1 << (x * n_leaves + y)
    return mask
