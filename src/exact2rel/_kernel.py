"""Enumeration kernels for the oracle.

These walk every weight assignment of a fixed tree shape and record
which leaf relations arise.  Shapes are preprocessed by the caller into
flat index lists: edges are numbered, and every quantity a kernel needs
is a list of edge indices to sum weights over.
"""

from __future__ import annotations

USING_COMPILED = False  # kept for benchmark reports: no compiled kernel exists


def enumerate_relation_masks(n_pairs: int, paths: list[list[int]],
                             min_w: list[int], max_w: int, k: int,
                             zero_discrete: bool) -> set[int]:
    """All achievable relation bitmasks for one tree shape.

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
    n_edges = len(min_w)
    w = list(min_w)
    masks: set[int] = set()
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
            masks.add(mask)
        e = 0
        while e < n_edges and w[e] == max_w:
            w[e] = min_w[e]
            e += 1
        if e == n_edges:
            return masks
        w[e] += 1


def matching_weightings(n_pairs: int, paths: list[list[int]],
                        min_w: list[int], max_w: int, k: int,
                        zero_discrete: bool, target: int) -> list[tuple[int, ...]]:
    """Weight vectors whose relation mask equals ``target``."""
    n_edges = len(min_w)
    w = list(min_w)
    found: list[tuple[int, ...]] = []
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
        if ok and mask == target:
            found.append(tuple(w))
        e = 0
        while e < n_edges and w[e] == max_w:
            w[e] = min_w[e]
            e += 1
        if e == n_edges:
            return found
        w[e] += 1


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
