"""The enumeration kernels agree with the tree-level definitions.

The kernels sum weights over flat edge-index lists.  The references here
build every weighted tree of a shape and ask ``explain`` (or
``directed_explain`` at every root placement) for its relation, so they
share no code with the kernel loops.  Each shape is walked once with
free weights; the canonical and zero-discrete configurations are
filters of that walk, which keep its order.
"""

from itertools import product

import pytest

from exact2rel._kernel import (enumerate_relation_masks,
                               enumerate_rooted_arc_masks, matching_weightings)
from exact2rel.oracle import (_prepare, _tree_with_weights,
                              enumerate_topologies, graph_to_mask,
                              oriented_to_mask)
from exact2rel.rooted import RootedLabeledTree, directed_explain
from exact2rel.trees import explain, is_zero_discrete


def shapes(leaves):
    for n in leaves:
        for topo in enumerate_topologies(n):
            yield topo, _prepare(topo)


def walk(topo, shape, k, relation):
    """(weights, zero-discrete?, relation) for every weighting with
    weights 0..k+1, edge 0 varying fastest."""
    n_edges = len(shape.edges)
    for rev in product(range(k + 2), repeat=n_edges):
        w = rev[::-1]
        t = _tree_with_weights(topo, shape, w)
        yield w, is_zero_discrete(t), relation(t)


def configurations(shape, walked):
    """(min_w, zero_discrete, admitted part of the walk) per kernel
    configuration."""
    for min_w in (shape.min_w_canonical, shape.min_w_free):
        for zero_discrete in (False, True):
            yield min_w, zero_discrete, [
                (w, rel) for w, zd, rel in walked
                if (zd or not zero_discrete)
                and all(x >= m for x, m in zip(w, min_w))]


def rootings(t):
    """The tree rooted at every interior vertex and at every integer
    point of every edge, leaf ends included."""
    edges = t.weighted_edges()
    for v in t.interior_vertices():
        yield RootedLabeledTree.build(t.nv, edges, t.names, root=v)
    r = t.nv
    for u, v, w in edges:
        rest = [e for e in edges if e[:2] != (u, v)]
        for a in range(w + 1):
            yield RootedLabeledTree.build(
                t.nv + 1, rest + [(u, r, a), (r, v, w - a)], t.names, root=r)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_relation_kernels_follow_explain(k):
    for topo, sh in shapes(range(1, 5)):
        n_pairs = len(sh.paths)
        walked = list(walk(topo, sh, k,
                           lambda t: graph_to_mask(explain(t, k))))
        for min_w, zero_discrete, admitted in configurations(sh, walked):
            by_mask: dict[int, list[tuple[int, ...]]] = {}
            for w, mask in admitted:
                by_mask.setdefault(mask, []).append(w)
            assert enumerate_relation_masks(
                n_pairs, sh.paths, min_w, k + 1, k,
                zero_discrete) == set(by_mask)
            # every target costs a full kernel pass: check the most and
            # the least frequent relation, and one that never arises
            targets = sorted(by_mask, key=lambda m: (len(by_mask[m]), m))
            targets = targets[:1] + targets[-1:]
            targets += [m for m in range(1 << n_pairs)
                        if m not in by_mask][:1]
            for target in targets:
                assert matching_weightings(
                    n_pairs, sh.paths, min_w, k + 1, k, zero_discrete,
                    target) == by_mask.get(target, [])


# the reference roots every tree at up to ~20 places; at k = 3 on four
# leaves that is over 10^5 rooted trees, so k = 3 stops at three leaves
@pytest.mark.parametrize("k, max_leaves", [(1, 4), (2, 4), (3, 3)])
def test_rooted_arc_masks_follow_directed_explain(k, max_leaves):
    for topo, sh in shapes(range(2, max_leaves + 1)):
        walked = list(walk(topo, sh, k, lambda t: {
            oriented_to_mask(directed_explain(rt, k)) for rt in rootings(t)}))
        for min_w, zero_discrete, admitted in configurations(sh, walked):
            expected = set().union(*(masks for _, masks in admitted))
            assert enumerate_rooted_arc_masks(
                topo.n_leaves, sh.pair_index, sh.paths, min_w, k + 1, k,
                zero_discrete, min_w is sh.min_w_canonical,
                sh.interior_roots, sh.edge_roots) == expected
