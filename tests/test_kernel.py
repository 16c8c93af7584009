"""The enumeration kernels agree with the tree-level definitions and
with the unpruned odometers they replaced.

The kernels sum weights over flat edge-index lists.  The references here
build every weighted tree of a shape and ask ``explain`` (or
``directed_explain`` at every root placement) for its relation, so they
share no code with the kernel loops.  Each shape is walked once with
free weights; the canonical and zero-discrete configurations are
filters of that walk, which keep its order.  The odometer references in
``conftest`` visit every weighting (and every root placement); the
pruned kernels must return exactly what they return, lists in the same
order, on every labeled topology with up to five leaves.  Where the
odometers are too slow (six leaves for the mask kernels), the kernels
must equal the ones their rewrite replaced, kept in ``conftest`` as
``previous_relation_masks`` and ``previous_rooted_arc_masks``.  Both
undirected kernels read the edge numbering of ``oracle._prepare``,
which has its own gate here.
"""

from itertools import chain, product

import pytest

from conftest import (_tree_with_weights, pair_index_of,
                      previous_relation_masks, previous_rooted_arc_masks,
                      reference_configurations,
                      reference_matching_weightings,
                      reference_rooted_arc_masks)
from exact2rel._kernel import (enumerate_relation_masks,
                               enumerate_rooted_arc_masks, matching_weightings)
from exact2rel.oracle import (_prepare, enumerate_topologies, graph_to_mask,
                              oriented_to_mask, unlabeled_shapes)
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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pruned_kernels_equal_the_odometer(k):
    """Every shape with 1-5 leaves, canonical and free weights, with and
    without zero-discrete: the same mask sets, and the same weighting
    lists in the same order for every target (4 leaves and fewer) or
    every achievable target plus the empty and the full mask (5)."""
    for topo, sh in shapes(range(1, 6)):
        n_pairs = len(sh.paths)
        for min_w, zero_discrete, by_mask in reference_configurations(
                n_pairs, sh.paths, sh.min_w_canonical, sh.min_w_free,
                k + 1, k):
            args = (n_pairs, sh.paths, min_w, k + 1, k, zero_discrete)
            assert enumerate_relation_masks(*args) == set(by_mask)
            targets = (range(1 << n_pairs) if topo.n_leaves <= 4 else
                       {0, (1 << n_pairs) - 1, *by_mask})
            for target in targets:
                assert (matching_weightings(*args, target)
                        == by_mask.get(target, []))


@pytest.mark.parametrize("k", [1, 2])
def test_one_odometer_walk_gives_every_configuration(k):
    """Every shape with 1-4 leaves: each configuration derived from the
    one free walk equals a direct walk of the odometer in it, lists in
    the same order."""
    for topo, sh in shapes(range(1, 5)):
        n_pairs = len(sh.paths)
        for min_w, zero_discrete, by_mask in reference_configurations(
                n_pairs, sh.paths, sh.min_w_canonical, sh.min_w_free,
                k + 1, k):
            assert by_mask == reference_matching_weightings(
                n_pairs, sh.paths, min_w, k + 1, k, zero_discrete)


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
                topo.n_leaves, pair_index_of(topo.n_leaves), sh.paths, min_w,
                k + 1, k, zero_discrete, sh.interior_roots,
                sh.edge_roots) == expected


def odometer_agrees(topo, sh, k, max_w):
    """The rooted kernel returns the odometer's set in all four
    configurations: canonical and free weights, zero-discrete off and
    on."""
    n = topo.n_leaves
    pair_index = pair_index_of(n)
    expected = reference_rooted_arc_masks(
        n, pair_index, sh.paths, sh.min_w_canonical, max_w, k,
        sh.interior_roots, sh.edge_roots)
    for (canonical, zero_discrete), masks in expected.items():
        min_w = sh.min_w_canonical if canonical else sh.min_w_free
        assert enumerate_rooted_arc_masks(
            n, pair_index, sh.paths, min_w, max_w, k, zero_discrete,
            sh.interior_roots, sh.edge_roots) == masks


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rooted_kernel_equals_the_odometer(k):
    """Every shape with 2-4 leaves at caps k+1 and k+2."""
    for topo, sh in shapes(range(2, 5)):
        for max_w in (k + 1, k + 2):
            odometer_agrees(topo, sh, k, max_w)


@pytest.mark.parametrize("k", [1, 2])
def test_rooted_kernel_equals_the_odometer_at_cap_k(k):
    """Every shape with 2-4 leaves at cap k.  At k = 1 no edge can be
    split into two positive parts, which the larger caps always allow."""
    for topo, sh in shapes(range(2, 5)):
        odometer_agrees(topo, sh, k, k)


@pytest.mark.parametrize("k", [1, 2])
def test_rooted_kernel_equals_the_odometer_at_five_leaves(k):
    """The three unlabeled 5-leaf shapes at cap k+1.  The odometer needs
    seconds here, so larger caps and k = 3 stop at four leaves."""
    for topo in unlabeled_shapes(5):
        odometer_agrees(topo, _prepare(topo), k, k + 1)


def configurations_of(sh):
    """(min_w, zero_discrete) per kernel configuration: canonical and
    free weights, zero-discrete off and on."""
    for min_w in (sh.min_w_canonical, sh.min_w_free):
        for zero_discrete in (False, True):
            yield min_w, zero_discrete


def test_rooted_kernel_equals_the_previous_kernel_at_six_leaves():
    """The seven unlabeled 6-leaf shapes at k = 2, cap 3, in every
    configuration: the level-mask kernel returns the set of the
    depth-vector kernel it replaced."""
    k = 2
    for topo in unlabeled_shapes(6):
        sh = _prepare(topo)
        for min_w, zero_discrete in configurations_of(sh):
            args = (6, pair_index_of(6), sh.paths, min_w, k + 1, k,
                    zero_discrete, sh.interior_roots, sh.edge_roots)
            assert (enumerate_rooted_arc_masks(*args)
                    == previous_rooted_arc_masks(*args))


def test_relation_kernel_equals_the_previous_kernel_at_six_leaves():
    """The unlabeled 6-leaf shapes at k = 1, 2, 3 with cap k + 1 and at
    k = 2 with caps 2 and 4, in every configuration: the subtree kernel
    returns the set of the frontier kernel it replaced."""
    for topo in unlabeled_shapes(6):
        sh = _prepare(topo)
        for k, max_w in ((1, 2), (2, 3), (3, 4), (2, 2), (2, 4)):
            for min_w, zero_discrete in configurations_of(sh):
                args = (len(sh.paths), sh.paths, min_w, max_w, k,
                        zero_discrete)
                assert (enumerate_relation_masks(*args)
                        == previous_relation_masks(*args))


def test_edges_are_numbered_breadth_first_from_leaf_0():
    """Every labeled topology with 1-6 leaves and every unlabeled 7-leaf
    shape: the edges of ``_prepare`` are the tree's, edge 0 touches leaf
    0, each path from leaf 0 is strictly increasing, and edge numbers
    never decrease with depth from leaf 0.  The relation kernel reads
    children first as descending edge numbers, and the weighting search
    gets odometer order from walking the edges last first."""
    topologies = chain(*map(enumerate_topologies, range(1, 7)),
                       unlabeled_shapes(7))
    for topo in topologies:
        sh = _prepare(topo)
        n, leaf0 = topo.n_leaves, topo.vertex_of("a")
        assert ({frozenset(e) for e in sh.edges}
                == {frozenset((u, v)) for u, v, _ in topo.weighted_edges()})
        assert n == 1 or leaf0 in sh.edges[0]
        for path in sh.paths[:n - 1]:
            assert all(e < f for e, f in zip(path, path[1:]))
        dist = {leaf0: 0}
        todo = [leaf0]
        for u in todo:
            for v in topo.adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    todo.append(v)
        depths = [min(dist[u], dist[v]) for u, v in sh.edges]
        assert depths == sorted(depths)
