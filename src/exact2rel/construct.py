"""Deciding which graphs arise as the level-2 leaf relation of a
weighted tree, and building witness trees when they do.

The route: collapse false twins, test whether the quotient is a block
graph (every maximal 2-connected piece a clique), build a tree per
quotient component, join the components at safe distance, and re-expand
the twin classes.  ``recognize`` keeps the one block decomposition it
checked, lays all three steps into one draft adjacency, and builds the
witness once, as ``canonicalize`` ends; ``construct_block_tree``,
``join_components`` and ``blow_up`` run the same steps one at a time.
Leaf names are graph vertex ids as decimal strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import (Graph, TwinPartition, block_decomposition,
                     connected_components, non_clique_block, quotient)
from .trees import (LabeledTree, _canonicalize, _Draft, relation_matches,
                    relation_pairs)


@dataclass(frozen=True)
class RecognitionOutcome:
    """Yes/no decision with a witness tree or a refusal certificate.

    On yes, ``witness`` is a canonical tree whose level-2 relation is
    exactly the input graph.  On no, ``certificate`` lists original
    vertices whose twin-class representatives form a non-clique block of
    the quotient.
    """

    decision: bool
    witness: LabeledTree | None
    certificate: tuple[int, ...] | None


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking a tree against a graph at some level.

    ``name_mismatch`` is the symmetric difference between the tree's
    leaf names and the graph's vertex ids (as strings); ``missing`` are
    graph edges the tree does not realize and ``extra`` leaf pairs
    related in the tree but absent from the graph.
    """

    ok: bool
    name_mismatch: tuple[str, ...]
    missing: tuple[tuple[int, int], ...]
    extra: tuple[tuple[int, int], ...]


# ======================================================================
# Building blocks
# ======================================================================
# Each step adds to one draft tree (``trees._Draft``).  ``recognize``
# runs all three on one draft and builds it once; each public function
# runs one of them on a draft of its own input.

def _block_stars(d: _Draft, blocks: Iterable[frozenset[int]],
                 cut_vertices: frozenset[int], vs: list[int]
                 ) -> tuple[list[int], list[int]]:
    """Add the block tree of a connected block graph on the sorted
    vertices ``vs``.  Returns the new draft vertices in id order and the
    (unnamed) leaf standing for each vertex of ``vs``."""
    start = d.nv
    pos = {v: d.vertex() for v in vs}
    for blk in blocks:
        if len(blk) == 2:
            a, b = sorted(blk)
            d.link(pos[a], pos[b], 2)
        else:
            center = d.vertex()
            for v in sorted(blk):
                d.link(pos[v], center, 1)
    leaves = []
    for v in vs:
        if v in cut_vertices:
            leaf = d.vertex()
            d.link(pos[v], leaf, 0)
            leaves.append(leaf)
        else:
            leaves.append(pos[v])
    return list(range(start, d.nv)), leaves


def _anchor(d: _Draft, vs: list[int]) -> int:
    """The vertex at which the tree on draft vertices ``vs`` (in id
    order) joins the others: its first interior vertex; for a lone leaf
    a fresh hub holding it on a 0-edge (the graph vertex must stay a
    leaf); for a lone edge the midpoint splitting its weight in two."""
    if len(vs) == 1:
        hub = d.vertex()
        d.link(hub, vs[0], 0)
        return hub
    if len(vs) == 2:
        a, b = vs
        w = d.adj[a].pop(b)
        del d.adj[b][a]
        mid = d.vertex()
        d.link(a, mid, w - w // 2)
        d.link(mid, b, w // 2)
        return mid
    return next(v for v in vs if len(d.adj[v]) >= 2)


def _join(d: _Draft, parts: list[list[int]], k: int) -> None:
    """String the anchors of the trees on ``parts`` on a path of
    weight-(k+1) edges, in order."""
    anchors = [_anchor(d, vs) for vs in parts]
    for a, b in zip(anchors, anchors[1:]):
        d.link(a, b, k + 1)


def _blow_up(d: _Draft, leaves: list[int], classes: Iterable[tuple[int, ...]],
             k: int) -> None:
    """Put the members of each class, named by their graph vertices,
    where its leaf in ``leaves`` is, by the rules of ``blow_up``."""
    small = len(d.adj) <= 2  # no interior vertex to hang members from
    for leaf, cls in zip(leaves, classes):
        ms = tuple(map(str, cls))
        d.names.pop(leaf, None)
        if len(ms) == 1:
            d.names[leaf] = ms[0]
            continue
        if small:  # the leaf turns hub, unless two members are alone
            attach, w = leaf, 0
            if len(d.adj) == 1 and len(ms) == 2:
                d.names[leaf], ms = ms[0], ms[1:]
        else:
            ((q, lam),) = d.adj.pop(leaf).items()
            del d.adj[q][leaf]
            if 2 * lam != k:
                attach, w = q, lam
            else:
                attach, w = d.vertex(), 0
                d.link(q, attach, lam)
        for s in ms:
            d.link(attach, d.vertex(s), w)


def construct_block_tree(g: Graph) -> LabeledTree:
    """Tree whose level-2 relation is a given connected block graph.

    Every 2-vertex block becomes a weight-2 edge; every larger block (a
    clique) becomes a star with weight-1 spokes from a fresh center.
    Each cut vertex then turns interior and is represented by a pendant
    leaf on a 0-edge.  No two leaves end up at path weight 0, and the
    result is canonical.

    Args:
        g: connected block graph with at least 2 vertices.

    Raises:
        ValueError: fewer than 2 vertices, not connected, or a block
            that is not a clique.
    """
    if g.n < 2:
        raise ValueError("need at least 2 vertices")
    if len(connected_components(g)) != 1:
        raise ValueError("graph is not connected")
    dec = block_decomposition(g)
    if non_clique_block(g, dec) is not None:
        raise ValueError("graph is not a block graph")
    d = _Draft()
    _, leaves = _block_stars(d, dec.blocks, dec.cut_vertices, list(range(g.n)))
    for v, leaf in enumerate(leaves):
        d.names[leaf] = str(v)
    return d.tree()


def join_components(trees: list[LabeledTree], k: int) -> LabeledTree:
    """Merge trees for separate graph components into one tree.

    Each input contributes an anchor — its smallest-id interior vertex,
    or for a single-leaf input a fresh hub holding that leaf on a 0-edge
    (the graph vertex must stay a leaf), or for a bare 2-leaf input the
    midpoint created by splitting its edge weight in two.  Anchors are
    strung on a path of weight-(k+1) edges in input order, putting every
    cross-component leaf pair above weight k.

    Args:
        trees: one tree per component, with disjoint leaf names.
        k: relation level, >= 1.
    """
    if not trees:
        raise ValueError("nothing to join")
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(trees) == 1:
        return trees[0]
    d = _Draft()
    _join(d, [d.add_tree(t) for t in trees], k)
    return d.tree()


def blow_up(tstar: LabeledTree, p: TwinPartition, k: int) -> LabeledTree:
    """Re-expand twin classes in a tree that realizes the quotient.

    ``tstar``'s leaves are named with quotient vertex ids; class ``i`` of
    ``p`` corresponds to the leaf named ``str(i)``.  Every leaf is
    renamed or replaced so the result's leaves are the original graph
    vertices, with identical cross-class path weights; members of one
    class land pairwise at weight 0 or 2 * (k/2-avoiding) weight, never
    at weight k.  Canonical input gives canonical output.

    For a non-trivial class at a leaf whose edge weighs w: if w != k/2
    the members become siblings on weight-w edges at the leaf's old
    neighbor; if w == k/2 they hang on 0-edges below a fresh hub placed
    at weight w.  In a tree of one or two vertices the leaf itself
    becomes the hub (two members alone share one 0-edge).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if tstar.n_leaves != len(p.classes):
        raise ValueError("partition size does not match the tree's leaf count")
    d = _Draft()
    d.add_tree(tstar)
    leaves = [tstar.vertex_of(str(i)) for i in range(len(p.classes))]
    _blow_up(d, leaves, p.classes, k)
    return d.tree()


# ======================================================================
# Verification and recognition
# ======================================================================

def verify(t: LabeledTree, g: Graph, k: int) -> VerificationResult:
    """Check that the tree's level-k relation is exactly the graph.

    Tree leaves must be named "0" .. "n-1" matching the graph's
    vertices; otherwise the result reports the name mismatch and fails.
    Then it passes when ``relation_matches`` holds; otherwise ``missing``
    and ``extra`` are the set differences with the related pairs.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    want = {str(v) for v in range(g.n)}
    have = set(t.names.values())
    if want != have:
        diff = tuple(sorted(want.symmetric_difference(have)))
        return VerificationResult(False, diff, (), ())
    if relation_matches(t, 0, k, g.adj):
        return VerificationResult(True, (), (), ())
    related = {tuple(sorted((int(t.names[x]), int(t.names[y]))))
               for x, y in relation_pairs(t, 0, k)}
    return VerificationResult(False, (), tuple(sorted(g.edges - related)),
                              tuple(sorted(related - g.edges)))


def recognize(g: Graph, k: int = 2) -> RecognitionOutcome:
    """Decide whether some tree's level-2 relation equals ``g`` and build
    a canonical witness when it does.

    Holds exactly when the false-twin quotient of ``g`` is a block
    graph.  Only level 2 is supported: the decision procedure is
    specific to it.

    Raises:
        ValueError: ``k != 2``, or an empty graph.
    """
    if k != 2:
        raise ValueError("recognition is specific to level k=2; "
                         "use the oracle for other levels")
    if g.n == 0:
        raise ValueError("the empty graph has no tree: a tree needs a leaf")

    draft = _draft(g, k)
    if isinstance(draft, tuple):
        return RecognitionOutcome(False, None, draft)
    witness = _canonicalize(draft.adj, draft.names)
    del draft  # consumed: its emptied tables go before the self-check

    check = verify(witness, g, k)
    if not check.ok:
        raise AssertionError(f"internal error: witness failed verification "
                             f"({check})")
    return RecognitionOutcome(True, witness, None)


def _draft(g: Graph, k: int) -> _Draft | tuple[int, ...]:
    """``recognize``'s draft witness, or its certificate.  The blocks are
    freed once their stars are laid, the quotient on return, so neither
    lives while the draft is canonicalized."""
    qres = quotient(g)
    p, q = qres.partition, qres.graph
    reps = p.representatives
    dec = block_decomposition(q)

    bad = non_clique_block(q, dec)
    if bad is not None:
        return tuple(sorted(reps[v] for v in bad))

    comps = [sorted(c) for c in connected_components(q)]
    comp_of = [0] * q.n
    for i, vs in enumerate(comps):
        for v in vs:
            comp_of[v] = i
    blocks_of: list[list[frozenset[int]]] = [[] for _ in comps]
    for blk in dec.blocks:
        blocks_of[comp_of[min(blk)]].append(blk)

    d = _Draft()
    parts: list[list[int]] = []
    leaf_of = [0] * q.n
    for vs, blocks in zip(comps, blocks_of):
        made, leaves = _block_stars(d, blocks, dec.cut_vertices, vs)
        parts.append(made)
        for v, leaf in zip(vs, leaves):
            leaf_of[v] = leaf
    del dec, blocks_of, blocks  # laid: the draft holds the block stars
    if len(parts) > 1:
        _join(d, parts, k)
    _blow_up(d, leaf_of, p.classes, k)
    return d
