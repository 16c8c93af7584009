"""Deciding which graphs arise as the level-2 leaf relation of a
weighted tree, and building witness trees when they do.

The route: collapse false twins, test whether the quotient is a block
graph (every maximal 2-connected piece a clique), build a tree per
quotient component, join the components at safe distance, and re-expand
the twin classes.  Leaf names are graph vertex ids as decimal strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import (Graph, TwinPartition, block_decomposition,
                     connected_components, induced_subgraph, quotient)
from .trees import (LabeledTree, canonicalize, certify_relation,
                    leaf_distance_matrix)


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
    for blk in dec.blocks:
        for u, v in combinations(sorted(blk), 2):
            if not g.has_edge(u, v):
                raise ValueError("graph is not a block graph")

    edges: list[tuple[int, int, int]] = []
    names: dict[int, str] = {}
    pos = list(range(g.n))  # tree vertex standing for each graph vertex
    next_id = g.n

    for blk in dec.blocks:
        vs = sorted(blk)
        if len(vs) == 2:
            edges.append((pos[vs[0]], pos[vs[1]], 2))
        else:
            center = next_id
            next_id += 1
            for v in vs:
                edges.append((pos[v], center, 1))
    for v in range(g.n):
        if v in dec.cut_vertices:
            leaf = next_id
            next_id += 1
            edges.append((pos[v], leaf, 0))
            names[leaf] = str(v)
        else:
            names[pos[v]] = str(v)
    return LabeledTree.build(next_id, edges, names)


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

    edges: list[tuple[int, int, int]] = []
    names: dict[int, str] = {}
    anchors: list[int] = []
    next_id = 0

    for t in trees:
        shift = next_id
        remap = {v: shift + v for v in range(t.nv)}
        next_id += t.nv
        for u, v, w in t.weighted_edges():
            edges.append((remap[u], remap[v], w))
        for v, s in t.names.items():
            names[remap[v]] = s

        if t.n_leaves == 1:
            hub = next_id
            next_id += 1
            edges.append((hub, remap[0], 0))
            anchors.append(hub)
        elif t.nv == 2:
            mid = next_id
            next_id += 1
            (a, b, w) = t.weighted_edges()[0]
            edges.remove((remap[a], remap[b], w))
            edges.append((remap[a], mid, w - w // 2))
            edges.append((mid, remap[b], w // 2))
            anchors.append(mid)
        else:
            anchors.append(remap[min(t.interior_vertices())])

    for a, b in zip(anchors, anchors[1:]):
        edges.append((a, b, k + 1))
    return LabeledTree.build(next_id, edges, names)


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
    at weight w.  One- and two-leaf inputs are handled directly in the
    same spirit.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if tstar.n_leaves != len(p.classes):
        raise ValueError("partition size does not match the tree's leaf count")

    member_names = [tuple(str(v) for v in cls) for cls in p.classes]

    if tstar.n_leaves == 1:
        (ms,) = member_names
        if len(ms) == 1:
            return LabeledTree.build(1, [], {0: ms[0]})
        if len(ms) == 2:
            return LabeledTree.build(2, [(0, 1, 0)], {0: ms[0], 1: ms[1]})
        edges = [(0, i + 1, 0) for i in range(len(ms))]
        return LabeledTree.build(len(ms) + 1, edges,
                                 {i + 1: s for i, s in enumerate(ms)})

    if tstar.nv == 2:
        (_, _, w) = tstar.weighted_edges()[0]
        a, b = sorted(tstar.names.values())  # "0", "1"
        ma = member_names[int(a)]
        mb = member_names[int(b)]
        if len(ma) == 1 and len(mb) == 1:
            return LabeledTree.build(2, [(0, 1, w)], {0: ma[0], 1: mb[0]})
        if len(ma) == 1 or len(mb) == 1:
            single, group = (ma, mb) if len(ma) == 1 else (mb, ma)
            # hub carries the group on 0-edges; the singleton sits at w
            edges = [(0, 1, w)]
            names = {1: single[0]}
            nid = 2
            for s in group:
                edges.append((0, nid, 0))
                names[nid] = s
                nid += 1
            return LabeledTree.build(nid, edges, names)
        edges = [(0, 1, w)]
        names: dict[int, str] = {}
        nid = 2
        for s in ma:
            edges.append((0, nid, 0))
            names[nid] = s
            nid += 1
        for s in mb:
            edges.append((1, nid, 0))
            names[nid] = s
            nid += 1
        return LabeledTree.build(nid, edges, names)

    # general case: every leaf's neighbor is a non-leaf vertex
    adj: dict[int, dict[int, int]] = {v: dict(tstar.adj[v]) for v in range(tstar.nv)}
    names = {}
    for v, s in tstar.names.items():
        names[v] = s
    next_id = tstar.nv

    for i, ms in enumerate(member_names):
        leaf = tstar.vertex_of(str(i))
        if len(ms) == 1:
            names[leaf] = ms[0]
            continue
        (q,) = adj[leaf].keys()
        lam = adj[leaf][q]
        del adj[q][leaf]
        del adj[leaf]
        del names[leaf]
        if 2 * lam != k:
            attach, w_leaf = q, lam
        else:
            hub = next_id
            next_id += 1
            adj[hub] = {}
            adj[q][hub] = lam
            adj[hub][q] = lam
            attach, w_leaf = hub, 0
        for s in ms:
            nid = next_id
            next_id += 1
            adj[nid] = {attach: w_leaf}
            adj[attach][nid] = w_leaf
            names[nid] = s

    verts = sorted(adj)
    new_id = {v: i for i, v in enumerate(verts)}
    out_edges = [(new_id[u], new_id[v], w) for u in adj
                 for v, w in adj[u].items() if new_id[u] < new_id[v]]
    out_names = {new_id[v]: s for v, s in names.items()}
    return LabeledTree.build(len(verts), out_edges, out_names)


# ======================================================================
# Verification and recognition
# ======================================================================

def verify(t: LabeledTree, g: Graph, k: int) -> VerificationResult:
    """Check that the tree's level-k relation is exactly the graph.

    Tree leaves must be named "0" .. "n-1" matching the graph's
    vertices; otherwise the result reports the name mismatch and fails.
    A linear-time counting certificate (``certify_relation``) decides;
    only when it fails are all leaf pairs compared, to list the missing
    and extra ones.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    want = {str(v) for v in range(g.n)}
    have = set(t.names.values())
    if want != have:
        diff = tuple(sorted(want.symmetric_difference(have)))
        return VerificationResult(False, diff, (), ())
    pairs = [(t.vertex_of(str(u)), t.vertex_of(str(v))) for u, v in g.edges]
    if certify_relation(t, 0, pairs, k):
        return VerificationResult(True, (), (), ())
    dm = leaf_distance_matrix(t)
    ids = [int(s) for s in dm.names]
    missing = []
    extra = []
    for i, row in enumerate(dm.dist):
        for j in range(i + 1, len(ids)):
            u, v = sorted((ids[i], ids[j]))
            related = row[j] == k
            if related and not g.has_edge(u, v):
                extra.append((u, v))
            elif not related and g.has_edge(u, v):
                missing.append((u, v))
    ok = not missing and not extra
    return VerificationResult(ok, (), tuple(sorted(missing)), tuple(sorted(extra)))


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

    qres = quotient(g)
    p, q = qres.partition, qres.graph
    reps = p.representatives

    for blk in block_decomposition(q).blocks:
        vs = sorted(blk)
        if any(not q.has_edge(u, v) for u, v in combinations(vs, 2)):
            cert = tuple(sorted(reps[v] for v in vs))
            return RecognitionOutcome(False, None, cert)

    comps = connected_components(q)
    trees: list[LabeledTree] = []
    for comp in comps:
        vs = sorted(comp)
        if len(vs) == 1:
            trees.append(LabeledTree.build(1, [], {0: str(vs[0])}))
            continue
        sub = induced_subgraph(q, vs)
        t = construct_block_tree(sub)
        renamed = {v: str(vs[int(s)]) for v, s in t.names.items()}
        trees.append(LabeledTree.build(t.nv, t.weighted_edges(), renamed))
    joined = join_components(trees, k)
    expanded = blow_up(joined, p, k)
    witness = canonicalize(expanded) if expanded.n_leaves >= 2 else expanded

    check = verify(witness, g, k)
    if not check.ok:
        raise AssertionError(f"internal error: witness failed verification "
                             f"({check})")
    return RecognitionOutcome(True, witness, None)
