"""Shared generators and small reference implementations for the tests.

Everything here is deliberately naive: the point is to cross-check the
package against code with no shared logic.
"""

from itertools import combinations

from exact2rel import (LabeledTree, VerificationResult, enumerate_rooted,
                       enumerate_topologies, format_rooted_newick,
                       from_arc_list, from_edge_list, leaf_distance_matrix)


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


def reference_directed_relation_pairs(t, k):
    """``directed_relation_pairs`` pair by pair, through the rooted
    tree's own ancestor queries."""
    out = set()
    names = t.leaf_names
    for a in names:
        for b in names:
            if a == b:
                continue
            x, y = t.vertex_of(a), t.vertex_of(b)
            m = t.lca(x, y)
            if t.up_weight(x, m) == 0 and t.up_weight(y, m) == k:
                out.add((a, b))
    return out
