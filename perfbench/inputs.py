"""Seeded input generation for the exact2rel benchmark.

Standard library only.  Nothing here imports ``exact2rel``, so a change
to the program cannot change the inputs a seed produces.

Every generator returns plain data: vertex counts, edge or arc lists,
adjacency maps of trees, and what the correctness gate must see (the
planted certificate, the leaf names, whether a caterpillar is deeper
than the recursion limit).  ``build_pool`` turns a workload name and a
seed into the list of operations of one pass, writes the CLI input
files and returns the SHA-256 of everything written.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import sys
from itertools import combinations, permutations

WHY = {
    "recognize_members":
        "realizable inputs run the whole yes path (twins, quotient, blocks, "
        "build, join, blow-up, canonicalize, self-check, Newick); the "
        "self-check dominates",
    "large_inputs":
        "non-members of 10^3-3*10^4 vertices and 500-4000-leaf canonicalize "
        "use graphs, newick and trees at scale and never reach an all-pairs "
        "check; deep caterpillars keep the recursion crash visible",
    "oracle_5":
        "the only workload that calls the enumeration kernel: topology "
        "preparation, kernel and mask canonicalization take all the time",
}

WORKLOADS = tuple(WHY)

# Operations per pass of the input pool; a run makes whole passes.  The
# more distinct inputs a pass holds, the less a seed moves its latency
# percentiles, so the two workloads whose costs depend on the drawn
# structure make two passes of a large pool per run, not four of a
# small one.
POOL_SIZE = {"recognize_members": 128, "large_inputs": 96, "oracle_5": 24}

ORACLE_VARIANTS = (
    ("--k", "2"),
    ("--k", "2", "--zero-discrete"),
    ("--k", "1", "--zero-discrete"),
)

# ======================================================================
# Sampling helpers
# ======================================================================

def _vdc(i: int) -> float:
    """Van der Corput radical inverse of ``i`` in base 2."""
    x, f = 0.0, 0.5
    while i:
        if i & 1:
            x += f
        i >>= 1
        f /= 2
    return x


def spread_order(count: int) -> list[int]:
    """Permutation of ``range(count)`` whose every prefix samples the
    range evenly (bit-reversal order for powers of two)."""
    return sorted(range(count), key=_vdc)


def log_grid(count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes spread log-uniformly over ``[lo, hi]`` (the
    midpoints of equal strata of the log range), in spread order.

    The sizes do not depend on the seed: operation costs grow as a
    power of the size, so a per-seed jitter of a few percent in size
    would move the latency percentiles by several times as much.  The
    seed draws everything else.
    """
    a, b = math.log(lo), math.log(hi)
    sizes = [int(round(math.exp(a + (i + 0.5) / count * (b - a))))
             for i in range(count)]
    return [sizes[i] for i in spread_order(count)]


# ======================================================================
# Graphs
# ======================================================================

def _class_sizes(rng: random.Random, n: int) -> list[int]:
    """Twin-class sizes of 1-3 summing to ``n``."""
    sizes = []
    total = 0
    while total < n:
        c = min(rng.randint(1, 3), n - total)
        sizes.append(c)
        total += c
    return sizes


def _component_bounds(rng: random.Random, q: int) -> list[int]:
    """Split ``0 .. q-1`` into 1-3 consecutive components."""
    parts = min(rng.choice((1, 1, 2, 3)), q)
    cuts = sorted(rng.sample(range(1, q), parts - 1))
    return [0] + cuts + [q]


def _block_graph(rng: random.Random, lo: int, hi: int) -> list[tuple[int, int]]:
    """Edges of a random connected block graph on ``lo .. hi-1``: each new
    block is a clique of 2-5 vertices sharing one old vertex."""
    verts = [lo]
    edges: list[tuple[int, int]] = []
    nxt = lo + 1
    while nxt < hi:
        size = min(rng.choice((2, 2, 3, 3, 4, 5)), hi - nxt + 1)
        block = [rng.choice(verts)] + list(range(nxt, nxt + size - 1))
        nxt += size - 1
        verts.extend(block[1:])
        edges.extend(combinations(block, 2))
    return edges


def _blow_up(sizes: list[int], qpairs: list[tuple[int, int]]
             ) -> list[tuple[int, int]]:
    """Replace quotient vertex ``i`` by ``sizes[i]`` twins."""
    members = []
    v = 0
    for c in sizes:
        members.append(range(v, v + c))
        v += c
    return [(x, y) for a, b in qpairs for x in members[a] for y in members[b]]


def _relabel(rng: random.Random, n: int, pairs: list[tuple[int, int]]
             ) -> tuple[list[int], list[tuple[int, int]]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [(perm[u], perm[v]) for u, v in pairs]


def member_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a realizable graph on ``n`` vertices: a false-twin
    blow-up (classes of 1-3) of a random block graph with 1-3
    components, randomly relabeled."""
    sizes = _class_sizes(rng, n)
    bounds = _component_bounds(rng, len(sizes))
    qedges = []
    for lo, hi in zip(bounds, bounds[1:]):
        qedges += _block_graph(rng, lo, hi)
    return _relabel(rng, n, _blow_up(sizes, qedges))[1]


def member_oriented(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Arcs of a realizable oriented graph on ``n`` vertices: a directed
    twin blow-up (classes of 1-3) of a random arborescence forest."""
    sizes = _class_sizes(rng, n)
    qarcs = [(rng.randrange(i), i) for i in range(1, len(sizes))
             if rng.random() > 0.03]
    return _relabel(rng, n, _blow_up(sizes, qarcs))[1]


def false_twin_classes(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    by_key: dict[frozenset[int], list[int]] = {}
    for v in range(n):
        by_key.setdefault(frozenset(nbrs[v]), []).append(v)
    return list(by_key.values())


def directed_twin_classes(n: int, arcs: list[tuple[int, int]]
                          ) -> list[list[int]]:
    ins: list[set[int]] = [set() for _ in range(n)]
    outs: list[set[int]] = [set() for _ in range(n)]
    for u, v in arcs:
        outs[u].add(v)
        ins[v].add(u)
    by_key: dict[tuple, list[int]] = {}
    for v in range(n):
        by_key.setdefault((frozenset(ins[v]), frozenset(outs[v])), []).append(v)
    return list(by_key.values())


def _singletons(classes: list[list[int]]) -> list[int]:
    return sorted(c[0] for c in classes if len(c) == 1)


def nonmember_graph(rng: random.Random, n: int
                    ) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """A realizable bulk plus an induced C5-C9 glued at one vertex whose
    twin class is a singleton.  Returns the edges and the certificate
    the recognizer must report: the cycle's vertices, sorted."""
    length = rng.randint(5, 9)
    bulk_n = n - length + 1
    while True:
        bulk = member_graph(rng, bulk_n)
        single = _singletons(false_twin_classes(bulk_n, bulk))
        if single:
            break
    glue = rng.choice(single)
    cycle = [glue] + list(range(bulk_n, n))
    edges = bulk + list(zip(cycle, cycle[1:] + cycle[:1]))
    perm, edges = _relabel(rng, n, edges)
    cert = tuple(sorted(perm[v] for v in cycle))
    if not set(cert) <= set(_singletons(false_twin_classes(n, edges))):
        raise AssertionError("planted cycle merged with a twin class")
    return edges, cert


def nonmember_oriented(rng: random.Random, n: int, kind: str
                       ) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """A realizable oriented bulk plus one planted obstruction.

    ``kind="cycle"``: a directed 3-8 cycle through a singleton-class
    vertex; the certificate is its vertex set, sorted.
    ``kind="in-star"``: a fresh vertex with an arc into a non-root
    singleton-class vertex z; the certificate is the two smallest
    representatives of z's in-neighbour classes, then z.
    """
    extra = rng.randint(2, 7) if kind == "cycle" else 1
    bulk_n = n - extra
    while True:
        bulk = member_oriented(rng, bulk_n)
        classes = directed_twin_classes(bulk_n, bulk)
        single = _singletons(classes)
        if kind == "in-star":
            has_parent = {v for _, v in bulk}
            single = [v for v in single if v in has_parent]
        if single:
            break
    z = rng.choice(single)
    if kind == "cycle":
        cycle = [z] + list(range(bulk_n, n))
        arcs = bulk + list(zip(cycle, cycle[1:] + cycle[:1]))
        perm, arcs = _relabel(rng, n, arcs)
        cert = tuple(sorted(perm[v] for v in cycle))
        if not set(cert) <= set(_singletons(directed_twin_classes(n, arcs))):
            raise AssertionError("planted cycle merged with a twin class")
        return arcs, cert
    arcs = bulk + [(bulk_n, z)]
    perm, arcs = _relabel(rng, n, arcs)
    z = perm[z]
    classes = directed_twin_classes(n, arcs)
    rep = {v: min(c) for c in classes for v in c}
    in_reps = sorted({rep[u] for u, v in arcs if rep[v] == rep[z]})
    if len(in_reps) < 2 or rep[z] != z:
        # the fresh vertex became a twin of z's parent: draw again
        return nonmember_oriented(rng, n, kind)
    return arcs, (in_reps[0], in_reps[1], z)


def format_pairs(n: int, pairs: list[tuple[int, int]]) -> str:
    return f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


# ======================================================================
# Trees
# ======================================================================

def random_tree(rng: random.Random, leaves: int) -> tuple[dict, dict[int, str]]:
    """Unrooted tree with ``leaves`` named leaves, grown by attaching to
    uniformly random vertices (logarithmic depth), then roughened for
    ``canonicalize``: some edges subdivided into degree-2 vertices and
    some interior vertices split by 0-edges.  Weights are 0-3.

    Returns an adjacency ``{v: {u: weight}}`` and the leaf names.
    """
    adj: dict[int, dict[int, int]] = {0: {}}
    leaf = {0: False}
    nxt = 1
    for _ in range(3):
        adj[0][nxt] = adj.setdefault(nxt, {})[0] = rng.randint(0, 3)
        leaf[nxt] = True
        nxt += 1
    for _ in range(leaves - 3):
        # a leaf that is picked turns interior and gets two new leaves
        x = rng.randrange(nxt)
        new = [nxt, nxt + 1] if leaf[x] else [nxt]
        leaf[x] = False
        for v in new:
            adj[v] = {x: rng.randint(0, 3)}
            adj[x][v] = adj[v][x]
            leaf[v] = True
        nxt += len(new)
    edges = [(u, v) for u in adj for v in adj[u] if u < v]
    for u, v in rng.sample(edges, len(edges) // 10):
        w = adj[u].pop(v)
        del adj[v][u]
        a = rng.randint(0, w)
        adj[nxt] = {u: a, v: w - a}
        adj[u][nxt] = a
        adj[v][nxt] = w - a
        nxt += 1
    interior = [v for v in adj if len(adj[v]) >= 3]
    for v in rng.sample(interior, len(interior) // 10):
        moved = rng.sample(sorted(adj[v]), len(adj[v]) // 2)
        adj[nxt] = {}
        for u in moved:
            w = adj[v].pop(u)
            adj[u].pop(v)
            adj[u][nxt] = adj[nxt][u] = w
        adj[v][nxt] = adj[nxt][v] = 0
        nxt += 1
    return adj, _name_leaves(rng, adj)


def caterpillar(rng: random.Random, leaves: int) -> tuple[dict, dict[int, str]]:
    """A spine of ``leaves - 2`` interior vertices, one leaf on each
    (two on each end), weights 0-3.  Written from one end of the spine
    its Newick nesting depth is about ``leaves``."""
    spine = leaves - 2
    adj: dict[int, dict[int, int]] = {v: {} for v in range(spine)}
    for v in range(1, spine):
        adj[v - 1][v] = adj[v][v - 1] = rng.randint(0, 3)
    nxt = spine
    for v in [0] + list(range(spine)) + [spine - 1]:
        adj[nxt] = {v: rng.randint(0, 3)}
        adj[v][nxt] = adj[nxt][v]
        nxt += 1
    return adj, _name_leaves(rng, adj)


def _name_leaves(rng: random.Random, adj: dict) -> dict[int, str]:
    leaves = [v for v in adj if len(adj[v]) == 1]
    labels = [str(i) for i in range(len(leaves))]
    rng.shuffle(labels)
    return dict(zip(leaves, labels))


def newick_text(adj: dict, names: dict[int, str], top: int) -> tuple[str, int]:
    """Newick text of the tree written from ``top``, and its nesting
    depth.  Iterative, so any depth can be written."""
    out: dict[int, str] = {}
    depth = {top: 0}
    order = [top]
    parent = {top: None}
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                depth[u] = depth[v] + 1
                order.append(u)
    for v in reversed(order):
        kids = [u for u in adj[v] if u != parent[v]]
        if kids:
            out[v] = "(" + ",".join(f"{out.pop(u)}:{adj[v][u]}"
                                     for u in kids) + ")"
        else:
            out[v] = names[v]
    return out[top] + ";", max(depth.values())


# ======================================================================
# Five-vertex graphs for the oracle
# ======================================================================

_PAIRS5 = list(combinations(range(5), 2))


def class_key(edges) -> int:
    """Smallest pair bitmask of a 5-vertex graph over all relabelings."""
    index = {pr: i for i, pr in enumerate(_PAIRS5)}
    best = None
    for perm in permutations(range(5)):
        mask = 0
        for u, v in edges:
            a, b = sorted((perm[u], perm[v]))
            mask |= 1 << index[(a, b)]
        if best is None or mask < best:
            best = mask
    return best


# Members with more witnesses than this (the edgeless graph: 85 473,
# one edge: 5 528) are not drawn: building that many trees, not the
# enumeration kernel, would set their time.
MAX_WITNESSES = 1000


def random_graph5(rng: random.Random, want_member: bool,
                  counts: dict[int, int]) -> tuple[list, int]:
    """A uniformly random labeled 5-vertex graph that is (or is not) a
    member, by rejection; ``counts`` maps class keys to pinned witness
    counts (0 for non-members).  Returns the edges and the class key."""
    while True:
        mask = rng.getrandbits(len(_PAIRS5))
        edges = [pr for i, pr in enumerate(_PAIRS5) if mask >> i & 1]
        key = class_key(edges)
        if want_member and 0 < counts[key] <= MAX_WITNESSES:
            return edges, key
        if not want_member and counts[key] == 0:
            return edges, key


# ======================================================================
# Pools
# ======================================================================

def _op(kind: str, argv: list[str] | None = None, **expect) -> dict:
    return {"kind": kind, "argv": argv, **expect}


def _schedule(pattern: tuple[str, ...], size: int) -> list[str]:
    """Kind of each operation in pass order: ``pattern`` repeated."""
    return [pattern[i % len(pattern)] for i in range(size)]


def build_pool(workload: str, seed: int, workdir: str,
               witness_counts: dict[int, int]) -> tuple[list[dict], str]:
    """Write one pass of inputs for ``workload`` under ``workdir`` and
    return its operations (in pass order) and the SHA-256 of the input
    set.  The same workload and seed always give the same inputs.

    Operation kinds follow a fixed repeating pattern, and each kind
    takes its sizes from its own log grid in spread order, so any
    prefix of a pass holds the kinds and sizes in their intended
    proportions.
    """
    rng = random.Random(f"exact2rel-bench:{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    digest = hashlib.sha256()
    ops: list[dict] = []

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        digest.update(f"{name}\n{len(text)}\n".encode())
        digest.update(text.encode())
        return path

    def sizes(kinds: list[str], kind: str, lo: int, hi: int):
        return iter(log_grid(kinds.count(kind), lo, hi))

    if workload == "recognize_members":
        kinds = _schedule(("member", "member", "member", "member_oriented"),
                          POOL_SIZE[workload])
        draw = {k: sizes(kinds, k, 48, 384) for k in set(kinds)}
        for i, kind in enumerate(kinds):
            n = next(draw[kind])
            oriented = kind == "member_oriented"
            pairs = member_oriented(rng, n) if oriented else member_graph(rng, n)
            path = write(f"m{i:03d}.txt", format_pairs(n, pairs))
            argv = ["recognize", path] + (["--oriented"] if oriented else [])
            ops.append(_op(kind, argv, n=n, pairs=pairs))
    elif workload == "large_inputs":
        kinds = _schedule(("graph", "cycle", "graph", "tree",
                           "in-star", "graph", "cycle", "caterpillar",
                           "graph", "in-star", "graph", "tree",
                           "cycle", "graph", "in-star", "tree"),
                          POOL_SIZE[workload])
        draw = {k: sizes(kinds, k, 1000, 30000)
                for k in ("graph", "cycle", "in-star")}
        draw["tree"] = sizes(kinds, "tree", 500, 4000)
        # Caterpillars of about 707, 1414 and 2828 leaves, each size
        # twice: at the default recursion limit of 1000 the two deeper
        # ones crash at the seed (a known defect), the other one does
        # not, and none is so close to the limit that the frames
        # already on the stack would decide.
        draw["caterpillar"] = iter(
            log_grid(3, 500, 4000) * (kinds.count("caterpillar") // 3))
        for i, kind in enumerate(kinds):
            n = next(draw[kind])
            if kind in ("tree", "caterpillar"):
                adj, names = (caterpillar(rng, n) if kind == "caterpillar"
                              else random_tree(rng, n))
                text, depth = newick_text(adj, names, 0)
                path = write(f"t{i:03d}.nwk", text)
                ops.append(_op("canonicalize", ["canonicalize", path],
                               deep=depth > sys.getrecursionlimit(),
                               text=text))
            elif kind == "graph":
                edges, cert = nonmember_graph(rng, n)
                path = write(f"g{i:03d}.txt", format_pairs(n, edges))
                ops.append(_op("nonmember", ["recognize", path], n=n,
                               certificate=cert))
            else:
                arcs, cert = nonmember_oriented(rng, n, kind)
                path = write(f"g{i:03d}.txt", format_pairs(n, arcs))
                ops.append(_op("nonmember_oriented",
                               ["recognize", path, "--oriented"], n=n,
                               certificate=cert, reason=kind))
    elif workload == "oracle_5":
        kinds = _schedule(("member", "non-member", "member", "oracle",
                           "non-member", "member", "non-member", "oracle"),
                          POOL_SIZE[workload])
        variants = iter(ORACLE_VARIANTS * POOL_SIZE[workload])
        for i, kind in enumerate(kinds):
            if kind == "oracle":
                variant = next(variants)
                digest.update(" ".join(variant).encode())
                ops.append(_op("oracle", ["oracle", "--n", "5", *variant],
                               variant=" ".join(variant)))
                continue
            edges, key = random_graph5(rng, kind == "member", witness_counts)
            path = write(f"w{i:03d}.txt", format_pairs(5, edges))
            ops.append(_op("witnesses", None, path=path, pairs=edges,
                           member=kind == "member",
                           count=witness_counts[key]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, digest.hexdigest()
