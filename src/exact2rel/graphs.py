"""Finite simple graphs and oriented graphs with the operations the
recognition pipeline needs: twin partitions, quotients, connected
components, block decomposition, induced subgraphs, isomorphism testing,
and a line-oriented text format.

Vertices are always the integers ``0 .. n-1``.  Undirected edges are
stored as ordered pairs ``(u, v)`` with ``u < v``; arcs keep their
direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable


class GraphFormatError(ValueError):
    """Raised when graph text input cannot be parsed."""


# ======================================================================
# Value types
# ======================================================================

class Graph:
    """Immutable simple undirected graph on vertices ``0 .. n-1``."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]],
                 adj: tuple[frozenset[int], ...]):
        self.n = n
        self.edges = edges
        self.adj = adj

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class OrientedGraph:
    """Immutable oriented graph: a digraph with no loops and no 2-cycles."""

    __slots__ = ("n", "arcs", "out_adj", "in_adj")

    def __init__(self, n: int, arcs: frozenset[tuple[int, int]],
                 out_adj: tuple[frozenset[int], ...],
                 in_adj: tuple[frozenset[int], ...]):
        self.n = n
        self.arcs = arcs
        self.out_adj = out_adj
        self.in_adj = in_adj

    @property
    def m(self) -> int:
        return len(self.arcs)

    def has_arc(self, u: int, v: int) -> bool:
        return v in self.out_adj[u]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OrientedGraph)
                and self.n == other.n and self.arcs == other.arcs)

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertex set into false-twin classes.

    ``classes`` holds each class as a sorted tuple of vertices, ordered
    by the class representative (its smallest member).
    """

    n: int
    classes: tuple[tuple[int, ...], ...]

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)

    def is_discrete(self) -> bool:
        """True when every class is a singleton."""
        return all(len(c) == 1 for c in self.classes)


@dataclass(frozen=True)
class QuotientResult:
    """Quotient graph together with the relabeling that produced it.

    Quotient vertex ``i`` stands for class ``i`` of the input partition;
    ``vertex_to_new`` maps every original vertex to its quotient vertex.
    """

    graph: Graph
    vertex_to_new: dict[int, int]


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs, including bridges) and cut
    vertices of a graph.  Isolated vertices belong to no block."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]


# ======================================================================
# Constructors
# ======================================================================

def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list.

    Args:
        n: number of vertices; vertex ids run ``0 .. n-1``.
        pairs: iterable of edges; order within a pair is irrelevant and
            duplicates are merged.

    Raises:
        ValueError: on a self-loop or an out-of-range endpoint.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    edges = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        edges.add((u, v) if u < v else (v, u))
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, frozenset(edges), tuple(frozenset(s) for s in adj))


def from_arc_list(n: int, pairs: Iterable[tuple[int, int]]) -> OrientedGraph:
    """Build an oriented graph from an arc list ``(tail, head)``.

    Raises:
        ValueError: on a self-loop, an out-of-range endpoint, or a pair
            of opposite arcs (2-cycle).
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    arcs = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        arcs.add((u, v))
    for u, v in arcs:
        if (v, u) in arcs:
            raise ValueError(f"2-cycle between {u} and {v}")
    out_adj = [set() for _ in range(n)]
    in_adj = [set() for _ in range(n)]
    for u, v in arcs:
        out_adj[u].add(v)
        in_adj[v].add(u)
    return OrientedGraph(n, frozenset(arcs),
                         tuple(frozenset(s) for s in out_adj),
                         tuple(frozenset(s) for s in in_adj))


# ======================================================================
# Twin partitions and quotients
# ======================================================================

def false_twin_partition(g: Graph) -> TwinPartition:
    """Group vertices with identical open neighborhoods.

    False twins are never adjacent (a vertex is not in its own open
    neighborhood), so every class is an independent set.
    """
    by_nbhd: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        by_nbhd.setdefault(g.adj[v], []).append(v)
    classes = sorted((tuple(sorted(vs)) for vs in by_nbhd.values()),
                     key=lambda c: c[0])
    return TwinPartition(g.n, tuple(classes))


def quotient(g: Graph, p: TwinPartition) -> QuotientResult:
    """Contract each false-twin class to a single vertex.

    The result is the subgraph induced on the class representatives
    (smallest member of each class), relabeled ``0 .. h-1`` in
    representative order.

    Args:
        g: input graph.
        p: the partition to contract; must equal ``false_twin_partition(g)``.

    Raises:
        ValueError: if ``p`` is not the false-twin partition of ``g``.
    """
    if p != false_twin_partition(g):
        raise ValueError("partition is not the false-twin partition of g")
    reps = p.representatives
    new_id = {r: i for i, r in enumerate(reps)}
    vertex_to_new = {}
    for i, cls in enumerate(p.classes):
        for v in cls:
            vertex_to_new[v] = i
    edges = [(new_id[u], new_id[v]) for u, v in g.edges
             if u in new_id and v in new_id]
    qg = from_edge_list(len(reps), edges)
    return QuotientResult(qg, vertex_to_new)


def directed_twin_partition(d: OrientedGraph) -> TwinPartition:
    """Group vertices with identical in- and out-neighborhoods."""
    by_nbhd: dict[tuple, list[int]] = {}
    for v in range(d.n):
        by_nbhd.setdefault((d.in_adj[v], d.out_adj[v]), []).append(v)
    classes = sorted((tuple(sorted(vs)) for vs in by_nbhd.values()),
                     key=lambda c: c[0])
    return TwinPartition(d.n, tuple(classes))


def directed_quotient(d: OrientedGraph, p: TwinPartition) -> tuple[OrientedGraph, dict[int, int]]:
    """Contract directed twin classes; returns the quotient and the
    original-vertex to quotient-vertex map."""
    if p != directed_twin_partition(d):
        raise ValueError("partition is not the directed twin partition of d")
    reps = p.representatives
    new_id = {r: i for i, r in enumerate(reps)}
    vertex_to_new = {}
    for i, cls in enumerate(p.classes):
        for v in cls:
            vertex_to_new[v] = i
    arcs = [(new_id[u], new_id[v]) for u, v in d.arcs
            if u in new_id and v in new_id]
    return from_arc_list(len(reps), arcs), vertex_to_new


# ======================================================================
# Components, blocks, subgraphs
# ======================================================================

def connected_components(g: Graph) -> list[set[int]]:
    """Vertex sets of the connected components, ordered by smallest vertex."""
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = {s}
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    stack.append(w)
        out.append(comp)
    return out


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Compute blocks and cut vertices (iterative Hopcroft-Tarjan).

    A bridge forms a 2-vertex block.  Isolated vertices appear in no
    block.  Blocks are reported sorted by their vertex tuples.
    """
    disc = [0] * g.n          # 0 = unvisited; discovery times start at 1
    low = [0] * g.n
    parent: list[int | None] = [None] * g.n
    cut = set()
    blocks: list[frozenset[int]] = []
    edge_stack: list[tuple[int, int]] = []
    timer = 1

    for start in range(g.n):
        if disc[start]:
            continue
        root_children = 0
        # each frame: (vertex, iterator over neighbors)
        stack = [(start, iter(sorted(g.adj[start])))]
        disc[start] = low[start] = timer
        timer += 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if not disc[w]:
                    if v == start:
                        root_children += 1
                    edge_stack.append((v, w))
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, iter(sorted(g.adj[w]))))
                    advanced = True
                    break
                if w != parent[v] and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    # u separates v's subtree: pop one block
                    members = set()
                    while edge_stack:
                        a, b = edge_stack[-1]
                        if disc[a] < disc[v] and (a, b) != (u, v):
                            break
                        edge_stack.pop()
                        members.update((a, b))
                    members.update((u, v))
                    blocks.append(frozenset(members))
                    if u != start:
                        cut.add(u)
        if root_children >= 2:
            cut.add(start)

    blocks.sort(key=sorted)
    return BlockDecomposition(tuple(blocks), frozenset(cut))


def is_block_graph(g: Graph) -> bool:
    """True when every block of ``g`` induces a clique."""
    for blk in block_decomposition(g).blocks:
        vs = sorted(blk)
        for u, v in combinations(vs, 2):
            if not g.has_edge(u, v):
                return False
    return True


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced on ``keep``, relabeled ``0 .. |keep|-1`` in
    increasing original-id order."""
    vs = sorted(set(keep))
    if any(v < 0 or v >= g.n for v in vs):
        raise ValueError("vertex out of range")
    new_id = {v: i for i, v in enumerate(vs)}
    edges = [(new_id[u], new_id[v]) for u, v in g.edges
             if u in new_id and v in new_id]
    return from_edge_list(len(vs), edges)


def underlying_graph(d: OrientedGraph) -> Graph:
    """Forget arc directions."""
    return from_edge_list(d.n, list(d.arcs))


def is_forest(g: Graph) -> bool:
    """True when ``g`` is acyclic."""
    return g.m == g.n - len(connected_components(g))


def find_cycle(g: Graph) -> list[int] | None:
    """Vertices of some cycle in ``g``, or None if ``g`` is a forest."""
    color = [0] * g.n
    parent: list[int | None] = [None] * g.n
    for s in range(g.n):
        if color[s]:
            continue
        stack = [(s, None)]
        while stack:
            v, par = stack.pop()
            if color[v]:
                continue
            color[v] = 1
            parent[v] = par
            for w in g.adj[v]:
                if w == par:
                    continue
                if color[w]:
                    # walk back from v until we hit w
                    cycle = [w, v]
                    x = parent[v]
                    while x is not None and x != w:
                        cycle.append(x)
                        x = parent[x]
                    return cycle
                stack.append((w, v))
    return None


# ======================================================================
# Isomorphism
# ======================================================================

def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism test by permutation search with degree pruning.

    Intended for small graphs (n <= 8); cost grows factorially beyond
    that.
    """
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False
    # group h's vertices by degree so candidate images are restricted
    deg_g = [g.degree(v) for v in range(g.n)]
    deg_h = [h.degree(v) for v in range(h.n)]

    order = sorted(range(g.n), key=lambda v: -deg_g[v])
    used = [False] * h.n
    image = [0] * g.n

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(h.n):
            if used[w] or deg_h[w] != deg_g[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g.has_edge(u, v) != h.has_edge(image[u], w):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


# ======================================================================
# Text format
# ======================================================================
# Line 1: "n m".  Then m lines "u v" with 0-based endpoints.  Lines
# starting with "#" are comments; blank lines are ignored.  The writer
# emits edges sorted lexicographically.  The same layout serves oriented
# graphs, with each line read as an arc tail -> head.

def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _parse_pairs(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = _content_lines(text)
    if not lines:
        raise GraphFormatError("empty input: expected a header line 'n m'")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: header must be two integers") from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: negative count in header")
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(
            f"header announces {m} edge lines but {len(body)} found")
    pairs = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: endpoint out of range")
        pairs.append((u, v))
    return n, pairs


def parse_graph(text: str) -> Graph:
    """Parse the undirected text format.

    Raises:
        GraphFormatError: malformed header, edge line, or self-loop.
    """
    n, pairs = _parse_pairs(text)
    try:
        return from_edge_list(n, pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def parse_oriented(text: str) -> OrientedGraph:
    """Parse the text format reading each edge line as an arc."""
    n, pairs = _parse_pairs(text)
    try:
        return from_arc_list(n, pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def format_oriented(d: OrientedGraph) -> str:
    lines = [f"{d.n} {d.m}"]
    lines += [f"{u} {v}" for u, v in sorted(d.arcs)]
    return "\n".join(lines) + "\n"
