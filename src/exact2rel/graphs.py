"""Finite simple graphs and oriented graphs with the operations the
recognition pipeline needs: twin partitions, quotients, connected
components, block decomposition, induced subgraphs, a line-oriented
text format, and the pause of the cyclic garbage collector that the
command line and the oracle's witness listing run under.

Vertices are always the integers ``0 .. n-1``.  Adjacency sets are the
stored form: a graph keeps each vertex's neighbor set, an oriented graph
its out- and in-neighbor sets.  The edge set (pairs ``(u, v)`` with
``u < v``) and the arc set (pairs that keep their direction) are built
from them on first read and cached.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from operator import eq
from typing import Iterable, Iterator


class GraphFormatError(ValueError):
    """Raised when graph text input cannot be parsed."""


# ======================================================================
# Value types
# ======================================================================

class Graph:
    """Immutable simple undirected graph on vertices ``0 .. n-1``."""

    __slots__ = ("n", "m", "adj", "_edges")

    def __init__(self, adj: tuple[frozenset[int], ...]):
        self.n = len(adj)
        self.m = sum(map(len, adj)) // 2
        self.adj = adj
        self._edges: frozenset[tuple[int, int]] | None = None

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edges as pairs ``(u, v)`` with ``u < v``."""
        if self._edges is None:
            self._edges = frozenset((u, v) for u, nb in enumerate(self.adj)
                                    for v in nb if u < v)
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class OrientedGraph:
    """Immutable oriented graph: a digraph with no loops and no 2-cycles."""

    __slots__ = ("n", "m", "out_adj", "in_adj", "_arcs")

    def __init__(self, out_adj: tuple[frozenset[int], ...],
                 in_adj: tuple[frozenset[int], ...]):
        self.n = len(out_adj)
        self.m = sum(map(len, out_adj))
        self.out_adj = out_adj
        self.in_adj = in_adj
        self._arcs: frozenset[tuple[int, int]] | None = None

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """Arcs as pairs ``(tail, head)``."""
        if self._arcs is None:
            self._arcs = frozenset((u, v) for u, nb in enumerate(self.out_adj)
                                   for v in nb)
        return self._arcs

    def has_arc(self, u: int, v: int) -> bool:
        return v in self.out_adj[u]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OrientedGraph)
                and self.out_adj == other.out_adj)

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class TwinPartition:
    """Partition of the vertex set into false-twin classes.

    ``classes`` holds each class as a sorted tuple of vertices, ordered
    by the class representative (its smallest member).  Properties give
    the representatives and ``is_discrete``: no twins (point-determining).
    """

    n: int
    classes: tuple[tuple[int, ...], ...]

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)

    @property
    def is_discrete(self) -> bool:
        """True when every class is a singleton."""
        return all(len(c) == 1 for c in self.classes)


@dataclass(frozen=True)
class QuotientResult:
    """Quotient graph together with the partition it contracts.

    Quotient vertex ``i`` stands for class ``i`` of ``partition``.
    """

    graph: Graph | OrientedGraph
    partition: TwinPartition


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs, including bridges) and cut
    vertices of a graph.  Isolated vertices belong to no block."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]


# ======================================================================
# Constructors
# ======================================================================

def _endpoints(n: int, pairs: Iterable[tuple[int, int]],
               kind: str) -> tuple[list[int], list[int]]:
    """The tails and the heads of ``pairs``, checked pair by pair in
    input order: a pair's range before its loop."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    us, vs = [], []
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{kind} ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        us.append(u)
        vs.append(v)
    return us, vs


def _add_all(sets: list[set[int]], us: list[int],
             vs: list[int]) -> list[set[int]]:
    """Add each ``vs[i]`` to ``sets[us[i]]``, the whole loop in C."""
    deque(map(set.add, map(sets.__getitem__, us), vs), 0)
    return sets


def _graph(n: int, us: list[int], vs: list[int]) -> Graph:
    adj = _add_all(_add_all([set() for _ in range(n)], us, vs), vs, us)
    return Graph(tuple(map(frozenset, adj)))


def _oriented(n: int, us: list[int], vs: list[int]) -> OrientedGraph | None:
    """The oriented graph of the arcs ``us[i] -> vs[i]``, or ``None``
    when two of them are opposite."""
    out_adj = _add_all([set() for _ in range(n)], us, vs)
    in_adj = _add_all([set() for _ in range(n)], vs, us)
    if not all(map(set.isdisjoint, out_adj, in_adj)):
        return None
    return OrientedGraph(tuple(map(frozenset, out_adj)),
                         tuple(map(frozenset, in_adj)))


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list.

    Args:
        n: number of vertices; vertex ids run ``0 .. n-1``.
        pairs: iterable of edges; order within a pair is irrelevant and
            duplicates are merged.

    Raises:
        ValueError: on a self-loop or an out-of-range endpoint.
    """
    return _graph(n, *_endpoints(n, pairs, "edge"))


def from_arc_list(n: int, pairs: Iterable[tuple[int, int]]) -> OrientedGraph:
    """Build an oriented graph from an arc list ``(tail, head)``.

    Raises:
        ValueError: on a self-loop, an out-of-range endpoint, or a pair
            of opposite arcs (2-cycle).
    """
    us, vs = _endpoints(n, pairs, "arc")
    d = _oriented(n, us, vs)
    if d is None:
        # the first opposite pair in the arc set's own order
        arcs = set(zip(us, vs))
        for u, v in arcs:
            if (v, u) in arcs:
                raise ValueError(f"2-cycle between {u} and {v}")
    return d


# ======================================================================
# Twin partitions and quotients
# ======================================================================

def false_twin_partition(g: Graph) -> TwinPartition:
    """Group vertices with identical open neighborhoods.

    False twins are never adjacent (a vertex is not in its own open
    neighborhood), so every class is an independent set.
    """
    by_nbhd: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):  # in increasing order, so classes come out sorted
        by_nbhd.setdefault(g.adj[v], []).append(v)
    return TwinPartition(g.n, tuple(map(tuple, by_nbhd.values())))


def _contracted(p: TwinPartition, *adjs: tuple[frozenset[int], ...]
                ) -> tuple[tuple[frozenset[int], ...], ...]:
    """Each of ``adjs`` with class ``i`` of ``p`` as vertex ``i``, adjacent
    to the classes of its representative's neighbors."""
    new = {v: i for i, cls in enumerate(p.classes) for v in cls}
    return tuple(tuple(frozenset(map(new.__getitem__, adj[c[0]]))
                       for c in p.classes) for adj in adjs)


def quotient(g: Graph) -> QuotientResult:
    """Contract each false-twin class of ``g`` to a single vertex.

    Quotient vertex ``i`` is class ``i`` of ``false_twin_partition(g)``,
    adjacent to the classes its members are adjacent to.  That is
    well defined because a neighborhood is a union of whole classes.
    When every class is a singleton, class ``i`` is vertex ``i`` and
    the quotient is ``g`` itself.
    """
    p = false_twin_partition(g)
    return QuotientResult(g if len(p.classes) == g.n
                          else Graph(*_contracted(p, g.adj)), p)


def directed_twin_partition(d: OrientedGraph) -> TwinPartition:
    """Group vertices with identical in- and out-neighborhoods."""
    by_nbhd: dict[tuple, list[int]] = {}
    for v in range(d.n):  # in increasing order, so classes come out sorted
        by_nbhd.setdefault((d.in_adj[v], d.out_adj[v]), []).append(v)
    return TwinPartition(d.n, tuple(map(tuple, by_nbhd.values())))


def directed_quotient(d: OrientedGraph) -> QuotientResult:
    """Contract each directed twin class of ``d`` to a single vertex,
    numbered as in ``directed_twin_partition(d)``; ``d`` itself when
    every class is a singleton."""
    p = directed_twin_partition(d)
    return QuotientResult(d if len(p.classes) == d.n else OrientedGraph(
        *_contracted(p, d.out_adj, d.in_adj)), p)


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
        stack = [(start, iter(g.adj[start]))]
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
                    stack.append((w, iter(g.adj[w])))
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


def non_clique_block(g: Graph, dec: BlockDecomposition) -> frozenset[int] | None:
    """The first block of ``dec`` (the blocks of ``g``) that does not
    induce a clique, or ``None`` when every block does."""
    return next((blk for blk in dec.blocks
                 if any(len(g.adj[v] & blk) < len(blk) - 1 for v in blk)),
                None)


def is_block_graph(g: Graph) -> bool:
    """True when every block of ``g`` induces a clique."""
    return non_clique_block(g, block_decomposition(g)) is None


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced on ``keep``, relabeled ``0 .. |keep|-1`` in
    increasing original-id order."""
    vs = sorted(set(keep))
    if any(v < 0 or v >= g.n for v in vs):
        raise ValueError("vertex out of range")
    new_id = {v: i for i, v in enumerate(vs)}
    return Graph(tuple(frozenset([new_id[w] for w in g.adj[v] if w in new_id])
                       for v in vs))


def underlying_graph(d: OrientedGraph) -> Graph:
    """Forget arc directions."""
    return Graph(tuple(map(frozenset.union, d.out_adj, d.in_adj)))


def is_forest(g: Graph) -> bool:
    """True when ``g`` is acyclic."""
    return g.m == g.n - len(connected_components(g))


def find_cycle(g: Graph) -> list[int] | None:
    """Vertices of some cycle in ``g``, or None if ``g`` is a forest.

    The depth-first search starts at the smallest vertex of each
    component and takes each vertex's neighbors in increasing order, so
    the cycle depends on ``g`` alone, not on the order it was built in.
    """
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
            for w in sorted(g.adj[v]):
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
# Text format
# ======================================================================
# Line 1: "n m".  Then m lines "u v" with 0-based endpoints.  Lines
# starting with "#" are comments; blank lines are ignored.  The writer
# emits edges sorted lexicographically.  The same layout serves oriented
# graphs, with each line read as an arc tail -> head.

# The most vertices a header may declare: the readers allocate for each
# one (an edgeless graph at the bound recognizes at a peak near 300 MB).
MAX_VERTICES = 200_000


def _parse_pairs(text: str) -> tuple[int, list[tuple[int, int]]]:
    # split() drops the whitespace strip() would, so a line is blank or a
    # comment exactly when it splits to nothing or to a "#..." first field
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        parts = raw.split()
        if parts and parts[0][0] != "#":
            break
    else:
        raise GraphFormatError("empty input: expected a header line 'n m'")
    if len(parts) != 2:
        raise GraphFormatError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: header must be two integers") from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: negative count in header")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"line {lineno}: {n} vertices is more than "
                               f"the limit of {MAX_VERTICES}")
    # count every edge line, read them up to the first bad one: a wrong
    # count outranks a bad line
    pairs = []
    found = 0
    error = None
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        found += 1
        if error:
            continue
        if len(parts) != 2:
            error = f"line {lineno}: expected 'u v'"
            continue
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            error = f"line {lineno}: endpoints must be integers"
            continue
        if not (0 <= u < n and 0 <= v < n):
            error = f"line {lineno}: endpoint out of range"
            continue
        pairs.append((u, v))
    if found != m:
        raise GraphFormatError(
            f"header announces {m} edge lines but {found} found")
    if error:
        raise GraphFormatError(error)
    return n, pairs


_DIGITS = str.maketrans("", "", "0123456789")


def _plain_pairs(text: str) -> tuple[int, list[int], list[int]] | None:
    """``(n, tails, heads)`` when ``text`` is in the plain layout and
    every pair is in range and no loop, else ``None``.

    The plain layout is what ``format_graph`` and ``format_oriented``
    write: a header ``n m``, then ``m`` lines ``u v``, each of ASCII
    digits split by one space and ended by a newline.  Its shape is
    checked and its numbers read in bulk; ``_parse_pairs`` reads other
    text and headers above ``MAX_VERTICES``, same results and errors.
    """
    head, _, body = text.partition("\n")
    parts = head.split()
    if len(parts) != 2 or head.translate(_DIGITS) != " ":
        return None
    n, m = map(int, parts)
    if n > MAX_VERTICES:  # refused, with its message, by ``_parse_pairs``
        return None
    shape = body.translate(_DIGITS)
    # the length first: a header can announce more lines than memory holds
    if len(shape) != 2 * m or shape != " \n" * m:
        return None
    ends = list(map(int, body.split()))
    if len(ends) != 2 * m or (ends and max(ends) >= n):
        return None
    us, vs = ends[::2], ends[1::2]
    if any(map(eq, us, vs)):
        return None
    return n, us, vs


def parse_graph(text: str) -> Graph:
    """Parse the undirected text format.

    Raises:
        GraphFormatError: malformed header, edge line, or self-loop.
    """
    plain = _plain_pairs(text)
    if plain is not None:
        return _graph(*plain)
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
    plain = _plain_pairs(text)
    d = _oriented(*plain) if plain is not None else None
    if d is not None:
        return d
    n, pairs = _parse_pairs(text)
    try:
        return from_arc_list(n, pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def format_oriented(d: OrientedGraph) -> str:
    lines = [f"{d.n} {d.m}"]
    lines += [f"{u} {v}" for u, v in sorted(d.arcs)]
    return "\n".join(lines) + "\n"


# ======================================================================
# Collector pause
# ======================================================================

@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause CPython's cyclic garbage collector for the ``with`` body,
    then put back the state it found.

    The graphs, sets, trees and texts this package builds hold no
    reference cycles, so reference counting frees them all; the
    collector would only walk them again and again while a body builds
    more.  The only place that pauses or tunes the collector.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
