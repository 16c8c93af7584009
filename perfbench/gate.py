"""Correctness gate of the exact2rel benchmark.

Every check here is the benchmark's own code: a small iterative Newick
reader and path-weight walks that share nothing with ``construct.verify``
or ``rooted.directed_relation_pairs``.  ``check`` returns ``None`` when
an operation's output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import random

K = 2

# Witness counts of ``all_witnesses(g, EnumerationBudget(5), 2)`` per
# isomorphism class of 5-vertex graphs (key: ``inputs.class_key``),
# pinned from the seed.  0 marks the non-members.
WITNESS_COUNTS = {
    0: 85473, 1: 5528, 3: 410, 7: 60, 15: 15, 19: 188, 20: 523, 21: 17,
    23: 14, 28: 76, 29: 2, 31: 2, 54: 31, 55: 9, 58: 1, 59: 1, 62: 1,
    63: 1, 126: 6, 127: 1, 183: 11, 184: 36, 185: 1, 187: 0, 191: 1,
    207: 1, 220: 0, 221: 0, 223: 0, 254: 1, 255: 0, 495: 1, 511: 1,
    1023: 1,
}

# Class and member counts printed by ``exact2rel oracle --n 5``, pinned
# from the seed, per option variant.
_N5 = ("graph n=1: 1 classes, 1 explainable",
       "graph n=2: 2 classes, 2 explainable")
ORACLE_COUNTS = {
    "--k 2": _N5 + (
        "graph n=3: 4 classes, 4 explainable",
        "graph n=4: 11 classes, 11 explainable",
        "graph n=5: 34 classes, 29 explainable",
        "oriented n=1: 1 classes, 1 explainable",
        "oriented n=2: 2 classes, 2 explainable",
        "oriented n=3: 7 classes, 5 explainable",
        "oriented n=4: 42 classes, 14 explainable"),
    "--k 2 --zero-discrete": _N5 + (
        "graph n=3: 4 classes, 4 explainable",
        "graph n=4: 11 classes, 9 explainable",
        "graph n=5: 34 classes, 20 explainable",
        "oriented n=1: 1 classes, 1 explainable",
        "oriented n=2: 2 classes, 2 explainable",
        "oriented n=3: 7 classes, 4 explainable",
        "oriented n=4: 42 classes, 9 explainable"),
    "--k 1 --zero-discrete": _N5 + (
        "graph n=3: 4 classes, 3 explainable",
        "graph n=4: 11 classes, 6 explainable",
        "graph n=5: 34 classes, 10 explainable"),
}


# ======================================================================
# Trees
# ======================================================================

class Tree:
    """A tree as read from Newick text: vertex 0 is the top node."""

    def __init__(self) -> None:
        self.parent: list[int] = [-1]
        self.weight: list[int] = [0]      # weight of the edge to the parent
        self.children: list[list[int]] = [[]]
        self.names: dict[int, str] = {}

    def add_child(self, v: int) -> int:
        c = len(self.parent)
        self.parent.append(v)
        self.weight.append(0)
        self.children.append([])
        self.children[v].append(c)
        return c

    def neighbours(self, v: int):
        for c in self.children[v]:
            yield c, self.weight[c]
        if self.parent[v] >= 0:
            yield self.parent[v], self.weight[v]

    def leaves(self) -> list[int]:
        return [v for v in range(len(self.parent)) if not self.children[v]]


_NAME = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
            "0123456789_.-")


def parse_tree(text: str) -> Tree:
    """Read Newick text with integer weights, without recursion.

    Raises:
        ValueError: on anything but ``(``, ``)``, ``,``, ``:weight``,
            names and one final ``;``.
    """
    t = Tree()
    stack: list[int] = []
    cur = 0
    i, n = 0, len(text.rstrip())
    while i < n:
        ch = text[i]
        if ch == "(":
            stack.append(cur)
            cur = t.add_child(cur)
            i += 1
        elif ch == ",":
            if not stack:
                raise ValueError(f"',' outside parentheses at {i}")
            cur = t.add_child(stack[-1])
            i += 1
        elif ch == ")":
            if not stack:
                raise ValueError(f"unbalanced ')' at {i}")
            cur = stack.pop()
            i += 1
        elif ch == ":":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ValueError(f"missing weight at {i}")
            t.weight[cur] = int(text[i + 1:j])
            i = j
        elif ch == ";":
            if stack or i != n - 1:
                raise ValueError(f"misplaced ';' at {i}")
            i += 1
        elif ch in _NAME:
            j = i
            while j < n and text[j] in _NAME:
                j += 1
            if not t.children[cur]:
                t.names[cur] = text[i:j]
            i = j
        else:
            raise ValueError(f"unexpected {ch!r} at {i}")
    if stack or not text.rstrip().endswith(";"):
        raise ValueError("unterminated tree")
    missing = [v for v in t.leaves() if v not in t.names]
    if missing:
        raise ValueError(f"{len(missing)} unnamed leaves")
    return t


def distances_from(neighbours, src: int, cap: int | None = None
                   ) -> dict[int, int]:
    """Path weights from ``src`` to every vertex (to those within
    ``cap`` when given; weights are non-negative, so pruning is exact).
    ``neighbours(v)`` yields ``(u, weight)`` pairs."""
    dist = {src: 0}
    stack = [src]
    while stack:
        x = stack.pop()
        for y, w in neighbours(x):
            if y not in dist:
                d = dist[x] + w
                if cap is None or d <= cap:
                    dist[y] = d
                    stack.append(y)
    return dist


def undirected_relation(neighbours, names: dict[int, str]
                        ) -> set[tuple[int, int]]:
    """Leaf pairs (as sorted integer names) at path weight exactly K."""
    out = set()
    for x, s in names.items():
        a = int(s)
        for y, d in distances_from(neighbours, x, K).items():
            if d == K and y != x and y in names:
                b = int(names[y])
                out.add((a, b) if a < b else (b, a))
    return out


def directed_relation(t: Tree) -> set[tuple[int, int]]:
    """Arcs x -> y of the rooted tree read with vertex 0 as root: the
    weight from x up to the meeting point is 0 and from there down to y
    exactly K."""
    out = set()
    for x in t.leaves():
        a = int(t.names[x])
        cur = x
        while t.parent[cur] >= 0 and t.weight[cur] == 0:
            top = t.parent[cur]
            stack = [(c, t.weight[c]) for c in t.children[top] if c != cur]
            while stack:
                v, d = stack.pop()
                if d > K:
                    continue
                if not t.children[v]:
                    if d == K:
                        out.add((a, int(t.names[v])))
                    continue
                stack.extend((c, d + t.weight[c]) for c in t.children[v])
            cur = top
    return out


# ======================================================================
# Per-operation checks
# ======================================================================

def _normal(pairs) -> set[tuple[int, int]]:
    return {(u, v) if u < v else (v, u) for u, v in pairs}


def check_member(op: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    t = parse_tree(out)
    want_names = {str(v) for v in range(op["n"])}
    if set(t.names.values()) != want_names or len(t.names) != op["n"]:
        return "witness leaves are not the input's vertices"
    if op["kind"] == "member_oriented":
        got, want = directed_relation(t), set(op["pairs"])
    else:
        got, want = undirected_relation(t.neighbours, t.names), \
            _normal(op["pairs"])
    if got != want:
        return (f"witness relation differs: {len(want - got)} missing, "
                f"{len(got - want)} extra")
    return None


def check_nonmember(op: dict, rc: int, out: str) -> str | None:
    if rc != 1:
        return f"exit code {rc}, expected 1"
    head = "no" if op["kind"] == "nonmember" else f"no ({op['reason']})"
    want = f"{head}\ncertificate: {' '.join(map(str, op['certificate']))}\n"
    if out != want:
        return f"certificate differs: got {out!r}, planted {want!r}"
    return None


def check_canonical(op: dict, rc: int, out: str, sample_seed: int
                    ) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    src, t = parse_tree(op["text"]), parse_tree(out)
    if sorted(src.names.values()) != sorted(t.names.values()):
        return "leaf set changed"
    for v in range(len(t.parent)):
        if v in t.names:
            continue
        if sum(1 for _ in t.neighbours(v)) < 3:
            return "interior vertex of degree < 3"
        if t.parent[v] >= 0 and t.weight[v] == 0 and t.parent[v] not in t.names:
            return "interior 0-edge"
    rng = random.Random(sample_seed)
    src_of = {s: v for v, s in src.names.items()}
    out_of = {s: v for v, s in t.names.items()}
    labels = sorted(src_of)
    for a in rng.sample(labels, 8):
        d_src = distances_from(src.neighbours, src_of[a])
        d_out = distances_from(t.neighbours, out_of[a])
        for b in rng.sample(labels, 4):
            if d_src[src_of[b]] != d_out[out_of[b]]:
                return f"path weight {a}-{b} changed"
    return None


def check_oracle(op: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    lines = out.splitlines()
    if not lines or lines[-1] != "result: OK (0 discrepancies)":
        return "oracle did not report OK"
    counts = tuple(ln for ln in lines
                   if ln.startswith(("graph n=", "oriented n=")))
    if counts != ORACLE_COUNTS[op["variant"]]:
        return "oracle class or member counts differ from the seed"
    return None


def check_witnesses(op: dict, trees: list) -> str | None:
    if (len(trees) > 0) != op["member"]:
        return "witness set empty for a member, or not for a non-member"
    if len(trees) != op["count"]:
        return f"{len(trees)} witnesses, pinned {op['count']}"
    want = _normal(op["pairs"])
    for t in trees:
        if undirected_relation(lambda v: t.adj[v].items(), t.names) != want:
            return "a witness does not realize the graph"
    return None


def check(op: dict, result, sample_seed: int = 0) -> str | None:
    """Reason the operation's result is wrong, or ``None``.  ``result``
    is ``(exit code, stdout)`` for CLI operations and the returned list
    for ``all_witnesses``."""
    kind = op["kind"]
    try:
        if kind == "witnesses":
            return check_witnesses(op, result)
        rc, out = result
        if kind in ("member", "member_oriented"):
            return check_member(op, rc, out)
        if kind in ("nonmember", "nonmember_oriented"):
            return check_nonmember(op, rc, out)
        if kind == "canonicalize":
            return check_canonical(op, rc, out, sample_seed)
        if kind == "oracle":
            return check_oracle(op, rc, out)
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
    raise ValueError(f"unknown operation kind {kind!r}")
