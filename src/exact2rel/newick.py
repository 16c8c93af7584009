"""Parsing and writing of trees in a Newick-like text form with
mandatory integer edge weights, e.g. ``((a:2,b:0)p:2,(c:0,d:2)q:0)r;``.

Interior vertex names are accepted on input and discarded: only leaves
carry names.  The same text shape serves two readings:

* unrooted: the written top-level node is an arbitrary anchor.  An
  anchor with a single child and a name is itself a leaf (this is how a
  two-leaf tree ``(b:2)a;`` is written).
* rooted: the top-level node IS the root, which is never a leaf; a
  single leaf below the root is written ``(v:0);``.

Weights must be non-negative integers; anything else is rejected.
"""

from __future__ import annotations

from typing import Mapping

from .trees import LabeledTree, RootedLabeledTree, sibling_order


class TreeFormatError(ValueError):
    """Raised on malformed tree text; message carries line/column."""


_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> TreeFormatError:
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        return TreeFormatError(f"line {line}, column {col}: {msg}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("unexpected end of input")
        return self.text[self.pos]

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def name(self) -> str | None:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        return self.text[start:self.pos] or None

    def weight(self) -> int:
        self.take(":")
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        token = self.text[start:self.pos]
        if (self.pos < len(self.text) and self.text[self.pos] == "."):
            raise self.error("weights must be integers")
        if not token or not token.lstrip("+-").isdigit():
            raise self.error("expected an integer weight")
        try:
            value = int(token)
        except ValueError:  # beyond the interpreter's integer-string limit
            raise self.error("weight has too many digits") from None
        if value < 0:
            raise self.error("weights must be non-negative")
        return value

    def parse(self) -> tuple[int, list[tuple[int, int, int]], dict[int, str],
                             int, str | None]:
        """Read the whole text with one explicit stack.  Returns the
        vertex count (ids in pre-order), the edges ``(parent, child,
        weight)`` in post-order, the names of the childless vertices,
        and the top vertex's number of children and name."""
        edges: list[tuple[int, int, int]] = []
        names: dict[int, str] = {}
        open_: list[list[int]] = []  # [id, children] awaiting their ')'
        nv = 0
        while True:
            v = nv
            nv += 1
            if self.peek() == "(":
                self.take("(")
                open_.append([v, 0])
                continue
            name = self.name()
            if name is None:
                raise self.error("expected a leaf name or '('")
            names[v] = name
            kids = 0
            while open_:  # v is complete: attach it, close what it ends
                edges.append((open_[-1][0], v, self.weight()))
                open_[-1][1] += 1
                if self.peek() == ",":
                    self.take(",")
                    break
                self.take(")")
                v, kids = open_.pop()
                name = self.name()  # interior names are discarded
            else:
                break
        self.take(";")
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing text after ';'")
        return nv, edges, names, kids, name


def parse_newick(text: str) -> LabeledTree:
    """Parse tree text with the unrooted reading.

    Raises:
        TreeFormatError: syntax errors (with position), duplicate leaf
            names, or an unnamed leaf.
    """
    nv, edges, names, kids, name = _Parser(text).parse()
    # the anchor: with one child and a name it is a leaf itself
    if kids == 1 and name is not None:
        names[0] = name
    try:
        return LabeledTree.build(nv, edges, names)
    except ValueError as exc:
        raise TreeFormatError(str(exc)) from None


def parse_rooted_newick(text: str) -> RootedLabeledTree:
    """Parse tree text with the rooted reading: the top-level node is the
    root (its name, if any, is discarded; it is never a leaf).

    Raises:
        TreeFormatError: syntax errors (with position), a top-level node
            without children, or duplicate leaf names.
    """
    nv, edges, names, kids, _ = _Parser(text).parse()
    if kids == 0:
        raise TreeFormatError(
            "a rooted tree needs '(...)' around the root's children")
    try:
        return RootedLabeledTree.build(nv, edges, names, root=0)
    except ValueError as exc:
        raise TreeFormatError(str(exc)) from None


# ======================================================================
# Writing
# ======================================================================

def _check_names(names: Mapping[int, str]) -> None:
    """Refuse a leaf name that the reader would not read back."""
    bad = sorted(s for s in names.values() if not _NAME_CHARS.issuperset(s))
    if bad:
        raise ValueError(f"leaf name {bad[0]!r} has a character the reader rejects")


def subtree_text(adj: tuple[dict[int, int], ...], names: Mapping[int, str],
                 top: int) -> str:
    """Text of the tree hung from the unnamed ``top``, children in
    ``sibling_order``; no trailing ';'.  One explicit-stack walk writes
    tokens into one list, joined once, so any depth takes linear time."""
    _check_names(names)
    kids = sibling_order(adj, names, top)
    out: list[str] = []
    stack: list = [top]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        items: list = ["("]
        for s, c in kids[x]:
            w = adj[x][c]
            items += (f"{s}:{w}", ",") if c in names else (c, f":{w}", ",")
        items[-1] = ")"  # the last ',' closes the list
        stack += reversed(items)
    return "".join(out)


def format_newick(t: LabeledTree) -> str:
    """Serialize with the unrooted reading; deterministic output
    (anchor adjacent to the smallest-named leaf, children sorted).
    Raises ValueError on a leaf name that the reader rejects."""
    if t.nv > 2:
        (anchor,) = t.adj[min(t.names, key=t.names.get)]
        return f"{subtree_text(t.adj, t.names, anchor)};"
    _check_names(t.names)
    if t.n_leaves == 1:
        return f"{t.leaf_names[0]};"
    a, b = t.leaf_names
    return f"({b}:{t.adj[0][1]}){a};"
