"""Directed hypergraphs, their bipartite-digraph form, degrees, and the joint tensor.

A directed hypergraph is a node set plus a multiset of hyperedges, each a (head,
tail) pair of node sets, kept as a sorted list with one entry per copy.  It maps
losslessly to a bipartite digraph with one left vertex per node and one right
vertex per hyperedge copy: a head membership is an arc left -> right (direction
+1), a tail membership an arc right -> left (direction -1).  The samplers mutate
the bipartite form; everything else consumes the hypergraph form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple

SIDES = ("head", "tail")

# The samplers by name: the swap chains, whose kernels are
# sampling.STEP_FUNCTIONS, then "null".  Here so that a command line can offer
# them without compiling the samplers.
CHAIN_MODELS = ("degs", "joint", "degs-mh")
MODELS = (*CHAIN_MODELS, "null")


def check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


class ParseError(ValueError):
    """Raised when an input file does not conform to the expected text format."""


@dataclass(frozen=True)
class Hyperedge:
    """One directed hyperedge: a head set and a tail set.

    The two sides may overlap, and either side may be empty as long as the other
    is not.  ``size`` is the total number of memberships, |head| + |tail|.
    """

    head: frozenset
    tail: frozenset

    def __post_init__(self):
        object.__setattr__(self, "head", frozenset(self.head))
        object.__setattr__(self, "tail", frozenset(self.tail))
        if not self.head and not self.tail:
            raise ValueError("hyperedge needs a non-empty head or tail")

    @property
    def size(self) -> int:
        return len(self.head) + len(self.tail)

    @property
    def key(self):
        """Canonical sort key: (sorted head, sorted tail)."""
        return (tuple(sorted(self.head)), tuple(sorted(self.tail)))


@dataclass
class DirectedHypergraph:
    """Node set plus a multiset of hyperedges, kept in canonical form.

    ``edges`` lists one hyperedge per copy, sorted by (sorted head, sorted
    tail), so the copies of a hyperedge are adjacent and two hypergraphs
    compare equal exactly when they are the same multiset over the same
    nodes.  Internal node ids are dense
    integers 0..num_nodes-1; ``labels[i]`` retains the external id of node i
    (None means external == internal).
    """

    edges: list
    num_nodes: int
    labels: list | None = None

    def __post_init__(self):
        self.edges = sorted(self.edges, key=lambda e: e.key)
        nodes = frozenset().union(*(e.head for e in self.edges), *(e.tail for e in self.edges))
        if nodes and not 0 <= min(nodes) <= max(nodes) < self.num_nodes:
            v = next(v for e in self.edges for v in e.head | e.tail if not 0 <= v < self.num_nodes)
            raise ValueError(f"node {v} out of range 0..{self.num_nodes - 1}")
        if self.labels is not None and len(self.labels) != self.num_nodes:
            raise ValueError("labels must list one external id per node")

    def label_of(self, v: int):
        return v if self.labels is None else self.labels[v]


class DirectedEdge(NamedTuple):
    """A bipartite arc: +1 means left is in the head of right, -1 in the tail."""

    left: int
    right: int
    direction: int


@dataclass
class BipartiteDigraph:
    """Mutable bipartite-digraph state kept as four adjacency arrays of sets.

    left_out[v]  -- right vertices whose head contains v (arcs v -> e, d=+1)
    left_in[v]   -- right vertices whose tail contains v (arcs e -> v, d=-1)
    right_in[a]  -- the head of right vertex a
    right_out[a] -- the tail of right vertex a

    The two views are redundant on purpose: swaps update both, and the tests
    cross-check them.  A chain owns its graph exclusively while running.
    """

    left_out: list
    left_in: list
    right_in: list
    right_out: list
    labels: list | None = None

    @property
    def left_count(self) -> int:
        return len(self.left_out)

    @property
    def right_count(self) -> int:
        return len(self.right_in)

    def plus_edges(self) -> int:
        """Total number of +1 arcs (head memberships)."""
        return sum(len(s) for s in self.left_out)

    def minus_edges(self) -> int:
        """Total number of -1 arcs (tail memberships)."""
        return sum(len(s) for s in self.left_in)

    def edges(self) -> Iterator[DirectedEdge]:
        for v, outs in enumerate(self.left_out):
            for a in outs:
                yield DirectedEdge(v, a, +1)
        for v, ins in enumerate(self.left_in):
            for a in ins:
                yield DirectedEdge(v, a, -1)


@dataclass
class DegreeProfile:
    """The four degree sequences of a bipartite digraph, indexed by vertex."""

    left_in: list
    left_out: list
    right_in: list   # head sizes
    right_out: list  # tail sizes


@dataclass
class DegreeHistograms:
    """Histograms (degree -> vertex count) of the four positive degree sequences."""

    left_in: dict
    left_out: dict
    right_in: dict
    right_out: dict


@dataclass
class JointTensor:
    """Sparse 5-index tensor counting arcs by endpoint degrees.

    counts[(i, j, k, l, d)] is the number of arcs with direction d between a
    left vertex with in-degree i and out-degree j and a right vertex with
    in-degree k (head size) and out-degree l (tail size).
    """

    counts: dict


@dataclass
class UndirectedHypergraph:
    """Plain undirected hypergraph: a list of node sets, repeats allowed."""

    edges: list
    num_nodes: int
    labels: list | None = None

    def label_of(self, v: int):
        return v if self.labels is None else self.labels[v]


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def _parse_side(text, lineno, side):
    try:  # a well-formed side at once: int() strips whitespace as str.strip does
        nodes = frozenset(map(int, text.split(",")))
        if len(nodes) == text.count(",") + 1 and min(nodes) >= 0:
            return nodes
    except ValueError:
        pass
    return _parse_side_checked(text, lineno, side)


def _parse_side_checked(text, lineno, side):
    """Parse one side token by token; a ParseError names the first fault."""
    text = text.strip()
    if not text:
        return frozenset()
    nodes = []
    for token in text.split(","):
        token = token.strip()
        try:
            v = int(token)
        except ValueError:
            raise ParseError(f"line {lineno}: bad node id {token!r}") from None
        if v < 0:
            raise ParseError(f"line {lineno}: negative node id {v}")
        nodes.append(v)
    if len(set(nodes)) != len(nodes):
        raise ParseError(f"line {lineno}: duplicate node within {side}")
    return frozenset(nodes)


def parse_hypergraph(text: str) -> DirectedHypergraph:
    """Parse directed-hypergraph text (a str): one "h1,...|t1,..." line per edge copy.

    '#'-prefixed lines are comments; either side of '|' may be blank but not
    both; a repeated line is one more copy of that hyperedge.  External node
    ids (arbitrary non-negative integers) are re-indexed densely in ascending
    order and kept in ``labels``.
    """
    raw = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.count("|") != 1:
            raise ParseError(f"line {lineno}: expected exactly one '|'")
        head_text, tail_text = stripped.split("|")
        head = _parse_side(head_text, lineno, "head")
        tail = _parse_side(tail_text, lineno, "tail")
        if not head and not tail:
            raise ParseError(f"line {lineno}: head and tail are both empty")
        raw.append((head, tail))
        seen.update(head, tail)
    labels = sorted(seen)
    if labels and labels[-1] != len(labels) - 1:  # not already 0..n-1
        relabel = {ext: i for i, ext in enumerate(labels)}.__getitem__
        raw = [(frozenset(map(relabel, h)), frozenset(map(relabel, t))) for h, t in raw]
    edges = [Hyperedge(h, t) for h, t in raw]
    return DirectedHypergraph(edges, len(labels), labels)


def format_hypergraph(H: DirectedHypergraph) -> str:
    """Serialize to the text format, one line per edge copy, external ids."""
    names = [str(H.label_of(v)) for v in range(H.num_nodes)]
    lines = []
    for e in H.edges:
        head, tail = ([names[v] for v in side] for side in e.key)
        lines.append(",".join(head) + "|" + ",".join(tail))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_undirected(text: str) -> UndirectedHypergraph:
    """Parse undirected-hypergraph text (a str): one comma-separated node set per line."""
    raw = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        nodes = _parse_side(stripped, lineno, "hyperedge")
        if not nodes:
            raise ParseError(f"line {lineno}: empty hyperedge")
        raw.append(nodes)
        seen |= nodes
    labels = sorted(seen)
    index = {ext: i for i, ext in enumerate(labels)}
    edges = [frozenset(index[v] for v in e) for e in raw]
    return UndirectedHypergraph(edges, len(labels), labels)


def format_undirected(U: UndirectedHypergraph) -> str:
    lines = [",".join(str(U.label_of(v)) for v in sorted(e)) for e in U.edges]
    return "\n".join(lines) + ("\n" if lines else "")


def read_labels(text: str) -> dict:
    """Read node-category CSV text (a str of "node_id,category" lines); blank
    and "#" lines are skipped, and so is a header as the first other line.
    A node id given twice, and a row that is not one node id, one comma and a
    non-empty category, are ParseErrors."""
    categories, first_line = {}, {}
    lines = [(lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), start=1)]
    rows = [(lineno, row) for lineno, row in lines if row and not row.startswith("#")]
    for position, (lineno, row) in enumerate(rows):
        node_text, _, category = row.partition(",")
        try:
            node = int(node_text.strip())
        except ValueError:
            if position == 0:  # tolerate a header row
                continue
            raise ParseError(f"line {lineno}: bad node id {node_text!r}") from None
        if "," in category or not category.strip():
            raise ParseError(f"line {lineno}: expected node_id,category, got {row!r}")
        if node in first_line:
            raise ParseError(f"line {lineno}: node id {node} repeats line {first_line[node]}")
        first_line[node] = lineno
        categories[node] = category.strip()
    return categories


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def to_bipartite(H: DirectedHypergraph) -> BipartiteDigraph:
    """Expand a hypergraph to its bipartite digraph; one right vertex per copy."""
    n = H.num_nodes
    left_out = [set() for _ in range(n)]
    left_in = [set() for _ in range(n)]
    right_in = []
    right_out = []
    for e in H.edges:
        a = len(right_in)
        right_in.append(set(e.head))
        right_out.append(set(e.tail))
        for v in e.head:
            left_out[v].add(a)
        for v in e.tail:
            left_in[v].add(a)
    labels = None if H.labels is None else list(H.labels)
    return BipartiteDigraph(left_out, left_in, right_in, right_out, labels)


def to_hypergraph(G: BipartiteDigraph) -> DirectedHypergraph:
    """Collapse right vertices back to hyperedges, one copy per right vertex."""
    edges = list(map(Hyperedge, G.right_in, G.right_out))
    labels = None if G.labels is None else list(G.labels)
    return DirectedHypergraph(edges, G.left_count, labels)


def incidence_matrix(num_nodes: int, sides: list):
    """The num_nodes x len(sides) float matrix with a 1 at (v, j) for each
    node v of sides[j], filled in one indexed assignment."""
    import numpy as np
    matrix = np.zeros((num_nodes, len(sides)))
    cols = np.repeat(np.arange(len(sides)), [len(side) for side in sides])
    matrix[list(chain.from_iterable(sides)), cols] = 1.0
    return matrix


def undirected_to_directed(U: UndirectedHypergraph) -> DirectedHypergraph:
    """Lift an undirected hypergraph: each node set becomes head = tail = set."""
    edges = [Hyperedge(e, e) for e in U.edges]
    labels = None if U.labels is None else list(U.labels)
    return DirectedHypergraph(edges, U.num_nodes, labels)


def merge_to_undirected(H: DirectedHypergraph) -> UndirectedHypergraph:
    """Merge each hyperedge's head and tail into one undirected node set."""
    edges = [e.head | e.tail for e in H.edges]
    labels = None if H.labels is None else list(H.labels)
    return UndirectedHypergraph(edges, H.num_nodes, labels)


# ---------------------------------------------------------------------------
# Degrees and the joint tensor
# ---------------------------------------------------------------------------


def degree_profile(G: BipartiteDigraph) -> DegreeProfile:
    """The four degree sequences read off the adjacency arrays."""
    return DegreeProfile(
        [len(s) for s in G.left_in],
        [len(s) for s in G.left_out],
        [len(s) for s in G.right_in],
        [len(s) for s in G.right_out],
    )


def positive_histograms(p: DegreeProfile) -> DegreeHistograms:
    """Histograms of the four degree sequences, zero-degree vertices excluded."""

    def hist(seq):
        return dict(Counter(d for d in seq if d > 0))

    return DegreeHistograms(hist(p.left_in), hist(p.left_out), hist(p.right_in), hist(p.right_out))


def compute_joint(G: BipartiteDigraph) -> JointTensor:
    """Count every arc by its endpoint degree combination (i, j, k, l, d)."""
    counts = Counter()
    for v in range(G.left_count):
        i = len(G.left_in[v])
        j = len(G.left_out[v])
        for a in G.left_out[v]:
            counts[(i, j, len(G.right_in[a]), len(G.right_out[a]), +1)] += 1
        for a in G.left_in[v]:
            counts[(i, j, len(G.right_in[a]), len(G.right_out[a]), -1)] += 1
    return JointTensor(dict(counts))


def joint_marginals(J: JointTensor) -> DegreeHistograms:
    """Recover the four positive-degree histograms from the tensor alone.

    A right vertex with head size k carries exactly k arcs of direction +1, so
    summing the +1 slice over everything but k and dividing by k counts the
    vertices; the other three marginals work the same way.  Zero-degree
    vertices touch no arcs and are invisible to the tensor, hence the
    positive-degree convention.
    """
    left_in = Counter()
    left_out = Counter()
    right_in = Counter()
    right_out = Counter()
    for (i, j, k, l, d), c in J.counts.items():
        if d == +1:
            right_in[k] += c
            left_out[j] += c
        else:
            right_out[l] += c
            left_in[i] += c

    def divide(counter):
        out = {}
        for degree, arcs in counter.items():
            if arcs % degree != 0:
                raise ValueError("inconsistent tensor: arc count not divisible by degree")
            out[degree] = arcs // degree
        return out

    return DegreeHistograms(divide(left_in), divide(left_out), divide(right_in), divide(right_out))
