"""Structural observables: reciprocity, hyper-core decomposition, group
entropy, centrality scores, and the multi-order Laplacian spectrum.

Reciprocity asks how well the reverse flow of a hyperedge is realized by
some subset of the other hyperedges; each head node compares the
distribution its reciprocators route back to against the uniform
distribution over the edge's tail (Jensen-Shannon divergence, base 2), and
a soft penalty discounts large reciprocal sets.  Core decomposition peels
one side of the hypergraph: the (k, m) core keeps nodes appearing on the
tracked side of at least k hyperedges whose size -- counting tracked-side
survivors plus the whole opposite side -- stays at least m.  The spectrum
combines one Laplacian per hyperedge size d, each normalized by the mean
order-d degree, into a single multi-order operator.

Costs: an edge's reciprocity candidates are gathered by index, from the
copies whose tail holds one of its head nodes, rather than by a scan of
every copy; the (k, m)-core peel is incremental, O(incidences of the edges
of size >= m) for each m; HITS runs each half-step as one numpy bincount
over the arcs.
"""

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from statistics import fmean
from typing import NamedTuple

from .core import BipartiteDigraph, DirectedHypergraph, Hyperedge, UndirectedHypergraph, check_side, merge_to_undirected


# ---------------------------------------------------------------------------
# Reciprocity
# ---------------------------------------------------------------------------


# Exponent of the (1/|R|)^ALPHA size penalty: small enough to leave scores
# essentially intact, nonzero so that among equally good reciprocal sets the
# smallest wins.
ALPHA = 1e-6
# Searches enumerate every subset of up to EXACT_LIMIT candidates and fall
# back to greedy forward selection beyond that.
EXACT_LIMIT = 15


class ReciprocityResult(NamedTuple):
    value: float
    per_edge: tuple


def _jensen_shannon(p: dict, q: dict) -> float:
    """Base-2 Jensen-Shannon divergence of two sparse distributions."""
    total = 0.0
    for dist, other in ((p, q), (q, p)):
        for v, mass in dist.items():
            if mass > 0.0:
                total += mass * math.log2(2.0 * mass / (mass + other.get(v, 0.0)))
    return 0.5 * total


def hyperedge_reciprocity(e: Hyperedge, reciprocators) -> float:
    """Score in [0, 1] for how well `reciprocators` reverse the edge e.

    Each head node u draws its return distribution from the reciprocators
    whose tail contains u (uniformly across them, uniformly within each
    head); nodes no reciprocator points back to pay the maximal divergence
    of 1.  An empty reciprocator set scores 0.
    """
    if not e.head or not e.tail:
        raise ValueError("reciprocity needs a non-empty head and tail")
    reciprocators = list(reciprocators)
    if not reciprocators:
        return 0.0
    ideal = {v: 1.0 / len(e.tail) for v in e.tail}
    divergence = 0.0
    for u in e.head:
        relevant = [f for f in reciprocators if u in f.tail]
        if not relevant:
            divergence += 1.0
            continue
        returned = defaultdict(float)
        weight = 1.0 / len(relevant)
        for f in relevant:
            if f.head:
                share = weight / len(f.head)
                for v in f.head:
                    returned[v] += share
        divergence += _jensen_shannon(returned, ideal)
    penalty = (1.0 / len(reciprocators)) ** ALPHA
    return penalty * (1.0 - divergence / len(e.head))


def _reciprocal_candidates(expanded: list):
    """Return a function mapping an edge e to the copies in expanded that
    could reciprocate it, minus the first copy of e itself, in list order.

    A candidate f has f.tail meeting e.head and f.head meeting e.tail; the
    copies whose tail holds a node of e.head are gathered from a node ->
    index map over tails, so no other copy is looked at.
    """
    by_tail = defaultdict(list)
    first_copy = {}
    for i, f in enumerate(expanded):
        first_copy.setdefault((f.head, f.tail), i)
        for v in f.tail:
            by_tail[v].append(i)

    def candidates(e: Hyperedge) -> list:
        own = first_copy.get((e.head, e.tail))
        found = set()
        for u in e.head:
            found.update(by_tail.get(u, ()))
        found.discard(own)
        return [expanded[i] for i in sorted(found) if expanded[i].head & e.tail]

    return candidates


def _best_reciprocal_set(e: Hyperedge, candidates: list):
    """(edges, score) of the best reciprocal set for e among candidates;
    ((), 0.0) without candidates, which is always the case when e has an
    empty side."""
    if not candidates:
        return ((), 0.0)
    if len(candidates) <= EXACT_LIMIT:
        best, best_score = (), 0.0
        for mask in range(1, 1 << len(candidates)):
            subset = [c for i, c in enumerate(candidates) if mask >> i & 1]
            score = hyperedge_reciprocity(e, subset)
            if score > best_score:
                best, best_score = tuple(subset), score
        return (best, best_score)
    chosen: list = []
    score = 0.0
    remaining = list(candidates)
    while remaining:
        best_index, best_score = None, score
        for i, f in enumerate(remaining):
            trial = hyperedge_reciprocity(e, chosen + [f])
            if trial > best_score:
                best_index, best_score = i, trial
        if best_index is None:
            break
        chosen.append(remaining.pop(best_index))
        score = best_score
    return (tuple(chosen), score)


def search_reciprocal_set(H: DirectedHypergraph, e: Hyperedge):
    """Best-scoring reciprocal set for e among the other edges of H.

    Returns (edges, score).  Exhaustive over all candidate subsets up to
    EXACT_LIMIT candidates, greedy forward selection (stopping at the first
    non-improving extension) beyond that.
    """
    candidates = _reciprocal_candidates(list(H.expanded_edges()))
    return _best_reciprocal_set(e, candidates(e))


def hypergraph_reciprocity(H: DirectedHypergraph) -> ReciprocityResult:
    """Mean best reciprocity over all hyperedge copies of H."""
    expanded = list(H.expanded_edges())
    if not expanded:
        raise ValueError("reciprocity of an empty hypergraph is undefined")
    candidates = _reciprocal_candidates(expanded)
    scores = [_best_reciprocal_set(e, candidates(e))[1] for e in expanded]
    return ReciprocityResult(fmean(scores), tuple(scores))


# ---------------------------------------------------------------------------
# Hyper-core decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorenessProfile:
    """Shell indices per size threshold m and their sum (the hypercoreness).

    shells[m][v] is the largest k such that v survives (k, m)-core peeling
    on the tracked side; hypercoreness[v] sums shells over m = 2..max size.
    """

    shells: dict
    hypercoreness: tuple


def _shells(members: list, extras: list, num_nodes: int, m: int) -> list:
    """Shell index of every node at size threshold m, by incremental peeling.

    Only edges of size at least m ever qualify.  Each keeps its slack (live
    tracked members plus the opposite side, minus m) and each node its count
    of qualifying edges; removing a node lowers the slack of its edges, and
    an edge whose slack turns negative lowers the count of its live members.
    Level k removes, off a work stack, every node whose count is below k,
    so the removed node's shell is k - 1.
    """
    live = [i for i, (side, extra) in enumerate(zip(members, extras)) if len(side) + extra >= m]
    slack = [0] * len(members)
    edges_of = [[] for _ in range(num_nodes)]
    for i in live:
        slack[i] = len(members[i]) + extras[i] - m
        for v in members[i]:
            edges_of[v].append(i)
    count = [len(edges) for edges in edges_of]
    remaining = {v for v in range(num_nodes) if count[v]}
    shell = [0] * num_nodes
    k = 0
    while remaining:
        k += 1
        stack = [v for v in remaining if count[v] < k]
        while stack:
            v = stack.pop()
            if v not in remaining:
                continue
            remaining.remove(v)
            shell[v] = k - 1
            for i in edges_of[v]:
                slack[i] -= 1
                if slack[i] == -1:
                    for u in members[i]:
                        if u in remaining:
                            count[u] -= 1
                            if count[u] < k:
                                stack.append(u)
    return shell


def hyper_core_decomposition(H: DirectedHypergraph, side: str) -> CorenessProfile:
    """Peel the tracked side of H at every size threshold m = 2..max size.

    A node is in the (k, m) core when it sits on the tracked side of at
    least k hyperedges whose current size -- tracked-side survivors plus the
    full opposite side -- is at least m.  Removing a node deletes only its
    tracked-side occurrences; opposite-side occurrences keep counting
    toward sizes.  Each m costs O(incidences of the edges of size >= m).
    """
    check_side(side)
    expanded = list(H.expanded_edges())
    members = [e.head if side == "head" else e.tail for e in expanded]
    extras = [len(e.tail if side == "head" else e.head) for e in expanded]
    max_size = max((e.size for e in expanded), default=0)
    shells = {
        m: tuple(_shells(members, extras, H.num_nodes, m)) for m in range(2, max_size + 1)
    }
    hypercoreness = tuple(
        float(sum(shells[m][v] for m in shells)) for v in range(H.num_nodes)
    )
    return CorenessProfile(shells=shells, hypercoreness=hypercoreness)


# ---------------------------------------------------------------------------
# Structural entropy
# ---------------------------------------------------------------------------


def binary_entropy(p: float) -> float:
    """Shannon entropy (base 2) of a Bernoulli probability."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _groups_of(H: DirectedHypergraph, side: str, group_size: int) -> set:
    groups = set()
    for e in H.expanded_edges():
        members = e.head if side == "head" else e.tail
        for combo in itertools.combinations(sorted(members), group_size):
            groups.add(frozenset(combo))
    return groups


def structural_entropy(observed: DirectedHypergraph, samples, group_size: int, side: str) -> dict:
    """Entropy of each observed node group's presence across the samples.

    A group of group_size nodes is present in a sample when it is contained
    in the chosen side of one of its hyperedges.  Groups that appear in
    every sample or in none score 0; maximally unpredictable groups score 1.
    """
    check_side(side)
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    groups = _groups_of(observed, side, group_size)
    counts = dict.fromkeys(groups, 0)
    total = 0
    for total, sample in enumerate(samples, start=1):
        present = _groups_of(sample, side, group_size)
        for g in groups:
            if g in present:
                counts[g] += 1
    if not total:
        raise ValueError("at least one sample is required")
    return {g: binary_entropy(c / total) for g, c in counts.items()}


# ---------------------------------------------------------------------------
# Centrality
# ---------------------------------------------------------------------------


# PageRank follows an arc with probability DAMPING and teleports otherwise.
DAMPING = 0.85
# PageRank and HITS stop once a round changes the scores by at most TOLERANCE
# and raise RuntimeError after MAX_ITER rounds.
TOLERANCE = 1e-10
MAX_ITER = 10_000


def project_weighted(H: DirectedHypergraph) -> tuple:
    """Pairwise projection: one arc u -> v per head node u, tail node v,
    and hyperedge copy, with parallel arcs folded into weights; returned as
    one {successor: weight} dict per node."""
    successors = [Counter() for _ in range(H.num_nodes)]
    for e in H.expanded_edges():
        for u in e.head:
            for v in e.tail:
                successors[u][v] += 1
    return tuple(dict(s) for s in successors)


def pagerank(successors: tuple) -> list:
    """Power iteration with uniform teleport over the digraph given by one
    {successor: weight} dict per node; dangling mass is spread uniformly.
    Stops when the L1 change drops to TOLERANCE, raises RuntimeError at MAX_ITER."""
    n = len(successors)
    if n == 0:
        return []
    out_total = [sum(nbrs.values()) for nbrs in successors]
    scores = [1.0 / n] * n
    for _ in range(MAX_ITER):
        dangling = sum(scores[u] for u in range(n) if out_total[u] == 0)
        base = (1.0 - DAMPING) / n + DAMPING * dangling / n
        fresh = [base] * n
        for u, nbrs in enumerate(successors):
            if not nbrs:
                continue
            share = DAMPING * scores[u] / out_total[u]
            for v, w in nbrs.items():
                fresh[v] += share * w
        delta = sum(abs(a - b) for a, b in zip(fresh, scores))
        scores = fresh
        if delta <= TOLERANCE:
            return scores
    raise RuntimeError(f"pagerank did not converge in {MAX_ITER} iterations")


def _unit(vec):
    import numpy as np
    # cumsum adds the squares one after another, as a Python loop would.
    norm = math.sqrt(np.cumsum(vec * vec)[-1])
    if norm == 0.0:
        return np.zeros_like(vec)
    return vec / norm


def hits(G: BipartiteDigraph):
    """Hub and authority scores on the combined left+right vertex set.

    A +1 arc points from its left vertex to its right vertex, a -1 arc the
    other way; both score vectors are L2-normalized every round and listed
    left vertices first.  Each half-step is one weighted bincount over the
    arcs in G.edges() order, so every score is summed in that order.
    Returns (hubs, authorities).
    """
    import numpy as np
    n = G.left_count + G.right_count
    if n == 0:
        return ([], [])
    lefts, rights = [], []
    for adjacency in (G.left_out, G.left_in):  # +1 arcs, then -1 arcs
        for v, others in enumerate(adjacency):
            lefts.extend([v] * len(others))
            rights.extend(others)
    left = np.array(lefts, dtype=np.intp)
    right = np.array(rights, dtype=np.intp) + G.left_count
    plus = G.plus_edges()
    src = np.concatenate((left[:plus], right[plus:]))
    dst = np.concatenate((right[:plus], left[plus:]))
    hubs = np.full(n, 1.0 / math.sqrt(n))
    auths = hubs.copy()
    for _ in range(MAX_ITER):
        fresh_a = _unit(np.bincount(dst, weights=hubs[src], minlength=n))
        fresh_h = _unit(np.bincount(src, weights=fresh_a[dst], minlength=n))
        delta = max(np.abs(fresh_h - hubs).max(), np.abs(fresh_a - auths).max())
        hubs, auths = fresh_h, fresh_a
        if delta <= TOLERANCE:
            return (hubs.tolist(), auths.tolist())
    raise RuntimeError(f"hits did not converge in {MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# Multi-order Laplacian
# ---------------------------------------------------------------------------

MAX_ORDER = 8


def multi_order_laplacian(U: UndirectedHypergraph):
    """Sum of per-order Laplacians L(d) = d*K(d) - A(d) for d = 2..D, where D
    is the largest order present, capped at MAX_ORDER.

    K(d) counts each node's order-d hyperedges, A(d) counts order-d
    co-memberships (zero diagonal), and each L(d) is divided by the mean of
    K(d) over all nodes.  Orders without hyperedges are skipped; if none
    contribute, raises ValueError.  A hyperedge of size s counts toward
    order s.
    """
    import numpy as np
    n = U.num_nodes
    D = min(MAX_ORDER, max(map(len, U.edges), default=0))
    laplacian = np.zeros((n, n))
    contributed = False
    for d in range(2, D + 1):
        members = [m for m in U.edges if len(m) == d]
        if not members:
            continue
        degree = np.zeros(n)
        adjacency = np.zeros((n, n))
        for m in members:
            nodes = sorted(m)
            for v in nodes:
                degree[v] += 1.0
            for u, v in itertools.combinations(nodes, 2):
                adjacency[u, v] += 1.0
                adjacency[v, u] += 1.0
        mean_degree = degree.sum() / n
        laplacian += (1.0 / mean_degree) * (d * np.diag(degree) - adjacency)
        contributed = True
    if not contributed:
        raise ValueError(f"no hyperedges of any order between 2 and {D}")
    return laplacian


def laplacian_spectrum(H: DirectedHypergraph, k: int = 6):
    """The k smallest eigenvalues of the default multi-order Laplacian of H's
    undirected merge, ascending."""
    import numpy as np
    if k < 1:
        raise ValueError("k must be at least 1")
    U = merge_to_undirected(H)
    values = np.linalg.eigvalsh(multi_order_laplacian(U))
    return tuple(float(x) for x in values[: min(k, U.num_nodes)])
