"""Group affinity for labeled directed hypergraphs.

The (alpha, beta, k)-affinity of a class measures how often its members sit in
the tail of a size-k hyperedge whose size-beta head contains exactly alpha
class members.  Every function here measures one hypergraph, or the
closed-form hypergeometric baseline of a partition; comparing the observed
value against randomized samples is the `affinity` subcommand's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from hypernull.core import DirectedHypergraph

@dataclass(frozen=True)
class CategoryPartition:
    """Assignment of every node to exactly one category label, index-aligned
    with the hypergraph's node ids."""

    assignments: tuple

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(self.assignments))
        if not self.assignments:
            raise ValueError("partition must cover at least one node")

    @property
    def n(self) -> int:
        return len(self.assignments)

    @property
    def categories(self) -> tuple:
        return tuple(sorted(set(self.assignments)))

    def size_of(self, category) -> int:
        size = sum(1 for label in self.assignments if label == category)
        if size == 0:
            raise ValueError(f"unknown category {category!r}")
        return size


def _check_category(P: CategoryPartition, Xi) -> None:
    if Xi not in set(P.assignments):
        raise ValueError(f"unknown category {Xi!r}")


def affinity(
    H: DirectedHypergraph, P: CategoryPartition, Xi, alpha: int, beta: int, k: int
) -> float | None:
    """(alpha, beta, k)-affinity of class Xi, or None when undefined.

    Over the k-uniform sub-hypergraph, the fraction of class-Xi tail
    memberships in beta-headed hyperedges whose head holds exactly alpha
    class-Xi nodes.  Undefined when no class member sits in any such tail.
    """
    _check_category(P, Xi)
    if not 0 <= alpha <= beta <= k:
        raise ValueError("need 0 <= alpha <= beta <= k")
    numerator = denominator = 0
    for e in H.edges:
        if e.size != k or len(e.head) != beta:
            continue
        tail_members = sum(1 for v in e.tail if P.assignments[v] == Xi)
        if tail_members == 0:
            continue
        denominator += tail_members
        head_members = sum(1 for u in e.head if P.assignments[u] == Xi)
        if head_members == alpha:
            numerator += tail_members
    if denominator == 0:
        return None
    return numerator / denominator


def affinity_baseline(P: CategoryPartition, Xi, alpha: int, beta: int, k: int) -> float:
    """Hypergeometric baseline: the null probability that a size-beta head
    contains exactly alpha nodes of class Xi.

    Exact big-integer arithmetic replaces the usual log-space evaluation; the
    ratio is below one, so the division never overflows.
    """
    size = P.size_of(Xi)
    if not 0 <= alpha <= beta <= k:
        raise ValueError("need 0 <= alpha <= beta <= k")
    total = math.comb(P.n, beta)
    if total == 0:
        raise ValueError("head size beta exceeds the population")
    return math.comb(size, alpha) * math.comb(P.n - size, beta - alpha) / total
