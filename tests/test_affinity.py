"""Tests for group affinity and its combinatorial baseline.

Oracle: a literal per-node, per-hyperedge tally of the two in-degree counts,
written independently of the implementation's edge-order aggregation.
"""

import math
import random

import pytest

from helpers import random_hypergraph
from hypernull.affinity import (
    CategoryPartition,
    affinity,
    affinity_baseline,
)
from hypernull.core import parse_hypergraph


def random_partition(rng, n, categories=("A", "B")):
    """Random labeling; with n >= 2 every category is guaranteed present."""
    labels = [rng.choice(categories) for _ in range(n)]
    if n >= len(categories):
        for i, category in enumerate(categories):
            labels[i] = category
    return CategoryPartition(tuple(labels))


def affinity_oracle(H, P, Xi, alpha, beta, k):
    """Sum the two in-degree counts node by node, straight from the defs."""
    members = [v for v in range(H.num_nodes) if P.assignments[v] == Xi]
    numerator = denominator = 0
    for v in members:
        for e in H.edges:
            if e.size != k or v not in e.tail:
                continue
            if len(e.head) != beta:
                continue
            denominator += 1
            if sum(1 for u in e.head if P.assignments[u] == Xi) == alpha:
                numerator += 1
    if denominator == 0:
        return None
    return numerator / denominator


class TestCategoryPartition:
    def test_basic(self):
        P = CategoryPartition(("A", "B", "A"))
        assert P.n == 3
        assert P.size_of("A") == 2
        assert P.size_of("B") == 1
        assert P.categories == ("A", "B")

    def test_unknown_category(self):
        P = CategoryPartition(("A", "B"))
        with pytest.raises(ValueError):
            P.size_of("C")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CategoryPartition(())


class TestAffinity:
    def test_all_same_class_is_one(self):
        H = parse_hypergraph("1|2,3\n2|1,3\n")
        P = CategoryPartition(("A", "A", "A"))
        assert affinity(H, P, "A", 1, 1, 3) == 1.0

    def test_no_edge_of_size_k_is_undefined(self):
        H = parse_hypergraph("1|2,3\n")
        P = CategoryPartition(("A", "A", "A"))
        assert affinity(H, P, "A", 1, 1, 7) is None

    def test_unknown_category_rejected(self):
        H = parse_hypergraph("1|2\n")
        P = CategoryPartition(("A", "A"))
        with pytest.raises(ValueError):
            affinity(H, P, "Z", 1, 1, 2)

    def test_bad_alpha_beta_rejected(self):
        H = parse_hypergraph("1|2\n")
        P = CategoryPartition(("A", "A"))
        with pytest.raises(ValueError):
            affinity(H, P, "A", 2, 1, 3)
        with pytest.raises(ValueError):
            affinity(H, P, "A", 1, 4, 3)
        with pytest.raises(ValueError):
            affinity(H, P, "A", -1, 1, 3)

    def test_matches_direct_tally(self):
        rng = random.Random(31)
        for _ in range(100):
            H = random_hypergraph(rng, max_nodes=7, max_edges=8, max_side=3)
            P = random_partition(rng, H.num_nodes)
            Xi = rng.choice(P.categories)
            k = rng.randint(1, 6)
            beta = rng.randint(0, k)
            alpha = rng.randint(0, beta)
            ours = affinity(H, P, Xi, alpha, beta, k)
            assert ours == affinity_oracle(H, P, Xi, alpha, beta, k)
            if ours is not None:
                assert 0.0 <= ours <= 1.0

    def test_alpha_partition_of_unity(self):
        rng = random.Random(37)
        checked = 0
        while checked < 25:
            H = random_hypergraph(rng, max_nodes=6, max_edges=8, max_side=3)
            if H.num_nodes < 2:
                continue
            P = random_partition(rng, H.num_nodes)
            for e in H.edges:
                beta, k = len(e.head), e.size
                total = affinity(H, P, "A", 0, beta, k)
                if total is None:
                    continue
                full = sum(affinity(H, P, "A", a, beta, k) for a in range(beta + 1))
                assert full == pytest.approx(1.0)
                checked += 1
                break

    def test_multiplicity_weighted(self):
        # Two copies of the A-headed edge outweigh the single B-headed one.
        H = parse_hypergraph("1|3\n1|3\n2|3\n")
        P = CategoryPartition(("A", "B", "A"))
        assert affinity(H, P, "A", 1, 1, 2) == pytest.approx(2.0 / 3.0)


class TestAffinityBaseline:
    def test_single_head_reduction(self):
        P = CategoryPartition(tuple(["D"] * 54 + ["R"] * 47))
        assert P.n == 101
        assert affinity_baseline(P, "D", 1, 1, 5) == pytest.approx(54 / 101)

    def test_vandermonde_normalization(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(2, 40)
            size = rng.randint(1, n - 1)
            P = CategoryPartition(tuple(["A"] * size + ["B"] * (n - size)))
            beta = rng.randint(1, min(n, 10))
            k = beta + rng.randint(0, 4)
            total = sum(
                affinity_baseline(P, "A", alpha, beta, k) for alpha in range(beta + 1)
            )
            assert total == pytest.approx(1.0)

    def test_empty_count_cases(self):
        P = CategoryPartition(("A", "A", "B"))
        assert affinity_baseline(P, "A", 3, 3, 4) == 0.0  # alpha > |Xi|
        assert affinity_baseline(P, "B", 0, 3, 4) == 0.0  # beta - alpha > n - |Xi|

    def test_large_population(self):
        P = CategoryPartition(tuple(["A"] * 100_000 + ["B"] * 900_000))
        value = affinity_baseline(P, "A", 30, 300, 400)
        assert 0.0 < value < 1.0
        # Hypergeometric mean alpha is beta*|Xi|/n = 30, so the mass there is
        # the mode and must dominate far-away values.
        assert value > affinity_baseline(P, "A", 60, 300, 400)

    def test_beta_larger_than_population_rejected(self):
        P = CategoryPartition(("A", "B"))
        with pytest.raises(ValueError):
            affinity_baseline(P, "A", 1, 3, 3)
