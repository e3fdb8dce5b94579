"""Tests for reciprocity, hyper-core decomposition, entropy, centrality, and
the multi-order spectrum.

Oracles: exhaustive subset enumeration for both the reciprocal-set search and
the core decomposition, a dense linear solve for PageRank, an SVD for HITS,
and exact rational characteristic polynomials for the Laplacian spectrum.
The reciprocity candidates, HITS and the core peel must also equal their
full-rescan references in tests/helpers.py exactly, bit for bit.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    core_shells_reference,
    hits_reference,
    metabolic_scale,
    random_hypergraph,
    reciprocal_candidates,
    trade_like,
)
from hypernull import structure
from hypernull.core import (
    BipartiteDigraph,
    DirectedHypergraph,
    Hyperedge,
    UndirectedHypergraph,
    merge_to_undirected,
    parse_hypergraph,
    to_bipartite,
)
from hypernull.structure import (
    EXACT_LIMIT,
    CorenessProfile,
    _best_reciprocal_set,
    _reciprocal_candidates,
    binary_entropy,
    hits,
    hyper_core_decomposition,
    hyperedge_reciprocity,
    hypergraph_reciprocity,
    laplacian_spectrum,
    multi_order_laplacian,
    pagerank,
    project_weighted,
    search_reciprocal_set,
    structural_entropy,
)

TOY = "1|2,6\n3|4\n6|3,5\n"


def edge(head, tail):
    return Hyperedge(frozenset(head), frozenset(tail))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def best_subset_oracle(e, candidates):
    """Maximize r(e, R) over every subset of the candidates."""
    best = 0.0
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            best = max(best, hyperedge_reciprocity(e, list(combo)))
    return best


def coreness_oracle(H, side):
    """Shell indices via max-over-subsets of min membership count.

    A node's m-shell index is the largest floor over any vertex set S
    containing it, where the floor of S is the minimum, over v in S, of the
    number of hyperedges whose tracked side contains v and whose size,
    counting only tracked-side survivors in S plus the full other side, is at
    least m.
    """
    expanded = list(H.expanded_edges())
    tracked_sides = [e.head if side == "head" else e.tail for e in expanded]
    other_sizes = [len(e.tail if side == "head" else e.head) for e in expanded]
    tracked = sorted({v for s in tracked_sides for v in s})
    M = max((e.size for e in expanded), default=0)
    shells = {m: [0] * H.num_nodes for m in range(2, M + 1)}
    for m in range(2, M + 1):
        for size in range(1, len(tracked) + 1):
            for combo in itertools.combinations(tracked, size):
                S = set(combo)
                floor = min(
                    sum(
                        1
                        for s, extra in zip(tracked_sides, other_sizes)
                        if v in s and len(s & S) + extra >= m
                    )
                    for v in S
                )
                if floor >= 1:
                    for v in S:
                        shells[m][v] = max(shells[m][v], floor)
    return shells


def pagerank_oracle(successors, damping=0.85):
    n = len(successors)
    A = np.zeros((n, n))
    for u in range(n):
        total = sum(successors[u].values())
        if total == 0:
            A[:, u] = 1.0 / n
        else:
            for v, w in successors[u].items():
                A[v, u] += w / total
    x = np.linalg.solve(np.eye(n) - damping * A, np.full(n, (1 - damping) / n))
    return x


def hits_oracle(G):
    nL, nR = G.left_count, G.right_count
    A = np.zeros((nL + nR, nL + nR))
    for v, a, d in G.edges():
        if d == +1:
            A[v, nL + a] = 1.0
        else:
            A[nL + a, v] = 1.0
    u, s, vt = np.linalg.svd(A)
    hub = np.abs(u[:, 0])
    auth = np.abs(vt[0, :])
    return hub, auth


def exact_eigenvalues(U, D=None):
    """Multi-order Laplacian eigenvalues from an exact rational
    characteristic polynomial (Faddeev-LeVerrier), solved with np.roots."""
    n = U.num_nodes
    sizes = [len(m) for m in U.edges]
    if D is None:
        D = min(8, max(sizes))
    L = [[Fraction(0)] * n for _ in range(n)]
    for d in range(2, D + 1):
        members = [m for m in U.edges if len(m) == d]
        if not members:
            continue
        K = [0] * n
        A = [[0] * n for _ in range(n)]
        for m in members:
            for v in m:
                K[v] += 1
            for u, v in itertools.combinations(sorted(m), 2):
                A[u][v] += 1
                A[v][u] += 1
        scale = Fraction(n, sum(K))  # 1 / mean degree of order d
        for i in range(n):
            L[i][i] += scale * d * K[i]
            for j in range(n):
                if i != j:
                    L[i][j] -= scale * A[i][j]
    coeffs = [Fraction(1)]
    Mk = [row[:] for row in L]
    ck = -sum(Mk[i][i] for i in range(n))
    coeffs.append(ck)
    for k in range(2, n + 1):
        for i in range(n):
            Mk[i][i] += coeffs[-1]
        Mk = [
            [sum(L[i][t] * Mk[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        ck = -Fraction(sum(Mk[i][i] for i in range(n)), k)
        coeffs.append(ck)
    roots = np.roots([float(c) for c in coeffs])
    return np.sort(roots.real)


# ---------------------------------------------------------------------------
# Reciprocity
# ---------------------------------------------------------------------------


class TestHyperedgeReciprocity:
    def test_perfect_reciprocation(self):
        e = edge({0}, {1, 2})
        back = edge({1, 2}, {0})
        assert hyperedge_reciprocity(e, [back]) == pytest.approx(1.0)

    def test_empty_set_is_zero(self):
        e = edge({0}, {1})
        assert hyperedge_reciprocity(e, []) == 0.0

    def test_empty_sides_rejected(self):
        with pytest.raises(ValueError):
            hyperedge_reciprocity(edge({}, {1}), [edge({1}, {0})])
        with pytest.raises(ValueError):
            hyperedge_reciprocity(edge({0}, {}), [edge({1}, {0})])

    def test_hand_computed_divergence(self):
        e = edge({0}, {1, 2})
        R = [edge({1}, {0}), edge({1, 3}, {0, 2})]
        # p_0 = {1: 3/4, 3: 1/4} against the ideal uniform {1: 1/2, 2: 1/2};
        # mixture M = {1: 5/8, 2: 1/4, 3: 1/8}.
        jsd = 0.5 * (
            0.75 * math.log2(1.2) + 0.25 + 0.5 * math.log2(0.8) + 0.5
        )
        expected = (1.0 / 2.0) ** 1e-6 * (1.0 - jsd)
        assert hyperedge_reciprocity(e, R) == pytest.approx(expected, rel=1e-12)

    def test_uncovered_head_node_pays_full_divergence(self):
        e = edge({0, 1}, {2})
        R = [edge({2}, {0})]
        assert hyperedge_reciprocity(e, R) == pytest.approx(
            (1.0 - (0.0 + 1.0) / 2.0), rel=1e-6
        )

    def test_range_and_penalty_monotonicity(self):
        e = edge({0}, {1})
        back = edge({1}, {0})
        noisy = edge({1, 2}, {0, 3})
        one = hyperedge_reciprocity(e, [back])
        two = hyperedge_reciprocity(e, [back, noisy])
        assert 0.0 <= two <= one <= 1.0


class TestSearchReciprocalSet:
    def test_no_candidates(self):
        H = parse_hypergraph("1|2\n3|4\n")
        e = next(iter(H.expanded_edges()))
        assert search_reciprocal_set(H, e) == ((), 0.0)

    def test_exact_matches_subset_oracle(self):
        rng = random.Random(53)
        nontrivial = 0
        for _ in range(40):
            H = random_hypergraph(rng, max_nodes=6, max_edges=6, max_side=3)
            for e in H.expanded_edges():
                if not e.head or not e.tail:
                    continue
                candidates = reciprocal_candidates(H, e)
                if len(candidates) > EXACT_LIMIT:
                    continue
                chosen, score = search_reciprocal_set(H, e)
                assert score == pytest.approx(best_subset_oracle(e, candidates))
                if chosen:
                    nontrivial += 1
                    assert hyperedge_reciprocity(e, list(chosen)) == pytest.approx(score)
        assert nontrivial >= 10

    def test_greedy_beats_best_singleton(self):
        n = 20
        e = edge({0}, {1})
        edges = [e] + [edge({1, i}, {0, i}) for i in range(2, 19)]
        H = DirectedHypergraph(edges, n)
        candidates = reciprocal_candidates(H, e)
        assert len(candidates) > EXACT_LIMIT
        chosen, score = search_reciprocal_set(H, e)
        best_single = max(
            hyperedge_reciprocity(e, [c]) for c in candidates
        )
        assert score >= best_single - 1e-12
        assert hyperedge_reciprocity(e, list(chosen)) == pytest.approx(score)

    def test_deterministic(self):
        H = parse_hypergraph("1|2,3\n2|1\n3|1,2\n2,3|1\n")
        e = next(iter(H.expanded_edges()))
        assert search_reciprocal_set(H, e) == search_reciprocal_set(H, e)


class TestHypergraphReciprocity:
    def test_perfect_pairing(self):
        H = parse_hypergraph("1|2\n2|1\n")
        result = hypergraph_reciprocity(H)
        assert result.value == pytest.approx(1.0)
        assert len(result.per_edge) == 2

    def test_star_without_back_edges(self):
        H = parse_hypergraph("1|2\n1|3\n1|4\n")
        assert hypergraph_reciprocity(H).value == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hypergraph_reciprocity(DirectedHypergraph([], 3))

    def test_mean_of_per_edge_searches(self):
        H = parse_hypergraph("1|2,3\n2|1\n3|1,2\n")
        result = hypergraph_reciprocity(H)
        scores = [search_reciprocal_set(H, e)[1] for e in H.expanded_edges()]
        assert result.per_edge == pytest.approx(scores)
        assert result.value == pytest.approx(sum(scores) / len(scores))


class TestCandidatesMatchFullScan:
    @staticmethod
    def check(H):
        expanded = list(H.expanded_edges())
        candidates = _reciprocal_candidates(expanded)
        expected = []
        for e in expanded:
            reference = reciprocal_candidates(H, e)
            assert candidates(e) == reference
            expected.append(_best_reciprocal_set(e, reference)[1])
        assert hypergraph_reciprocity(H).per_edge == tuple(expected)

    def test_random_hypergraphs(self):
        rng = random.Random(89)
        for _ in range(40):
            self.check(random_hypergraph(rng, max_nodes=6, max_edges=8, max_side=3))

    def test_copies_and_self_loops(self):
        # Three copies of a self-reciprocating edge: the first copy is skipped,
        # the other two stay candidates.
        self.check(parse_hypergraph("1,2|1,2\n1,2|1,2\n1,2|1,2\n2|1\n"))

    def test_metabolic_scale(self):
        self.check(metabolic_scale(101))


# ---------------------------------------------------------------------------
# Hyper-core decomposition
# ---------------------------------------------------------------------------


class TestHyperCore:
    def test_single_edge(self):
        H = DirectedHypergraph([edge({0}, {1, 2})], 3)
        head = hyper_core_decomposition(H, "head")
        tail = hyper_core_decomposition(H, "tail")
        assert head.shells[3] == (1, 0, 0)
        assert tail.shells[3] == (0, 1, 1)
        assert head.hypercoreness == (2.0, 0.0, 0.0)
        assert tail.hypercoreness == (0.0, 2.0, 2.0)

    def test_empty_hypergraph(self):
        profile = hyper_core_decomposition(DirectedHypergraph([], 4), "head")
        assert profile.shells == {}
        assert profile.hypercoreness == (0.0, 0.0, 0.0, 0.0)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            hyper_core_decomposition(DirectedHypergraph([], 1), "middle")

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(59)
        for _ in range(25):
            H = random_hypergraph(rng, max_nodes=7, max_edges=6, max_side=3)
            for side in ("head", "tail"):
                profile = hyper_core_decomposition(H, side)
                expected = coreness_oracle(H, side)
                assert set(profile.shells) == set(expected)
                for m, values in expected.items():
                    assert list(profile.shells[m]) == values

    def test_shells_non_increasing_in_m(self):
        rng = random.Random(61)
        for _ in range(25):
            H = random_hypergraph(rng, max_nodes=8, max_edges=8, max_side=4)
            profile = hyper_core_decomposition(H, "head")
            ms = sorted(profile.shells)
            for a, b in zip(ms, ms[1:]):
                for v in range(H.num_nodes):
                    assert profile.shells[b][v] <= profile.shells[a][v]

    def test_hypercoreness_is_shell_sum(self):
        H = parse_hypergraph(TOY)
        profile = hyper_core_decomposition(H, "tail")
        for v in range(H.num_nodes):
            assert profile.hypercoreness[v] == sum(
                profile.shells[m][v] for m in profile.shells
            )


class TestHyperCoreMatchesReference:
    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_random_hypergraphs(self, side):
        rng = random.Random(97)
        for _ in range(40):
            H = random_hypergraph(rng, max_nodes=9, max_edges=10, max_side=4)
            assert hyper_core_decomposition(H, side).shells == core_shells_reference(H, side)

    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_metabolic_scale(self, side):
        H = metabolic_scale(101)
        assert hyper_core_decomposition(H, side).shells == core_shells_reference(H, side)

    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_trade_like_prefix(self, side):
        T = trade_like(2024)
        H = DirectedHypergraph(T.edges[:60], T.num_nodes)
        assert hyper_core_decomposition(H, side).shells == core_shells_reference(H, side)

    def test_trade_scale_instance(self):
        # 300 products, mean head size ~15, edges of up to 146 nodes: the
        # reference's full re-scans take seconds here, the incremental peel
        # about a tenth of a second.
        H = trade_like(7, m=300)
        assert hyper_core_decomposition(H, "head").shells == core_shells_reference(H, "head")


# ---------------------------------------------------------------------------
# Structural entropy
# ---------------------------------------------------------------------------


class TestStructuralEntropy:
    def test_certainty_threshold_value(self):
        assert binary_entropy(0.1) == pytest.approx(0.4690, abs=1e-4)

    def test_extremes_and_peak(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p))

    def test_group_probabilities(self):
        observed = DirectedHypergraph(
            [edge({0, 1}, {4}), edge({2, 3}, {4})], 5
        )
        sample1 = DirectedHypergraph(
            [edge({0, 1, 2}, {4}), edge({2, 3}, {4})], 5
        )
        sample2 = DirectedHypergraph([edge({2, 3}, {4})], 5)
        # A one-pass iterator, as `metric entropy` streams its samples.
        result = structural_entropy(observed, iter([sample1, sample2]), 2, "head")
        assert result == {
            frozenset({0, 1}): pytest.approx(1.0),
            frozenset({2, 3}): pytest.approx(0.0),
        }

    def test_no_samples_rejected(self):
        H = parse_hypergraph(TOY)
        with pytest.raises(ValueError):
            structural_entropy(H, [], 2, "head")
        with pytest.raises(ValueError):
            structural_entropy(H, iter([]), 2, "head")

    def test_tail_side(self):
        observed = DirectedHypergraph([edge({0}, {1, 2})], 3)
        absent = DirectedHypergraph([edge({0}, {1})], 3)
        result = structural_entropy(observed, [absent], 2, "tail")
        assert result == {frozenset({1, 2}): pytest.approx(0.0)}


# ---------------------------------------------------------------------------
# Centrality
# ---------------------------------------------------------------------------


class TestProjectWeighted:
    def test_single_edge(self):
        H = DirectedHypergraph([edge({0}, {1, 2})], 3)
        g = project_weighted(H)
        assert g[0] == {1: 1, 2: 1}
        assert g[1] == {}

    def test_duplicate_doubles_weight(self):
        H = parse_hypergraph("1|2\n1|2\n")
        g = project_weighted(H)
        assert g[0] == {1: 2}

    def test_toy_tally(self):
        H = parse_hypergraph(TOY)
        g = project_weighted(H)
        # 1|2,6 ; 3|4 ; 6|3,5 with ids 1..6 -> 0..5.
        assert g[0] == {1: 1, 5: 1}
        assert g[2] == {3: 1}
        assert g[5] == {2: 1, 4: 1}

    def test_overlap_gives_self_loop(self):
        H = parse_hypergraph("7|7\n")
        g = project_weighted(H)
        assert g[0] == {0: 1}


class TestPagerank:
    def test_cycle_uniform(self):
        g = ({1: 1}, {2: 1}, {0: 1})
        assert pagerank(g) == pytest.approx([1 / 3] * 3)

    def test_single_node(self):
        assert pagerank(({},)) == pytest.approx([1.0])

    def test_dangling_two_nodes(self):
        g = ({1: 1}, {})
        assert pagerank(g) == pytest.approx([20 / 57, 37 / 57])

    def test_matches_linear_solve(self):
        rng = random.Random(67)
        for _ in range(10):
            n = 5
            successors = []
            for _ in range(n):
                nbrs = {}
                for v in range(n):
                    if rng.random() < 0.4:
                        nbrs[v] = rng.randint(1, 3)
                successors.append(nbrs)
            g = tuple(successors)
            scores = pagerank(g)
            assert scores == pytest.approx(list(pagerank_oracle(g)), abs=1e-8)
            assert sum(scores) == pytest.approx(1.0, abs=1e-9)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(structure, "MAX_ITER", 1)
        g = ({1: 1}, {})
        with pytest.raises(RuntimeError):
            pagerank(g)

    def test_empty_graph(self):
        assert pagerank(()) == []


def combined_adjacency(G):
    nL = G.left_count
    n = nL + G.right_count
    A = np.zeros((n, n))
    for v, a, d in G.edges():
        if d == +1:
            A[v, nL + a] = 1.0
        else:
            A[nL + a, v] = 1.0
    return A


class TestHits:
    def test_no_arcs_gives_zeros(self):
        G = BipartiteDigraph([set()], [set()], [], [])
        hubs, auths = hits(G)
        assert hubs == [0.0]
        assert auths == [0.0]

    def test_single_plus_arc(self):
        G = BipartiteDigraph([{0}], [set()], [{0}], [set()])
        hubs, auths = hits(G)
        assert hubs == pytest.approx([1.0, 0.0])
        assert auths == pytest.approx([0.0, 1.0])

    def test_matches_svd(self):
        G = to_bipartite(parse_hypergraph("1|2,3\n2,3|1\n4|1\n1,4|2\n"))
        A = combined_adjacency(G)
        singular = np.linalg.svd(A, compute_uv=False)
        assert singular[0] - singular[1] > 1e-6  # the oracle needs a gap
        hubs, auths = hits(G)
        hub_ref, auth_ref = hits_oracle(G)
        assert np.allclose(hubs, hub_ref, atol=1e-6)
        assert np.allclose(auths, auth_ref, atol=1e-6)

    def test_fixed_point_on_random_graphs(self, monkeypatch):
        monkeypatch.setattr(structure, "MAX_ITER", 10**5)
        rng = random.Random(79)
        for _ in range(10):
            H = random_hypergraph(rng, max_nodes=6, max_edges=6, max_side=3)
            G = to_bipartite(H)
            hubs, auths = hits(G)
            A = combined_adjacency(G)
            expect_a = A.T @ np.array(hubs)
            norm_a = np.linalg.norm(expect_a)
            if norm_a > 0:
                expect_a /= norm_a
            assert np.allclose(auths, expect_a, atol=1e-6)
            expect_h = A @ np.array(auths)
            norm_h = np.linalg.norm(expect_h)
            if norm_h > 0:
                expect_h /= norm_h
            assert np.allclose(hubs, expect_h, atol=1e-6)

    def test_unit_norms(self):
        G = to_bipartite(parse_hypergraph("1|2,3\n2,3|1\n4|1\n"))
        hubs, auths = hits(G)
        assert math.hypot(*hubs) == pytest.approx(1.0, abs=1e-9)
        assert math.hypot(*auths) == pytest.approx(1.0, abs=1e-9)


class TestHitsMatchesReference:
    def test_random_hypergraphs(self, monkeypatch):
        monkeypatch.setattr(structure, "MAX_ITER", 10**5)
        rng = random.Random(101)
        for _ in range(20):
            G = to_bipartite(random_hypergraph(rng, max_nodes=6, max_edges=6, max_side=3))
            assert hits(G) == hits_reference(G, max_iter=10**5)

    def test_metabolic_scale(self):
        G = to_bipartite(metabolic_scale(101))
        assert hits(G) == hits_reference(G)

    def test_same_failure_past_max_iter(self, monkeypatch):
        monkeypatch.setattr(structure, "MAX_ITER", 2)
        G = to_bipartite(parse_hypergraph("1|2,3\n2,3|1\n4|1\n"))
        with pytest.raises(RuntimeError, match="in 2 iterations"):
            hits(G)
        with pytest.raises(RuntimeError, match="in 2 iterations"):
            hits_reference(G, max_iter=2)


# ---------------------------------------------------------------------------
# Multi-order Laplacian and spectra
# ---------------------------------------------------------------------------


class TestMultiOrderLaplacian:
    def test_single_pair_edge(self):
        U = UndirectedHypergraph([{0, 1}], 2)
        L = multi_order_laplacian(U)
        assert np.array_equal(L, np.array([[2.0, -1.0], [-1.0, 2.0]]))

    def test_two_sizes_hand_assembled(self):
        U = UndirectedHypergraph([{0, 1}, {0, 1, 2}], 3)
        L = multi_order_laplacian(U)
        expected = np.array(
            [
                [6.0, -2.5, -1.0],
                [-2.5, 6.0, -1.0],
                [-1.0, -1.0, 3.0],
            ]
        )
        assert np.allclose(L, expected)

    def test_symmetric(self):
        rng = random.Random(71)
        for _ in range(20):
            H = random_hypergraph(rng, max_nodes=6, max_edges=6, max_side=3)
            U = merge_to_undirected(H)
            if not any(len(m) >= 2 for m in U.edges):
                continue
            L = multi_order_laplacian(U)
            assert np.array_equal(L, L.T)
            assert np.linalg.eigvalsh(L).min() >= -1e-9

    def test_no_large_edges_rejected(self):
        U = UndirectedHypergraph([{0}, {1}], 2)
        with pytest.raises(ValueError):
            multi_order_laplacian(U)

    def test_multiplicity_counts(self):
        U = UndirectedHypergraph([{0, 1}, {0, 1}], 2)
        L = multi_order_laplacian(U)
        # K doubles and A doubles; the mean-degree normalization halves both.
        assert np.allclose(L, np.array([[2.0, -1.0], [-1.0, 2.0]]))

    def test_sizes_beyond_d_ignored(self, monkeypatch):
        monkeypatch.setattr(structure, "MAX_ORDER", 2)
        U = UndirectedHypergraph([{0, 1}, {0, 1, 2, 3}], 4)
        L = multi_order_laplacian(U)
        assert L[2, 2] == 0.0 and L[3, 3] == 0.0


class TestSpectralDistance:
    def test_matches_characteristic_polynomial(self):
        rng = random.Random(73)
        checked = 0
        while checked < 10:
            H = random_hypergraph(rng, max_nodes=6, max_edges=6, max_side=3)
            U = merge_to_undirected(H)
            if not any(len(m) >= 2 for m in U.edges):
                continue
            expected = exact_eigenvalues(U)
            ours = np.linalg.eigvalsh(multi_order_laplacian(U))
            assert np.allclose(np.sort(ours), expected, atol=1e-8)
            checked += 1

    def test_spectrum_summary(self):
        H = parse_hypergraph(TOY)
        values = laplacian_spectrum(H, k=6)
        assert len(values) == 6
        assert list(values) == sorted(values)
        assert values[0] >= -1e-9

    def test_small_graph_spectrum_truncates(self):
        H = parse_hypergraph("1|2\n")
        values = laplacian_spectrum(H, k=6)
        assert len(values) == 2
