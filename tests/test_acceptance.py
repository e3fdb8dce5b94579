"""Acceptance suite: the binding end-to-end contract of the package.

Each test pins one requirement with its tolerance written next to the
assertion: exact invariant preservation over million-step runs, ensemble
uniformity against exhaustive enumeration, swap-count bookkeeping, marginal
identities, convergence-trace calibration, reciprocity and coreness oracles,
a closed-form entropy constant, complexity-score consistency, contagion
behavior at pinned rates, and byte-level determinism of every subcommand.
Dataset-dependent checks skip with an explanatory message when the
corresponding files are not supplied.
"""

import itertools
import json
import math
import os
import random
import time
import warnings
from collections import Counter
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest
from scipy import stats

from helpers import check_buckets, metabolic_scale, random_hypergraph, thinned_visits, trade_csv
from hypernull.cli import main
from hypernull.contagion import (
    DEFAULT_THRESHOLDS,
    SISConfig,
    gillespie_step,
    make_sis_state,
    run_quasi_stationary,
    run_stationary,
)
from hypernull.core import (
    BipartiteDigraph,
    DirectedHypergraph,
    Hyperedge,
    UndirectedHypergraph,
    compute_joint,
    degree_profile,
    joint_marginals,
    merge_to_undirected,
    parse_hypergraph,
    parse_undirected,
    positive_histograms,
    to_bipartite,
)
from hypernull.diagnostics import arsd, arsd_trace, mine_top_frequent, transaction_db
from hypernull.econ import (
    Biadjacency,
    complexity_scores,
    eci_pci,
    fitness_quality,
    genepy,
    hypergraph_biadjacency,
    proximity,
    rank_compare,
    read_trade_table,
    trade_to_hypergraph,
)
from hypernull.sampling import (
    ChainConfig,
    SwapProposal,
    apply_pso,
    delta_state_degree_pso,
    derive_seed,
    make_chain_state,
    nudhy_degs_step,
    nudhy_joint_step,
    run_chain,
    state_degree_pso,
)
from hypernull.structure import (
    binary_entropy,
    hyper_core_decomposition,
    hyperedge_reciprocity,
    hypergraph_reciprocity,
    search_reciprocal_set,
)

TOY = "1|2,6\n3|4\n6|3,5\n"

DENSE_TOY = "1,2,3|4,5,6\n1,2,4|3,5,6\n1,3,5|2,4,6\n2,3,6|1,4,5\n"

DATA_DIR = Path(
    os.environ.get("NUDHY_DATA_DIR", Path(__file__).resolve().parents[1] / "data")
)
TRADE_DIR = Path(os.environ.get("TRADE_DATA_DIR", DATA_DIR / "trade"))


# ---------------------------------------------------------------------------
# Deterministic test instances
# ---------------------------------------------------------------------------


def contact_scale(seed=2024):
    """Random undirected hypergraph at the scale of a school contact network:
    243 nodes and 1188 interaction edges of sizes 2-4 (mean 2.40)."""
    rng = random.Random(seed)
    n = 243
    edges = []
    for size, count in ((2, 731), (3, 439), (4, 18)):
        for _ in range(count):
            edges.append(frozenset(rng.sample(range(n), size)))
    return UndirectedHypergraph(edges, n)


def block_toy(seed):
    """24 nodes in four loose communities; heads and tails mostly stay within
    one community, so length-3 itemsets recur on both sides."""
    rng = random.Random(seed)
    edges = []
    for _ in range(40):
        block = rng.randrange(4)
        pool = [block * 6 + i for i in range(6)]
        head = frozenset(rng.sample(pool, 3))
        other = [v for v in pool if v not in head] + [rng.randrange(24)]
        tail = frozenset(rng.sample(other, 3))
        edges.append(Hyperedge(head, tail))
    return DirectedHypergraph(edges, 24)


def contact_substrate():
    """The real contact dataset when its file is supplied, otherwise the
    deterministic contact-scale instance above."""
    for name in ("lyon.dhg", "lyon.txt"):
        path = DATA_DIR / name
        if path.exists():
            text = path.read_text(encoding="utf-8")
            stripped = next(
                (l.strip() for l in text.splitlines()
                 if l.strip() and not l.startswith("#")), "",
            )
            if "|" in stripped:
                return merge_to_undirected(parse_hypergraph(text))
            return parse_undirected(text)
    return contact_scale()


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def matrices_with_margins(n_rows, n_cols, row_sums, col_sums):
    """All 0/1 matrices with the given margins, as tuples of row column-sets."""
    results = []

    def recurse(row, remaining, acc):
        if row == n_rows:
            if all(c == 0 for c in remaining):
                results.append(tuple(acc))
            return
        for cols in itertools.combinations(range(n_cols), row_sums[row]):
            if any(remaining[c] == 0 for c in cols):
                continue
            for c in cols:
                remaining[c] -= 1
            acc.append(frozenset(cols))
            recurse(row + 1, remaining, acc)
            acc.pop()
            for c in cols:
                remaining[c] += 1

    recurse(0, list(col_sums), [])
    return results


def bipartite_from_rows(plus, minus, n_rows, n_cols):
    left_out = [set(s) for s in plus]
    left_in = [set(s) for s in minus]
    right_in = [set() for _ in range(n_cols)]
    right_out = [set() for _ in range(n_cols)]
    for v in range(n_rows):
        for a in left_out[v]:
            right_in[a].add(v)
        for a in left_in[v]:
            right_out[a].add(v)
    return BipartiteDigraph(left_out, left_in, right_in, right_out)


def bipartite_key(G):
    return (
        tuple(frozenset(s) for s in G.left_out),
        tuple(frozenset(s) for s in G.left_in),
    )


def pair_swap_count(G):
    """O(|D|^2) applicable-swap count, checked pair by pair."""
    edges = sorted(G.edges())
    count = 0
    for e1, e2 in itertools.combinations(edges, 2):
        if e1.direction != e2.direction:
            continue
        u, a, d = e1
        v, b, _ = e2
        if u == v or a == b:
            continue
        if d == +1:
            count += b not in G.left_out[u] and a not in G.left_out[v]
        else:
            count += b not in G.left_in[u] and a not in G.left_in[v]
    return count


def valid_proposals(G):
    proposals = []
    for e1, e2 in itertools.combinations(sorted(G.edges()), 2):
        if e1.direction != e2.direction:
            continue
        u, a, d = e1
        v, b, _ = e2
        if u == v or a == b:
            continue
        if d == +1:
            absent = b not in G.left_out[u] and a not in G.left_out[v]
        else:
            absent = b not in G.left_in[u] and a not in G.left_in[v]
        if absent:
            proposals.append(SwapProposal(u, a, v, b, d))
    return proposals


def first_plateau(values, window=10, rel_tol=0.01):
    """First checkpoint whose trailing window has a least-squares slope below
    rel_tol relative to the window mean, or None."""
    xs = list(range(window))
    x_mean = (window - 1) / 2
    x_var = sum((x - x_mean) ** 2 for x in xs)
    for end in range(window, len(values) + 1):
        ys = values[end - window : end]
        y_mean = sum(ys) / window
        slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / x_var
        if abs(slope) < rel_tol * max(abs(y_mean), 1e-12):
            return end - 1
    return None


def oracle_shells(H, side):
    """Exhaustive (k, m)-core shells: for every subset S of the tracked nodes,
    a node's degree counts hyperedges whose tracked survivors in S plus the
    full opposite side reach size m; the (k, m) core is the union of all
    self-consistent subsets, found by enumerating all 2^|tracked| of them."""
    expanded = list(H.edges)
    sides = [e.head if side == "head" else e.tail for e in expanded]
    extras = [len(e.tail if side == "head" else e.head) for e in expanded]
    max_size = max((e.size for e in expanded), default=0)
    tracked = sorted(frozenset().union(*sides)) if sides else []
    shells = {}
    for m in range(2, max_size + 1):
        best = [0] * H.num_nodes
        for bits in range(1, 1 << len(tracked)):
            S = {tracked[i] for i in range(len(tracked)) if bits >> i & 1}
            degree = Counter()
            for members, extra in zip(sides, extras):
                inside = members & S
                if len(inside) + extra >= m:
                    for v in inside:
                        degree[v] += 1
            level = min(degree[v] for v in S)
            for v in S:
                best[v] = max(best[v], level)
        shells[m] = tuple(best)
    return shells


# ---------------------------------------------------------------------------
# 1. Exact invariant preservation over a million steps
# ---------------------------------------------------------------------------


def _million_step_datasets():
    cases = [
        ("toy", parse_hypergraph(TOY)),
        ("metabolic-scale", metabolic_scale(101)),
    ]
    path = DATA_DIR / "lyon.dhg"
    if path.exists():
        cases.append(("lyon", parse_hypergraph(path.read_text(encoding="utf-8"))))
    return cases


class TestExactInvariantPreservation:
    @pytest.mark.parametrize("name,H", _million_step_datasets())
    def test_degree_profile_survives_a_million_swaps(self, name, H):
        G = to_bipartite(H)
        before = degree_profile(G)
        state = make_chain_state(G, seed=57, model="degs")
        started = time.perf_counter()
        for _ in range(1_000_000):
            nudhy_degs_step(state)
        elapsed = time.perf_counter() - started
        assert degree_profile(G) == before  # integer-identical, zero tolerance
        assert elapsed < 120.0

    @pytest.mark.parametrize("name,H", _million_step_datasets())
    def test_joint_tensor_survives_a_million_swaps(self, name, H):
        G = to_bipartite(H)
        before = compute_joint(G)
        state = make_chain_state(G, seed=58, model="joint")
        started = time.perf_counter()
        for _ in range(1_000_000):
            nudhy_joint_step(state)
        elapsed = time.perf_counter() - started
        assert compute_joint(G) == before  # integer-identical, zero tolerance
        assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 2. Uniformity and irreducibility at desk scale
# ---------------------------------------------------------------------------

# Five nodes, three hyperedges; the degree-preserving ensemble has 60 states
# and the tensor-preserving sub-ensemble 24, both enumerable by brute force.
DESK_INSTANCE = DirectedHypergraph(
    [
        Hyperedge(frozenset({0, 1}), frozenset({2})),
        Hyperedge(frozenset({2, 3}), frozenset({4})),
        Hyperedge(frozenset({4}), frozenset()),
    ],
    5,
)


class TestUniformityAtDeskScale:
    def enumerate_states(self):
        G = to_bipartite(DESK_INSTANCE)
        p = degree_profile(G)
        n, m = DESK_INSTANCE.num_nodes, len(DESK_INSTANCE.edges)
        plus = matrices_with_margins(n, m, p.left_out, p.right_in)
        minus = matrices_with_margins(n, m, p.left_in, p.right_out)
        return [(pm, mm) for pm in plus for mm in minus], n, m

    def test_degree_chain_visits_every_state_uniformly(self):
        states, _, _ = self.enumerate_states()
        assert 1 < len(states) <= 200
        G = to_bipartite(DESK_INSTANCE)
        state = make_chain_state(G, seed=42, model="degs")
        started = time.perf_counter()
        visits = thinned_visits(nudhy_degs_step, state, bipartite_key, 1_000_000)
        assert set(visits) == set(states)
        _, p_value = stats.chisquare(list(visits.values()))
        assert p_value > 0.001
        assert time.perf_counter() - started < 300.0

    def test_joint_chain_visits_its_subensemble_uniformly(self):
        states, n, m = self.enumerate_states()
        observed = compute_joint(to_bipartite(DESK_INSTANCE)).counts
        subensemble = {
            (pm, mm)
            for pm, mm in states
            if compute_joint(bipartite_from_rows(pm, mm, n, m)).counts == observed
        }
        assert 1 < len(subensemble) < len(states)
        G = to_bipartite(DESK_INSTANCE)
        state = make_chain_state(G, seed=43, model="joint")
        started = time.perf_counter()
        visits = thinned_visits(nudhy_joint_step, state, bipartite_key, 1_000_000)
        assert set(visits) == subensemble
        _, p_value = stats.chisquare(list(visits.values()))
        assert p_value > 0.001
        assert time.perf_counter() - started < 300.0

    def test_a_repeated_copy_has_one_over_r_factorial_of_the_weight(self):
        # The chains are uniform over edge-labeled states, and a written
        # sample is the multiset of its copies: r labeled states that only
        # swap the labels of r equal copies are one multiset.  So each
        # multiset's labeled-state count times the product of r_i! over its
        # repeated copies is one constant (exact integers).
        H = parse_hypergraph("0|1\n0|1\n1|2\n2|0\n")  # one copy repeated
        p = degree_profile(to_bipartite(H))
        n, m = H.num_nodes, len(H.edges)
        states = Counter()
        for pm in matrices_with_margins(n, m, p.left_out, p.right_in):
            for mm in matrices_with_margins(n, m, p.left_in, p.right_out):
                copies = [(frozenset(v for v in range(n) if a in pm[v]),
                           frozenset(v for v in range(n) if a in mm[v])) for a in range(m)]
                states[tuple(sorted(copies, key=lambda c: (sorted(c[0]), sorted(c[1]))))] += 1
        assert sum(states.values()) == 144
        weighted = {
            math.prod(math.factorial(r) for r in Counter(multiset).values()) * count
            for multiset, count in states.items()
        }
        assert weighted == {math.factorial(m)}  # every copy has one head and one tail
        assert set(states.values()) == {24, 12}  # unequal multiset weights


# ---------------------------------------------------------------------------
# 3. Swap-count bookkeeping
# ---------------------------------------------------------------------------


class TestSwapCountBookkeeping:
    def test_matches_pairwise_brute_force_on_100_graphs(self):
        rng = random.Random(61)
        for _ in range(100):
            G = to_bipartite(random_hypergraph(rng, max_nodes=8, max_edges=12))
            assert state_degree_pso(G) == pair_swap_count(G)

    def test_delta_updates_track_full_recomputation_for_10k_steps(self):
        rng = random.Random(67)
        while True:
            G = to_bipartite(random_hypergraph(rng, max_nodes=6, max_edges=8))
            arcs = sum(len(s) for s in G.left_out) + sum(len(s) for s in G.left_in)
            if arcs >= 14 and len(valid_proposals(G)) >= 20:
                break
        count = state_degree_pso(G)
        for step in range(10_000):
            proposals = valid_proposals(G)
            proposal = proposals[rng.randrange(len(proposals))]
            count += delta_state_degree_pso(G, proposal)
            apply_pso(G, proposal)
            assert count == state_degree_pso(G)  # exact, every step
            if step % 500 == 0:
                assert count == pair_swap_count(G)


# ---------------------------------------------------------------------------
# 4. Joint-tensor marginal identities
# ---------------------------------------------------------------------------


class TestJointMarginalIdentities:
    def test_marginals_reproduce_all_four_histograms_on_1000_graphs(self):
        rng = random.Random(71)
        for _ in range(1000):
            G = to_bipartite(random_hypergraph(rng))
            assert joint_marginals(compute_joint(G)) == positive_histograms(
                degree_profile(G)
            )


# ---------------------------------------------------------------------------
# 5. Convergence-diagnostic calibration
# ---------------------------------------------------------------------------


class TestConvergenceDiagnostic:
    toys = [
        ("dense", parse_hypergraph(DENSE_TOY)),
        ("blocks-a", block_toy(77)),
        ("blocks-b", block_toy(123)),
    ]

    @pytest.mark.parametrize("name,H", toys)
    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_zero_against_itself(self, name, H, side):
        db = transaction_db(H, side)
        fi = mine_top_frequent(db, f=20, l=3)
        assert arsd(db, db, fi) == 0.0  # exact

    def test_one_when_no_itemset_survives(self):
        observed = parse_hypergraph("0,1,2|3\n" * 4)
        vanished = parse_hypergraph("0,1,3|2\n" * 4)
        db = transaction_db(observed, "head")
        fi = mine_top_frequent(db, f=20, l=3)
        assert arsd(db, transaction_db(vanished, "head"), fi) == 1.0  # exact

    @pytest.mark.parametrize("name,H", toys)
    @pytest.mark.parametrize("model", ["degs", "joint"])
    def test_traces_plateau_within_50_checkpoints(self, name, H, model):
        trace = arsd_trace(H, model=model, seed=11, f=20, l=3, max_multiplier=50)
        assert trace  # at least one side mined
        for side, rows in trace.items():
            assert [k for k, _ in rows] == list(range(51))
            assert rows[0][1] == 0.0
            values = [value for _, value in rows]
            checkpoint = first_plateau(values, window=10, rel_tol=0.01)
            assert checkpoint is not None and checkpoint <= 50


# ---------------------------------------------------------------------------
# 6. Reciprocity anchors and exact-search oracle
# ---------------------------------------------------------------------------


class TestReciprocityAnchors:
    def test_perfectly_reciprocated_pair_scores_one(self):
        H = parse_hypergraph("1|2\n2|1\n")
        assert hypergraph_reciprocity(H).value == 1.0  # exact

    def test_star_with_no_back_edges_scores_zero(self):
        H = parse_hypergraph("1|2\n1|3\n1|4\n")
        assert hypergraph_reciprocity(H).value == 0.0  # exact

    def test_exact_search_equals_powerset_oracle(self):
        rng = random.Random(83)
        checked = 0
        for _ in range(30):
            H = random_hypergraph(rng, max_nodes=7, max_edges=8)
            for e in H.edges:
                if not e.head or not e.tail:
                    continue
                skipped_self = False
                candidates = []
                for f in H.edges:
                    if not skipped_self and f.head == e.head and f.tail == e.tail:
                        skipped_self = True
                        continue
                    if (f.tail & e.head) and (f.head & e.tail):
                        candidates.append(f)
                if len(candidates) > 10:
                    continue
                best = 0.0
                for mask in range(1, 1 << len(candidates)):
                    subset = [c for i, c in enumerate(candidates) if mask >> i & 1]
                    best = max(best, hyperedge_reciprocity(e, subset))
                _, score = search_reciprocal_set(H, e)
                assert score == best
                checked += 1
        assert checked >= 50


# ---------------------------------------------------------------------------
# 7. Hyper-coreness oracle equivalence and nesting
# ---------------------------------------------------------------------------


class TestCorenessOracle:
    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_shells_equal_exhaustive_fixed_points_on_50_graphs(self, side):
        rng = random.Random(11 if side == "head" else 13)
        for _ in range(50):
            H = random_hypergraph(rng, max_nodes=10, max_edges=8, max_side=4)
            profile = hyper_core_decomposition(H, side)
            assert profile.shells == oracle_shells(H, side)

    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_cores_nest_in_both_parameters(self, side):
        rng = random.Random(97)
        graphs = [parse_hypergraph(DENSE_TOY), block_toy(77)]
        graphs += [random_hypergraph(rng, max_nodes=10, max_edges=8, max_side=4)
                   for _ in range(20)]
        for H in graphs:
            shells = hyper_core_decomposition(H, side).shells
            for m, shell in shells.items():
                deeper = shells.get(m + 1)
                for v, k in enumerate(shell):
                    if deeper is not None:
                        assert deeper[v] <= k  # larger m can only shrink cores
                # shell index k means membership in every core up to k,
                # so per-m nesting is implied; check explicitly:
                for k in range(1, max(shell, default=0) + 1):
                    inner = {v for v in range(H.num_nodes) if shell[v] >= k}
                    outer = {v for v in range(H.num_nodes) if shell[v] >= k - 1}
                    assert inner <= outer


# ---------------------------------------------------------------------------
# 8. Entropy constant
# ---------------------------------------------------------------------------


class TestEntropyConstant:
    def test_binary_entropy_at_one_tenth(self):
        assert binary_entropy(0.1) == pytest.approx(0.4690, abs=0.0001)


# ---------------------------------------------------------------------------
# 9. Economic-complexity internal consistency
# ---------------------------------------------------------------------------


def iterative_eci_reference(M, tol=1e-10, max_iter=20_000):
    """Independent fixed point of the coupled averaging equations with
    per-round standardization, started from the country degrees."""
    kc, kp = M.sum(axis=1), M.sum(axis=0)
    x = (kc - kc.mean()) / kc.std()
    for _ in range(max_iter):
        pci = (M.T @ x) / kp
        fresh = (M @ pci) / kc
        fresh = (fresh - fresh.mean()) / fresh.std()
        if np.corrcoef(fresh, kc)[0, 1] < 0:
            fresh = -fresh
        if np.max(np.abs(fresh - x)) < tol:
            return fresh
        x = fresh
    raise RuntimeError("reference iteration did not converge")


class TestComplexityConsistency:
    def test_twenty_random_matrices_in_under_a_minute(self):
        rng = np.random.default_rng(303)
        started = time.perf_counter()
        for _ in range(20):
            while True:
                M = (rng.random((30, 80)) < 0.3).astype(float)
                if M.sum(axis=1).all() and M.sum(axis=0).all():
                    break
            B = Biadjacency(tuple(range(30)), tuple(range(80)), M)

            eci, _ = eci_pci(B)
            spearman = stats.spearmanr(eci, iterative_eci_reference(M)).statistic
            assert spearman >= 0.999

            fit_a, _ = fitness_quality(
                B,
                initial_fitness=rng.uniform(0.1, 10.0, 30),
                initial_quality=rng.uniform(0.1, 10.0, 80),
            )
            fit_b, _ = fitness_quality(
                B,
                initial_fitness=rng.uniform(0.1, 10.0, 30),
                initial_quality=rng.uniform(0.1, 10.0, 80),
            )
            assert stats.kendalltau(fit_a, fit_b).statistic == 1.0

            assert min(genepy(proximity(B).X)) >= 0.0
        assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 10. Trade-data reproduction (runs only when the published files are present)
# ---------------------------------------------------------------------------


class TestTradeReproduction:
    def test_hs2019_graph_shape_and_rank_agreement(self):
        trade = TRADE_DIR / "hs2019.csv"
        if not trade.exists():
            pytest.skip(
                f"published trade files not supplied at {trade}; "
                "set TRADE_DATA_DIR to run this check"
            )
        started = time.perf_counter()
        metadata = TRADE_DIR / "metadata.csv"
        table = read_trade_table(trade, metadata if metadata.exists() else None)
        H = trade_to_hypergraph(table, 2019)
        assert H.num_nodes == 133
        copies = len(H.edges)
        assert 4500 <= copies <= 4700
        mean_head = fmean(len(e.head) for e in H.edges)
        assert mean_head == pytest.approx(16.24, abs=0.01)

        observed = complexity_scores(hypergraph_biadjacency(H))
        scores = {"eci": observed.eci, "fitness": observed.fitness}
        samples = {}
        for model in ("joint", "degs"):
            config = ChainConfig(model=model, steps="auto", seed=20, sample_count=33)
            vectors = {"eci": [], "fitness": []}
            for sample in run_chain(H, config):
                result = complexity_scores(hypergraph_biadjacency(sample))
                assert result.countries == observed.countries
                vectors["eci"].append(result.eci)
                vectors["fitness"].append(result.fitness)
            samples[model] = vectors
        rows = {
            (row["sampler"], row["score"]): row
            for row in rank_compare(scores, samples)
        }
        assert rows[("joint", "eci")]["spearman_mean"] == pytest.approx(
            0.964, abs=0.02
        )
        assert rows[("degs", "fitness")]["spearman_mean"] == pytest.approx(
            0.981, abs=0.02
        )
        assert time.perf_counter() - started < 3600.0


class TestTradeScienceGate:
    """The trade pipeline end to end through the CLI on a synthetic table:
    econ build, then degs and joint samples at --steps auto, then econ
    compare.  It pins the rank agreement, not bytes, so a release that
    changes every sample keeps it, and one that moves the paper's
    conclusion fails it."""

    SAMPLES = 12

    # (spearman_mean, spearman_std) of each (sampler, score), pinned on
    # trade_csv(2019) with sample seed 11.
    PINNED = {
        ("degs", "eci"): (-0.0223289315726, 0.123055875829),
        ("degs", "fitness"): (0.618231292517, 0.0441753019413),
        ("degs", "genepy"): (-0.096118447379, 0.130305033413),
        ("joint", "eci"): (0.957398959584, 0.00527868612094),
        ("joint", "fitness"): (0.930884353741, 0.00615836847986),
        ("joint", "genepy"): (0.793205282113, 0.0136047901357),
    }

    def test_rank_agreement_of_auto_samples(self, tmp_path):
        started = time.perf_counter()
        trade, observed = tmp_path / "trade.csv", tmp_path / "trade.dhg"
        trade.write_text(trade_csv(2019), encoding="utf-8")

        def cli(*argv):
            assert main([str(a) for a in argv]) == 0

        cli("econ", "build", "--trade", trade, "--year", 2019, "--output", observed)
        H = parse_hypergraph(observed.read_text(encoding="utf-8"))
        assert (H.num_nodes, len(H.edges)) == (50, 200)
        assert sum(len(e.head) for e in H.edges) == 2863  # mean head size 14.315
        assert sum(len(e.tail) for e in H.edges) == 3219
        for model in ("degs", "joint"):
            cli("sample", "--input", observed, "--model", model, "--samples", self.SAMPLES,
                "--steps", "auto", "--seed", 11, "--output-dir", tmp_path / model)
        compare = tmp_path / "compare.csv"
        cli("econ", "compare", "--observed", observed, "--samples", f"degs={tmp_path / 'degs'}",
            "--samples", f"joint={tmp_path / 'joint'}", "--output", compare)
        lines = compare.read_text(encoding="utf-8").splitlines()
        rows = {}
        for line in lines[1:]:
            sampler, score, samples, spearman_mean, *_ = line.split(",")
            assert int(samples) == self.SAMPLES
            rows[sampler, score] = float(spearman_mean)
        assert rows.keys() == self.PINNED.keys()
        for key, (mean, std) in self.PINNED.items():
            # Four standard errors of the pinned run, fixed with the pins;
            # never widened.
            assert abs(rows[key] - mean) <= 4 * std / math.sqrt(self.SAMPLES), key
        # The science the gate holds: joint keeps the ECI ranking and degs
        # does not.
        assert rows["joint", "eci"] > 0.9 > abs(rows["degs", "eci"])
        assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 11. Contagion behavior
# ---------------------------------------------------------------------------


class TestContagionBehavior:
    def test_per_edge_conservation_at_every_event(self):
        rng = random.Random(29)
        n = 40
        edges = [frozenset(rng.sample(range(n), rng.randint(1, 4)))
                 for _ in range(58)]
        edges += edges[:2]  # repeated copies must count twice
        H = UndirectedHypergraph(edges, n)
        cfg = SISConfig(lam=0.8, nu=1.5, mu=1.0, seed=5)
        state = make_sis_state(H, infected_nodes=range(0, n, 3), cfg=cfg)
        event_rng = random.Random(7)
        for _ in range(10_000):
            event = gillespie_step(state, event_rng)
            if event is None:
                break
            for index, members in enumerate(state.edges):
                infected = sum(1 for v in members if state.infected[v])
                offset = state.edge_class[index] - state.class_base[len(members)]
                assert offset == infected
            check_buckets(state)

    def test_zero_rate_always_absorbs_at_zero_density(self):
        H = contact_scale()
        result = run_stationary(H, SISConfig(lam=0.0, nu=1.0, seed=1))
        assert result.mean == 0.0 and result.std == 0.0 and result.absorbed

    def test_linear_contagion_around_the_contact_threshold(self):
        started = time.perf_counter()
        H = contact_substrate()
        lambda_c = DEFAULT_THRESHOLDS["lyon"].lambda_linear
        # The instance must actually bracket the pinned rates: its mean-field
        # threshold (inverse top co-membership eigenvalue) sits inside
        # (0.030, 0.075), so 0.5 * lambda_c is subcritical and 2 * lambda_c
        # supercritical for this substrate.
        W = np.zeros((H.num_nodes, H.num_nodes))
        for e in H.edges:
            members = sorted(e)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    W[u, v] += 1.0
                    W[v, u] += 1.0
        inverse_top = 1.0 / float(np.linalg.eigvalsh(W)[-1])
        assert 0.030 < inverse_top < 0.075

        absorbed = 0
        for replicate in range(100):
            cfg = SISConfig(
                lam=0.5 * lambda_c, nu=1.0, burn_in=1000.0, sample_count=1000,
                seed=derive_seed(0, "subcritical", replicate),
            )
            result = run_stationary(H, cfg)
            absorbed += result.absorbed and result.mean == 0.0
        assert absorbed >= 95

        densities = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for replicate in range(10):
                cfg = SISConfig(
                    lam=2.0 * lambda_c, nu=1.0, burn_in=200.0, sample_count=500,
                    seed=derive_seed(1, "supercritical", replicate),
                )
                densities.append(run_quasi_stationary(H, cfg).mean)
        assert all(density > 0.0 for density in densities)
        assert fmean(densities) > 0.02  # macroscopic, not a revival artifact
        assert time.perf_counter() - started < 600.0


# ---------------------------------------------------------------------------
# 12. Byte-level determinism of every subcommand
# ---------------------------------------------------------------------------

SPONSOR = "0|1,2\n1|0,2\n2|0,1,3\n3|1\n0|3\n1|2\n"
LABELS = "node_id,category\n0,red\n1,red\n2,blue\n3,blue\n"
TRADE = (
    "year,country,product,export_value,import_value\n"
    "2020,USA,apples,100,5\n2020,USA,cars,50,10\n"
    "2020,DEU,apples,10,80\n2020,DEU,cars,200,5\n"
    "2020,JPN,apples,30,40\n2020,JPN,cars,90,100\n"
)
ECON = (
    "6,7|0,1\n0,1,4,7|2,3\n0,2,3,5,6|1,4\n4,6,7|0,1\n3,4|0,1\n1,2,3,6|0,4\n"
    "5,6|0,1\n0,1,3,4,5|2,6\n0,1,4,7|2,3\n1,4,6,7|0,2\n1,5|0,2\n0,2,4,5,7|1,3\n"
)

SUBCOMMANDS = [
    ["convert", "--input", "toy.dhg", "--to", "undirected",
     "--output", "toy.undir"],
    ["sample", "--input", "toy.dhg", "--model", "degs", "--samples", "2",
     "--seed", "5", "--output-dir", "samples"],
    ["converge", "--input", "toy.dhg", "--model", "degs", "--seed", "3",
     "--f", "4", "--l", "2", "--max-k", "6", "--output", "arsd.csv"],
    ["metric", "reciprocity", "--input", "toy.dhg", "--samples", "samples",
     "--output", "reciprocity.csv"],
    ["metric", "coreness", "--input", "toy.dhg", "--samples", "samples",
     "--side", "head", "--output", "coreness.csv"],
    ["metric", "entropy", "--input", "toy.dhg", "--samples", "samples",
     "--side", "tail", "--group-size", "2", "--output", "entropy.csv"],
    ["metric", "centrality", "--input", "toy.dhg", "--samples", "samples",
     "--output", "centrality.csv"],
    ["metric", "spectrum", "--input", "toy.dhg", "--samples", "samples",
     "--k", "3", "--output", "spectrum.csv"],
    ["affinity", "--input", "sponsor.dhg", "--labels", "labels.csv",
     "--samples", "degs=samples_sponsor", "--k-min", "2", "--k-max", "3",
     "--output", "affinity.csv"],
    ["econ", "build", "--trade", "trade.csv", "--year", "2020",
     "--output", "trade.dhg"],
    ["econ", "scores", "--input", "econ.dhg", "--output-dir", "econ_scores"],
    ["econ", "compare", "--observed", "econ.dhg", "--samples",
     "self=econ_mirror", "--output", "compare.csv"],
    ["contagion", "--input", "toy.dhg", "--nu", "1", "--lambda-grid", "0,0.3",
     "--lambda-c", "0.2", "--seed", "3", "--burn-in", "2",
     "--sample-count", "20", "--output", "contagion.csv"],
]


class TestSubcommandDeterminism:
    def run_everything(self, root, monkeypatch):
        root.mkdir()
        (root / "toy.dhg").write_text("0,1|2\n2|0,1\n1|3\n3|1\n0,2|3\n",
                                      encoding="utf-8")
        (root / "sponsor.dhg").write_text(SPONSOR, encoding="utf-8")
        (root / "labels.csv").write_text(LABELS, encoding="utf-8")
        (root / "trade.csv").write_text(TRADE, encoding="utf-8")
        (root / "econ.dhg").write_text(ECON, encoding="utf-8")
        (root / "econ_mirror").mkdir()
        (root / "econ_mirror" / "sample_0.dhg").write_text(ECON, encoding="utf-8")
        monkeypatch.chdir(root)
        assert main(["sample", "--input", "sponsor.dhg", "--samples", "2",
                     "--seed", "2", "--output-dir", "samples_sponsor"]) == 0
        for argv in SUBCOMMANDS:
            assert main(argv) == 0, argv

    def test_every_subcommand_is_byte_identical_across_reruns(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("NUDHY_THREADS", raising=False)
        for rep in ("a", "b"):
            self.run_everything(tmp_path / rep, monkeypatch)
        first, second = tmp_path / "a", tmp_path / "b"
        outputs = sorted(
            p.relative_to(first) for p in first.rglob("*") if p.is_file()
        )
        assert outputs == sorted(
            p.relative_to(second) for p in second.rglob("*") if p.is_file()
        )
        compared = 0
        for rel in outputs:
            mine, twin = first / rel, second / rel
            if rel.name.endswith("manifest.json"):
                a = json.loads(mine.read_text(encoding="utf-8"))
                b = json.loads(twin.read_text(encoding="utf-8"))
                a.pop("timings"), b.pop("timings")
                assert a == b, rel  # identical modulo wall-clock timings
            else:
                assert mine.read_bytes() == twin.read_bytes(), rel
                compared += 1
        assert compared > len(SUBCOMMANDS)
