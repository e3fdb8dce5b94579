"""Tests for convergence diagnostics and rank-comparison statistics.

Oracles: exhaustive powerset enumeration and the level-wise reference miner
of helpers.py for the itemset miner, and direct O(n^2) definition-based
implementations for both correlation coefficients (cross-checked against
scipy).
"""

import itertools
import math
import random
import struct
import warnings

import pytest
from scipy import stats

from helpers import kendall_tau_reference, metabolic_scale, mine_top_frequent_reference, trade_like
from hypernull.core import SIDES, parse_hypergraph, to_bipartite
from hypernull.diagnostics import (
    _mine_at_threshold,
    arsd,
    arsd_trace,
    kendall_tau,
    mine_top_frequent,
    plateau_checkpoint,
    spearman,
    transaction_db,
)
from hypernull.sampling import ChainConfig, run_chain

TOY = "1|2,6\n3|4\n6|3,5\n"


def database(transactions):
    """A transaction database as transaction_db returns one."""
    return tuple(frozenset(t) for t in transactions)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def powerset_top_frequent(transactions, f, l):
    """Top-f frequent itemsets by brute-force enumeration of every subset."""
    universe = sorted(set().union(*transactions)) if transactions else []
    scored = []
    for size in range(l, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            s = frozenset(combo)
            support = sum(1 for t in transactions if s <= t)
            if support >= 1:
                scored.append((combo, support))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [(frozenset(c), s) for c, s in scored[:f]]


def average_ranks_oracle(xs):
    ranks = []
    for value in xs:
        below = sum(1 for other in xs if other < value)
        equal = sum(1 for other in xs if other == value)
        ranks.append(below + (equal + 1) / 2)
    return ranks


def spearman_oracle(x, y):
    rx, ry = average_ranks_oracle(x), average_ranks_oracle(y)
    n = len(x)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def kendall_oracle(x, y):
    """Tau-b by explicit enumeration of all pairs."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx * dy > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


# ---------------------------------------------------------------------------
# Transaction databases
# ---------------------------------------------------------------------------


class TestTransactionDb:
    def test_toy_sides(self):
        H = parse_hypergraph(TOY)
        heads = transaction_db(H, "head")
        tails = transaction_db(H, "tail")
        assert list(heads) == [frozenset({0}), frozenset({2}), frozenset({5})]
        assert list(tails) == [
            frozenset({1, 5}),
            frozenset({3}),
            frozenset({2, 4}),
        ]

    def test_multiplicity_expands(self):
        H = parse_hypergraph("1|2\n1|2\n")
        db = transaction_db(H, "tail")
        assert len(db) == 2

    def test_bad_side_rejected(self):
        H = parse_hypergraph(TOY)
        with pytest.raises(ValueError):
            transaction_db(H, "middle")


# ---------------------------------------------------------------------------
# Frequent-itemset mining
# ---------------------------------------------------------------------------


class TestMineTopFrequent:
    def test_repeated_triple(self):
        db = database([{1, 2, 3}, {1, 2, 3}])
        fi = mine_top_frequent(db, f=1, l=3)
        assert list(fi) == [(frozenset({1, 2, 3}), 2)]

    def test_disjoint_pairs_give_nothing_at_length_three(self):
        db = database([{1, 2}, {3, 4}, {5, 6}])
        fi = mine_top_frequent(db, f=5, l=3)
        assert fi == ()

    def test_matches_powerset_oracle(self):
        rng = random.Random(42)
        for _ in range(60):
            n_items = rng.randint(1, 8)
            transactions = [
                set(rng.sample(range(n_items), rng.randint(0, n_items)))
                for _ in range(rng.randint(1, 8))
            ]
            f = rng.randint(1, 10)
            l = rng.randint(1, 3)
            db = database(transactions)
            fi = mine_top_frequent(db, f=f, l=l)
            assert list(fi) == powerset_top_frequent(transactions, f, l)

    def test_result_ordering_invariants(self):
        rng = random.Random(7)
        transactions = [set(rng.sample(range(6), rng.randint(2, 5))) for _ in range(12)]
        fi = mine_top_frequent(database(transactions), f=10, l=2)
        supports = [s for _, s in fi]
        assert supports == sorted(supports, reverse=True)
        for (a, sa), (b, sb) in zip(fi, fi[1:]):
            if sa == sb:
                assert tuple(sorted(a)) < tuple(sorted(b))
        assert len(fi) <= 10
        assert all(len(a) >= 2 for a, _ in fi)

    def test_bad_parameters_rejected(self):
        db = database([{1, 2, 3}])
        with pytest.raises(ValueError):
            mine_top_frequent(db, f=0, l=3)
        with pytest.raises(ValueError):
            mine_top_frequent(db, f=1, l=0)

    def test_empty_db(self):
        fi = mine_top_frequent(database([]), f=3, l=1)
        assert fi == ()

    def test_capped_probe_stops_at_cap(self):
        # Six items in every transaction: 57 itemsets of length >= 2, all of
        # support 3.
        db = database([set(range(6))] * 3)
        item_bits = {item: 0b111 for item in range(6)}
        full = _mine_at_threshold(item_bits, 3, 2)
        assert len(full) == 57
        probe = _mine_at_threshold(item_bits, 3, 2, cap=5)
        assert len(probe) == 5
        assert set(probe) <= set(full)
        assert len(mine_top_frequent(db, f=5, l=2)) == 5


@pytest.fixture(scope="module")
def metabolic():
    return metabolic_scale(101)


class TestMineAgainstReference:
    """The level-wise tid-set miner in tests/helpers.py is the reference."""

    def test_random_databases_beyond_the_powerset_oracle(self):
        rng = random.Random(2000)
        for _ in range(400):
            n_items = rng.randint(9, 30)
            # Transactions drawn inside a few patterns share long itemsets.
            patterns = [
                rng.sample(range(n_items), rng.randint(1, min(n_items, 10)))
                for _ in range(rng.randint(1, 8))
            ]
            transactions = []
            for _ in range(rng.randint(1, 60)):
                pattern = rng.choice(patterns)
                transactions.append(set(rng.sample(pattern, rng.randint(0, len(pattern)))))
            f = rng.randint(1, 25)
            l = rng.randint(1, 4)
            db = database(transactions)
            assert mine_top_frequent(db, f, l) == mine_top_frequent_reference(db, f, l)

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("f, l", [(5, 2), (20, 3), (50, 3), (20, 4)])
    def test_metabolic_scale(self, metabolic, side, f, l):
        db = transaction_db(metabolic, side)
        assert mine_top_frequent(db, f, l) == mine_top_frequent_reference(db, f, l)

    def test_trade_scale_head(self):
        db = transaction_db(trade_like(2024), "head")
        assert mine_top_frequent(db, 20, 3) == mine_top_frequent_reference(db, 20, 3)


# ---------------------------------------------------------------------------
# ARSD
# ---------------------------------------------------------------------------


class TestArsd:
    def test_identity_is_zero(self):
        db = database([{1, 2, 3}, {1, 2, 4}, {1, 2, 3, 4}])
        fi = mine_top_frequent(db, f=5, l=2)
        assert fi
        assert arsd(db, db, fi) == 0.0

    def test_no_survivors_is_one(self):
        observed = database([{1, 2, 3}, {1, 2, 3}])
        fi = mine_top_frequent(observed, f=3, l=2)
        sample = database([{7, 8}, {9, 10}])
        assert arsd(observed, sample, fi) == 1.0

    def test_hand_value(self):
        observed = database([{1, 2, 3}] * 3)
        fi = mine_top_frequent(observed, f=1, l=3)
        sample = database([{1, 2, 3}, {4, 5, 6}, {7, 8, 9}])
        assert arsd(observed, sample, fi) == pytest.approx(2.0 / 3.0)

    def test_empty_itemsets_rejected(self):
        db = database([{1, 2}])
        with pytest.raises(ValueError):
            arsd(db, db, ())


class TestArsdTrace:
    def test_trace_shape_and_start(self):
        H = parse_hypergraph("1,2,3|4,5,6\n1,2,4|3,5,6\n1,3,5|2,4,6\n2,3,6|1,4,5\n")
        trace = arsd_trace(H, model="degs", seed=5, f=5, l=3, max_multiplier=12)
        assert set(trace) == {"head", "tail"}
        for side, rows in trace.items():
            ks = [k for k, _ in rows]
            assert ks == list(range(13))
            assert rows[0][1] == 0.0

    def test_trace_deterministic(self):
        H = parse_hypergraph("1,2,3|4,5,6\n1,2,4|3,5,6\n1,3,5|2,4,6\n")
        a = arsd_trace(H, model="joint", seed=9, f=5, l=3, max_multiplier=6)
        b = arsd_trace(H, model="joint", seed=9, f=5, l=3, max_multiplier=6)
        assert a == b

    def test_side_without_itemsets_is_dropped(self):
        # Tails all singletons: no tail itemset reaches length 2.
        H = parse_hypergraph("1,2|3\n1,2|4\n2,3|5\n")
        trace = arsd_trace(H, model="degs", seed=1, f=3, l=2, max_multiplier=4)
        assert set(trace) == {"head"}

    def test_null_model_rejected(self):
        H = parse_hypergraph(TOY)
        with pytest.raises(ValueError):
            arsd_trace(H, model="null", seed=1)

    def test_negative_max_multiplier_rejected(self):
        # The dense toy yields itemsets on both sides, so a negative range
        # would otherwise return an empty trace for each.
        H = parse_hypergraph("1,2,3|4,5,6\n1,2,4|3,5,6\n1,3,5|2,4,6\n2,3,6|1,4,5\n")
        with pytest.raises(ValueError, match="max_multiplier"):
            arsd_trace(H, model="degs", seed=1, f=5, l=3, max_multiplier=-1)
        assert [k for k, _ in arsd_trace(H, seed=1, f=5, l=3, max_multiplier=0)["head"]] == [0]

    @pytest.mark.parametrize("model", ["degs", "joint", "degs-mh"])
    def test_checkpoints_are_run_chain_samples(self, model):
        # Checkpoint k is sample k of one chain that takes w steps between
        # samples, w being the number of bipartite arcs.
        H = parse_hypergraph("1,2,3|4,5,6\n1,2,4|3,5,6\n1,3,5|2,4,6\n2,3,6|1,4,5\n")
        G = to_bipartite(H)
        w = G.plus_edges() + G.minus_edges()
        K = 8
        trace = arsd_trace(H, model=model, seed=3, f=5, l=3, max_multiplier=K)
        samples = list(run_chain(H, ChainConfig(model, 0, 3, K + 1, thinning=w)))
        assert set(trace) == {"head", "tail"}
        for side, rows in trace.items():
            observed = transaction_db(H, side)
            fi = mine_top_frequent(observed, 5, 3)
            expected = [arsd(observed, transaction_db(sample, side), fi) for sample in samples]
            assert rows == list(enumerate(expected))
            assert any(value > 0.0 for _, value in rows)

    def test_support_one_itemsets_warn(self):
        # Every head triple lies in one edge only; the tails are singletons.
        H = parse_hypergraph("1,2,3|4\n1,2,4|5\n1,3,5|6\n2,3,6|7\n")
        with pytest.warns(RuntimeWarning, match="head side: the lowest support") as record:
            arsd_trace(H, model="degs", seed=1, f=5, l=3, max_multiplier=1)
        assert len(record) == 1

    def test_supports_of_two_do_not_warn(self):
        H = parse_hypergraph("1,2,3|4,5,6\n1,2,3|4,5,6\n7|8\n8|7\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = arsd_trace(H, model="degs", seed=1, f=1, l=3, max_multiplier=1)
        assert set(trace) == {"head", "tail"}

    def test_no_itemsets_returns_before_stepping(self):
        # One hyperedge admits no swap, so any degs-mh step would raise
        # FrozenEnsembleError; with no mined itemset the chain never starts.
        H = parse_hypergraph("1|2\n")
        assert arsd_trace(H, model="degs-mh", seed=1, f=3, l=2) == {}


class TestPlateau:
    def test_flat_trace_plateaus_immediately(self):
        values = [0.5] * 20
        assert plateau_checkpoint(values) == 9

    def test_rising_then_flat(self):
        values = [k / 10 for k in range(10)] + [1.0] * 15
        found = plateau_checkpoint(values)
        assert found is not None
        assert 10 <= found < 25

    def test_steady_climb_never_plateaus(self):
        values = [float(k) for k in range(30)]
        assert plateau_checkpoint(values) is None

    def test_all_zero_plateaus(self):
        assert plateau_checkpoint([0.0] * 12) == 9

    def test_short_trace(self):
        assert plateau_checkpoint([0.1, 0.1]) is None


# ---------------------------------------------------------------------------
# Rank statistics
# ---------------------------------------------------------------------------


class TestSpearman:
    def test_identity(self):
        x = [3.0, 1.0, 2.0, 5.0]
        assert spearman(x, x) == pytest.approx(1.0)

    def test_reverse(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, x[::-1]) == pytest.approx(-1.0)

    def test_random_permutations_match_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(3, 30)
            x = [float(v) for v in range(n)]
            y = x[:]
            rng.shuffle(y)
            ours = spearman(x, y)
            assert ours == pytest.approx(spearman_oracle(x, y))
            assert ours == pytest.approx(stats.spearmanr(x, y).statistic)

    def test_ties_match_scipy(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(4, 25)
            x = [rng.randint(0, 5) for _ in range(n)]
            y = [rng.randint(0, 5) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman(x, y) == pytest.approx(stats.spearmanr(x, y).statistic)

    def test_too_short(self):
        with pytest.raises(ValueError):
            spearman([1.0], [2.0])

    def test_constant_is_nan(self):
        assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


class TestKendall:
    def test_identity(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reverse(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_random_with_ties_matches_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(3, 40)
            x = [rng.randint(0, 8) for _ in range(n)]
            y = [rng.randint(0, 8) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            ours = kendall_tau(x, y)
            assert ours == pytest.approx(kendall_oracle(x, y))
            assert ours == pytest.approx(stats.kendalltau(x, y).statistic)

    def test_bit_equal_to_merge_sort_reference(self):
        rng = random.Random(23)
        for n in [*range(2, 301), 5000]:
            # Draws from a pool of 1 to n finite values: constant inputs, heavy
            # ties and (nearly) tie-free ones, ints and floats mixed.
            pool = [rng.choice((rng.randint(-3, 3), rng.uniform(-1e3, 1e3)))
                    for _ in range(rng.randint(1, n))]
            x = [rng.choice(pool) for _ in range(n)]
            y = [rng.choice(pool) for _ in range(n)]
            ours, reference = kendall_tau(x, y), kendall_tau_reference(x, y)
            assert struct.pack("<d", ours) == struct.pack("<d", reference), n

    def test_too_short(self):
        with pytest.raises(ValueError):
            kendall_tau([1], [1])
