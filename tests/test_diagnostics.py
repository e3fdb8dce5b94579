"""Tests for convergence diagnostics and rank-comparison statistics.

Oracles: exhaustive powerset enumeration for the itemset miner, and direct
O(n^2) definition-based implementations for both correlation coefficients
(cross-checked against scipy).
"""

import itertools
import math
import random

import pytest
from scipy import stats

from hypernull.core import parse_hypergraph
from hypernull.diagnostics import (
    FrequentItemsetSet,
    TransactionDB,
    arsd,
    arsd_trace,
    chi_square_uniformity,
    kendall_tau,
    mine_top_frequent,
    plateau_checkpoint,
    spearman,
    transaction_db,
)

TOY = "1|2,6\n3|4\n6|3,5\n"


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
        assert heads.side == "head"
        assert list(heads.transactions) == [frozenset({0}), frozenset({2}), frozenset({5})]
        assert list(tails.transactions) == [
            frozenset({1, 5}),
            frozenset({3}),
            frozenset({2, 4}),
        ]

    def test_multiplicity_expands(self):
        H = parse_hypergraph("1|2\n1|2\n")
        db = transaction_db(H, "tail")
        assert len(db.transactions) == 2

    def test_bad_side_rejected(self):
        H = parse_hypergraph(TOY)
        with pytest.raises(ValueError):
            transaction_db(H, "middle")

    def test_raw_sets_coerced(self):
        db = TransactionDB([{1, 2}, {3}], "head")
        assert all(isinstance(t, frozenset) for t in db.transactions)


# ---------------------------------------------------------------------------
# Frequent-itemset mining
# ---------------------------------------------------------------------------


class TestMineTopFrequent:
    def test_repeated_triple(self):
        db = TransactionDB([{1, 2, 3}, {1, 2, 3}], "head")
        fi = mine_top_frequent(db, f=1, l=3)
        assert list(fi.itemsets) == [(frozenset({1, 2, 3}), 2)]

    def test_disjoint_pairs_give_nothing_at_length_three(self):
        db = TransactionDB([{1, 2}, {3, 4}, {5, 6}], "head")
        fi = mine_top_frequent(db, f=5, l=3)
        assert fi.itemsets == ()

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
            db = TransactionDB(transactions, "head")
            fi = mine_top_frequent(db, f=f, l=l)
            assert list(fi.itemsets) == powerset_top_frequent(transactions, f, l)

    def test_result_ordering_invariants(self):
        rng = random.Random(7)
        transactions = [set(rng.sample(range(6), rng.randint(2, 5))) for _ in range(12)]
        fi = mine_top_frequent(TransactionDB(transactions, "head"), f=10, l=2)
        supports = [s for _, s in fi.itemsets]
        assert supports == sorted(supports, reverse=True)
        for (a, sa), (b, sb) in zip(fi.itemsets, fi.itemsets[1:]):
            if sa == sb:
                assert tuple(sorted(a)) < tuple(sorted(b))
        assert len(fi.itemsets) <= 10
        assert all(len(a) >= 2 for a, _ in fi.itemsets)

    def test_bad_parameters_rejected(self):
        db = TransactionDB([{1, 2, 3}], "head")
        with pytest.raises(ValueError):
            mine_top_frequent(db, f=0, l=3)
        with pytest.raises(ValueError):
            mine_top_frequent(db, f=1, l=0)

    def test_empty_db(self):
        fi = mine_top_frequent(TransactionDB([], "head"), f=3, l=1)
        assert fi.itemsets == ()


# ---------------------------------------------------------------------------
# ARSD
# ---------------------------------------------------------------------------


class TestArsd:
    def test_identity_is_zero(self):
        db = TransactionDB([{1, 2, 3}, {1, 2, 4}, {1, 2, 3, 4}], "head")
        fi = mine_top_frequent(db, f=5, l=2)
        assert fi.itemsets
        assert arsd(db, db, fi) == 0.0

    def test_no_survivors_is_one(self):
        observed = TransactionDB([{1, 2, 3}, {1, 2, 3}], "head")
        fi = mine_top_frequent(observed, f=3, l=2)
        sample = TransactionDB([{7, 8}, {9, 10}], "head")
        assert arsd(observed, sample, fi) == 1.0

    def test_hand_value(self):
        observed = TransactionDB([{1, 2, 3}] * 3, "head")
        fi = mine_top_frequent(observed, f=1, l=3)
        sample = TransactionDB([{1, 2, 3}, {4, 5, 6}, {7, 8, 9}], "head")
        assert arsd(observed, sample, fi) == pytest.approx(2.0 / 3.0)

    def test_empty_itemsets_rejected(self):
        db = TransactionDB([{1, 2}], "head")
        empty = FrequentItemsetSet((), 5, 3)
        with pytest.raises(ValueError):
            arsd(db, db, empty)


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


class TestPlateau:
    def test_flat_trace_plateaus_immediately(self):
        values = [0.5] * 20
        assert plateau_checkpoint(values, window=10, rel_tol=0.01) == 9

    def test_rising_then_flat(self):
        values = [k / 10 for k in range(10)] + [1.0] * 15
        found = plateau_checkpoint(values, window=10, rel_tol=0.01)
        assert found is not None
        assert 10 <= found < 25

    def test_steady_climb_never_plateaus(self):
        values = [float(k) for k in range(30)]
        assert plateau_checkpoint(values, window=10, rel_tol=0.01) is None

    def test_all_zero_plateaus(self):
        assert plateau_checkpoint([0.0] * 12, window=10, rel_tol=0.01) == 9

    def test_short_trace(self):
        assert plateau_checkpoint([0.1, 0.1], window=10, rel_tol=0.01) is None


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

    def test_too_short(self):
        with pytest.raises(ValueError):
            kendall_tau([1], [1])


class TestChiSquareUniformity:
    def test_equal_counts(self):
        assert chi_square_uniformity([25, 25, 25, 25]) == pytest.approx(1.0)

    def test_concentrated_counts(self):
        assert chi_square_uniformity([100, 0, 0, 0, 0]) < 1e-6

    def test_matches_scipy(self):
        counts = [22, 31, 27, 20]
        expected = stats.chisquare(counts).pvalue
        assert chi_square_uniformity(counts) == pytest.approx(expected)

    def test_low_expected_count_rejected(self):
        with pytest.raises(ValueError):
            chi_square_uniformity([3, 2, 4])

    def test_single_state_rejected(self):
        with pytest.raises(ValueError):
            chi_square_uniformity([50])

    def test_monte_carlo_calibration(self):
        rng = random.Random(23)
        p_values = []
        for _ in range(200):
            counts = [0, 0, 0, 0]
            for _ in range(600):
                counts[rng.randrange(4)] += 1
            p_values.append(chi_square_uniformity(counts))
        assert stats.kstest(p_values, "uniform").pvalue > 0.01
