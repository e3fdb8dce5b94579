"""Tests for the economic-complexity pipeline: RCA, biadjacency, proximity,
ECI/PCI, Fitness/Quality, GENEPY, the trade hypergraph, and rank comparison.

Oracles: hand-evaluated Balassa ratios and proximity entries, an iterative
fixed-point computation of the coupled ECI/PCI equations with per-step
standardization, dual-initialization Fitness runs, closed-form GENEPY on a
block proximity matrix, and a direct mask recount for the trade hypergraph.
"""

import logging
import math
import random
from collections import Counter

import numpy as np
import pytest

from helpers import kendall_tau_reference, trade_like
from hypernull import econ
from hypernull.core import DirectedHypergraph, Hyperedge
from hypernull.diagnostics import kendall_tau, spearman
from hypernull.econ import (
    Biadjacency,
    ComplexityScores,
    CountryMeta,
    TradeRecord,
    TradeTable,
    complexity_scores,
    eci_pci,
    fitness_quality,
    genepy,
    hypergraph_biadjacency,
    parse_trade_table,
    proximity,
    rank_compare,
    rca,
    read_trade_table,
    trade_to_hypergraph,
)

TRADE_CSV = (
    "year,country,product,export_value,import_value\n"
    "2019,A,x,5.0,1.0\n"
    "2019,B,x,0.0,2.5\n"
)


def export_table(matrix, countries, products, year=2019, metadata=None):
    records = []
    for i, c in enumerate(countries):
        for j, p in enumerate(products):
            if matrix[i][j]:
                records.append(TradeRecord(year, c, p, float(matrix[i][j]), 0.0))
    return TradeTable(tuple(records), metadata or {})


def random_bool_matrix(rng, rows, cols, density=0.3):
    """0/1 matrix with no empty rows or columns."""
    while True:
        M = (rng.random((rows, cols)) < density).astype(float)
        if M.sum(axis=1).min() > 0 and M.sum(axis=0).min() > 0:
            return M


def iterative_eci(M, tol=1e-13, max_iter=50_000):
    """Fixed point of the coupled averaging equations with per-step
    z-scoring, started from the country degrees."""
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
    return x


BLOCK_M = Biadjacency(
    countries=("A", "B", "C", "D"),
    products=("x", "y", "z"),
    matrix=np.array(
        [
            [1.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0],
        ]
    ),
)


# ---------------------------------------------------------------------------
# Trade tables and RCA
# ---------------------------------------------------------------------------


class TestTradeTable:
    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            TradeTable((TradeRecord(2019, "A", "x", -1.0, 0.0),), {})

    def test_negative_metadata_rejected(self):
        with pytest.raises(ValueError):
            TradeTable((), {"A": CountryMeta(-5.0, 1.0)})

    def test_csv_round_trip(self, tmp_path):
        trade = tmp_path / "trade.csv"
        trade.write_text(TRADE_CSV)
        meta = tmp_path / "meta.csv"
        meta.write_text(
            "country,population,avg_trade\n"
            "A,2000000,3000000000\n"
            "B,500000,2000000000\n"
        )
        table = read_trade_table(trade, meta)
        assert table.records == (
            TradeRecord(2019, "A", "x", 5.0, 1.0),
            TradeRecord(2019, "B", "x", 0.0, 2.5),
        )
        assert table.metadata == {
            "A": CountryMeta(2_000_000.0, 3_000_000_000.0),
            "B": CountryMeta(500_000.0, 2_000_000_000.0),
        }

    def test_csv_missing_column_rejected(self):
        trade = "year,country,export_value,import_value\n2019,A,1.0,0.0\n"
        with pytest.raises(ValueError, match=r"trade table .* \['product'\]"):
            parse_trade_table(trade)
        meta = "country,population\nA,2000000\n"
        with pytest.raises(ValueError, match=r"metadata table .* \['avg_trade'\]"):
            parse_trade_table(TRADE_CSV, meta)

    def test_text_parses_as_the_file_does(self, tmp_path):
        # CRLF line endings, and one kept inside a quoted field, parse as a
        # file opened with newline="" reads them.
        text = TRADE_CSV.replace("\n", "\r\n").replace("2019,A,x", '2019,"A","x\r\ny"')
        trade = tmp_path / "trade.csv"
        trade.write_bytes(text.encode())
        table = parse_trade_table(text)
        assert table == read_trade_table(trade)
        assert table.records == (
            TradeRecord(2019, "A", "x\r\ny", 5.0, 1.0),
            TradeRecord(2019, "B", "x", 0.0, 2.5),
        )


class TestRca:
    def test_single_cell_is_one(self):
        table = export_table([[7]], ["A"], ["x"])
        result = rca(table, 2019)
        assert result.values == pytest.approx(np.ones((1, 1)))

    def test_uniform_is_one(self):
        table = export_table([[3, 3], [3, 3]], ["A", "B"], ["x", "y"])
        assert rca(table, 2019).values == pytest.approx(np.ones((2, 2)))

    def test_hand_computed_toy(self):
        table = export_table(
            [[2, 1, 0], [0, 1, 1], [1, 0, 3]], ["A", "B", "C"], ["x", "y", "z"]
        )
        result = rca(table, 2019)
        assert result.countries == ("A", "B", "C")
        assert result.products == ("x", "y", "z")
        expected = np.array(
            [
                [2.0, 1.5, 0.0],
                [0.0, 2.25, 1.125],
                [0.75, 0.0, 27 / 16],
            ]
        )
        assert result.values == pytest.approx(expected)

    def test_import_side(self):
        records = tuple(
            TradeRecord(2019, c, p, 0.0, value)
            for c, p, value in [
                ("A", "x", 2.0), ("A", "y", 1.0),
                ("B", "y", 1.0), ("B", "z", 1.0),
                ("C", "x", 1.0), ("C", "z", 3.0),
            ]
        )
        result = rca(TradeTable(records, {}), 2019, trade="import")
        assert result.values[0] == pytest.approx([2.0, 1.5, 0.0])

    def test_zero_denominator_warns_and_zeroes(self):
        table = TradeTable(
            (
                TradeRecord(2019, "A", "x", 4.0, 0.0),
                TradeRecord(2019, "B", "x", 0.0, 0.0),
            ),
            {},
        )
        with pytest.warns(UserWarning):
            result = rca(table, 2019)
        assert result.values[1] == pytest.approx([0.0])

    def test_missing_year_rejected(self):
        table = export_table([[1]], ["A"], ["x"])
        with pytest.raises(ValueError):
            rca(table, 1995)

    def test_bad_side_rejected(self):
        table = export_table([[1]], ["A"], ["x"])
        with pytest.raises(ValueError):
            rca(table, 2019, trade="wishful")


# ---------------------------------------------------------------------------
# Proximity
# ---------------------------------------------------------------------------


class TestProximity:
    def test_unique_products_give_zero_matrix(self):
        B = Biadjacency(("A", "B", "C"), ("x", "y", "z"), np.eye(3))
        result = proximity(B)
        assert result.X == pytest.approx(np.zeros((3, 3)))

    def test_hand_computed_blocks(self):
        result = proximity(BLOCK_M)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 0.5
        expected[2, 3] = expected[3, 2] = 0.25
        assert result.X == pytest.approx(expected)

    def test_symmetric_zero_diagonal_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            B = Biadjacency(
                tuple("c%d" % i for i in range(6)),
                tuple("p%d" % j for j in range(9)),
                random_bool_matrix(rng, 6, 9, 0.4),
            )
            X = proximity(B).X
            assert np.array_equal(X, X.T)
            assert np.all(np.diag(X) == 0.0)
            assert np.all(X >= 0.0)

    def test_zero_degree_rejected(self):
        B = Biadjacency(("A", "B"), ("x",), np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError):
            proximity(B)


# ---------------------------------------------------------------------------
# ECI / PCI
# ---------------------------------------------------------------------------


class TestEciPci:
    def test_blocks_separate_by_sign(self):
        eci, pci = eci_pci(BLOCK_M)
        assert eci[0] == pytest.approx(eci[1])
        assert eci[2] == pytest.approx(eci[3])
        assert eci[0] * eci[2] < 0
        assert pci[0] == pytest.approx(pci[1])
        assert pci[0] * pci[2] < 0

    def test_standardized(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            B = Biadjacency(
                tuple(range(12)), tuple(range(25)), random_bool_matrix(rng, 12, 25)
            )
            eci, pci = eci_pci(B)
            for values in (eci, pci):
                arr = np.array(values)
                assert abs(arr.mean()) < 1e-9
                assert abs(arr.var() - 1.0) < 1e-9

    def test_matches_iterative_fixed_point(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            M = random_bool_matrix(rng, 20, 50)
            B = Biadjacency(tuple(range(20)), tuple(range(50)), M)
            eci, _ = eci_pci(B)
            reference = iterative_eci(M)
            assert spearman(eci, reference) >= 0.999
            assert np.max(np.abs(np.array(eci) - reference)) < 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(19)
        M = random_bool_matrix(rng, 10, 18)
        B = Biadjacency(tuple(range(10)), tuple(range(18)), M)
        eci, pci = eci_pci(B)
        perm_c = rng.permutation(10)
        perm_p = rng.permutation(18)
        shuffled = Biadjacency(
            tuple(int(c) for c in perm_c),
            tuple(int(p) for p in perm_p),
            M[perm_c][:, perm_p],
        )
        eci2, pci2 = eci_pci(shuffled)
        assert np.array(eci2) == pytest.approx(np.array(eci)[perm_c], abs=1e-8)
        assert np.array(pci2) == pytest.approx(np.array(pci)[perm_p], abs=1e-8)

    def test_degenerate_spectrum_rejected(self):
        B = Biadjacency(("A", "B", "C"), ("x", "y", "z"), np.eye(3))
        with pytest.raises(ValueError):
            eci_pci(B)

    def test_single_country_rejected(self):
        B = Biadjacency(("A",), ("x",), np.ones((1, 1)))
        with pytest.raises(ValueError):
            eci_pci(B)


# ---------------------------------------------------------------------------
# Fitness / Quality
# ---------------------------------------------------------------------------


class TestFitnessQuality:
    def test_single_cell(self):
        B = Biadjacency(("A",), ("x",), np.ones((1, 1)))
        fitness, quality = fitness_quality(B)
        assert fitness == pytest.approx((1.0,))
        assert quality == pytest.approx((1.0,))

    def test_uniform_equal_blocks(self):
        blocks = np.zeros((4, 4))
        blocks[:2, :2] = 1.0
        blocks[2:, 2:] = 1.0
        B = Biadjacency(tuple("ABCD"), tuple("wxyz"), blocks)
        fitness, quality = fitness_quality(B)
        assert fitness == pytest.approx((1.0,) * 4)
        assert quality == pytest.approx((1.0,) * 4)

    def test_unequal_blocks_diverge(self, monkeypatch):
        # Disconnected blocks of different shapes have no positive fixed
        # point: the relative block scale grows every round.
        monkeypatch.setattr(econ, "FITNESS_MAX_ITER", 3000)
        with pytest.raises(RuntimeError):
            fitness_quality(BLOCK_M)

    def test_means_are_one(self):
        rng = np.random.default_rng(23)
        B = Biadjacency(
            tuple(range(8)), tuple(range(14)), random_bool_matrix(rng, 8, 14, 0.45)
        )
        fitness, quality = fitness_quality(B)
        assert math.fsum(fitness) / len(fitness) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(quality) / len(quality) == pytest.approx(1.0, abs=1e-12)

    def test_initialization_independence(self):
        rng = np.random.default_rng(29)
        M = random_bool_matrix(rng, 15, 30)
        B = Biadjacency(tuple(range(15)), tuple(range(30)), M)
        runs = []
        for _ in range(2):
            fitness, _ = fitness_quality(
                B,
                initial_fitness=rng.uniform(0.1, 10.0, 15),
                initial_quality=rng.uniform(0.1, 10.0, 30),
            )
            runs.append(fitness)
        assert kendall_tau(runs[0], runs[1]) == 1.0

    def test_non_convergence_reports_residual(self, monkeypatch):
        monkeypatch.setattr(econ, "FITNESS_MAX_ITER", 1)
        rng = np.random.default_rng(31)
        B = Biadjacency(tuple(range(6)), tuple(range(9)), random_bool_matrix(rng, 6, 9))
        with pytest.raises(RuntimeError, match="residual"):
            fitness_quality(B)

    def test_zero_row_rejected(self):
        B = Biadjacency(("A", "B"), ("x",), np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError):
            fitness_quality(B)


# ---------------------------------------------------------------------------
# GENEPY
# ---------------------------------------------------------------------------


class TestGenepy:
    def test_zero_matrix(self):
        assert genepy(np.zeros((3, 3))) == pytest.approx((0.0, 0.0, 0.0))

    def test_hand_computed_blocks(self):
        X = proximity(BLOCK_M).X
        # Top two eigenpairs: 0.5 on (1,1,0,0)/sqrt(2), 0.25 on (0,0,1,1)/sqrt(2);
        # G = (lambda * e^2)^2 + 2 * lambda^2 * e^2 per country.
        assert genepy(X) == pytest.approx((0.3125, 0.3125, 0.078125, 0.078125))

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            B = Biadjacency(
                tuple(range(7)), tuple(range(12)), random_bool_matrix(rng, 7, 12)
            )
            scores = genepy(proximity(B).X)
            assert min(scores) >= 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(41)
        B = Biadjacency(tuple(range(8)), tuple(range(15)), random_bool_matrix(rng, 8, 15))
        X = proximity(B).X
        scores = np.array(genepy(X))
        perm = rng.permutation(8)
        permuted = np.array(genepy(X[perm][:, perm]))
        assert permuted == pytest.approx(scores[perm], abs=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            genepy(np.array([[0.0, 1.0], [2.0, 0.0]]))


# ---------------------------------------------------------------------------
# Trade hypergraph
# ---------------------------------------------------------------------------


def two_country_table():
    records = (
        TradeRecord(2019, "A", "x", 4.0, 0.0),
        TradeRecord(2019, "A", "y", 1.0, 4.0),
        TradeRecord(2019, "B", "y", 4.0, 1.0),
        TradeRecord(2019, "B", "x", 0.0, 4.0),
    )
    return TradeTable(records, {})


def three_country_table(metadata):
    """Each country exports one product and imports the next one (cyclically)
    four times more than the others, so each is on one head and one tail."""
    products = ("x", "y", "z")
    records = tuple(
        TradeRecord(2019, c, p, 4.0 if i == j else 1.0, 4.0 if (i + 1) % 3 == j else 1.0)
        for i, c in enumerate(("A", "B", "C"))
        for j, p in enumerate(products)
    )
    return TradeTable(records, metadata)


class TestTradeToHypergraph:
    def test_single_exporter_importer_products(self):
        H = trade_to_hypergraph(two_country_table(), 2019)
        assert H.num_nodes == 2
        assert H.labels == ["A", "B"]
        pairs = {(tuple(sorted(e.head)), tuple(sorted(e.tail))) for e in H.edges}
        assert pairs == {((0,), (1,)), ((1,), (0,))}

    def test_uniform_trade_gives_no_edges(self):
        records = tuple(
            TradeRecord(2019, c, p, 2.0, 2.0)
            for c in ("A", "B")
            for p in ("x", "y")
        )
        table = TradeTable(records, {})
        # RCA is exactly 1 everywhere, so strictly-greater heads and tails
        # stay empty; just below 1, every country is on both sides of both.
        assert np.all(rca(table, 2019).values == 1.0)
        assert np.all(rca(table, 2019, trade="import").values == 1.0)
        H = trade_to_hypergraph(table, 2019)
        assert H.num_nodes == 2
        assert H.edges == []
        H = trade_to_hypergraph(table, 2019, threshold=0.99)
        both = frozenset({0, 1})
        assert [(e.head, e.tail) for e in H.expanded_edges()] == [(both, both)] * 2

    def test_metadata_filter_drops_country(self):
        table = two_country_table()
        filtered = TradeTable(
            table.records,
            {
                "A": CountryMeta(2_000_000.0, 2_000_000_000.0),
                "B": CountryMeta(500_000.0, 2_000_000_000.0),
            },
        )
        H = trade_to_hypergraph(filtered, 2019)
        assert H.labels == ["A"]
        assert H.num_nodes == 1

    def test_country_filters(self):
        metadata = {
            "A": CountryMeta(2_000_000.0, 2_000_000_000.0),
            "B": CountryMeta(500_000.0, 2_000_000_000.0),
            # C has no metadata at all.
        }
        H = trade_to_hypergraph(three_country_table(metadata), 2019)
        assert H.labels == ["A"]
        # A exports x and imports y; z has no member left on either side.
        assert sorted((sorted(e.head), sorted(e.tail)) for e in H.expanded_edges()) == [
            ([], [0]),
            ([0], []),
        ]

    def test_trade_floor_enforced(self):
        metadata = {
            "A": CountryMeta(2_000_000.0, 2_000_000_000.0),
            "B": CountryMeta(2_000_000.0, 500_000_000.0),
            "C": CountryMeta(2_000_000.0, 2_000_000_000.0),
        }
        H = trade_to_hypergraph(three_country_table(metadata), 2019)
        assert H.labels == ["A", "C"]

    def test_recount_oracle(self):
        rng = random.Random(43)
        for _ in range(20):
            countries = ["c%d" % i for i in range(rng.randint(3, 6))]
            products = ["p%d" % j for j in range(rng.randint(4, 8))]
            records = []
            for c in countries:
                for p in products:
                    records.append(
                        TradeRecord(
                            2019, c, p,
                            float(rng.randint(0, 5)),
                            float(rng.randint(0, 5)),
                        )
                    )
            table = TradeTable(tuple(records), {})
            try:
                H = trade_to_hypergraph(table, 2019)
            except ValueError:
                continue
            exports = rca(table, 2019, trade="export")
            imports = rca(table, 2019, trade="import")
            labels = H.labels
            expected = Counter()
            for j, _ in enumerate(exports.products):
                head = frozenset(
                    c for i, c in enumerate(exports.countries)
                    if exports.values[i, j] > 1.0
                )
                tail = frozenset(
                    c for i, c in enumerate(imports.countries)
                    if imports.values[i, j] > 1.0
                )
                if head or tail:
                    expected[(head, tail)] += 1
            actual = Counter()
            for e in H.edges:
                actual[(
                    frozenset(labels[v] for v in e.head),
                    frozenset(labels[v] for v in e.tail),
                )] += e.multiplicity
            assert actual == expected


class TestHypergraphBiadjacency:
    def test_hand_mask(self):
        # Canonical edge order sorts ({0},{1}) before ({0,1},{2}); country C
        # exports nothing and is dropped.
        H = DirectedHypergraph(
            [
                Hyperedge(frozenset({0, 1}), frozenset({2})),
                Hyperedge(frozenset({0}), frozenset({1})),
            ],
            3,
            labels=["A", "B", "C"],
        )
        B = hypergraph_biadjacency(H)
        assert B.countries == ("A", "B")
        assert B.products == (0, 1)
        assert B.matrix.tolist() == [[1.0, 1.0], [0.0, 1.0]]

    def test_multiplicity_duplicates_columns(self):
        H = DirectedHypergraph(
            [Hyperedge(frozenset({0}), frozenset({1}), multiplicity=2)], 2
        )
        B = hypergraph_biadjacency(H)
        assert B.matrix.tolist() == [[1.0, 1.0]]
        assert B.countries == (0,)

    def test_membership_recount(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(4, 7)
            edges = []
            for _ in range(rng.randint(5, 12)):
                head = frozenset(rng.sample(range(n), rng.randint(1, 3)))
                tail = frozenset(rng.sample(range(n), rng.randint(1, 2)))
                edges.append(Hyperedge(head, tail))
            H = DirectedHypergraph(edges, n)
            B = hypergraph_biadjacency(H)
            expanded = list(H.expanded_edges())
            col_of = dict(zip(B.products, range(len(B.products))))
            row_of = {c: i for i, c in enumerate(B.countries)}
            for v in range(n):
                for j, e in enumerate(expanded):
                    expected = 1.0 if v in e.head else 0.0
                    if v in row_of and j in col_of:
                        assert B.matrix[row_of[v], col_of[j]] == expected
                    else:
                        assert expected == 0.0

    def test_all_tails_logs_empty(self, caplog):
        H = DirectedHypergraph([Hyperedge(frozenset(), frozenset({0, 1}))], 2)
        with caplog.at_level(logging.ERROR, logger="hypernull.econ"):
            B = hypergraph_biadjacency(H)
        assert B.matrix.size == 0
        assert any("empty" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# Rank comparison and assembled scores
# ---------------------------------------------------------------------------


class TestRankCompare:
    def test_self_comparison_is_exactly_one(self):
        observed = {"eci": (3.0, 1.0, 2.0, 5.0)}
        samples = {"degs": {"eci": [observed["eci"]] * 3}}
        rows = rank_compare(observed, samples)
        assert len(rows) == 1
        row = rows[0]
        assert row["sampler"] == "degs"
        assert row["score"] == "eci"
        assert row["spearman_mean"] == 1.0
        assert row["spearman_std"] == 0.0
        assert row["kendall_mean"] == 1.0
        assert row["kendall_std"] == 0.0

    def test_independent_rankings_average_near_zero(self):
        rng = random.Random(47)
        observed = {"eci": tuple(range(30))}
        base = list(range(30))
        shuffles = []
        for _ in range(100):
            rng.shuffle(base)
            shuffles.append(tuple(base))
        rows = rank_compare(observed, {"null": {"eci": shuffles}})
        assert abs(rows[0]["spearman_mean"]) < 0.1
        assert abs(rows[0]["kendall_mean"]) < 0.1

    def test_missing_score_rejected(self):
        with pytest.raises(ValueError):
            rank_compare({"eci": (1.0, 2.0)}, {"degs": {"fitness": [(1.0, 2.0)]}})

    def test_rows_match_the_merge_sort_kendall_on_trade_scores(self, monkeypatch):
        scores = complexity_scores(hypergraph_biadjacency(trade_like(2024)))
        observed = {"eci": scores.eci, "fitness": scores.fitness, "genepy": scores.genepy}
        rng = random.Random(29)

        def variants(vector):
            shuffled = list(vector)
            rng.shuffle(shuffled)
            return [[float(f"{v:.2g}") for v in vector], shuffled, sorted(vector)]

        samples = {
            "perturbed": {score: variants(vector) for score, vector in observed.items()},
            "crossed": {"eci": [scores.fitness, scores.genepy], "genepy": [scores.eci]},
        }
        rows = rank_compare(observed, samples)
        monkeypatch.setattr(econ, "kendall_tau", kendall_tau_reference)
        assert rank_compare(observed, samples) == rows


class TestComplexityScores:
    def test_assembled_fields_align(self):
        rng = np.random.default_rng(53)
        B = Biadjacency(
            tuple("c%d" % i for i in range(10)),
            tuple("p%d" % j for j in range(20)),
            random_bool_matrix(rng, 10, 20),
        )
        scores = complexity_scores(B)
        assert isinstance(scores, ComplexityScores)
        assert scores.countries == B.countries
        assert scores.products == B.products
        assert len(scores.eci) == 10
        assert len(scores.pci) == 20
        assert len(scores.fitness) == 10
        assert len(scores.quality) == 20
        assert len(scores.genepy) == 10
        assert abs(np.mean(scores.eci)) < 1e-9
        assert np.mean(scores.fitness) == pytest.approx(1.0)
        assert min(scores.genepy) >= 0.0
