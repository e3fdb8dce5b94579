"""Tests for nonlinear hypergraph SIS dynamics: the Gillespie engine, its
rate-class buckets, and stationary and quasi-stationary density estimation.

Oracles: hand-computed per-edge infection rates and event probabilities on
frozen states, brute-force recounts of per-edge infected totals and of the
bucket bookkeeping along a simulated trajectory, and exponential
waiting-time statistics against the analytic mean.
"""

import json
import math
import random

import pytest

from helpers import check_buckets
from hypernull.contagion import (
    DEFAULT_THRESHOLDS,
    SISConfig,
    StationaryResult,
    Thresholds,
    gillespie_step,
    load_thresholds,
    make_sis_state,
    run_quasi_stationary,
    run_stationary,
)
from hypernull.core import (
    DirectedHypergraph,
    Hyperedge,
    UndirectedHypergraph,
    merge_to_undirected,
)


def undirected(edge_sets, num_nodes):
    return UndirectedHypergraph([set(e) for e in edge_sets], num_nodes)


def random_undirected(rng, num_nodes, num_edges, max_size=4):
    """Random node-set hypergraph with at least one size-1 edge and one
    duplicated edge, to exercise the no-transmission and multiplicity paths."""
    edges = [{rng.randrange(num_nodes)}]
    while len(edges) < num_edges - 1:
        size = rng.randint(2, max_size)
        edges.append(set(rng.sample(range(num_nodes), size)))
    edges.append(set(edges[1]))
    return UndirectedHypergraph(edges, num_nodes)


def recount_infected(state, edges):
    """Brute-force per-edge infected totals straight from the node states."""
    return [sum(1 for v in e if state.infected[v]) for e in edges]


def edge_rates(state, lam, nu, edges):
    """Per-edge rates recomputed from scratch: s_e * lam * i_e**nu."""
    counts = recount_infected(state, edges)
    rates = []
    for e, i in zip(edges, counts):
        s = len(e) - i
        rates.append(s * lam * i**nu if i > 0 else 0.0)
    return rates


class TestSISConfig:
    def test_defaults(self):
        cfg = SISConfig(lam=0.3, nu=1.0)
        assert cfg.mu == 1.0
        assert cfg.rho0 == 0.01
        assert cfg.burn_in == 10_000.0
        assert cfg.sample_count == 10_000
        assert cfg.decorrelation == 1.0
        assert cfg.qs_history_size == 50
        assert cfg.snapshot_interval == 1.0
        assert cfg.seed is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -0.1, "nu": 1.0},
            {"lam": 0.1, "nu": -1.0},
            {"lam": 0.1, "nu": 1.0, "mu": -1.0},
            {"lam": 0.1, "nu": 1.0, "rho0": -0.01},
            {"lam": 0.1, "nu": 1.0, "rho0": 1.01},
            {"lam": 0.1, "nu": 1.0, "burn_in": -1.0},
            {"lam": 0.1, "nu": 1.0, "sample_count": 0},
            {"lam": 0.1, "nu": 1.0, "decorrelation": 0.0},
            {"lam": 0.1, "nu": 1.0, "qs_history_size": 0},
            {"lam": 0.1, "nu": 1.0, "snapshot_interval": 0.0},
            *(
                {"lam": 0.1, "nu": 1.0, field: value}
                for field in ("lam", "nu", "mu", "burn_in", "decorrelation", "snapshot_interval")
                for value in (math.nan, math.inf)
            ),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SISConfig(**kwargs)


class TestStateConstruction:
    def test_hand_counts_and_rates(self):
        # Edges: e0 = {0,1}, e1 = {0,1,2}, e2 = {2}; infected = {0}.
        # i = (1, 1, 0); s = (1, 2, 1).
        # With lam = 0.6, nu = 2: rate(e0) = 1*0.6*1 = 0.6,
        # rate(e1) = 2*0.6*1 = 1.2, rate(e2) = 0 (no infected member).
        H = undirected([{0, 1}, {0, 1, 2}, {2}], 3)
        cfg = SISConfig(lam=0.6, nu=2.0)
        state = make_sis_state(H, [0], cfg)
        assert state.infected_count == 1
        assert list(state.infected_per_edge) == [1, 1, 0]
        assert list(state.susceptible_per_edge) == [1, 2, 1]
        assert state.infection_rate() == pytest.approx(1.8)
        assert state.recovery_rate == pytest.approx(1.0)
        assert state.total_rate() == pytest.approx(2.8)
        assert state.rho() == pytest.approx(1 / 3)

    def test_size_one_edge_never_transmits(self):
        # A size-1 edge has no susceptible co-member when infected and no
        # infected member when susceptible, so its rate is 0 either way.
        H = undirected([{0}], 1)
        cfg = SISConfig(lam=100.0, nu=1.0)
        infected = make_sis_state(H, [0], cfg)
        assert infected.infection_rate() == 0.0
        healthy = make_sis_state(H, [], cfg)
        assert healthy.infection_rate() == 0.0

    def test_single_pair_rate_is_lambda(self):
        H = undirected([{0, 1}], 2)
        state = make_sis_state(H, [0], SISConfig(lam=0.37, nu=1.0))
        assert state.infection_rate() == pytest.approx(0.37)

    def test_multiplicity_multiplies_rate(self):
        # A weight-2 directed edge expands into two undirected copies, so
        # the infection pressure on the susceptible endpoint doubles.
        directed = DirectedHypergraph(
            [Hyperedge(frozenset({0}), frozenset({1}), multiplicity=2)], 2
        )
        merged = merge_to_undirected(directed)
        assert len(merged.edges) == 2
        state = make_sis_state(merged, [0], SISConfig(lam=0.37, nu=1.0))
        assert state.infection_rate() == pytest.approx(0.74)

    def test_absorbing_state_has_zero_rate(self):
        H = undirected([{0, 1}, {1, 2}], 3)
        state = make_sis_state(H, [], SISConfig(lam=5.0, nu=1.0))
        assert state.total_rate() == 0.0
        assert gillespie_step(state, random.Random(0)) is None


class TestGillespieStep:
    def test_conservation_and_rates_along_walk(self):
        # Sizes 1-5 and a repeated edge; the buckets are checked after every
        # one of 5,000 events.
        rng = random.Random(71)
        H = random_undirected(rng, num_nodes=12, num_edges=20, max_size=5)
        sorted_edges = [sorted(e) for e in H.edges]
        assert {len(e) for e in sorted_edges} == {1, 2, 3, 4, 5}
        cfg = SISConfig(lam=0.8, nu=1.7, seed=9)
        state = make_sis_state(H, rng.sample(range(12), 4), cfg)
        check_buckets(state)
        event_rng = random.Random(9)
        for _ in range(5000):
            event = gillespie_step(state, event_rng)
            assert event is not None
            assert event.kind in ("infection", "recovery")
            assert event.time == state.clock
            expected_i = recount_infected(state, sorted_edges)
            assert list(state.infected_per_edge) == expected_i
            for e, i, s in zip(
                sorted_edges, state.infected_per_edge, state.susceptible_per_edge
            ):
                assert i + s == len(e)
            expected_rates = edge_rates(state, 0.8, 1.7, sorted_edges)
            assert state.infection_rate() == pytest.approx(
                math.fsum(expected_rates), abs=1e-9
            )
            assert state.recovery_rate == pytest.approx(state.infected_count)
            assert 0.0 <= state.rho() <= 1.0
            check_buckets(state)

    def test_event_frequencies_match_analytic_rates(self):
        # Frozen three-node state: edges {0,1}, {0,1,2}, {2}; node 0 infected;
        # lam = 0.6, nu = 2, mu = 1.  Categories and analytic rates:
        #   recover node 0:          mu            = 1.0
        #   infect node 1 via {0,1}: 1 * 0.6 * 1^2 = 0.6
        #   infect via {0,1,2}:      2 * 0.6 * 1^2 = 1.2, split evenly
        #     between nodes 1 and 2 by the uniform susceptible choice.
        # Total rate 2.8; P(recover 0) = 1/2.8, P(infect 1) = 1.2/2.8,
        # P(infect 2) = 0.6/2.8.
        H = undirected([{0, 1}, {0, 1, 2}, {2}], 3)
        state = make_sis_state(H, [0], SISConfig(lam=0.6, nu=2.0))
        rng = random.Random(123)
        draws = 1_000_000
        counts = {("recovery", 0): 0, ("infection", 1): 0, ("infection", 2): 0}
        total = state.total_rate()
        for _ in range(draws):
            kind, node = state.draw_event(rng, total)
            counts[(kind, node)] += 1
        expected = {
            ("recovery", 0): 1.0 / 2.8,
            ("infection", 1): 1.2 / 2.8,
            ("infection", 2): 0.6 / 2.8,
        }
        for key, p in expected.items():
            sigma = math.sqrt(p * (1 - p) / draws)
            assert abs(counts[key] / draws - p) < 4 * sigma

    def test_event_frequencies_with_shared_classes(self):
        # Frozen five-node state, nodes 0 and 4 infected, lam = 0.5, nu = 2,
        # mu = 1.  Edges, classes (|e|, i) and rates s * lam * i**nu:
        #   {0,1} twice, {0,2}: (2, 1), 1 * 0.5 * 1 = 0.5 each
        #   {0,2,3}:            (3, 1), 2 * 0.5 * 1 = 1.0, split over 2 and 3
        #   {0,3,4}:            (3, 2), 1 * 0.5 * 4 = 2.0, all to node 3
        #   {1,2,3,4}:          (4, 1), 3 * 0.5 * 1 = 1.5, split over 1, 2, 3
        #   {0,4}, {1}:         (2, 2) and (1, 0), rate 0
        # So three edges share class (2, 1), and sizes 2, 3 and 4 share i = 1.
        # Per event: recover 0 or 4, 1.0 each; infect 1: 0.5 + 0.5 + 0.5;
        # infect 2: 0.5 + 0.5 + 0.5; infect 3: 0.5 + 2.0 + 0.5.  Total 8.
        H = undirected(
            [{0, 1}, {0, 2}, {0, 1}, {0, 2, 3}, {0, 3, 4}, {1, 2, 3, 4},
             {0, 4}, {1}],
            5,
        )
        state = make_sis_state(H, [0, 4], SISConfig(lam=0.5, nu=2.0))
        check_buckets(state)
        assert len(state.buckets[state.class_base[2] + 1]) == 3
        total = state.total_rate()
        assert total == pytest.approx(8.0)
        rng = random.Random(321)
        draws = 1_000_000
        counts = dict.fromkeys(
            [("recovery", 0), ("recovery", 4), ("infection", 1),
             ("infection", 2), ("infection", 3)],
            0,
        )
        for _ in range(draws):
            counts[state.draw_event(rng, total)] += 1
        expected = {
            ("recovery", 0): 1.0 / 8,
            ("recovery", 4): 1.0 / 8,
            ("infection", 1): 1.5 / 8,
            ("infection", 2): 1.5 / 8,
            ("infection", 3): 3.0 / 8,
        }
        for key, p in expected.items():
            sigma = math.sqrt(p * (1 - p) / draws)
            assert abs(counts[key] / draws - p) < 4 * sigma

    def test_waiting_time_is_exponential_in_total_rate(self):
        # One infected node, no edges, mu = 2: the only event is its recovery
        # after an Exp(2) waiting time with mean 1/2.
        H = undirected([], 1)
        cfg = SISConfig(lam=0.0, nu=1.0, mu=2.0)
        rng = random.Random(2024)
        draws = 20_000
        total = 0.0
        for _ in range(draws):
            state = make_sis_state(H, [0], cfg)
            event = gillespie_step(state, rng)
            assert event.kind == "recovery"
            total += event.time
        mean = total / draws
        assert abs(mean - 0.5) < 4 * 0.5 / math.sqrt(draws)


class TestRunStationary:
    def test_lambda_zero_absorbs(self):
        rng = random.Random(11)
        H = random_undirected(rng, num_nodes=15, num_edges=25)
        cfg = SISConfig(lam=0.0, nu=1.0, rho0=0.3, seed=42)
        result = run_stationary(H, cfg)
        assert result == StationaryResult(0.0, 0.0, True)

    def test_fully_infected_no_recovery_is_frozen(self):
        H = undirected([{0, 1}, {1, 2}, {2, 3}], 4)
        cfg = SISConfig(
            lam=1.0, nu=1.0, mu=0.0, rho0=1.0, burn_in=5.0, sample_count=30, seed=1
        )
        result = run_stationary(H, cfg)
        assert result.mean == pytest.approx(1.0)
        assert result.std == 0.0
        assert result.absorbed is False

    def test_seeds_ceil_rho0_nodes(self):
        # rho0 = 0.01 on 243 nodes seeds ceil(2.43) = 3 infected nodes.
        assert math.ceil(0.01 * 243) == 3
        H = undirected([{0, 1}], 243)
        cfg = SISConfig(lam=0.0, nu=1.0, mu=0.0, rho0=0.01, burn_in=0.0,
                        sample_count=5, seed=8)
        result = run_stationary(H, cfg)
        assert result.mean == pytest.approx(3 / 243)
        assert result.std == 0.0

    def test_endemic_density_positive_and_below_one(self):
        # Densely coupled substrate far above threshold: the infection
        # persists through the whole sampling window at an interior density.
        rng = random.Random(19)
        H = random_undirected(rng, num_nodes=30, num_edges=120)
        cfg = SISConfig(
            lam=1.5, nu=1.0, rho0=0.5, burn_in=30.0, sample_count=300, seed=77
        )
        result = run_stationary(H, cfg)
        assert result.absorbed is False
        assert 0.3 < result.mean < 1.0
        assert result.std > 0.0

    def test_determinism(self):
        rng = random.Random(4)
        H = random_undirected(rng, num_nodes=20, num_edges=60)
        cfg = SISConfig(
            lam=1.0, nu=1.5, rho0=0.2, burn_in=10.0, sample_count=100, seed=31
        )
        assert run_stationary(H, cfg) == run_stationary(H, cfg)
        other = SISConfig(
            lam=1.0, nu=1.5, rho0=0.2, burn_in=10.0, sample_count=100, seed=32
        )
        assert run_stationary(H, cfg) != run_stationary(H, other)


class TestRunQuasiStationary:
    @pytest.mark.filterwarnings("ignore:infected density:RuntimeWarning")
    def test_lambda_zero_stays_positive_and_flags(self):
        # With no infections the chain keeps absorbing and being revived from
        # the snapshot buffer, so the measured density is positive but bounded
        # by what the buffer can hold, and the sub-threshold flag is set.
        rng = random.Random(13)
        H = random_undirected(rng, num_nodes=12, num_edges=18)
        cfg = SISConfig(
            lam=0.0, nu=1.0, rho0=0.25, burn_in=5.0, sample_count=50,
            snapshot_interval=0.25, seed=6,
        )
        result = run_quasi_stationary(H, cfg)
        assert result.absorbed is True
        assert 0.0 < result.mean <= 0.25

    def test_reseeds_from_initial_condition_when_buffer_empty(self):
        # A huge snapshot interval means the first absorption happens before
        # any snapshot exists; the run must fall back to the initial state.
        H = undirected([{0, 1}], 2)
        cfg = SISConfig(
            lam=0.0, nu=1.0, rho0=0.5, burn_in=2.0, sample_count=20,
            snapshot_interval=1e9, seed=3,
        )
        result = run_quasi_stationary(H, cfg)
        assert result.absorbed is True
        assert result.mean > 0.0

    def test_agrees_with_ordinary_run_deep_in_endemic_phase(self):
        rng = random.Random(29)
        H = random_undirected(rng, num_nodes=30, num_edges=120)
        cfg = SISConfig(
            lam=2.0, nu=1.0, rho0=0.5, burn_in=30.0, sample_count=400, seed=55
        )
        ordinary = run_stationary(H, cfg)
        qs = run_quasi_stationary(H, cfg)
        assert ordinary.absorbed is False
        combined = 2.0 * max(ordinary.std, qs.std)
        assert abs(ordinary.mean - qs.mean) <= combined

    def test_determinism(self):
        rng = random.Random(41)
        H = random_undirected(rng, num_nodes=15, num_edges=30)
        cfg = SISConfig(
            lam=0.4, nu=2.0, rho0=0.2, burn_in=10.0, sample_count=80, seed=12
        )
        assert run_quasi_stationary(H, cfg) == run_quasi_stationary(H, cfg)


class TestThresholds:
    def test_shipped_defaults(self):
        assert DEFAULT_THRESHOLDS["lyon"] == Thresholds(0.0474, 0.0382, 2.5415)
        assert DEFAULT_THRESHOLDS["high"] == Thresholds(0.0101, 0.0096, 2.4337)
        assert DEFAULT_THRESHOLDS["email-enron"] == Thresholds(0.0060, 0.0025, 1.3182)
        assert DEFAULT_THRESHOLDS["email-eu"] == Thresholds(0.0009, 0.0008, 1.2313)

    def test_load_without_path_returns_defaults(self):
        assert load_thresholds() == DEFAULT_THRESHOLDS

    def test_load_merges_overrides(self):
        text = json.dumps(
            {
                "lyon": {
                    "lambda_c_linear": 0.05,
                    "lambda_c_superlinear": 0.04,
                    "nu_c": 2.6,
                },
                "toy": {
                    "lambda_c_linear": 1.0,
                    "lambda_c_superlinear": 0.9,
                    "nu_c": 2.0,
                },
            }
        )
        merged = load_thresholds(text)
        assert merged["lyon"] == Thresholds(0.05, 0.04, 2.6)
        assert merged["toy"] == Thresholds(1.0, 0.9, 2.0)
        assert merged["high"] == DEFAULT_THRESHOLDS["high"]

    def test_load_rejects_incomplete_entry(self):
        with pytest.raises(ValueError, match="'toy' is missing key"):
            load_thresholds(json.dumps({"toy": {"lambda_c_linear": 1.0}}))


class TestStationarityWarning:
    def test_warns_when_density_drifts_through_sampling(self):
        # Slow decay with no burn-in: the density halves during the sampling
        # window, which the windowed-mean heuristic must flag.
        rng = random.Random(61)
        H = random_undirected(rng, num_nodes=30, num_edges=40)
        cfg = SISConfig(
            lam=0.0, nu=1.0, mu=0.05, rho0=1.0, burn_in=0.0, sample_count=40,
            seed=14,
        )
        with pytest.warns(RuntimeWarning, match="burn-in"):
            result = run_stationary(H, cfg)
        assert result.absorbed is False
        assert result.mean > 0.0

    @pytest.mark.parametrize("runner", [run_stationary, run_quasi_stationary])
    def test_warning_points_at_the_caller(self, runner):
        rng = random.Random(61)
        H = random_undirected(rng, num_nodes=30, num_edges=40)
        cfg = SISConfig(
            lam=0.0, nu=1.0, mu=0.05, rho0=1.0, burn_in=0.0, sample_count=40,
            seed=14,
        )
        with pytest.warns(RuntimeWarning, match="burn-in") as record:
            runner(H, cfg)
        assert record[0].filename == __file__

    def test_silent_when_stationary(self):
        rng = random.Random(62)
        H = random_undirected(rng, num_nodes=30, num_edges=120)
        cfg = SISConfig(
            lam=2.0, nu=1.0, rho0=0.5, burn_in=50.0, sample_count=200, seed=15
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_stationary(H, cfg)
