"""Tests for the edge-swap samplers, their invariants, and uniformity."""

import hashlib
import itertools
import math
import random
from collections import Counter

import pytest
from scipy import stats

from helpers import (
    checked_walk,
    co_degrees_reference,
    metabolic_scale,
    random_hypergraph,
    reverse,
    step_probability,
    thinned_visits,
    validate,
    varied_hypergraph,
)
from test_acceptance import contact_scale
from hypernull import sampling
from hypernull.core import (
    DirectedHypergraph,
    Hyperedge,
    compute_joint,
    degree_profile,
    format_hypergraph,
    parse_hypergraph,
    to_bipartite,
    to_hypergraph,
    undirected_to_directed,
)
from hypernull.sampling import (
    ChainConfig,
    Chains,
    FrozenEnsembleError,
    STEP_FUNCTIONS,
    SwapProposal,
    LEFT,
    _co_degrees,
    _draw_outside,
    _randbelow,
    _views,
    apply_pso,
    arc_count,
    delta_state_degree_pso,
    derive_seed,
    make_chain_state,
    null_sample,
    nudhy_degs_mh_step,
    nudhy_degs_step,
    nudhy_joint_step,
    run_chain,
    state_degree_pso,
)

TOY = "1|2,6\n3|4\n6|3,5\n"

# Every node has its own (in, out) degree pair, as every country does on
# trade: a "joint" step whose side coin picks the node side self-loops.
DISTINCT = "0|1\n0|2\n0,4|3\n1|2,4\n1|3\n2|3\n4|0\n0,1|2,3\n"

# (instance, steps, seed, sha256 of the formatted run_chain sample).
DEGS_PINS = [
    ("toy", 200, 0, "e96e28eb74a8e3c0ed8667a11c3bdc5ff41b47560941e5672ae7279a0c41092b"),
    ("toy", 200, 1, "8b49e0a6ebe4a3ff898844957d6e20c6f1da61a2a123571b6a910fcf3f7f961f"),
    ("toy", 200, 2, "530ce018395e5e2a089a1d3bc143fdb7fdf0123222a8dcb8c34a5f26f410ace7"),
    ("metabolic", 5000, 0, "5a61b186d244dd3f2285a1fc12b7bfbe81fd89084fd3526a721dab4c5016827b"),
    ("metabolic", 5000, 1, "3d63c1de9f6a8c61919acef622eb35d653e1cda0ce38ab102db00ae9f6c0ae82"),
    ("metabolic", 5000, 2, "14d7851261653aa77141a07a85d8c2d37eb2ab0e26252c4d48b9e988d3bb2764"),
]
JOINT_PINS = [
    ("metabolic", 5000, 0, "80db354124014d46dcaa8510cde26d7b45043a90460fefd09fe3d74f0f931350"),
    ("metabolic", 5000, 1, "76278b7989c4d9196db0be758f43c8ad75e452c92f941d9ca4d25896d20e0258"),
    ("metabolic", 5000, 2, "619b163057c5df83e1812e5d1764ab5f109952d47d3227846503b29da1bd8eae"),
    ("contact", 5000, 0, "b83123faefd07e86e204ac37d95f75af47abec34b723180bb2a9cb7b90eee50b"),
    ("contact", 5000, 1, "f8114d90d31b34681a523bae31dcc71d8c428c4b3d8e11e79982d08d57255bff"),
    ("contact", 5000, 2, "b410c27363d948e7a4549545a317987dd39b3f155d1f3f1c100b9fba323f1a60"),
    ("distinct", 200, 0, "33bec5a0d18efa09754d6daf9a168ad7dda4fc77c0d80c24bcec37f547d0df06"),
    ("distinct", 200, 1, "5f8e4162dcd5df80365d1fe7f9ee251d6c013df6a1085caf91a2fe019128215b"),
    ("distinct", 200, 2, "53dc9d5edd2473321d2d4fdfc098d79cd88110ea2c8014997b77766c29139ba1"),
]
MH_PINS = [
    ("toy", 200, 0, "c73d6be765a969b86ae933861d275d41b55adc28c305581f2a95be752ee1bb26"),
    ("toy", 200, 1, "3ccb2698fe8a6f294b081c0ea508bd72db86119615472c015a7386f5d03b6d2e"),
    ("toy", 200, 2, "5d7950bb01de11a3ca9d96e0aa53d6a7ceb857c28d9d225d3e1bfbc87e862e59"),
    ("metabolic", 5000, 0, "f87714afe8d43b0053a6541f411ced40f6ae3a79c3f0c88d409bf07c3701f557"),
    ("metabolic", 5000, 1, "f25a1a21f1b1594a505bbc2eca1746fa805d6b23b3c2240b91f43a76cfefe450"),
    ("metabolic", 5000, 2, "716172e29d8571c8ef8261731837ac584deb052d6972d773ac49969e06bc35ec"),
]
PINS = {"degs": DEGS_PINS, "joint": JOINT_PINS, "degs-mh": MH_PINS}


def pinned_instance(name):
    """The toy, the distinct-degree toy, metabolic_scale(101), or
    contact_scale() lifted to head = tail."""
    if name in ("toy", "distinct"):
        return parse_hypergraph(TOY if name == "toy" else DISTINCT)
    if name == "metabolic":
        return metabolic_scale(101)
    return undirected_to_directed(contact_scale())


def sample_digest(model, H, steps, seed):
    (S,) = run_chain(H, ChainConfig(model, steps, seed))
    return hashlib.sha256(format_hypergraph(S).encode()).hexdigest()


def profile_key(G):
    """Degree invariants up to hyperedge reordering: left sequences stay
    per-node, right (in, out) pairs become a multiset."""
    p = degree_profile(G)
    return (p.left_in, p.left_out, sorted(zip(p.right_in, p.right_out)))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def brute_force_swap_count(G):
    """Count applicable swaps by checking every same-direction edge pair."""
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
            absent = b not in G.left_out[u] and a not in G.left_out[v]
        else:
            absent = b not in G.left_in[u] and a not in G.left_in[v]
        count += absent
    return count


def _matrices(n_rows, n_cols, row_sums, col_sums):
    """All 0/1 matrices with the given margins, as tuples of row sets."""
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


def enumerate_margin_states(G):
    """All bipartite digraphs sharing G's four degree sequences.

    Exponential brute force — call on tiny instances only.  A state is keyed by
    (+1 rows, -1 rows), matching state_key below.
    """
    p = degree_profile(G)
    plus = _matrices(G.left_count, G.right_count, p.left_out, p.right_in)
    minus = _matrices(G.left_count, G.right_count, p.left_in, p.right_out)
    return {(pm, mm) for pm in plus for mm in minus}


def state_key(G):
    return (
        tuple(frozenset(s) for s in G.left_out),
        tuple(frozenset(s) for s in G.left_in),
    )


def graph_from_key(key, n_rows, n_cols):
    from hypernull.core import BipartiteDigraph

    plus, minus = key
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


def find_valid_proposals(G):
    """Brute-force list of every applicable swap, as SwapProposal objects."""
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


# Twelve-state instance: four left vertices with out-degrees [2,1,1,1], three
# right vertices with head sizes [2,2,1], no tail memberships at all.
DEGS_ENSEMBLE = DirectedHypergraph(
    [
        Hyperedge(frozenset({0, 1}), frozenset()),
        Hyperedge(frozenset({0, 2}), frozenset()),
        Hyperedge(frozenset({3}), frozenset()),
    ],
    4,
)

# Six-state instance: four interchangeable left vertices split across two
# tails of size two; every state shares the same joint tensor.
JOINT_ENSEMBLE = DirectedHypergraph(
    [
        Hyperedge(frozenset(), frozenset({0, 1})),
        Hyperedge(frozenset(), frozenset({2, 3})),
    ],
    4,
)


# ---------------------------------------------------------------------------
# Swap operations
# ---------------------------------------------------------------------------


class TestApplyPso:
    def test_toy_head_swap(self):
        H = parse_hypergraph(TOY)
        G = to_bipartite(H)
        # Right vertices in canonical order: 0=({1},{2,6}), 1=({3},{4}), 2=({6},{3,5})
        u = H.labels.index(1)
        v = H.labels.index(6)
        apply_pso(G, SwapProposal(u, 0, v, 2, +1))
        assert to_hypergraph(G) == parse_hypergraph("6|2,6\n3|4\n1|3,5")

    def test_preserves_degree_profile(self):
        rng = random.Random(17)
        for _ in range(100):
            G = to_bipartite(random_hypergraph(rng))
            proposals = find_valid_proposals(G)
            if not proposals:
                continue
            before = degree_profile(G)
            apply_pso(G, proposals[rng.randrange(len(proposals))])
            validate(G)
            assert degree_profile(G) == before

    def test_self_inverse(self):
        rng = random.Random(29)
        for _ in range(50):
            H = random_hypergraph(rng)
            G = to_bipartite(H)
            proposals = find_valid_proposals(G)
            if not proposals:
                continue
            p = proposals[0]
            apply_pso(G, p)
            apply_pso(G, reverse(p))
            assert to_hypergraph(G) == H

    def test_invalid_proposal_rejected(self):
        G = to_bipartite(parse_hypergraph("1|2\n1|3\n"))
        # Both right vertices already contain left vertex 0 in the head.
        with pytest.raises(AssertionError):
            apply_pso(G, SwapProposal(0, 0, 0, 1, +1))


class TestApplyRpso:
    """Restricted parity swaps: apply_pso on a pair that shares its degree
    class keeps the joint tensor."""

    def test_toy_tail_swap_preserves_joint(self):
        H = parse_hypergraph(TOY)
        G = to_bipartite(H)
        J0 = compute_joint(G)
        u = H.labels.index(2)
        v = H.labels.index(5)
        apply_pso(G, SwapProposal(u, 0, v, 2, -1))
        assert to_hypergraph(G) == parse_hypergraph("1|5,6\n3|4\n6|2,3")
        assert compute_joint(G) == J0

    def test_reversible(self):
        H = parse_hypergraph(TOY)
        G = to_bipartite(H)
        J0 = compute_joint(G)
        p = SwapProposal(H.labels.index(2), 0, H.labels.index(5), 2, -1)
        apply_pso(G, p)
        assert compute_joint(G) == J0
        apply_pso(G, reverse(p))
        assert to_hypergraph(G) == H


# ---------------------------------------------------------------------------
# Degree-preserving chain
# ---------------------------------------------------------------------------


class TestDrawDiff:
    @pytest.mark.parametrize(
        "first, second",
        [
            (set(range(20)), set(range(10, 30))),  # half of first accepted
            (set(range(100)), set(range(3, 100))),  # 3 of 100: mostly the fallback scan
        ],
        ids=["rejection", "fallback"],
    )
    def test_uniform_over_difference(self, first, second):
        rng = random.Random(79)
        listed = sorted(first)
        counts = Counter()
        for _ in range(30_000):
            counts[listed[_draw_outside(rng.getrandbits, listed, second)]] += 1
        assert set(counts) == first - second
        _, p_value = stats.chisquare(list(counts.values()))
        assert p_value > 0.001

    def test_empty_difference_is_none(self):
        rng = random.Random(1)
        assert _draw_outside(rng.getrandbits, [1, 2], {1, 2, 3}) is None

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bounded_draw_rejects_empty_range(self, bound):
        # getrandbits(0) is always 0, so an unchecked zero bound never returns.
        with pytest.raises(ValueError, match="empty range"):
            _randbelow(random.Random(1).getrandbits, bound)

    def test_bounded_draw_is_randrange(self):
        ours, library = random.Random(17), random.Random(17)
        for n in [1, 2, 3, 5, 8, 127, 128, 129, 1000, 2**32 - 1, 2**32, 2**40 + 3] * 50:
            assert _randbelow(ours.getrandbits, n) == library.randrange(n)
        assert ours.getstate() == library.getstate()

    @pytest.mark.parametrize("model", ["degs", "joint"])
    def test_draw_lists_stay_permutations(self, model):
        # Every node is in 3 heads and 2 tails: one degree class per side, so
        # "joint" draws from, and swaps on, both sides of both slices.
        H = DirectedHypergraph(
            [
                Hyperedge(frozenset({i, (i + 1) % 10, (i + 2) % 10}),
                          frozenset({(i + 4) % 10, (i + 5) % 10}))
                for i in range(10)
            ],
            10,
        )
        G = to_bipartite(H)
        state = make_chain_state(G, seed=1, model=model)
        assert checked_walk(lambda s: STEP_FUNCTIONS[model](s, 1), state, 10_000) > 0
        built = 0
        for direction, piece in state.slices.items():
            for view, lists in zip(piece.views, state.order[direction]):
                for v, listed in enumerate(lists):
                    if listed is not None:
                        assert sorted(listed) == sorted(view[v])
                        built += 1
        assert built > 0


class TestDegsStep:
    def test_single_edge_always_self_loops(self):
        G = to_bipartite(parse_hypergraph("1|2"))
        state = make_chain_state(G, seed=1, model="degs")
        assert not any(nudhy_degs_step(state) for _ in range(200))

    def test_saturated_heads_frozen(self):
        # Every head equals the full vertex set: crossed-neighbor sets are
        # always empty, so the chain must stay put.
        H = DirectedHypergraph(
            [Hyperedge(frozenset({0, 1, 2}), frozenset()) for _ in range(3)], 3
        )
        G = to_bipartite(H)
        state = make_chain_state(G, seed=2, model="degs")
        assert not any(nudhy_degs_step(state) for _ in range(200))
        assert to_hypergraph(G) == H

    def test_walk_preserves_profile(self):
        rng = random.Random(41)
        for trial in range(20):
            G = to_bipartite(random_hypergraph(rng, max_nodes=10, max_edges=8))
            before = degree_profile(G)
            state = make_chain_state(G, seed=trial, model="degs")
            checked_walk(nudhy_degs_step, state, 500)
            assert degree_profile(G) == before

    def test_visits_every_state_uniformly(self):
        expected_states = enumerate_margin_states(to_bipartite(DEGS_ENSEMBLE))
        assert len(expected_states) == 12
        G = to_bipartite(DEGS_ENSEMBLE)
        state = make_chain_state(G, seed=7, model="degs")
        visits = thinned_visits(nudhy_degs_step, state, state_key, 100_000)
        assert set(visits) == expected_states
        _, p_value = stats.chisquare(list(visits.values()))
        assert p_value > 0.001

    @pytest.mark.parametrize("instance, steps, seed, digest", DEGS_PINS)
    def test_output_bytes_pinned(self, instance, steps, seed, digest):
        # Taken when "degs" drew from a pool of its own that made no class
        # draw; the one-class _ClassPairs must make the same draws.
        assert sample_digest("degs", pinned_instance(instance), steps, seed) == digest

    def test_heads_prob_override_freezes_tails(self):
        # The direction coin is shared by both slice-kernel models.
        H = parse_hypergraph("1,2|3,4\n3,4|1,2\n1,3|2,4\n")
        for model, step in (("degs", nudhy_degs_step), ("joint", nudhy_joint_step)):
            G = to_bipartite(H)
            tails_before = [frozenset(t) for t in G.right_out]
            state = make_chain_state(G, seed=5, model=model)
            state.heads_prob = 1.0
            assert sum(step(state) for _ in range(500)) > 0
            assert [frozenset(t) for t in G.right_out] == tails_before
            assert degree_profile(G) == degree_profile(to_bipartite(H))


class TestJointStep:
    def test_frozen_when_all_classes_distinct(self):
        # Every left vertex and every right vertex has a unique degree pair.
        G = to_bipartite(parse_hypergraph("1|2\n1,2|\n"))
        state = make_chain_state(G, seed=3, model="joint")
        assert not any(nudhy_joint_step(state) for _ in range(200))

    def test_class_weights_normalize(self):
        G = to_bipartite(DEGS_ENSEMBLE)
        state = make_chain_state(G, seed=1, model="joint")
        side, fam = state.slices[+1].sources[0]
        assert side == LEFT
        # Three left vertices share (in=0, out=1); one has (0, 2).
        assert fam.total == math.comb(3, 2)
        assert fam.cumulative[-1] == fam.total

    def test_walk_preserves_joint(self):
        rng = random.Random(53)
        for trial in range(20):
            G = to_bipartite(random_hypergraph(rng, max_nodes=10, max_edges=8))
            J0 = compute_joint(G)
            p0 = degree_profile(G)
            state = make_chain_state(G, seed=trial, model="joint")
            checked_walk(nudhy_joint_step, state, 500)
            assert compute_joint(G) == J0
            # Joint preservation implies degree preservation.
            assert degree_profile(G) == p0

    def test_visits_joint_class_uniformly(self):
        G0 = to_bipartite(JOINT_ENSEMBLE)
        J0 = compute_joint(G0)
        same_joint = set()
        for key in enumerate_margin_states(G0):
            G = graph_from_key(key, G0.left_count, G0.right_count)
            if compute_joint(G) == J0:
                same_joint.add(key)
        assert len(same_joint) == 6
        state = make_chain_state(G0, seed=11, model="joint")
        visits = thinned_visits(nudhy_joint_step, state, state_key, 100_000)
        assert set(visits) == same_joint
        _, p_value = stats.chisquare(list(visits.values()))
        assert p_value > 0.001

    @pytest.mark.parametrize("instance, steps, seed, digest", JOINT_PINS)
    def test_output_bytes_pinned(self, instance, steps, seed, digest):
        # Contact lifted to head = tail makes every left vertex's two slices
        # alike; metabolic has many small degree classes; the distinct toy
        # has no same-class node pair.
        assert sample_digest("joint", pinned_instance(instance), steps, seed) == digest

    def test_distinct_toy_has_no_same_class_node_pair(self):
        G = to_bipartite(pinned_instance("distinct"))
        classes = list(zip(map(len, G.left_in), map(len, G.left_out)))
        assert len(set(classes)) == len(classes)


# ---------------------------------------------------------------------------
# Swap counting and the Metropolis-Hastings variant
# ---------------------------------------------------------------------------


class TestCoDegrees:
    def test_bitmask_build_matches_the_counting_build(self):
        rng = random.Random(0)
        graphs = [DirectedHypergraph([], 3)] + [
            varied_hypergraph(rng, *sizes) for sizes in [(12, 100), (90, 30)] * 30
        ]
        for H in graphs:
            G = to_bipartite(H)
            for direction in (+1, -1):
                views = _views(G, direction)
                assert _co_degrees(*views) == co_degrees_reference(*views)


class TestStateDegreePso:
    def test_single_edge(self):
        G = to_bipartite(parse_hypergraph("1|"))
        assert state_degree_pso(G) == 0

    def test_two_disjoint_edges(self):
        G = to_bipartite(parse_hypergraph("1|\n2|"))
        assert state_degree_pso(G) == 1

    def test_path_is_frozen(self):
        # Heads {1},{1,2}: the only disjoint pair is blocked by its crossing edge.
        G = to_bipartite(parse_hypergraph("1|\n1,2|"))
        assert state_degree_pso(G) == brute_force_swap_count(G) == 0

    def test_matches_brute_force(self):
        rng = random.Random(61)
        for _ in range(100):
            G = to_bipartite(random_hypergraph(rng, max_nodes=8, max_edges=12))
            assert state_degree_pso(G) == brute_force_swap_count(G)


class TestDeltaStateDegreePso:
    def test_symmetric_instance_delta_zero(self):
        G = to_bipartite(parse_hypergraph("1|\n2|"))
        (p,) = find_valid_proposals(G)
        assert delta_state_degree_pso(G, p) == 0

    def test_reverse_has_negated_delta(self):
        rng = random.Random(67)
        checked = 0
        while checked < 50:
            G = to_bipartite(random_hypergraph(rng, max_nodes=8, max_edges=10))
            proposals = find_valid_proposals(G)
            if not proposals:
                continue
            p = proposals[rng.randrange(len(proposals))]
            delta = delta_state_degree_pso(G, p)
            apply_pso(G, p)
            assert delta_state_degree_pso(G, reverse(p)) == -delta
            checked += 1

    def test_tracks_recomputation_along_walk(self):
        rng = random.Random(71)
        checked = 0
        while checked < 30:
            G = to_bipartite(random_hypergraph(rng, max_nodes=8, max_edges=10))
            proposals = find_valid_proposals(G)
            if not proposals:
                continue
            d = state_degree_pso(G)
            walk_rng = random.Random(checked)
            for _ in range(60):
                proposals = find_valid_proposals(G)
                if not proposals:
                    break
                p = proposals[walk_rng.randrange(len(proposals))]
                d += delta_state_degree_pso(G, p)
                apply_pso(G, p)
                assert d == state_degree_pso(G) == brute_force_swap_count(G)
            checked += 1


class TestMhStep:
    def test_frozen_graph_raises(self):
        G = to_bipartite(parse_hypergraph("1|"))
        state = make_chain_state(G, seed=1, model="degs-mh")
        with pytest.raises(FrozenEnsembleError):
            nudhy_degs_mh_step(state)
        assert STEP_FUNCTIONS["degs-mh"](state, 0) == 0

    def test_swap_count_stays_exact(self):
        rng = random.Random(73)
        for trial in range(10):
            G = to_bipartite(random_hypergraph(rng, max_nodes=8, max_edges=8))
            if state_degree_pso(G) == 0:
                continue
            state = make_chain_state(G, seed=trial, model="degs-mh")
            checked_walk(nudhy_degs_mh_step, state, 300)

    def test_equal_swap_counts_always_accept(self):
        # Two disjoint head-only edges: both states have exactly one swap.
        G = to_bipartite(parse_hypergraph("1|\n2|"))
        state = make_chain_state(G, seed=9, model="degs-mh")
        assert all(nudhy_degs_mh_step(state) for _ in range(100))

    def test_uniform_on_tiny_ensemble(self):
        expected_states = enumerate_margin_states(to_bipartite(DEGS_ENSEMBLE))
        G = to_bipartite(DEGS_ENSEMBLE)
        state = make_chain_state(G, seed=13, model="degs-mh")
        visits = thinned_visits(nudhy_degs_mh_step, state, state_key, 100_000)
        assert set(visits) == expected_states
        _, p_value = stats.chisquare(list(visits.values()))
        assert p_value > 0.001

    def test_profile_preserved(self):
        G = to_bipartite(parse_hypergraph(TOY))
        before = degree_profile(G)
        state = make_chain_state(G, seed=15, model="degs-mh")
        checked_walk(nudhy_degs_mh_step, state, 500)
        assert degree_profile(G) == before

    @pytest.mark.parametrize("instance, steps, seed, digest", MH_PINS)
    def test_output_bytes_pinned(self, instance, steps, seed, digest):
        # The digests were taken from the kernel that recomputed every
        # swap-count delta by set intersection; the co-degree table must
        # reproduce its acceptance decisions, and so its samples, exactly.
        assert sample_digest("degs-mh", pinned_instance(instance), steps, seed) == digest


# ---------------------------------------------------------------------------
# Null sampler
# ---------------------------------------------------------------------------


class TestNullSample:
    def test_preserves_size_sequences(self):
        rng = random.Random(79)
        for trial in range(100):
            H = random_hypergraph(rng)
            S = null_sample(H, seed=trial)
            assert S.num_nodes == H.num_nodes
            assert sorted((len(e.head), len(e.tail)) for e in S.edges) == sorted(
                (len(e.head), len(e.tail)) for e in H.edges
            )

    def test_full_side_is_forced(self):
        H = DirectedHypergraph([Hyperedge(frozenset({0, 1, 2}), frozenset())], 3)
        for seed in range(10):
            S = null_sample(H, seed=seed)
            assert S.edges[0].head == frozenset({0, 1, 2})

    def test_occupancy_frequency(self):
        # One head of size 2 over 5 nodes: each node appears with probability 2/5.
        H = DirectedHypergraph([Hyperedge(frozenset({0, 1}), frozenset())], 5)
        samples = 4000
        hits = sum(0 in null_sample(H, seed=s).edges[0].head for s in range(samples))
        expectation = samples * 2 / 5
        sigma = math.sqrt(samples * (2 / 5) * (3 / 5))
        assert abs(hits - expectation) < 4 * sigma

    def test_deterministic(self):
        H = parse_hypergraph(TOY)
        assert null_sample(H, seed=5) == null_sample(H, seed=5)


# ---------------------------------------------------------------------------
# Chain runner
# ---------------------------------------------------------------------------


class TestRunChain:
    def test_zero_steps_is_identity(self):
        H = parse_hypergraph(TOY)
        cfg = ChainConfig(model="degs", steps=0, seed=1, sample_count=3)
        assert all(S == H for S in run_chain(H, cfg))

    def test_degs_samples_preserve_profile(self):
        H = parse_hypergraph(TOY)
        cfg = ChainConfig(model="degs", steps="auto", seed=2, sample_count=5)
        target = profile_key(to_bipartite(H))
        for S in run_chain(H, cfg):
            assert profile_key(to_bipartite(S)) == target

    def test_joint_samples_preserve_tensor(self):
        H = parse_hypergraph(TOY)
        cfg = ChainConfig(model="joint", steps="auto", seed=3, sample_count=5)
        target = compute_joint(to_bipartite(H))
        for S in run_chain(H, cfg):
            assert compute_joint(to_bipartite(S)) == target

    def test_mh_model_runs(self):
        H = parse_hypergraph(TOY)
        cfg = ChainConfig(model="degs-mh", steps=50, seed=4, sample_count=2)
        target = profile_key(to_bipartite(H))
        for S in run_chain(H, cfg):
            assert profile_key(to_bipartite(S)) == target

    def test_null_model(self):
        H = parse_hypergraph(TOY)
        cfg = ChainConfig(model="null", steps=0, seed=5, sample_count=3)
        samples = list(run_chain(H, cfg))
        assert len(samples) == 3
        for S in samples:
            assert sorted(e.size for e in S.edges) == sorted(
                e.size for e in H.edges
            )

    def test_deterministic_given_seed(self):
        H = parse_hypergraph(TOY)
        for model in ("degs", "joint", "null"):
            cfg = ChainConfig(model=model, steps=40, seed=8, sample_count=3)
            assert list(run_chain(H, cfg)) == list(run_chain(H, cfg))

    def test_seeds_change_output(self):
        H = parse_hypergraph("1,2|3,4\n3,4|1,2\n1,3|2,4\n2,4|1,3\n")
        a = list(run_chain(H, ChainConfig(model="degs", steps=200, seed=1, sample_count=4)))
        b = list(run_chain(H, ChainConfig(model="degs", steps=200, seed=2, sample_count=4)))
        assert a != b

    def test_thinning_mode(self):
        H = parse_hypergraph(TOY)
        cfg = ChainConfig(model="degs", steps=30, seed=6, sample_count=4, thinning=10)
        samples = list(run_chain(H, cfg))
        assert len(samples) == 4
        target = profile_key(to_bipartite(H))
        for S in samples:
            assert profile_key(to_bipartite(S)) == target

    @pytest.mark.parametrize(
        "model, digest",
        [
            ("degs", "3cd47099b082731edd84810e255ff91f65fe8800622a75c8c3b638bf54bc3c4d"),
            ("joint", "c25e3270d1913d5e0a442c7c3cd4a1853af932ccfe43da1397c590fa078ef86b"),
        ],
    )
    def test_thinned_output_bytes_pinned(self, model, digest):
        cfg = ChainConfig(model, steps=2000, seed=4, sample_count=3, thinning=500)
        text = "".join(format_hypergraph(S) for S in run_chain(metabolic_scale(101), cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("model", ["degs", "joint", "degs-mh", "null"])
    @pytest.mark.parametrize("thinning", [None, 40], ids=["unthinned", "thinning-equals-steps"])
    def test_independent_draws_are_the_run_in_any_order(self, model, thinning):
        # `sample` draws sample i alone, possibly in another process.
        H = parse_hypergraph("1,2|3,4\n3,4|1,2\n1,3|2,4\n2,4|1,3\n5|1\n")
        steps = "auto" if model == "null" else 40
        thinning = None if model == "null" else thinning
        cfg = ChainConfig(model=model, steps=steps, seed=12, sample_count=4, thinning=thinning)
        chains = Chains(H, cfg)
        assert chains.independent
        assert [chains.draw(i) for i in (3, 1, 0, 2)] == [
            list(run_chain(H, cfg))[i] for i in (3, 1, 0, 2)
        ]

    def test_a_thinned_run_is_one_chain(self):
        H = parse_hypergraph(TOY)
        cfg = ChainConfig(model="degs", steps=30, seed=6, sample_count=3, thinning=10)
        chains = Chains(H, cfg)
        assert not chains.independent
        assert list(chains.run()) == list(run_chain(H, cfg))
        assert list(chains.run())[0] == chains.draw(0)

    def test_auto_steps_resolution(self):
        H = parse_hypergraph(TOY)
        G = to_bipartite(H)
        cfg = ChainConfig(model="degs", steps="auto", seed=1, sample_count=1)
        w = G.plus_edges() + G.minus_edges()
        assert arc_count(H) == w
        assert cfg.resolved_steps(H) == 20 * w

    def test_bad_model_rejected(self):
        with pytest.raises(ValueError):
            ChainConfig(model="bogus", steps=1, seed=1, sample_count=1)

    @pytest.mark.parametrize(
        "field, value",
        [("steps", True), ("thinning", 2.5), ("thinning", True),
         ("sample_count", 2.0), ("sample_count", True)],
    )
    def test_non_count_rejected(self, field, value):
        # The kernels pass these counts straight to range().
        fields = {"steps": 30, "sample_count": 3, "thinning": None, field: value}
        with pytest.raises(ValueError, match=field):
            ChainConfig(model="degs", seed=1, **fields)

    @pytest.mark.parametrize("thinning", [0, -3])
    def test_thinning_below_one_rejected(self, thinning):
        # Thinning 0 would emit the burn-in state again for every sample.
        with pytest.raises(ValueError, match="thinning"):
            ChainConfig(model="degs", steps=30, seed=1, sample_count=3, thinning=thinning)
        ChainConfig(model="degs", steps=30, seed=1, sample_count=3, thinning=1)


def chain_snapshot(state):
    G = state.graph
    return (G.left_in, G.left_out, G.right_in, G.right_out, state.order,
            state.co_degrees, state.swap_count, state.rng.getstate())


class TestBatchedKernels:
    @pytest.mark.parametrize("instance", ["toy", "metabolic"])
    @pytest.mark.parametrize(
        "model, step",
        [("degs", nudhy_degs_step), ("joint", nudhy_joint_step), ("degs-mh", nudhy_degs_mh_step)],
    )
    @pytest.mark.parametrize("count", [0, 1, 2000])
    def test_batch_equals_single_steps(self, instance, model, step, count):
        H = pinned_instance(instance)
        batched = make_chain_state(to_bipartite(H), seed=21, model=model)
        stepped = make_chain_state(to_bipartite(H), seed=21, model=model)
        applied = STEP_FUNCTIONS[model](batched, count)
        assert applied == sum(step(stepped) for _ in range(count))
        assert chain_snapshot(batched) == chain_snapshot(stepped)

    @pytest.mark.parametrize("model", ["degs", "joint", "degs-mh"])
    def test_every_applied_swap_goes_through_swap(self, monkeypatch, model):
        swap, calls = sampling._swap, []

        def counted(*args):
            calls.append(args)
            swap(*args)

        monkeypatch.setattr(sampling, "_swap", counted)
        state = make_chain_state(to_bipartite(pinned_instance("metabolic")), seed=4, model=model)
        applied = STEP_FUNCTIONS[model](state, 2000)
        assert applied > 0
        assert len(calls) == applied

    @pytest.mark.parametrize("model", ["degs", "joint", "degs-mh"])
    def test_chains_draw_only_from_random_and_getrandbits(self, monkeypatch, model):
        # randrange, choice, sample and shuffle reduce getrandbits output by
        # rules of their own; a chain that calls none of them keeps its
        # samples' bytes however those rules change.
        def forbidden(*args, **kwargs):
            raise AssertionError("a chain step drew through a library reduction")

        cases = [(pinned_instance(instance), *pin) for instance, *pin in PINS[model]]
        for name in ("randrange", "choice", "sample", "shuffle"):
            monkeypatch.setattr(random.Random, name, forbidden)
        for H, steps, seed, digest in cases:
            assert sample_digest(model, H, steps, seed) == digest


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(42, "chain", 0)
        assert a == derive_seed(42, "chain", 0)
        assert a != derive_seed(42, "chain", 1)
        assert a != derive_seed(42, "null", 0)
        assert a != derive_seed(43, "chain", 0)
        assert 0 <= a < 2**64


# ---------------------------------------------------------------------------
# Transition-probability symmetry
# ---------------------------------------------------------------------------


class TestStepProbabilities:
    def test_degs_forward_equals_reverse(self):
        rng = random.Random(83)
        checked = 0
        while checked < 50:
            G = to_bipartite(random_hypergraph(rng, max_nodes=8, max_edges=8))
            proposals = find_valid_proposals(G)
            if not proposals:
                continue
            p = proposals[rng.randrange(len(proposals))]
            forward = step_probability(G, p, "degs")
            assert forward > 0
            apply_pso(G, p)
            backward = step_probability(G, reverse(p), "degs")
            assert forward == pytest.approx(backward)
            checked += 1

    def test_joint_forward_equals_reverse(self):
        H = parse_hypergraph(TOY)
        G = to_bipartite(H)
        p = SwapProposal(H.labels.index(2), 0, H.labels.index(5), 2, -1)
        forward = step_probability(G, p, "joint")
        assert forward > 0
        apply_pso(G, p)
        assert step_probability(G, reverse(p), "joint") == pytest.approx(forward)

    def test_joint_two_routes_add(self):
        # Two heads {0,1} and {2,3}: the swap endpoints share degree classes on
        # both sides, so both sampling routes contribute.
        H = DirectedHypergraph(
            [
                Hyperedge(frozenset({0, 1}), frozenset()),
                Hyperedge(frozenset({2, 3}), frozenset()),
            ],
            4,
        )
        G = to_bipartite(H)
        p = SwapProposal(0, 0, 2, 1, +1)
        # Left route: 1/2 * 1/C(4,2) * 1/(1*1); right route: 1/2 * 1/C(2,2) * 1/(2*2).
        assert step_probability(G, p, "joint") == pytest.approx(1 / 12 + 1 / 8)

    def test_degs_probability_value(self):
        # Two disjoint head-only edges: one pair, both crossed sets singletons.
        G = to_bipartite(parse_hypergraph("1|\n2|"))
        (p,) = find_valid_proposals(G)
        assert step_probability(G, p, "degs") == pytest.approx(1.0)
