"""Shared test helpers: deterministic random generators, brute-force recount
oracles used to cross-check the package implementations, the thinned visit
counter of the chain uniformity tests, and the consistency checks that a
checked chain walk runs after every step."""

from collections import Counter

from hypernull.core import DirectedHypergraph, Hyperedge
from hypernull.sampling import state_degree_pso


def random_hypergraph(rng, max_nodes=8, max_edges=6, max_side=3):
    """Draw a small random directed hypergraph (sides may overlap or be empty)."""
    n = rng.randint(1, max_nodes)
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        while True:
            a = rng.randint(0, min(max_side, n))
            b = rng.randint(0, min(max_side, n))
            if a + b > 0:
                break
        head = frozenset(rng.sample(range(n), a))
        tail = frozenset(rng.sample(range(n), b))
        edges.append(Hyperedge(head, tail))
    return DirectedHypergraph(edges, n)


def recount_degrees(G):
    """Recount the four degree sequences straight from the raw edge list.

    Independent of the adjacency-size bookkeeping used by degree_profile.
    """
    left_in = Counter()
    left_out = Counter()
    right_in = Counter()
    right_out = Counter()
    for v, a, d in G.edges():
        if d == +1:
            left_out[v] += 1
            right_in[a] += 1
        else:
            left_in[v] += 1
            right_out[a] += 1
    return (
        [left_in[v] for v in range(G.left_count)],
        [left_out[v] for v in range(G.left_count)],
        [right_in[a] for a in range(G.right_count)],
        [right_out[a] for a in range(G.right_count)],
    )


def recount_joint(G):
    """Build the joint degree tensor entry by entry from the raw edge list."""
    li, lo, ri, ro = recount_degrees(G)
    counts = Counter()
    for v, a, d in G.edges():
        counts[(li[v], lo[v], ri[a], ro[a], d)] += 1
    return dict(counts)


# Chain states between two recorded visits of thinned_visits.
VISIT_THINNING = 10


def thinned_visits(step, state, key, steps):
    """Counts of key(state.graph) over every VISIT_THINNING-th state of a
    steps-step walk.

    Consecutive states of a swap chain are autocorrelated: self-loops and
    back-swaps repeat the state before, so a chi-square test that counts every
    state as an independent draw overstates its evidence and fails unbiased
    chains at some seeds.  Every 10th state of the enumerable test ensembles
    is close enough to independent for the test's p > 0.001 threshold.
    """
    visits = Counter()
    for t in range(1, steps + 1):
        step(state)
        if t % VISIT_THINNING == 0:
            visits[key(state.graph)] += 1
    return visits


def validate(G):
    """Raise ValueError if the four adjacency arrays of G disagree."""
    if len(G.left_out) != len(G.left_in):
        raise ValueError("left adjacency arrays differ in length")
    if len(G.right_in) != len(G.right_out):
        raise ValueError("right adjacency arrays differ in length")
    n, r = G.left_count, G.right_count
    for v, outs in enumerate(G.left_out):
        for a in outs:
            if not 0 <= a < r or v not in G.right_in[a]:
                raise ValueError(f"arc ({v},{a},+1) missing from right view")
    for v, ins in enumerate(G.left_in):
        for a in ins:
            if not 0 <= a < r or v not in G.right_out[a]:
                raise ValueError(f"arc ({v},{a},-1) missing from right view")
    if sum(len(s) for s in G.right_in) != G.plus_edges():
        raise ValueError("+1 arc count mismatch between views")
    if sum(len(s) for s in G.right_out) != G.minus_edges():
        raise ValueError("-1 arc count mismatch between views")
    for a, head in enumerate(G.right_in):
        for v in head:
            if not 0 <= v < n or a not in G.left_out[v]:
                raise ValueError(f"arc ({v},{a},+1) missing from left view")
    for a, tail in enumerate(G.right_out):
        for v in tail:
            if not 0 <= v < n or a not in G.left_in[v]:
                raise ValueError(f"arc ({v},{a},-1) missing from left view")


def check_order(state):
    """Assert that every built draw list of a chain state is a permutation of
    its neighbour set."""
    for direction, piece in state.slices.items():
        for view, lists in zip(piece.views, state.order[direction]):
            for v, listed in enumerate(lists):
                assert listed is None or (
                    len(listed) == len(view[v]) and set(listed) == view[v]
                ), "draw list out of step with its neighbour set"


def checked_walk(step, state, steps):
    """Run steps chain steps and return how many applied a swap.

    After every step the graph's two views must agree, every built draw list
    must be a permutation of its set, and a degs-mh state's swap count must
    equal the exact count of the current graph.
    """
    applied = 0
    for _ in range(steps):
        applied += step(state)
        validate(state.graph)
        check_order(state)
        if state.swap_count is not None:
            assert state.swap_count == state_degree_pso(state.graph)
    return applied
