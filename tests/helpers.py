"""Shared test helpers: deterministic random generators, brute-force recount
oracles used to cross-check the package implementations, and the thinned
visit counter of the chain uniformity tests."""

from collections import Counter

from hypernull.core import DirectedHypergraph, Hyperedge


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
