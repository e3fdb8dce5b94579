"""Shared test helpers: deterministic random generators, brute-force recount
oracles used to cross-check the package implementations, reference versions
of the structure kernels, of the trade biadjacency, of the itemset miner, of
the co-degree tables and of the invariant text, the thinned visit counter
of the chain uniformity tests, the reverse of a swap proposal and the kernel's
probability of proposing it, the consistency checks that a checked chain walk
runs after every step (a degs-mh state's co-degree tables among them), the
rate-class check of a contagion state, and the merge-sort Kendall tau that
diagnostics.kendall_tau must reproduce bit for bit."""

import itertools
import json
import math
import random
from collections import Counter

from hypernull.core import DirectedHypergraph, Hyperedge
from hypernull.sampling import LEFT, SwapProposal, _default_heads_prob, _slices, state_degree_pso


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


def varied_hypergraph(rng, max_nodes=12, max_edges=100):
    """random_hypergraph (one-sided edges, head/tail overlap) plus two
    isolated nodes and a random share of its edges repeated as extra copies;
    max_edges above 64 lets a bitmask over the edges span several words."""
    H = random_hypergraph(rng, max_nodes, max_edges, max_side=4)
    repeats = rng.sample(H.edges, rng.randint(0, len(H.edges)))
    return DirectedHypergraph(H.edges + repeats, H.num_nodes + 2)


def metabolic_scale(seed):
    """Random hypergraph at the scale of a bacterial metabolic network:
    ~700 nodes, ~900 hyperedges, side sizes mostly 1-4 with a tail up to 9."""
    rng = random.Random(seed)
    n, m = 702, 923
    edges = []
    for _ in range(m):
        a = min(rng.randint(1, 4) + (rng.random() < 0.08) * rng.randint(1, 5), 9)
        b = min(rng.randint(1, 4) + (rng.random() < 0.08) * rng.randint(1, 5), 9)
        edges.append(
            Hyperedge(
                frozenset(rng.sample(range(n), a)), frozenset(rng.sample(range(n), b))
            )
        )
    return DirectedHypergraph(edges, n)


def trade_scale(seed, m=4600):
    """Country x product hypergraph at the scale of the trade data: 133
    countries and one edge per product, exporters in the head and importers
    in the tail, side sizes exponential with means 16 and 20 (at least 1).

    Exporters cluster as in real trade: each country has a capability and
    each product a complexity, both uniform on [0, 1], and a product's
    exporters are the countries of largest -5 |capability - complexity|
    plus Gumbel noise (a weighted draw without replacement).  Importers are
    a uniform draw.  perfbench/instances.py's trade_like draws the same kind
    of graph from numpy, so the two give different graphs for one seed.
    """
    rng = random.Random(seed)
    n = 133
    capability = [rng.random() for _ in range(n)]
    edges = []
    for _ in range(m):
        complexity = rng.random()
        a = min(n, max(1, round(rng.expovariate(1 / 16))))
        b = min(n, max(1, round(rng.expovariate(1 / 20))))
        keys = [-5 * abs(c - complexity) - math.log(-math.log(1.0 - rng.random()))
                for c in capability]
        head = sorted(range(n), key=keys.__getitem__, reverse=True)[:a]
        edges.append(Hyperedge(frozenset(head), frozenset(rng.sample(range(n), b))))
    return DirectedHypergraph(edges, n)


def trade_csv(seed, n=50, m=200):
    """A 2019 trade table as `econ build` reads it (year,country,product,
    export_value,import_value), one row per country and product.

    Exporters cluster as in trade_scale: each country has a capability and
    each product a complexity, both uniform on [0, 1], and a country's export
    value of a product is exp(-5 |capability - complexity|) times
    log-normal noise, so the countries whose export RCA exceeds 1 are those
    close to the product's complexity.  Import values are log-normal noise
    alone.  Every value of a country is scaled by its log-normal size, as
    real totals differ.  Values are whole numbers, so the text is the same
    everywhere.
    """
    rng = random.Random(seed)
    capability = [rng.random() for _ in range(n)]
    size = [math.exp(rng.gauss(0.0, 1.0)) for _ in range(n)]
    lines = ["year,country,product,export_value,import_value"]
    for p in range(m):
        complexity = rng.random()
        for c in range(n):
            export = size[c] * math.exp(-5 * abs(capability[c] - complexity) + rng.gauss(0.0, 1.0))
            imported = size[c] * math.exp(rng.gauss(0.0, 1.0))
            lines.append(f"2019,C{c:03d},P{p:04d},{round(1e6 * export)},{round(1e6 * imported)}")
    return "\n".join(lines) + "\n"


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


def reverse(p):
    """The swap proposal that undoes p on the swapped graph."""
    return SwapProposal(p.left1, p.right2, p.left2, p.right1, p.direction)


def step_probability(G, p, model):
    """Probability that one "degs" or "joint" step on G proposes the swap p.

    Reads the kernel's own slice tables and sums over the routes whose pair
    source can draw p's endpoint pair.
    """
    piece = _slices(G, model)[p.direction]
    heads_prob = _default_heads_prob(G)
    coin = heads_prob if p.direction == +1 else 1.0 - heads_prob
    ends = ((p.left1, p.left2), (p.right1, p.right2))
    probability = 0.0
    for side, pairs in piece.sources:
        x, y = ends[side]
        near = piece.views[side]
        crossed = len(near[x] - near[y]) * len(near[y] - near[x])
        if crossed and any(x in members and y in members for members in pairs.members):
            probability += coin / len(piece.sources) / (pairs.total * crossed)
    return probability


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


def co_degrees_reference(left, right):
    """sampling._co_degrees by counting: each row tallies every member of
    every neighbour of u, then drops u."""
    rows = []
    for u, neighbors in enumerate(left):
        row = dict(Counter(itertools.chain.from_iterable(right[a] for a in neighbors)))
        row.pop(u, None)
        rows.append(row)
    return rows


def invariant_text_reference(invariant):
    """cli._invariant_text by json.dumps of the spelled-out invariant: a joint
    tensor as its sorted ((i, j, k, l, d), count) items."""
    if isinstance(invariant, tuple):
        *degrees, lefts, rights, codes = invariant
        invariant = [*degrees, [
            (lefts[c // 2 // len(rights)] + rights[c // 2 % len(rights)] + ((-1, 1)[c % 2],), n)
            for c, n in Counter(codes).items()
        ]]
    return json.dumps(invariant)


def check_co_degrees(state):
    """Assert that every slice's co-degree table of a degs-mh state lists
    |N(u) & N(w)| for each ordered pair of distinct left vertices, counted
    afresh by set intersection; zero entries are ignored."""
    for direction, piece in state.slices.items():
        left = piece.views[LEFT]
        fresh = {
            (u, w): len(left[u] & left[w])
            for u, w in itertools.permutations(range(len(left)), 2)
            if left[u] & left[w]
        }
        kept = {
            (u, w): count
            for u, row in enumerate(state.co_degrees[direction])
            for w, count in row.items()
            if count
        }
        assert kept == fresh, "co-degree table out of step with the graph"


def checked_walk(step, state, steps):
    """Run steps chain steps and return how many applied a swap.

    After every step the graph's two views must agree, every built draw list
    must be a permutation of its set, and a degs-mh state's swap count must
    equal the exact count of the current graph and its co-degree tables a
    fresh count.
    """
    applied = 0
    for _ in range(steps):
        applied += step(state)
        validate(state.graph)
        check_order(state)
        if state.swap_count is not None:
            assert state.swap_count == state_degree_pso(state.graph)
            check_co_degrees(state)
    return applied


def check_buckets(state):
    """Assert a contagion state's rate-class bookkeeping against a recount
    from its node states: every edge sits in the bucket of its class
    (|e|, i_e) at its recorded slot, no bucket holds an edge twice, and the
    total rate equals mu * I plus the fsum of the recomputed per-edge rates
    s_e * lam * i_e**nu."""
    rates = []
    for index, edge in enumerate(state.edges):
        i = sum(state.infected[v] for v in edge)
        s = len(edge) - i
        c = state.class_base[len(edge)] + i
        assert state.edge_class[index] == c, "edge in the wrong class"
        assert state.buckets[c][state.slot[index]] == index, "stale bucket slot"
        rates.append(s * state.lam * i**state.nu if i and s else 0.0)
    members = sorted(index for bucket in state.buckets for index in bucket)
    assert members == list(range(len(state.edges))), "bucket members duplicated"
    expected = state.mu * sum(state.infected) + math.fsum(rates)
    assert math.isclose(state.total_rate(), expected, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Reference structure kernels: the full-rescan versions the package's
# kernels must reproduce exactly.
# ---------------------------------------------------------------------------


def reciprocal_candidates(H, e):
    """Candidate reciprocators of e by a scan over every hyperedge copy of H,
    with the first copy of e itself excluded."""
    skipped_self = False
    out = []
    for f in H.edges:
        if not skipped_self and f.head == e.head and f.tail == e.tail:
            skipped_self = True
            continue
        if (f.tail & e.head) and (f.head & e.tail):
            out.append(f)
    return out


def _peel(sides, extras, survivors, k, m):
    survivors = set(survivors)
    while True:
        qualifying = Counter()
        for members, extra in zip(sides, extras):
            alive = members & survivors
            if len(alive) + extra >= m:
                for v in alive:
                    qualifying[v] += 1
        bad = {v for v in survivors if qualifying[v] < k}
        if not bad:
            return survivors
        survivors -= bad


def core_shells_reference(H, side):
    """{m: shells} of the (k, m)-core decomposition for m = 2..max edge size,
    by repeated full peeling rounds that each re-scan every edge."""
    sides = [e.head if side == "head" else e.tail for e in H.edges]
    extras = [len(e.tail if side == "head" else e.head) for e in H.edges]
    max_size = max((e.size for e in H.edges), default=0)
    tracked = frozenset().union(*sides) if sides else frozenset()
    shells = {}
    for m in range(2, max_size + 1):
        shell = [0] * H.num_nodes
        survivors = set(tracked)
        k = 1
        while survivors:
            survivors = _peel(sides, extras, survivors, k, m)
            for v in survivors:
                shell[v] = k
            k += 1
        shells[m] = tuple(shell)
    return shells


def _sum(values):
    """Left-to-right float sum, as the built-in sum adds floats before
    Python 3.12 (later versions compensate rounding errors)."""
    total = 0.0
    for x in values:
        total += x
    return total


def _unit(vec):
    norm = math.sqrt(_sum(x * x for x in vec))
    if norm == 0.0:
        return [0.0] * len(vec)
    return [x / norm for x in vec]


def hits_reference(G, tol=1e-10, max_iter=10_000):
    """HITS by pure-Python power iteration over per-vertex arc lists built in
    G.edges() order; returns (hubs, authorities) like structure.hits."""
    n = G.left_count + G.right_count
    if n == 0:
        return ([], [])
    outgoing = [[] for _ in range(n)]
    incoming = [[] for _ in range(n)]
    for v, a, d in G.edges():
        s, t = (v, G.left_count + a) if d == +1 else (G.left_count + a, v)
        outgoing[s].append(t)
        incoming[t].append(s)
    start = 1.0 / math.sqrt(n)
    hubs = [start] * n
    auths = [start] * n
    for _ in range(max_iter):
        fresh_a = _unit([_sum(hubs[s] for s in incoming[t]) for t in range(n)])
        fresh_h = _unit([_sum(fresh_a[t] for t in outgoing[s]) for s in range(n)])
        delta = max(
            max(abs(a - b) for a, b in zip(fresh_h, hubs)),
            max(abs(a - b) for a, b in zip(fresh_a, auths)),
        )
        hubs, auths = fresh_h, fresh_a
        if delta <= tol:
            return (hubs, auths)
    raise RuntimeError(f"hits did not converge in {max_iter} iterations")


def project_weighted_reference(H):
    """structure.project_weighted as a Counter loop over every head x tail
    pair of every hyperedge copy."""
    successors = [Counter() for _ in range(H.num_nodes)]
    for e in H.edges:
        for u in e.head:
            for v in e.tail:
                successors[u][v] += 1
    return tuple(dict(s) for s in successors)


def multi_order_laplacian_reference(U):
    """structure.multi_order_laplacian (orders 2 to 8) with K(d) and A(d)
    counted one member and one member pair at a time."""
    import numpy as np
    n = U.num_nodes
    laplacian = np.zeros((n, n))
    for d in range(2, min(8, max(map(len, U.edges), default=0)) + 1):
        members = [m for m in U.edges if len(m) == d]
        if not members:
            continue
        degree = np.zeros(n)
        adjacency = np.zeros((n, n))
        for m in members:
            for v in m:
                degree[v] += 1.0
            for u, v in itertools.combinations(sorted(m), 2):
                adjacency[u, v] += 1.0
                adjacency[v, u] += 1.0
        laplacian += (1.0 / (degree.sum() / n)) * (d * np.diag(degree) - adjacency)
    return laplacian


def biadjacency_reference(H):
    """econ.hypergraph_biadjacency's matrix filled one head membership at a
    time, one column per hyperedge copy, empty rows and columns dropped."""
    import numpy as np
    mask = np.zeros((H.num_nodes, len(H.edges)))
    for j, e in enumerate(H.edges):
        for v in e.head:
            mask[v, j] = 1.0
    return mask[np.ix_(mask.any(axis=1), mask.any(axis=0))]


# ---------------------------------------------------------------------------
# Reference itemset miner: the level-wise Apriori join over transaction-id
# sets that diagnostics.mine_top_frequent must reproduce exactly.
# ---------------------------------------------------------------------------


def _mine_at_threshold_tids(item_tids, threshold, min_len, cap=None):
    """All itemsets with support >= threshold and length >= min_len, as
    (sorted item tuple, support) pairs; level-wise generation over vertical
    transaction-id sets.  With cap, stops as soon as cap results are found
    (used only to answer "are there at least cap?")."""
    results = []
    current = {
        (item,): tids
        for item, tids in sorted(item_tids.items())
        if len(tids) >= threshold
    }
    level = 1
    while current:
        if level >= min_len:
            for itemset, tids in current.items():
                results.append((itemset, len(tids)))
                if cap is not None and len(results) >= cap:
                    return results
        following = {}
        keys = sorted(current)
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                if a[:-1] != b[:-1]:
                    break
                candidate = a + (b[-1],)
                if any(
                    candidate[:m] + candidate[m + 1 :] not in current
                    for m in range(level - 1)
                ):
                    continue
                tids = current[a] & current[b]
                if len(tids) >= threshold:
                    following[candidate] = tids
        current = following
        level += 1
    return results


def mine_top_frequent_reference(db: tuple, f: int = 20, l: int = 3) -> tuple:
    """Exact top-f frequent itemsets of length >= l, as (itemset, support)
    pairs sorted by support descending with lexicographic tie-breaking.

    The support threshold of the f-th best itemset is located by binary
    search (each probe counts itemsets above a candidate threshold, stopping
    at f), then one full mining pass at that threshold is sorted and cut.
    """
    if f < 1 or l < 1:
        raise ValueError("f and l must be positive")
    item_tids = {}
    for index, transaction in enumerate(db):
        for item in transaction:
            item_tids.setdefault(item, set()).add(index)
    if not item_tids:
        return ()
    low, high = 1, len(db)
    while low < high:
        mid = (low + high + 1) // 2
        if len(_mine_at_threshold_tids(item_tids, mid, l, cap=f)) >= f:
            low = mid
        else:
            high = mid - 1
    mined = _mine_at_threshold_tids(item_tids, low, l)
    mined.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple((frozenset(items), support) for items, support in mined[:f])


# ---------------------------------------------------------------------------
# Reference Kendall tau: tau-b with the discordant pairs counted as merge-sort
# inversions, which diagnostics.kendall_tau must reproduce bit for bit.
# ---------------------------------------------------------------------------


def _merge_count_inversions(values):
    """Number of index pairs i < j with values[i] > values[j]."""
    if len(values) <= 1:
        return values, 0
    mid = len(values) // 2
    left, inv_left = _merge_count_inversions(values[:mid])
    right, inv_right = _merge_count_inversions(values[mid:])
    merged = []
    inversions = inv_left + inv_right
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            inversions += len(left) - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inversions


def _tie_pairs(values):
    groups = {}
    for v in values:
        groups[v] = groups.get(v, 0) + 1
    return sum(c * (c - 1) // 2 for c in groups.values())


def kendall_tau_reference(x, y) -> float:
    """Kendall's tau-b (tie-corrected), via merge-sort inversion counting.

    Returns nan when either input is constant.
    """
    x, y = list(x), list(y)
    if len(x) != len(y):
        raise ValueError("rankings must have equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least two items")
    paired = sorted(zip(x, y))
    n0 = n * (n - 1) // 2
    ties_x = _tie_pairs(x)
    ties_y = _tie_pairs(y)
    ties_both = _tie_pairs(paired)
    _, discordant = _merge_count_inversions([b for _, b in paired])
    denominator = (n0 - ties_x) * (n0 - ties_y)
    if denominator == 0:
        return math.nan
    numerator = n0 - ties_x - ties_y + ties_both - 2 * discordant
    return numerator / math.sqrt(denominator)
