"""Edge-swap Markov chains over directed hypergraphs.

The bipartite digraph is two independent bipartite graphs, its slices: the +1
arcs (left_out/right_in, head memberships) and the -1 arcs (left_in/right_out,
tail memberships).  Every chain move is a parity swap inside one slice: arcs
(u, a) and (v, b) become (u, b) and (v, a).  A swap keeps all four degree
sequences and never touches the other slice.

One kernel runs the degree-preserving chain (model "degs") and the
joint-preserving chain (model "joint").  Each step, a biased coin picks the
slice; a pair source on one side of it gives two distinct vertices x, y; a
uniform draw from each of N(x) - N(y) and N(y) - N(x) gives the crossed
endpoints.  The models differ only in their pair sources:

- "degs" draws a uniform pair among the vertices that send the slice's arcs:
  left vertices for +1 arcs, right vertices for -1 arcs;
- "joint" flips a fair coin for the side and draws a pair inside one (in, out)
  degree class, classes weighted by their pair counts.  Degree classes never
  change, so the swap also keeps the full joint degree tensor.

The crossed endpoints are drawn by rejection, never by building the set
difference.  The chain state keeps a draw list per vertex, per side and per
slice, made as sorted(N(x)) the first time x is drawn from: a uniform position
of x's list is accepted when its element is not in N(y).  After _DRAW_TRIES
rejections the draw falls back to the exact difference, scanned in list
order, so every element of N(x) - N(y) has the same probability and each
step proposes each swap with the same probability as a draw from the sorted
difference.  A swap keeps every neighbour set's size, so the near-side lists
of x and y are updated in place at the drawn positions; the far-side lists of
the two endpoints are dropped and rebuilt at their next draw (only "joint"
draws from both sides).

A Metropolis-Hastings variant ("degs-mh") targets the degree ensemble through
uniform arc-pair proposals over both slices, corrected by the exact count of
applicable swaps.  Its state keeps each slice's co-degree table, at most
sum_a C(|N(a)|, 2) node pairs, built once from one bitmask per vertex
(2 * L * R bits for L left and R right vertices), so a step that swaps
between right vertices a and b costs O(|N(a) ^ N(b)|) table lookups and
updates; delta_state_degree_pso is the set-based reference for its
swap-count delta.
The "null" model keeps only the head/tail size sequences.

Each swap model's kernel runs a batch of steps as one loop, kernel(state,
count) -> applied, called once per sample or thinning interval.  Every
bounded integer is getrandbits(n.bit_length()) redrawn until below n, exactly
as random.randrange(n) draws it, so samples keep their bytes.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass

from hypernull.core import (
    MODELS,
    BipartiteDigraph,
    DirectedHypergraph,
    Hyperedge,
    to_bipartite,
    to_hypergraph,
)

LEFT, RIGHT = 0, 1  # the two sides of a slice

# Arc direction -> (left view, right view, side whose vertices send the arcs).
_SLICE_LAYOUT = {
    +1: ("left_out", "right_in", LEFT),
    -1: ("left_in", "right_out", RIGHT),
}

# Uniform positions tried before a draw scans the exact difference.
_DRAW_TRIES = 8


class FrozenEnsembleError(RuntimeError):
    """Raised when a sampler is asked to move but no swap exists anywhere."""


def derive_seed(master_seed: int, role: str, index: int = 0) -> int:
    """Stable 64-bit sub-seed for (master seed, role, index).

    Hash-based so that per-sample and per-purpose random streams are
    independent and reproducible across platforms.
    """
    digest = hashlib.sha256(f"{master_seed}:{role}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SwapProposal:
    """A parity swap: replace (left1,right1,d),(left2,right2,d) by the crossed
    pair (left1,right2,d),(left2,right1,d)."""

    left1: int
    right1: int
    left2: int
    right2: int
    direction: int


@dataclass
class ChainConfig:
    """Run descriptor: model, steps per sample, seeding, and sample layout.

    steps="auto" resolves to 20 * w, where w = arc_count(H) is the number of
    bipartite arcs.  thinning defaults to steps, which means every sample
    comes from an independent chain restarted at the observed graph; a
    smaller thinning runs one long chain and emits every `thinning` steps
    after a `steps` burn-in.
    """

    model: str = "degs"
    steps: object = "auto"
    seed: int = 0
    sample_count: int = 1
    thinning: int | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        # type() rather than isinstance(): a bool is an int, but not a count.
        if self.steps != "auto" and (type(self.steps) is not int or self.steps < 0):
            raise ValueError("steps must be 'auto' or a non-negative integer")
        if type(self.sample_count) is not int or self.sample_count < 1:
            raise ValueError("sample_count must be a positive integer")
        if self.thinning is not None and (type(self.thinning) is not int or self.thinning < 1):
            raise ValueError("thinning must be a positive integer")

    def resolved_steps(self, H: DirectedHypergraph) -> int:
        return 20 * arc_count(H) if self.steps == "auto" else self.steps


def arc_count(H: DirectedHypergraph) -> int:
    """w = sum(|head| + |tail|) over H's hyperedge copies, the number of arcs
    of its bipartite form: the unit of "auto" steps and of checkpoint spacing."""
    return sum(len(e.head) + len(e.tail) for e in H.edges)


# ---------------------------------------------------------------------------
# Slices and their pair sources
# ---------------------------------------------------------------------------


class _ClassPairs:
    """Pairs of distinct same-class vertices on one side of a slice.

    Only vertices with an arc in the slice take part.  The kernel draws a class
    with probability proportional to C(|class|, 2) by binary search, then a
    uniform ordered pair inside it, so each unordered same-class pair has
    probability 1/total; a single class is taken without a draw, which makes
    one class of every sender the "degs" source.  Classes are invariant under
    the swaps, so the tables are built once.
    """

    def __init__(self, view, classes):
        groups = {}
        for x, neighbors in enumerate(view):
            if neighbors:
                groups.setdefault(classes[x], []).append(x)
        self.members = []
        self.cumulative = []
        total = 0
        for k in sorted(groups):
            size = len(groups[k])
            weight = size * (size - 1) // 2
            if weight == 0:
                continue
            total += weight
            self.members.append(groups[k])
            self.cumulative.append(total)
        self.total = total


@dataclass(frozen=True)
class Slice:
    """The arcs of one direction, a bipartite graph of their own.

    views[LEFT][v] is the set of right vertices joined to left vertex v and
    views[RIGHT][a] the set of left vertices joined to right vertex a; both
    are the graph's own adjacency lists, so a swap through them updates it.
    sources lists the (side, pair source) routes a chain step may take.
    """

    views: tuple
    sources: tuple = ()


def _views(G: BipartiteDigraph, direction: int) -> tuple:
    left, right, _ = _SLICE_LAYOUT[direction]
    return getattr(G, left), getattr(G, right)


def _slices(G: BipartiteDigraph, model: str) -> dict:
    """{direction: Slice} of G, with the pair sources the model draws from."""
    degree_classes = (  # (in, out) degree pair of every left and every right vertex
        list(zip(map(len, G.left_in), map(len, G.left_out))),
        list(zip(map(len, G.right_in), map(len, G.right_out))),
    )
    slices = {}
    for direction, (_, _, sender) in _SLICE_LAYOUT.items():
        views = _views(G, direction)
        if model == "degs":
            sources = ((sender, _ClassPairs(views[sender], [0] * len(views[sender]))),)
        elif model == "joint":
            sources = tuple(
                (side, _ClassPairs(views[side], degree_classes[side])) for side in (LEFT, RIGHT)
            )
        else:
            sources = ()
        slices[direction] = Slice(views, sources)
    return slices


@dataclass
class ChainState:
    """Mutable sampler state: the graph plus the per-model static indexes.

    order[direction][side][v] is v's draw list: None until the kernel first
    draws from v, then a permutation of slices[direction].views[side][v] that
    the kernel keeps current.  A "degs-mh" state also keeps the swap count,
    the arc list it proposes from and co_degrees[direction], the slice's
    co-degree table (see _co_degrees), all kept current by the kernel.
    """

    graph: BipartiteDigraph
    rng: random.Random
    heads_prob: float
    slices: dict
    order: dict
    swap_count: int | None = None
    edge_list: list | None = None
    co_degrees: dict | None = None


def _default_heads_prob(G: BipartiteDigraph) -> float:
    total = G.plus_edges() + G.minus_edges()
    return G.plus_edges() / total if total else 0.5


def make_chain_state(G: BipartiteDigraph, seed: int, model: str = "degs") -> ChainState:
    """Initialize a chain on G (owned by the chain and mutated in place)."""
    slices = _slices(G, model)
    state = ChainState(
        graph=G,
        rng=random.Random(seed),
        heads_prob=_default_heads_prob(G),
        slices=slices,
        order={d: tuple([None] * len(view) for view in s.views) for d, s in slices.items()},
    )
    if model == "degs-mh":
        tables = state.co_degrees = {d: _co_degrees(*s.views) for d, s in slices.items()}
        state.swap_count = sum(_slice_swap_count(*s.views, tables[d]) for d, s in slices.items())
        state.edge_list = sorted(
            (v, a, d) for d, s in slices.items() for v, adj in enumerate(s.views[LEFT]) for a in adj
        )
    return state


# ---------------------------------------------------------------------------
# Swap application and the slice kernel
# ---------------------------------------------------------------------------


def _swap(near, far, x, x_end, y, y_end) -> None:
    """Swap arcs (x, x_end), (y, y_end) of one slice to (x, y_end), (y, x_end).

    near holds the neighbor sets of x and y, far those of x_end and y_end; the
    operation is the same whichever side x and y lie on.  Every chain model
    and apply_pso change the graph through this function alone.
    """
    assert x != y and x_end != y_end, "swap endpoints must be distinct"
    assert x_end in near[x] and y_end in near[y], "swapped arcs must exist"
    assert y_end not in near[x] and x_end not in near[y], "crossed arcs must be absent"
    near[x].remove(x_end)
    near[x].add(y_end)
    near[y].remove(y_end)
    near[y].add(x_end)
    far[x_end].remove(x)
    far[x_end].add(y)
    far[y_end].remove(y)
    far[y_end].add(x)


def apply_pso(G: BipartiteDigraph, p: SwapProposal) -> None:
    """Apply a parity swap in place; all four degree sequences are unchanged."""
    left, right = _views(G, p.direction)
    _swap(left, right, p.left1, p.right1, p.left2, p.right2)


def _randbelow(getrandbits, n: int) -> int:
    """Uniform int in [0, n), drawn as randrange(n) draws it on Python 3.10-3.13."""
    if n <= 0:
        raise ValueError(f"empty range for a bounded draw: {n}")
    k = n.bit_length()
    while (r := getrandbits(k)) >= n:
        pass
    return r


def _draw_outside(getrandbits, listed: list, other: set):
    """Position of a uniform element of listed outside other, or None: the
    _DRAW_TRIES - 1 tries after the kernel's first, then the exact scan."""
    for _ in range(_DRAW_TRIES - 1):
        position = _randbelow(getrandbits, len(listed))
        if listed[position] not in other:
            return position
    positions = [i for i, element in enumerate(listed) if element not in other]
    return positions[_randbelow(getrandbits, len(positions))] if positions else None


def _slice_steps(state: ChainState, count: int) -> int:
    """Run count "degs" or "joint" steps; returns how many applied a swap.

    The direction coin (heads probability |D+|/|D|) picks the slice; when the
    slice has two routes a fair coin picks the side.  Any shortage (no pair
    to draw, an empty crossed set) is a self-loop.
    """
    rng, slices, orders = state.rng, state.slices, state.order
    random, getrandbits, heads_prob = rng.random, rng.getrandbits, state.heads_prob
    plus = slices[+1].sources, slices[+1].views, orders[+1]
    minus = slices[-1].sources, slices[-1].views, orders[-1]
    applied = 0
    for _ in range(count):
        routes, views, order = plus if random() < heads_prob else minus
        side, pairs = routes[0] if len(routes) == 1 or random() < 0.5 else routes[1]
        members = pairs.members
        if not members:
            continue
        pool = members[0] if len(members) == 1 else members[
            bisect_right(pairs.cumulative, _randbelow(getrandbits, pairs.total))]
        k = (n := len(pool)).bit_length()
        while (i := getrandbits(k)) >= n:
            pass
        k = (n := n - 1).bit_length()
        while (j := getrandbits(k)) >= n:
            pass
        x, y = pool[i], pool[j + 1 if j >= i else j]
        near, near_order = views[side], order[side]
        near_x, near_y = near[x], near[y]
        if (x_list := near_order[x]) is None:
            x_list = near_order[x] = sorted(near_x)
        k = (n := len(x_list)).bit_length()
        while (x_position := getrandbits(k)) >= n:
            pass
        if x_list[x_position] in near_y:
            x_position = _draw_outside(getrandbits, x_list, near_y)
            if x_position is None:
                continue
        if (y_list := near_order[y]) is None:
            y_list = near_order[y] = sorted(near_y)
        k = (n := len(y_list)).bit_length()
        while (y_position := getrandbits(k)) >= n:
            pass
        if y_list[y_position] in near_x:
            y_position = _draw_outside(getrandbits, y_list, near_x)
            if y_position is None:
                continue
        x_end, y_end = x_list[x_position], y_list[y_position]
        _swap(near, views[1 - side], x, x_end, y, y_end)
        x_list[x_position], y_list[y_position] = y_end, x_end
        far_order = order[1 - side]
        far_order[x_end] = far_order[y_end] = None
        applied += 1
    return applied


def nudhy_degs_step(state: ChainState) -> bool:
    """One "degs" step, or one "joint" step on a state made with model="joint"."""
    return _slice_steps(state, 1) == 1


nudhy_joint_step = nudhy_degs_step


# ---------------------------------------------------------------------------
# Swap counting and the Metropolis-Hastings chain
# ---------------------------------------------------------------------------


def _co_degrees(left: list, right: list) -> list:
    """co[u][w] = |N(u) & N(w)| for the left vertices w != u that share a
    neighbour with u, one dict per left vertex u.

    Each left vertex's neighbours and each right vertex's members are one int
    bitmask, 2 * |left| * |right| bits in all.  u's candidates are the OR of
    its neighbours' member masks without u, and each entry is one AND and
    popcount, so the build never visits the sum_a |N(a)|^2 memberships.
    """
    neighbors = [sum(1 << a for a in adj) for adj in left]
    members = [sum(1 << v for v in adj) for adj in right]
    rows = []
    for u, adj in enumerate(left):
        candidates = 0
        for a in adj:
            candidates |= members[a]
        candidates &= ~(1 << u)
        mask, row = neighbors[u], {}
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            w = low.bit_length() - 1
            row[w] = (mask & neighbors[w]).bit_count()
        rows.append(row)
    return rows


def _slice_swap_count(left: list, right: list, co: list) -> int:
    """Applicable swaps inside one slice with co-degree table co.

    Counted as disjoint arc pairs, minus pairs blocked by one crossing arc
    (three-arc paths), plus twice the complete 2x2 bicliques that the path
    count double-subtracts.
    """
    lo = [len(s) for s in left]
    ri = [len(s) for s in right]
    m = sum(lo)
    disjoint = (m * (m + 1) - sum(x * x for x in lo) - sum(x * x for x in ri)) // 2
    paths = sum((lo[v] - 1) * sum(ri[a] - 1 for a in adj) for v, adj in enumerate(left))
    # Each unordered pair {u, w} sits in both rows: C(c, 2) twice over.
    bicliques = sum(c * (c - 1) for row in co for c in row.values()) // 4
    return disjoint - paths + 2 * bicliques


def state_degree_pso(G: BipartiteDigraph) -> int:
    """Exact number of applicable parity swaps in G, summed over its slices."""
    views = [_views(G, d) for d in _SLICE_LAYOUT]
    return sum(_slice_swap_count(*pair, _co_degrees(*pair)) for pair in views)


def delta_state_degree_pso(G: BipartiteDigraph, p: SwapProposal) -> int:
    """Change in state_degree_pso if p were applied, from local counts only."""
    u, a, v, b = p.left1, p.right1, p.left2, p.right2
    left_adj, right_adj = _views(G, p.direction)
    d_paths = (len(left_adj[u]) - len(left_adj[v])) * (len(right_adj[b]) - len(right_adj[a]))
    d_bicliques = 0
    for w in right_adj[b] - right_adj[a]:
        if w == v:
            continue
        d_bicliques += len(left_adj[u] & left_adj[w]) - (len(left_adj[v] & left_adj[w]) - 1)
    for w in right_adj[a] - right_adj[b]:
        if w == u:
            continue
        d_bicliques += len(left_adj[v] & left_adj[w]) - (len(left_adj[u] & left_adj[w]) - 1)
    return -d_paths + 2 * d_bicliques


def _shift(co: list, shared: set, up: int, down: int) -> None:
    """Record that up gains and down loses a neighbour shared with every w in
    shared; a co-degree that drops to zero leaves the table."""
    rise, fall = co[up], co[down]
    for w in shared:
        rise[w] = co[w][up] = rise.get(w, 0) + 1
        count = fall[w] - 1
        if count:
            fall[w] = co[w][down] = count
        else:
            del fall[w], co[w][down]


def _mh_steps(state: ChainState, count: int) -> int:
    """Run count Metropolis-Hastings steps on the degree ensemble; returns
    how many applied a swap.

    Uniform arc pairs are rejection-sampled until they form an applicable
    swap (u, a), (v, b) -> (u, b), (v, a), which is then accepted with
    probability min(1, d(G)/d(G')).  The swap changes only the co-degrees of
    u and v with gain = N(b) - N(a) - {v} and loss = N(a) - N(b) - {u}, so
    the swap-count delta and the table update read those two sets alone.
    Raises FrozenEnsembleError when count > 0 and the graph admits no swap
    at all (a graph that has just swapped can swap back).
    """
    if count > 0 and state.swap_count == 0:
        raise FrozenEnsembleError("no applicable swap exists in this graph")
    rng, edges, swap_count = state.rng, state.edge_list, state.swap_count
    random, getrandbits = rng.random, rng.getrandbits
    tables = {d: (*s.views, state.co_degrees[d]) for d, s in state.slices.items()}
    n, n1 = len(edges), len(edges) - 1
    k, k1 = n.bit_length(), n1.bit_length()
    applied = 0
    for _ in range(count):
        while True:
            while (i := getrandbits(k)) >= n:
                pass
            while (j := getrandbits(k1)) >= n1:
                pass
            if j >= i:
                j += 1
            u, a, d1 = edges[i]
            v, b, d2 = edges[j]
            if d1 != d2 or u == v or a == b:
                continue
            left, right, co = tables[d1]
            if b not in left[u] and a not in left[v]:
                break
        gain = right[b] - right[a]
        gain.discard(v)
        loss = right[a] - right[b]
        loss.discard(u)
        co_u, co_v = co[u], co[v]
        d_bicliques = len(gain) + len(loss)
        for w in gain:
            d_bicliques += co_u.get(w, 0) - co_v[w]
        for w in loss:
            d_bicliques += co_v.get(w, 0) - co_u[w]
        d_paths = (len(left[u]) - len(left[v])) * (len(right[b]) - len(right[a]))
        new_count = swap_count + 2 * d_bicliques - d_paths
        ratio = swap_count / new_count
        if ratio < 1.0 and random() >= ratio:
            continue
        _shift(co, gain, u, v)
        _shift(co, loss, v, u)
        _swap(left, right, u, a, v, b)
        edges[i], edges[j] = (u, b, d1), (v, a, d1)
        state.swap_count = swap_count = new_count
        applied += 1
    return applied


def nudhy_degs_mh_step(state: ChainState) -> bool:
    """One step of _mh_steps; True when it applied a swap."""
    return _mh_steps(state, 1) == 1


# ---------------------------------------------------------------------------
# Null sampler and the chain runner
# ---------------------------------------------------------------------------


def null_sample(H: DirectedHypergraph, seed: int) -> DirectedHypergraph:
    """Random hypergraph with H's head/tail size sequences, nodes drawn
    uniformly without replacement per side."""
    rng = random.Random(seed)
    n = H.num_nodes
    edges = []
    for e in H.edges:
        head = frozenset(rng.sample(range(n), len(e.head)))
        tail = frozenset(rng.sample(range(n), len(e.tail)))
        edges.append(Hyperedge(head, tail))
    labels = None if H.labels is None else list(H.labels)
    return DirectedHypergraph(edges, n, labels)


# The batched chain kernel of every swap model (core.CHAIN_MODELS, in order):
# kernel(state, count) -> applied.
STEP_FUNCTIONS = {
    "degs": _slice_steps,
    "joint": _slice_steps,
    "degs-mh": _mh_steps,
}


class Chains:
    """The chains of one run of config from H.

    Chain `index` starts at its own bipartite form of H, built in the process
    that runs the chain, is seeded by derive_seed(seed, "chain", index) and
    runs the resolved step count.  The samples are `independent` unless a
    thinning other than the step count makes them points along chain 0; the
    "null" model draws each sample directly.  draw(index) gives sample
    `index` of an independent run, the same in any order and in any process.
    """

    def __init__(self, H: DirectedHypergraph, config: ChainConfig):
        self.H, self.config = H, config
        self.steps = None if config.model == "null" else config.resolved_steps(H)
        self.independent = self.steps is None or config.thinning in (None, self.steps)

    def start(self, index: int) -> ChainState:
        """Chain `index` after the resolved step count."""
        state = make_chain_state(
            to_bipartite(self.H), derive_seed(self.config.seed, "chain", index), self.config.model
        )
        STEP_FUNCTIONS[self.config.model](state, self.steps)
        return state

    def draw(self, index: int) -> DirectedHypergraph:
        if self.steps is None:
            return null_sample(self.H, derive_seed(self.config.seed, "null", index))
        return to_hypergraph(self.start(index).graph)

    def run(self):
        """Every sample of the run, in order."""
        if self.independent:
            yield from map(self.draw, range(self.config.sample_count))
            return
        state = self.start(0)
        for index in range(self.config.sample_count):
            if index:
                STEP_FUNCTIONS[self.config.model](state, self.config.thinning)
            yield to_hypergraph(state.graph)


def run_chain(H: DirectedHypergraph, config: ChainConfig):
    """Generate config.sample_count random hypergraphs from H's ensemble.

    By default each sample comes from an independent chain seeded by
    derive_seed(seed, "chain", index) and run for the resolved step count
    starting at H; with thinning < steps a single chain burns in `steps`
    steps, then emits every `thinning` steps.  Output is fully determined by
    (H, config).
    """
    yield from Chains(H, config).run()
