"""Edge-swap Markov chains over directed hypergraphs.

The bipartite digraph is two independent bipartite graphs, its slices: the +1
arcs (left_out/right_in, head memberships) and the -1 arcs (left_in/right_out,
tail memberships).  Every chain move is a parity swap inside one slice: arcs
(u, a) and (v, b) become (u, b) and (v, a).  A swap keeps all four degree
sequences and never touches the other slice.

One kernel runs every step of the degree-preserving chain (model "degs") and
of the joint-preserving chain (model "joint").  A biased coin picks the slice;
a pair source on one side of it gives two distinct vertices x, y; a uniform
draw from each of N(x) - N(y) and N(y) - N(x) gives the crossed endpoints.
The models differ only in their pair sources:

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
sum_a C(|N(a)|, 2) node pairs, so a step that swaps between right vertices a
and b costs O(|N(a) ^ N(b)|) table lookups and updates;
delta_state_degree_pso is the set-based reference for its swap-count delta.
The "null" model keeps only the head/tail size sequences.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from hypernull.core import (
    BipartiteDigraph,
    DirectedHypergraph,
    Hyperedge,
    to_bipartite,
    to_hypergraph,
)

MODELS = ("degs", "joint", "degs-mh", "null")

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

    def reverse(self) -> "SwapProposal":
        """The proposal that undoes this one on the swapped graph."""
        return SwapProposal(self.left1, self.right2, self.left2, self.right1, self.direction)


@dataclass
class ChainConfig:
    """Run descriptor: model, steps per sample, seeding, and sample layout.

    steps="auto" resolves to 20 * w where w is the total number of bipartite
    arcs.  thinning defaults to steps, which means every sample comes from an
    independent chain restarted at the observed graph; a smaller thinning runs
    one long chain and emits every `thinning` steps after a `steps` burn-in.
    """

    model: str = "degs"
    steps: object = "auto"
    seed: int = 0
    sample_count: int = 1
    thinning: int | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.steps != "auto" and (not isinstance(self.steps, int) or self.steps < 0):
            raise ValueError("steps must be 'auto' or a non-negative integer")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.thinning is not None and self.thinning < 1:
            raise ValueError("thinning must be a positive integer")

    def resolved_steps(self, G: BipartiteDigraph) -> int:
        if self.steps == "auto":
            return math.ceil(20 * (G.plus_edges() + G.minus_edges()))
        return self.steps


# ---------------------------------------------------------------------------
# Slices and their pair sources
# ---------------------------------------------------------------------------


def _pick_pair(rng, pool):
    """Uniform ordered pair of distinct entries of pool."""
    i = rng.randrange(len(pool))
    j = rng.randrange(len(pool) - 1)
    if j >= i:
        j += 1
    return pool[i], pool[j]


class _ClassPairs:
    """Pairs of distinct same-class vertices on one side of a slice.

    Only vertices with an arc in the slice take part.  A class is drawn with
    probability proportional to C(|class|, 2) by binary search, then a uniform
    ordered pair inside it, so each unordered same-class pair has probability
    1/total.  Classes are invariant under the swaps, so the tables are built
    once.
    """

    def __init__(self, view, classes):
        groups = {}
        for x, neighbors in enumerate(view):
            if neighbors:
                groups.setdefault(classes[x], []).append(x)
        self.class_of = {x: k for k, members in groups.items() for x in members}
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

    def holds(self, x, y) -> bool:
        """Whether {x, y} is one of the pairs this source draws."""
        classes = self.class_of
        return x != y and x in classes and y in classes and classes[x] == classes[y]

    def sample_pair(self, rng):
        """A uniform ordered pair from a weight-picked class, or None."""
        if self.total == 0:
            return None
        draw = rng.randrange(self.total)
        return _pick_pair(rng, self.members[bisect_right(self.cumulative, draw)])


class _Pool(_ClassPairs):
    """Every vertex with an arc in the slice as one class, drawn without a
    class draw: the "degs" source."""

    def __init__(self, view):
        super().__init__(view, [None] * len(view))

    def sample_pair(self, rng):
        if self.total == 0:
            return None
        return _pick_pair(rng, self.members[0])


@dataclass(frozen=True)
class Slice:
    """The arcs of one direction, a bipartite graph of their own.

    views[LEFT][v] is the set of right vertices joined to left vertex v and
    views[RIGHT][a] the set of left vertices joined to right vertex a; both
    are the graph's own adjacency lists, so a swap through them updates it.
    sources lists the (side, pair source) routes a chain step may take.
    """

    direction: int
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
            sources = ((sender, _Pool(views[sender])),)
        elif model == "joint":
            sources = tuple(
                (side, _ClassPairs(views[side], degree_classes[side])) for side in (LEFT, RIGHT)
            )
        else:
            sources = ()
        slices[direction] = Slice(direction, views, sources)
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
        state.edge_list = sorted(G.edges())
    return state


# ---------------------------------------------------------------------------
# Swap application and the slice kernel
# ---------------------------------------------------------------------------


def _swap(near, far, x, x_end, y, y_end) -> None:
    """Swap arcs (x, x_end), (y, y_end) of one slice to (x, y_end), (y, x_end).

    near holds the neighbor sets of x and y, far those of x_end and y_end; the
    operation is the same whichever side x and y lie on.
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


def _draw_diff(rng, order: list, v: int, first: set, second: set):
    """(position, element) of a uniform element of first - second in v's
    draw list order[v], or None if the difference is empty.

    first is v's neighbour set; its list is built sorted on first use, so the
    draw depends only on the rng stream, not on set iteration order.
    """
    listed = order[v]
    if listed is None:
        listed = order[v] = sorted(first)
    for _ in range(_DRAW_TRIES):
        position = rng.randrange(len(listed))
        if listed[position] not in second:
            return position, listed[position]
    positions = [i for i, element in enumerate(listed) if element not in second]
    if not positions:
        return None
    position = positions[rng.randrange(len(positions))]
    return position, listed[position]


def _slice_step(state: ChainState) -> bool:
    """One "degs" or "joint" step; returns True when a swap was applied.

    The direction coin (heads probability |D+|/|D|) picks the slice; when
    the slice has two routes a fair coin picks the side.  Any shortage (no
    pair to draw, an empty crossed set) is a self-loop.
    """
    rng, slices = state.rng, state.slices
    piece = slices[+1] if rng.random() < state.heads_prob else slices[-1]
    routes = piece.sources
    side, pairs = routes[0] if len(routes) == 1 or rng.random() < 0.5 else routes[1]
    pair = pairs.sample_pair(rng)
    if pair is None:
        return False
    x, y = pair
    near, order = piece.views[side], state.order[piece.direction][side]
    x_draw = _draw_diff(rng, order, x, near[x], near[y])
    if x_draw is None:
        return False
    y_draw = _draw_diff(rng, order, y, near[y], near[x])
    if y_draw is None:
        return False
    (x_position, x_end), (y_position, y_end) = x_draw, y_draw
    _swap(near, piece.views[1 - side], x, x_end, y, y_end)
    order[x][x_position] = y_end
    order[y][y_position] = x_end
    far_order = state.order[piece.direction][1 - side]
    far_order[x_end] = far_order[y_end] = None
    return True


# One degree-preserving step on a state made with model="degs" and one
# joint-preserving step on a state made with model="joint" are the same
# kernel: the state's pair sources make the difference.
nudhy_degs_step = nudhy_joint_step = _slice_step


def step_probability(G: BipartiteDigraph, p: SwapProposal, model: str) -> float:
    """Probability that one "degs" or "joint" step on G proposes the swap p.

    Reads the kernel's own slice tables and sums over the routes that can
    draw p's endpoint pair.
    """
    if model not in ("degs", "joint"):
        raise ValueError(f"model must be 'degs' or 'joint', got {model!r}")
    piece = _slices(G, model)[p.direction]
    heads_prob = _default_heads_prob(G)
    coin = heads_prob if p.direction == +1 else 1.0 - heads_prob
    ends = ((p.left1, p.left2), (p.right1, p.right2))
    probability = 0.0
    for side, pairs in piece.sources:
        x, y = ends[side]
        near = piece.views[side]
        crossed = len(near[x] - near[y]) * len(near[y] - near[x])
        if crossed and pairs.holds(x, y):
            probability += coin / len(piece.sources) / (pairs.total * crossed)
    return probability


# ---------------------------------------------------------------------------
# Swap counting and the Metropolis-Hastings chain
# ---------------------------------------------------------------------------


def _co_degrees(left: list, right: list) -> list:
    """co[u][w] = |N(u) & N(w)| for the left vertices w != u that share a
    neighbour with u, one dict per left vertex u."""
    rows = []
    for u, neighbors in enumerate(left):
        row = dict(Counter(chain.from_iterable(right[a] for a in neighbors)))
        row.pop(u, None)
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


def nudhy_degs_mh_step(state: ChainState) -> bool:
    """One Metropolis-Hastings step on the degree ensemble.

    Uniform arc pairs are rejection-sampled until they form an applicable
    swap (u, a), (v, b) -> (u, b), (v, a), which is then accepted with
    probability min(1, d(G)/d(G')).  The swap changes only the co-degrees of
    u and v with gain = N(b) - N(a) - {v} and loss = N(a) - N(b) - {u}, so
    the swap-count delta and the table update read those two sets alone.
    Raises FrozenEnsembleError when the graph admits no swap at all.
    """
    rng = state.rng
    if state.swap_count == 0:
        raise FrozenEnsembleError("no applicable swap exists in this graph")
    edges = state.edge_list
    while True:
        i, j = _pick_pair(rng, range(len(edges)))
        u, a, d1 = edges[i]
        v, b, d2 = edges[j]
        if d1 != d2 or u == v or a == b:
            continue
        left, right = state.slices[d1].views
        if b in left[u] or a in left[v]:
            continue
        break
    co = state.co_degrees[d1]
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
    new_count = state.swap_count + 2 * d_bicliques - d_paths
    ratio = state.swap_count / new_count
    if ratio < 1.0 and rng.random() >= ratio:
        return False
    _shift(co, gain, u, v)
    _shift(co, loss, v, u)
    _swap(left, right, u, a, v, b)
    edges[i], edges[j] = (u, b, d1), (v, a, d1)
    state.swap_count = new_count
    return True


# ---------------------------------------------------------------------------
# Null sampler and the chain runner
# ---------------------------------------------------------------------------


def null_sample(H: DirectedHypergraph, seed: int) -> DirectedHypergraph:
    """Random hypergraph with H's head/tail size sequences, nodes drawn
    uniformly without replacement per side."""
    rng = random.Random(seed)
    n = H.num_nodes
    edges = []
    for e in H.expanded_edges():
        if len(e.head) > n or len(e.tail) > n:
            raise ValueError("hyperedge side larger than the node set")
        head = frozenset(rng.sample(range(n), len(e.head)))
        tail = frozenset(rng.sample(range(n), len(e.tail)))
        edges.append(Hyperedge(head, tail))
    labels = None if H.labels is None else list(H.labels)
    return DirectedHypergraph(edges, n, labels)


# The chain step of every swap model.
STEP_FUNCTIONS = {
    "degs": nudhy_degs_step,
    "joint": nudhy_joint_step,
    "degs-mh": nudhy_degs_mh_step,
}


def run_chain(H: DirectedHypergraph, config: ChainConfig):
    """Generate config.sample_count random hypergraphs from H's ensemble.

    By default each sample comes from an independent chain seeded by
    derive_seed(seed, "chain", index) and run for the resolved step count
    starting at H; with thinning < steps a single chain burns in `steps`
    steps, then emits every `thinning` steps.  Output is fully determined by
    (H, config).
    """
    if config.model == "null":
        for index in range(config.sample_count):
            yield null_sample(H, derive_seed(config.seed, "null", index))
        return
    G0 = to_bipartite(H)
    steps = config.resolved_steps(G0)
    step = STEP_FUNCTIONS[config.model]
    thinning = config.thinning if config.thinning is not None else steps
    for index in range(config.sample_count):
        fresh = index == 0 or thinning == steps
        if fresh:
            state = make_chain_state(
                G0.copy(), derive_seed(config.seed, "chain", index), config.model
            )
        for _ in range(steps if fresh else thinning):
            step(state)
        yield to_hypergraph(state.graph)
