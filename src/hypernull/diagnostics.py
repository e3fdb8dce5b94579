"""Chain-convergence diagnostics and rank-comparison statistics.

Convergence is tracked through frequent itemsets: the heads (or tails) of a
hypergraph form a transaction database, and the average relative support
difference (ARSD) of the observed graph's top frequent itemsets measures how
far a randomized sample has drifted.  A chain has mixed once its ARSD trace
flattens.  The module also provides the rank statistics used to compare
observed and randomized metric rankings (Spearman, Kendall's tau-b).
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right, insort
from collections import Counter

from hypernull.core import SIDES, DirectedHypergraph, check_side
from hypernull.sampling import STEP_FUNCTIONS, ChainConfig, arc_count, run_chain


def transaction_db(H: DirectedHypergraph, side: str) -> tuple:
    """One side of H as an itemset database: a tuple of frozensets, one
    transaction per hyperedge copy."""
    check_side(side)
    return tuple(e.head if side == "head" else e.tail for e in H.edges)


def _mine_at_threshold(item_bits, threshold, min_len, cap=None):
    """All itemsets with support >= threshold and length >= min_len, as
    (sorted item tuple, support) pairs.  One depth-first walk over the item
    bitsets (bit i set when transaction i holds the item) extends each itemset
    only by later items still frequent with it.  With cap, stops as soon as
    cap results are found (used only to answer "are there at least cap?")."""
    results = []

    def walk(prefix, bits, candidates):
        extensions = [
            (item, joined)
            for item, other in candidates
            if (joined := bits & other).bit_count() >= threshold
        ]
        for index, (item, joined) in enumerate(extensions):
            itemset = prefix + (item,)
            if len(itemset) >= min_len:
                results.append((itemset, joined.bit_count()))
                if len(results) == cap:
                    return True
            if walk(itemset, joined, extensions[index + 1 :]):
                return True
        return False

    walk((), -1, sorted(item_bits.items()))  # -1 has every transaction's bit set
    return results


def mine_top_frequent(db: tuple, f: int = 20, l: int = 3) -> tuple:
    """Exact top-f frequent itemsets of length >= l, as (itemset, support)
    pairs sorted by support descending with lexicographic tie-breaking.

    The support threshold of the f-th best itemset is located by binary
    search (each probe counts itemsets above a candidate threshold, stopping
    at f), then one full mining pass at that threshold is sorted and cut.
    """
    if f < 1 or l < 1:
        raise ValueError("f and l must be positive")
    item_bits = {}
    for index, transaction in enumerate(db):
        for item in transaction:
            item_bits[item] = item_bits.get(item, 0) | 1 << index
    low, high = 1, len(db)
    while low < high:
        mid = (low + high + 1) // 2
        if len(_mine_at_threshold(item_bits, mid, l, cap=f)) >= f:
            low = mid
        else:
            high = mid - 1
    mined = _mine_at_threshold(item_bits, low, l)
    mined.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple((frozenset(items), support) for items, support in mined[:f])


def arsd(observed: tuple, sample: tuple, fi: tuple) -> float:
    """Average relative support difference of the mined itemsets fi between
    the two databases: (1/|FI|) sum over A of |supp_obs(A) - supp_sample(A)| / supp_obs(A)."""
    if not fi:
        raise ValueError("no frequent itemsets to compare")
    total = 0.0
    for itemset, _ in fi:
        supp_obs = sum(1 for t in observed if itemset <= t)
        supp_sample = sum(1 for t in sample if itemset <= t)
        if supp_obs == 0:
            raise ValueError("mined itemset has zero support in the observed database")
        total += abs(supp_obs - supp_sample) / supp_obs
    return total / len(fi)


def arsd_trace(
    H: DirectedHypergraph,
    model: str = "degs",
    seed: int = 0,
    f: int = 20,
    l: int = 3,
    max_multiplier: int = 50,
) -> dict:
    """ARSD of one continuously-run chain at checkpoints k = 0..max_multiplier,
    taken every w = arc_count(H) steps, the number of bipartite arcs.

    Checkpoint k is sample k of run_chain(H, ChainConfig(model, 0, seed,
    max_multiplier + 1, thinning=w)).  Returns {side: [(k, arsd), ...]} with
    a side present only when the observed database yields at least one
    frequent itemset at (f, l); with no such side the chain is not run.  A
    side whose mined itemsets reach down to support 1 draws a RuntimeWarning.
    """
    if model not in STEP_FUNCTIONS:
        raise ValueError(f"model must be one of {sorted(STEP_FUNCTIONS)}, got {model!r}")
    if max_multiplier < 0:
        raise ValueError(f"max_multiplier must be non-negative, got {max_multiplier}")
    observed = {side: transaction_db(H, side) for side in SIDES}
    mined = {side: mine_top_frequent(observed[side], f, l) for side in SIDES}
    sides = [side for side in SIDES if mined[side]]
    if not sides:
        return {}
    for side in sides:
        if mined[side][-1][1] == 1:
            warnings.warn(f"{side} side: the lowest support among the mined itemsets is 1, so "
                          "its ARSD only tracks whether single hyperedges survive", RuntimeWarning)
    config = ChainConfig(model, 0, seed, max_multiplier + 1, thinning=arc_count(H))
    trace = {side: [] for side in sides}
    for k, sample in enumerate(run_chain(H, config)):
        for side in sides:
            value = arsd(observed[side], transaction_db(sample, side), mined[side])
            trace[side].append((k, value))
    return trace


# A trace has flattened once the least-squares slope of its last PLATEAU_WINDOW
# values is below PLATEAU_REL_TOL times their mean.
PLATEAU_WINDOW = 10
PLATEAU_REL_TOL = 0.01


def plateau_checkpoint(values):
    """Index of the first checkpoint at which the trace has flattened, or None if it never does."""
    xs = list(range(PLATEAU_WINDOW))
    x_mean = (PLATEAU_WINDOW - 1) / 2
    x_var = sum((x - x_mean) ** 2 for x in xs)
    for end in range(PLATEAU_WINDOW, len(values) + 1):
        ys = values[end - PLATEAU_WINDOW : end]
        y_mean = sum(ys) / PLATEAU_WINDOW
        slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / x_var
        if abs(slope) < PLATEAU_REL_TOL * max(abs(y_mean), 1e-12):
            return end - 1
    return None


# ---------------------------------------------------------------------------
# Rank statistics
# ---------------------------------------------------------------------------


def _average_ranks(values):
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        averaged = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = averaged
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks.

    Returns nan when either input is constant (the correlation is undefined).
    """
    x, y = list(x), list(y)
    if len(x) != len(y):
        raise ValueError("rankings must have equal length")
    n = len(x)
    if n < 2:
        raise ValueError("need at least two items")
    rx, ry = _average_ranks(x), _average_ranks(y)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return math.nan
    return cov / math.sqrt(vx * vy)


def _tie_pairs(values):
    return sum(c * (c - 1) // 2 for c in Counter(values).values())


def kendall_tau(x, y) -> float:
    """Kendall's tau-b (tie-corrected); the discordant pairs are the
    inversions of y in (x, y) order, counted against a sorted prefix.

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
    seen, discordant = [], 0
    for _, b in paired:
        discordant += len(seen) - bisect_right(seen, b)
        insort(seen, b)
    denominator = (n0 - ties_x) * (n0 - ties_y)
    if denominator == 0:
        return math.nan
    numerator = n0 - ties_x - ties_y + ties_both - 2 * discordant
    return numerator / math.sqrt(denominator)
