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

from hypernull.core import SIDES, DirectedHypergraph, check_side
from hypernull.sampling import STEP_FUNCTIONS, ChainConfig, run_chain


def transaction_db(H: DirectedHypergraph, side: str) -> tuple:
    """One side of H as an itemset database: a tuple of frozensets, one
    transaction per hyperedge copy."""
    check_side(side)
    return tuple(e.head if side == "head" else e.tail for e in H.expanded_edges())


def _mine_at_threshold(item_tids, threshold, min_len, cap=None):
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


def mine_top_frequent(db: tuple, f: int = 20, l: int = 3) -> tuple:
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
        if len(_mine_at_threshold(item_tids, mid, l, cap=f)) >= f:
            low = mid
        else:
            high = mid - 1
    mined = _mine_at_threshold(item_tids, low, l)
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
    taken every w steps, where w is the number of bipartite arcs.

    Checkpoint k is sample k of run_chain(H, ChainConfig(model, 0, seed,
    max_multiplier + 1, thinning=w)).  Returns {side: [(k, arsd), ...]} with
    a side present only when the observed database yields at least one
    frequent itemset at (f, l); with no such side the chain is not run.
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
    w = sum(len(transaction) for side in SIDES for transaction in observed[side])
    config = ChainConfig(model, 0, seed, max_multiplier + 1, thinning=w)
    trace = {side: [] for side in sides}
    for k, sample in enumerate(run_chain(H, config)):
        for side in sides:
            value = arsd(observed[side], transaction_db(sample, side), mined[side])
            trace[side].append((k, value))
    return trace


def plateau_checkpoint(values, window: int = 10, rel_tol: float = 0.01):
    """Index of the first checkpoint whose trailing `window` values have a
    least-squares slope smaller than rel_tol relative to the window mean, or
    None when the trace never flattens."""
    xs = list(range(window))
    x_mean = (window - 1) / 2
    x_var = sum((x - x_mean) ** 2 for x in xs)
    for end in range(window, len(values) + 1):
        ys = values[end - window : end]
        y_mean = sum(ys) / window
        slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / x_var
        if abs(slope) < rel_tol * max(abs(y_mean), 1e-12):
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


def kendall_tau(x, y) -> float:
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
