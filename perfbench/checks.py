"""Output checks computed apart from the hypernull package.

Every check reads the program's output files (never its manifest) and either
recomputes the quantity with its own code and numpy/scipy, or tests a
property the method must have.  A check raises CheckFailed on a wrong output.
Edges are (head, tail) pairs of frozensets of external node ids, as written
in the input files; the program numbers nodes by sorted external id.
"""

from __future__ import annotations

import csv
import itertools
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import svds
from scipy.stats import spearmanr

from instances import parse_directed


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def nodes_of(edges):
    return sorted(set().union(*(h | t for h, t in edges)))


def _degrees(edges):
    """Per node (tail count, head count), i.e. (in-degree, out-degree)."""
    deg = Counter()
    for h, t in edges:
        for v in h:
            deg[v, "out"] += 1
        for v in t:
            deg[v, "in"] += 1
    return {v: (deg[v, "in"], deg[v, "out"]) for v in nodes_of(edges)}


def _joint(edges):
    """Arcs counted by (in, out) of the node and (head, tail) size of the edge."""
    deg = _degrees(edges)
    counts = Counter()
    for h, t in edges:
        for v in h:
            counts[(*deg[v], len(h), len(t), +1)] += 1
        for v in t:
            counts[(*deg[v], len(h), len(t), -1)] += 1
    return counts


def _size_pairs(edges):
    return Counter((len(h), len(t)) for h, t in edges)


# ---------------------------------------------------------------------------
# sample / convert
# ---------------------------------------------------------------------------


def check_samples(observed, directory, model, count):
    """Each of the `count` samples keeps what its model must keep, and moved."""
    files = sorted(Path(directory).glob("*.dhg"))
    require(
        [f.name for f in files] == [f"sample_{i}.dhg" for i in range(count)],
        f"{directory}: expected {count} sample files, found {[f.name for f in files]}",
    )
    for path in files:
        check_sample(observed, parse_directed(path.read_text(encoding="utf-8")), model)


def check_sample(observed, sample, model):
    require(_size_pairs(sample) == _size_pairs(observed), "(head, tail) sizes changed")
    require(Counter(sample) != Counter(observed), "sample equals the observed graph")
    if model == "null":
        require(set(nodes_of(sample)) <= set(nodes_of(observed)), "unknown node id")
        return
    require(_degrees(sample) == _degrees(observed), "node in/out-degrees changed")
    if model == "joint":
        require(_joint(sample) == _joint(observed), "joint degree tensor changed")


def check_lifted(undirected, path):
    """convert --to directed: every edge becomes head = tail = the edge."""
    lifted = parse_directed(Path(path).read_text(encoding="utf-8"))
    require(all(h == t for h, t in lifted), "lifted edge with head != tail")
    require(Counter(h for h, _ in lifted) == Counter(undirected), "edge multiset changed")


# ---------------------------------------------------------------------------
# metric centrality / spectrum / coreness
# ---------------------------------------------------------------------------


def _close(found, expected, atol, what):
    found = np.asarray(found, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(found.shape == expected.shape, f"{what}: {found.shape} != {expected.shape}")
    gap = float(np.max(np.abs(found - expected), initial=0.0))
    require(gap <= atol, f"{what}: off by {gap:.3g} (tolerance {atol:g})")


def check_pagerank(observed, rows, damping=0.85):
    """The observed PageRank column solves x = d (P^T x + dangling/n) + (1-d)/n."""
    nodes = nodes_of(observed)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    W = np.zeros((n, n))
    for h, t in observed:
        for u in h:
            for v in t:
                W[index[u], index[v]] += 1.0
    out = W.sum(axis=1)
    P = np.divide(W, out[:, None], out=np.zeros_like(W), where=out[:, None] > 0)
    dangling = (out == 0).astype(float)
    A = np.eye(n) - damping * (P.T + np.outer(np.ones(n), dangling) / n)
    x = np.linalg.solve(A, np.full(n, (1.0 - damping) / n))
    found = [float(r["pagerank"]) for r in rows]
    _close(found, x[[index[int(r["node"])] for r in rows]], 1e-7, "pagerank")


def check_hits(observed, rows):
    """Observed hubs and authorities are the top singular vectors of the
    bipartite adjacency (left nodes, then one right vertex per edge copy)."""
    nodes = nodes_of(observed)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    size = n + len(observed)
    src, dst = [], []
    for a, (h, t) in enumerate(observed):
        for v in h:
            src.append(index[v])
            dst.append(n + a)
        for v in t:
            src.append(n + a)
            dst.append(index[v])
    A = coo_matrix((np.ones(len(src)), (src, dst)), shape=(size, size)).tocsr()
    u, _, vt = svds(A, k=1, tol=0, random_state=0)
    hubs, auths = u[:, 0], vt[0]
    hubs = hubs * np.sign(hubs.sum())
    auths = auths * np.sign(auths.sum())
    order = [index[int(r["node"])] for r in rows]
    _close([float(r["hub"]) for r in rows], hubs[order], 1e-6, "hubs")
    _close([float(r["authority"]) for r in rows], auths[order], 1e-6, "authorities")


def multi_order_laplacian(observed):
    """Sum over orders d = 2..min(8, max size) of (d K(d) - A(d)) / mean K(d),
    on the undirected merge (head | tail) of every edge copy; order = size."""
    nodes = nodes_of(observed)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    merged = [sorted(index[v] for v in h | t) for h, t in observed]
    D = min(8, max(len(m) for m in merged))
    L = np.zeros((n, n))
    for d in range(2, D + 1):
        members = [m for m in merged if len(m) == d]
        if not members:
            continue
        K = np.zeros(n)
        A = np.zeros((n, n))
        for m in members:
            K[m] += 1.0
            for u, v in itertools.combinations(m, 2):
                A[u, v] += 1.0
                A[v, u] += 1.0
        L += (d * np.diag(K) - A) / (K.sum() / n)
    return L


def check_spectrum(observed, rows):
    expected = np.linalg.eigvalsh(multi_order_laplacian(observed))[: len(rows)]
    require([int(r["index"]) for r in rows] == list(range(len(rows))), "spectrum index")
    found = [float(r["observed"]) for r in rows]
    _close(found, expected, 1e-8 * max(1.0, float(np.abs(expected).max())), "spectrum")


def hypercoreness(observed, side):
    """Naive fixed-point (k, m)-core peel: a node stays while at least k
    edges hold it on the tracked side with (alive tracked + other side) >= m."""
    nodes = nodes_of(observed)
    index = {v: i for i, v in enumerate(nodes)}
    tracked = np.zeros((len(observed), len(nodes)))
    extras = np.zeros(len(observed))
    for a, (h, t) in enumerate(observed):
        mine, other = (h, t) if side == "head" else (t, h)
        tracked[a, [index[v] for v in mine]] = 1.0
        extras[a] = len(other)
    total = np.zeros(len(nodes))
    for m in range(2, max(len(h) + len(t) for h, t in observed) + 1):
        alive = tracked.any(axis=0)
        k = 1
        while alive.any():
            while True:
                qualifying = (tracked @ alive + extras) >= m
                keep = alive & ((qualifying @ tracked) * alive >= k)
                if (keep == alive).all():
                    break
                alive = keep
            total += alive
            k += 1
    return dict(zip(nodes, total))


def check_coreness(observed, rows, side):
    expected = hypercoreness(observed, side)
    found = {int(r["node"]): float(r["observed"]) for r in rows}
    require(set(found) == set(expected), "coreness node set")
    wrong = [v for v in expected if found[v] != expected[v]]
    require(not wrong, f"{side} coreness differs at nodes {wrong[:5]}")


# ---------------------------------------------------------------------------
# econ
# ---------------------------------------------------------------------------


def reference_eci(observed, iterations=20000, tol=1e-13):
    """ECI by power iteration on S = D_c^-1 M D_p^-1 M^T with the Perron
    direction (the constant vector, stationary weights k_c) projected out."""
    countries = sorted(set().union(*(h for h, _ in observed)))
    index = {c: i for i, c in enumerate(countries)}
    columns = [h for h, _ in observed if h]
    M = np.zeros((len(countries), len(columns)))
    for j, h in enumerate(columns):
        M[[index[c] for c in h], j] = 1.0
    k_c, k_p = M.sum(axis=1), M.sum(axis=0)
    S = (M / k_c[:, None]) @ (M / k_p[None, :]).T
    weights = k_c / k_c.sum()
    x = np.random.default_rng(0).random(len(countries))
    for _ in range(iterations):
        fresh = S @ x
        fresh -= weights @ fresh
        fresh /= np.linalg.norm(fresh)
        done = np.linalg.norm(fresh - x) < tol
        x = fresh
        if done:
            break
    if np.corrcoef(x, k_c)[0, 1] < 0:
        x = -x
    return dict(zip(countries, x))


def check_eci(observed, rows):
    expected = reference_eci(observed)
    found = {int(r["country"]): float(r["eci"]) for r in rows}
    require(set(found) == set(expected), "ECI country set")
    keys = sorted(expected)
    rho = spearmanr([found[c] for c in keys], [expected[c] for c in keys])[0]
    require(rho >= 0.999, f"ECI Spearman {rho:.5f} against the iterative reference")


def check_rank_compare(rows, samples):
    """samples: {sampler: number of sample files}."""
    require(
        sorted((r["sampler"], r["score"]) for r in rows)
        == sorted(itertools.product(samples, ("eci", "fitness", "genepy"))),
        "econ compare rows",
    )
    for r in rows:
        require(int(r["samples"]) == samples[r["sampler"]], "econ compare sample count")
        for key in ("spearman_mean", "kendall_mean"):
            require(-1.0 <= float(r[key]) <= 1.0, f"{key} out of [-1, 1]")
        for key in ("spearman_std", "kendall_std"):
            require(float(r[key]) >= 0.0, f"{key} negative")


# ---------------------------------------------------------------------------
# converge / reciprocity / entropy / contagion
# ---------------------------------------------------------------------------


def check_converge(rows, max_k):
    require(rows, "empty ARSD trace")
    for side in {r["side"] for r in rows}:
        ks = [int(r["k"]) for r in rows if r["side"] == side]
        require(ks == list(range(max_k + 1)), f"{side}: checkpoints {ks[:3]}...")
    for r in rows:
        value = float(r["arsd"])
        if int(r["k"]) == 0:
            require(value == 0.0, f"ARSD at k = 0 is {value}, not 0")
        require(0.0 <= value < float("inf"), f"ARSD {value} out of range")


def check_reciprocity(rows, samples):
    require(len(rows) == 1 and int(rows[0]["samples"]) == samples, "reciprocity rows")
    for key in ("observed", "sample_mean"):
        require(0.0 <= float(rows[0][key]) <= 1.0, f"reciprocity {key} out of [0, 1]")


def check_entropy(rows):
    require(rows, "no entropy groups")
    for r in rows:
        require(0.0 <= float(r["entropy"]) <= 1.0, f"entropy {r['entropy']} out of [0, 1]")


def check_contagion(rows, sources, nus, grid):
    require(len(rows) == sources * len(nus) * len(grid), "contagion row count")
    curves = {}
    for r in rows:
        rho, std = float(r["rhoMean"]), float(r["rhoStd"])
        require(0.0 <= rho <= 1.0 and std >= 0.0, f"density {rho} +- {std} out of range")
        curves.setdefault((r["sampler"], r["sampleId"], float(r["nu"])), []).append(
            (float(r["lambda"]), rho)
        )
    for key, curve in curves.items():
        curve.sort()
        require(
            curve[-1][1] > max(curve[0][1], 0.0),
            f"{key}: density does not rise across the threshold",
        )
