"""Deterministic workload instances and the benchmark's own text format I/O.

``metabolic_scale`` and ``contact_scale`` copy the acceptance suite's
generators of the same names; ``trade_like`` is the synthetic stand-in for the
paper's largest (country x product trade) hypergraph.  Everything here is
independent of the ``hypernull`` package: edges are (head, tail) pairs of
frozensets of integer node ids, and undirected edges are plain frozensets.
"""

from __future__ import annotations

import random

import numpy as np


def metabolic_scale(seed, n=702, m=923):
    """~700 nodes, ~900 hyperedges, side sizes mostly 1-4 with a tail up to 9."""
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        a = min(rng.randint(1, 4) + (rng.random() < 0.08) * rng.randint(1, 5), 9)
        b = min(rng.randint(1, 4) + (rng.random() < 0.08) * rng.randint(1, 5), 9)
        edges.append(
            (frozenset(rng.sample(range(n), a)), frozenset(rng.sample(range(n), b)))
        )
    return edges


def contact_scale(seed):
    """243 nodes and 1188 undirected interaction edges of sizes 2-4."""
    rng = random.Random(seed)
    n = 243
    edges = []
    for size, count in ((2, 731), (3, 439), (4, 18)):
        for _ in range(count):
            edges.append(frozenset(rng.sample(range(n), size)))
    return edges


def trade_like(seed, n=133, m=4600, head_mean=16.0, tail_mean=20.0, locality=5.0):
    """Country x product hypergraph: one edge per product, head = exporters,
    tail = importers, side sizes exponential with the given means (at least
    1, at most n).

    Exporters cluster like real trade: every country has a capability and
    every product a complexity, both uniform on [0, 1], and a product's
    exporters are a weighted draw without replacement (Gumbel top-k) with
    log-weight -locality * |capability - complexity|.  That gives the
    country-product matrix a well separated second eigenvector, so the
    economic complexity index is well defined, and keeps the Fitness
    iteration convergent (a strongly nested matrix does not converge).
    Importers are a uniform draw.
    """
    rng = np.random.default_rng(seed)
    capability = rng.random(n)
    edges = []
    for _ in range(m):
        complexity = rng.random()
        a = int(min(n, max(1, round(rng.exponential(head_mean)))))
        b = int(min(n, max(1, round(rng.exponential(tail_mean)))))
        keys = -locality * abs(capability - complexity) + rng.gumbel(size=n)
        head = frozenset(int(v) for v in np.argpartition(-keys, a - 1)[:a])
        tail = frozenset(int(v) for v in rng.choice(n, size=b, replace=False))
        edges.append((head, tail))
    return edges


def format_directed(edges) -> str:
    return "".join(
        ",".join(map(str, sorted(h))) + "|" + ",".join(map(str, sorted(t))) + "\n"
        for h, t in edges
    )


def format_undirected(edges) -> str:
    return "".join(",".join(map(str, sorted(e))) + "\n" for e in edges)


def parse_directed(text: str):
    """Edges of a directed hypergraph file, one (head, tail) per line copy."""
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, tail = line.split("|")
        edges.append((_side(head), _side(tail)))
    return edges


def _side(text):
    return frozenset(int(tok) for tok in text.split(",") if tok.strip())
