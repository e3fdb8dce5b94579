"""Economic-complexity pipeline on country-product trade data.

From a table of yearly export/import values: Balassa specialization ratios
and the trade hypergraph, one hyperedge per product with specialized
exporters in the head and specialized importers in the tail (countries below
the standard population and trade floors left out).  On a trade hypergraph
or any null-model sample of it: the country-product biadjacency of its
heads, the country proximity matrix, and three country scores -- ECI
(spectral form of the coupled averaging equations), Fitness (non-linear
iteration), and GENEPY (top-2 eigenpairs of the proximity matrix) -- so
samples can rerank countries for comparison.
"""

from __future__ import annotations

import csv
import io
import logging
import warnings
from dataclasses import dataclass, field
from statistics import fmean, pstdev
from typing import NamedTuple

from .core import DirectedHypergraph, Hyperedge
from .diagnostics import kendall_tau, spearman

logger = logging.getLogger(__name__)

POPULATION_FLOOR = 1_000_000.0
TRADE_FLOOR = 1_000_000_000.0
TRADE_SIDES = ("export", "import")
FITNESS_MAX_ITER = 1000


class TradeRecord(NamedTuple):
    year: int
    country: str
    product: str
    export_value: float
    import_value: float


class CountryMeta(NamedTuple):
    population: float
    avg_trade: float


@dataclass(frozen=True)
class TradeTable:
    """Trade records plus optional per-country metadata for the filters."""

    records: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        for r in self.records:
            if r.export_value < 0 or r.import_value < 0:
                raise ValueError(f"negative trade value for {r.country}/{r.product}")
        for country, meta in self.metadata.items():
            if meta.population < 0 or meta.avg_trade < 0:
                raise ValueError(f"negative metadata for {country}")


def _rows(text: str, required, name: str):
    """The rows of CSV text as dicts, parsed as a file opened with newline=""."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    missing = set(required) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"{name} is missing columns: {sorted(missing)}")
    return reader


def parse_trade_table(trade_text: str, metadata_text: str | None = None) -> TradeTable:
    """Parse a trade CSV (year,country,product,export_value,import_value) and
    an optional metadata CSV (country,population,avg_trade) from their text."""
    records = []
    for row in _rows(
        trade_text,
        ("year", "country", "product", "export_value", "import_value"),
        "trade table",
    ):
        records.append(
            TradeRecord(
                int(row["year"]),
                row["country"],
                row["product"],
                float(row["export_value"]),
                float(row["import_value"]),
            )
        )
    metadata = {}
    if metadata_text is not None:
        for row in _rows(metadata_text, ("country", "population", "avg_trade"), "metadata table"):
            metadata[row["country"]] = CountryMeta(
                float(row["population"]), float(row["avg_trade"])
            )
    return TradeTable(tuple(records), metadata)


def read_trade_table(trade_path, metadata_path=None) -> TradeTable:
    """Load a trade CSV and an optional metadata CSV from their paths with
    parse_trade_table."""
    def text(path):
        with open(path, newline="") as handle:
            return handle.read()

    return parse_trade_table(
        text(trade_path), None if metadata_path is None else text(metadata_path)
    )


# ---------------------------------------------------------------------------
# RCA and the biadjacency
# ---------------------------------------------------------------------------


class RcaMatrix(NamedTuple):
    countries: tuple
    products: tuple
    values: np.ndarray


def rca(table: TradeTable, year: int, trade: str = "export") -> RcaMatrix:
    """Balassa specialization: a country's share of a product relative to
    the product's share of world trade, on the chosen side of the ledger.

    Entries whose denominators vanish (a country or product with no trade
    that year) are 0, with a warning.
    """
    import numpy as np
    if trade not in TRADE_SIDES:
        raise ValueError(f"trade must be one of {TRADE_SIDES}, got {trade!r}")
    rows = [r for r in table.records if r.year == year]
    if not rows:
        raise ValueError(f"year {year} is not present in the trade table")
    countries = tuple(sorted({r.country for r in rows}))
    products = tuple(sorted({r.product for r in rows}))
    c_index = {c: i for i, c in enumerate(countries)}
    p_index = {p: j for j, p in enumerate(products)}
    values = np.zeros((len(countries), len(products)))
    for r in rows:
        amount = r.export_value if trade == "export" else r.import_value
        values[c_index[r.country], p_index[r.product]] += amount
    by_country = values.sum(axis=1)
    by_product = values.sum(axis=0)
    total = values.sum()
    undefined = (by_country == 0.0)[:, None] | (by_product == 0.0)[None, :]
    if total == 0.0:
        undefined[:] = True
    if undefined.any():
        warnings.warn(
            f"{int(undefined.sum())} RCA entries had zero denominators; set to 0"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (values / by_country[:, None]) / (by_product / total)[None, :]
    return RcaMatrix(countries, products, np.where(undefined, 0.0, ratios))


@dataclass(frozen=True)
class Biadjacency:
    """0/1 country-product matrix with its row and column identities."""

    countries: tuple
    products: tuple
    matrix: np.ndarray


def _passes_filters(country: str, metadata: dict | None) -> bool:
    if not metadata:
        return True
    meta = metadata.get(country)
    if meta is None:
        return False
    return meta.population > POPULATION_FLOOR and meta.avg_trade > TRADE_FLOOR


def hypergraph_biadjacency(H: DirectedHypergraph) -> Biadjacency:
    """Country-product mask induced by a trade hypergraph: one column per
    hyperedge copy (a product), one row per node (a country), with a 1 where
    the country belongs to the copy's head, i.e. exports the product.  Rows
    and columns that end up empty are dropped (logged)."""
    import numpy as np
    expanded = list(H.expanded_edges())
    mask = np.zeros((H.num_nodes, len(expanded)))
    for j, e in enumerate(expanded):
        for v in e.head:
            mask[v, j] = 1.0
    countries = tuple(H.label_of(v) for v in range(H.num_nodes))
    rows, cols = mask.any(axis=1), mask.any(axis=0)
    if not rows.all() or not cols.all():
        logger.info(
            "dropped empty rows %s and columns %s",
            [countries[i] for i in np.flatnonzero(~rows)],
            np.flatnonzero(~cols).tolist(),
        )
    result = Biadjacency(
        tuple(countries[i] for i in np.flatnonzero(rows)),
        tuple(np.flatnonzero(cols).tolist()),
        mask[np.ix_(rows, cols)],
    )
    if result.matrix.size == 0:
        logger.error("biadjacency is empty: no head membership anywhere")
    return result


# ---------------------------------------------------------------------------
# Proximity, ECI/PCI, Fitness, GENEPY
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProximityMatrix:
    """Country-to-country proximity X (symmetric, zero diagonal)."""

    countries: tuple
    X: np.ndarray


def _degrees(B: Biadjacency):
    k_country = B.matrix.sum(axis=1)
    k_product = B.matrix.sum(axis=0)
    if (k_country == 0.0).any() or (k_product == 0.0).any():
        raise ValueError("zero-degree rows/columns must be dropped before this step")
    return k_country, k_product


def proximity(B: Biadjacency) -> ProximityMatrix:
    """W[c,p] = M[c,p] / (k_c * h_p) with h_p the degree-weighted product
    ubiquity; X = W W^T with the diagonal forced to zero."""
    import numpy as np
    k_country, _ = _degrees(B)
    ubiquity = (B.matrix / k_country[:, None]).sum(axis=0)
    W = B.matrix / (k_country[:, None] * ubiquity[None, :])
    X = W @ W.T
    np.fill_diagonal(X, 0.0)
    return ProximityMatrix(B.countries, X)


def _zscore(values: np.ndarray) -> np.ndarray:
    spread = values.std()
    if spread == 0.0:
        raise ValueError("cannot standardize a constant score vector")
    return (values - values.mean()) / spread


def eci_pci(B: Biadjacency):
    """Country and product complexity from the coupled averaging equations.

    The one-step operator of those equations is S = D_c^-1 M D_p^-1 M^T; its
    symmetric similar form T = D^-1/2 M D_p^-1 M^T D^-1/2 has the exact
    Perron vector D^1/2 1.  ECI is the eigenvector for the largest remaining
    eigenvalue after deflating that direction, mapped back through D^-1/2,
    standardized to mean 0 / variance 1, and oriented to correlate
    non-negatively with country degree.  PCI applies the product-side
    averaging once to ECI and standardizes.  A tie among the remaining top
    eigenvalues (within 1e-10) makes the index non-identifiable and raises.
    """
    import numpy as np
    if len(B.countries) < 2:
        raise ValueError("ECI needs at least two countries")
    k_country, k_product = _degrees(B)
    scaled = B.matrix / np.sqrt(k_country)[:, None] / np.sqrt(k_product)[None, :]
    T = scaled @ scaled.T
    perron = np.sqrt(k_country)
    perron /= np.linalg.norm(perron)
    deflated = T - np.outer(perron, perron)
    eigenvalues, eigenvectors = np.linalg.eigh(deflated)
    if eigenvalues[-1] - eigenvalues[-2] <= 1e-10:
        raise ValueError(
            "degenerate second eigenvalue: the complexity index is not identifiable"
        )
    eci = _zscore(eigenvectors[:, -1] / np.sqrt(k_country))
    correlation = np.corrcoef(eci, k_country)[0, 1]
    if correlation < 0:
        eci = -eci
    pci = _zscore((B.matrix.T @ eci) / k_product)
    return (tuple(float(x) for x in eci), tuple(float(x) for x in pci))


def fitness_quality(B: Biadjacency, initial_fitness=None, initial_quality=None):
    """Non-linear Fitness/Quality iteration, mean-normalized every round.

    Quality weights a product by the harmonic influence of its exporters'
    fitness; iteration stops when the largest relative change of either
    vector drops below 1e-9, and raises RuntimeError (with the residual) if
    FITNESS_MAX_ITER rounds are not enough.
    """
    import numpy as np
    _degrees(B)
    M = B.matrix
    fitness = np.ones(len(B.countries)) if initial_fitness is None else np.asarray(initial_fitness, dtype=float)
    quality = np.ones(len(B.products)) if initial_quality is None else np.asarray(initial_quality, dtype=float)
    if (fitness <= 0).any() or (quality <= 0).any():
        raise ValueError("initial scores must be positive")
    residual = np.inf
    for _ in range(FITNESS_MAX_ITER):
        raw_fitness = M @ quality
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            raw_quality = 1.0 / (M.T @ (1.0 / fitness))
        fresh_fitness = raw_fitness / raw_fitness.mean()
        fresh_quality = raw_quality / raw_quality.mean()
        if (
            not (np.isfinite(fresh_fitness).all() and np.isfinite(fresh_quality).all())
            or (fresh_fitness <= 0).any()
            or (fresh_quality <= 0).any()
        ):
            raise RuntimeError(
                "fitness iteration diverged: some score reached zero or overflowed"
            )
        residual = max(
            np.max(np.abs(fresh_fitness - fitness) / fitness),
            np.max(np.abs(fresh_quality - quality) / quality),
        )
        fitness, quality = fresh_fitness, fresh_quality
        if residual < 1e-9:
            return (
                tuple(float(x) for x in fitness),
                tuple(float(x) for x in quality),
            )
    raise RuntimeError(
        f"fitness iteration did not converge in {FITNESS_MAX_ITER} rounds (residual {residual:.3e})"
    )


def genepy(X: np.ndarray) -> tuple:
    """G(c) = (sum_i lambda_i e_ci^2)^2 + 2 sum_i lambda_i^2 e_ci^2 over the
    two largest eigenpairs of the symmetric proximity matrix."""
    import numpy as np
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError("proximity matrix must be square")
    if not np.allclose(X, X.T, atol=1e-12):
        raise ValueError("proximity matrix must be symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(X)
    top = min(2, X.shape[0])
    lam = eigenvalues[-top:][::-1]
    weight = eigenvectors[:, -top:][:, ::-1] ** 2
    scores = (weight @ lam) ** 2 + 2.0 * (weight @ lam**2)
    return tuple(float(g) for g in scores)


@dataclass(frozen=True)
class ComplexityScores:
    """All three country indices plus the product-side companions."""

    countries: tuple
    products: tuple
    eci: tuple
    pci: tuple
    fitness: tuple
    quality: tuple
    genepy: tuple


def complexity_scores(B: Biadjacency) -> ComplexityScores:
    """ECI/PCI, Fitness/Quality, and GENEPY for one biadjacency."""
    eci, pci = eci_pci(B)
    fitness, quality = fitness_quality(B)
    G = genepy(proximity(B).X)
    return ComplexityScores(B.countries, B.products, eci, pci, fitness, quality, G)


# ---------------------------------------------------------------------------
# Trade hypergraph and rank comparison
# ---------------------------------------------------------------------------


def trade_to_hypergraph(table: TradeTable, year: int, threshold: float = 1.0) -> DirectedHypergraph:
    """One hyperedge per product: head = countries exporting it with RCA
    strictly above the threshold, tail = countries importing it with import
    RCA strictly above the threshold.  Products with both sides empty are
    dropped; countries below the population/trade floors are excluded."""
    exports = rca(table, year, trade="export")
    imports = rca(table, year, trade="import")
    kept = [
        i for i, c in enumerate(exports.countries) if _passes_filters(c, table.metadata)
    ]
    node_of = {exports.countries[i]: n for n, i in enumerate(kept)}
    edges = []
    for j, _ in enumerate(exports.products):
        head = frozenset(
            node_of[exports.countries[i]] for i in kept if exports.values[i, j] > threshold
        )
        tail = frozenset(
            node_of[imports.countries[i]] for i in kept if imports.values[i, j] > threshold
        )
        if head or tail:
            edges.append(Hyperedge(head, tail))
    labels = [exports.countries[i] for i in kept]
    return DirectedHypergraph(edges, len(kept), labels=labels)


def rank_compare(observed: dict, samples: dict) -> list:
    """Spearman and Kendall agreement of sampled score vectors with the
    observed ones: one row per (sampler, score) with means and standard
    deviations across the samples."""
    rows = []
    for sampler in sorted(samples):
        for score in sorted(samples[sampler]):
            if score not in observed:
                raise ValueError(f"no observed scores for {score!r}")
            reference = observed[score]
            vectors = samples[sampler][score]
            rho = [spearman(reference, v) for v in vectors]
            tau = [kendall_tau(reference, v) for v in vectors]
            rows.append(
                {
                    "sampler": sampler,
                    "score": score,
                    "samples": len(vectors),
                    "spearman_mean": fmean(rho),
                    "spearman_std": pstdev(rho),
                    "kendall_mean": fmean(tau),
                    "kendall_std": pstdev(tau),
                }
            )
    return rows
