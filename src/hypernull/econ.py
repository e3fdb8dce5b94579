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
import math
import warnings
from dataclasses import dataclass, field
from itertools import compress, islice
from pathlib import Path
from statistics import fmean, pstdev
from typing import NamedTuple

import numpy as np

from .core import DirectedHypergraph, Hyperedge, incidence_matrix
from .diagnostics import kendall_tau, spearman

POPULATION_FLOOR = 1_000_000.0
TRADE_FLOOR = 1_000_000_000.0
FITNESS_MAX_ITER = 1000


class CountryMeta(NamedTuple):
    population: float
    avg_trade: float


@dataclass(frozen=True)
class TradeTable:
    """A trade CSV's columns, each a tuple in file row order, plus optional
    per-country metadata for the filters."""

    years: tuple
    countries: tuple
    products: tuple
    exports: tuple
    imports: tuple
    metadata: dict = field(default_factory=dict)


def _numbers(convert, strings) -> tuple | None:
    """strings converted by convert (str, int or float), or None unless every
    number is finite and >= 0."""
    try:
        values = tuple(map(convert, strings))
        valid = convert is str or all(map(math.isfinite, values)) and min(values, default=0) >= 0
    except (ValueError, OverflowError):  # not a number, or an int past every float
        return None
    return values if valid else None


def _columns(text: str, name: str, converts: dict) -> list:
    """The named columns of CSV text, read as a file opened with newline=""
    reads it, each a tuple in row order converted by its function (see
    _numbers); blank lines are skipped and other columns ignored.  ValueError
    on a missing column, and, naming the line, on a row that csv rejects or
    whose field count is not the header's, and on a number not finite and >= 0."""
    reader = csv.reader(io.StringIO(text, newline=""))
    fields = []  # column j is every width-th field from j
    try:
        header = next(reader, [])
        missing = set(converts) - set(header)
        if missing:
            raise ValueError(f"{name} is missing columns: {sorted(missing)}")
        width = len(header)
        for row in reader:
            if len(row) != width and row:
                raise ValueError(f"{name} line {reader.line_num}: {len(row)} fields, the header has {width}")
            fields += row
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise ValueError(f"{name} line {reader.line_num}: {exc}") from None
    index = {column: j for j, column in enumerate(header)}
    columns = []
    for column, convert in converts.items():
        strings = fields[index[column]::width]
        values = _numbers(convert, strings)
        if values is None:
            i = next(i for i, string in enumerate(strings) if _numbers(convert, (string,)) is None)
            lines = csv.reader(io.StringIO(text, newline=""))  # a row's line is its last
            line = next(islice((lines.line_num for row in lines if row), i + 1, None))
            raise ValueError(f"{name} line {line}, column {column}: {strings[i]!r} is not a finite number >= 0")
        columns.append(values)
    return columns


def parse_trade_table(trade_text: str, metadata_text: str | None = None) -> TradeTable:
    """Parse a trade CSV (year,country,product,export_value,import_value) and
    an optional metadata CSV (country,population,avg_trade) from their text."""
    trade = _columns(trade_text, "trade table", {
        "year": int, "country": str, "product": str, "export_value": float, "import_value": float,
    })
    metadata = {}
    if metadata_text is not None:
        converts = {"country": str, "population": float, "avg_trade": float}
        countries, population, avg_trade = _columns(metadata_text, "metadata table", converts)
        metadata = dict(zip(countries, map(CountryMeta, population, avg_trade)))
    return TradeTable(*trade, metadata)


def read_trade_table(trade_path, metadata_path=None) -> TradeTable:
    """Load a trade CSV and an optional metadata CSV from their paths with
    parse_trade_table, decoding their bytes as UTF-8 as the CLI does."""
    metadata = None if metadata_path is None else Path(metadata_path).read_bytes().decode("utf-8")
    return parse_trade_table(Path(trade_path).read_bytes().decode("utf-8"), metadata)


# ---------------------------------------------------------------------------
# RCA and the biadjacency
# ---------------------------------------------------------------------------


def rca(values: np.ndarray) -> np.ndarray:
    """Balassa specialization of a country x product matrix of trade values:
    a country's share of a product relative to the product's share of world
    trade.

    Entries whose denominators vanish (a country or product with no trade)
    are 0, with a warning.
    """
    by_country = values.sum(axis=1)
    by_product = values.sum(axis=0)
    total = values.sum()
    undefined = (by_country == 0.0)[:, None] | (by_product == 0.0)[None, :]
    if total == 0.0:
        undefined[:] = True
    if undefined.any():
        warnings.warn(f"{int(undefined.sum())} RCA entries had zero denominators; set to 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (values / by_country[:, None]) / (by_product / total)[None, :]
    return np.where(undefined, 0.0, ratios)


@dataclass(frozen=True)
class Biadjacency:
    """0/1 country-product matrix with its row and column identities."""

    countries: tuple
    products: tuple
    matrix: np.ndarray


def hypergraph_biadjacency(H: DirectedHypergraph) -> Biadjacency:
    """Country-product mask induced by a trade hypergraph: one column per
    hyperedge copy (a product), one row per node (a country), with a 1 where
    the country belongs to the copy's head, i.e. exports the product.  Rows
    and columns that end up empty are dropped; with no head membership
    anywhere nothing is left, which raises ValueError."""
    mask = incidence_matrix(H.num_nodes, [e.head for e in H.edges])
    rows, cols = mask.any(axis=1), mask.any(axis=0)
    if not rows.any():
        raise ValueError("biadjacency is empty: no head membership anywhere")
    countries = tuple(H.label_of(v) for v in range(H.num_nodes))
    return Biadjacency(
        tuple(countries[i] for i in np.flatnonzero(rows)),
        tuple(np.flatnonzero(cols).tolist()),
        mask[np.ix_(rows, cols)],
    )


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
        raise ValueError("degenerate second eigenvalue: the complexity index is not identifiable")
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
            raise RuntimeError("fitness iteration diverged: some score reached zero or overflowed")
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
    dropped; countries below the population/trade floors are excluded.  A
    year with no rows, or a threshold that is not finite, raises ValueError."""
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    chosen = [y == year for y in table.years]
    if not any(chosen):
        raise ValueError(f"year {year} is not present in the trade table")
    row_countries = list(compress(table.countries, chosen))
    row_products = list(compress(table.products, chosen))
    countries = sorted(set(row_countries))
    products = sorted(set(row_products))
    c_index = {c: i for i, c in enumerate(countries)}
    p_index = {p: j for j, p in enumerate(products)}
    shape = (len(countries), len(products))
    # Each row's amount lands on its flat cell, summed in row order.
    n = len(row_countries)
    cells = np.fromiter(map(c_index.__getitem__, row_countries), np.intp, n) * shape[1]
    cells += np.fromiter(map(p_index.__getitem__, row_products), np.intp, n)

    def matrix(amounts):
        weights = np.fromiter(compress(amounts, chosen), float, n)
        return np.bincount(cells, weights=weights, minlength=shape[0] * shape[1]).reshape(shape)

    exports = rca(matrix(table.exports))
    imports = rca(matrix(table.imports))
    meta = table.metadata
    kept = [
        i for i, c in enumerate(countries)
        if not meta or c in meta and meta[c].population > POPULATION_FLOOR and meta[c].avg_trade > TRADE_FLOOR
    ]
    # Node n is the n-th kept country; row j of each transposed mask is product j.
    heads = exports[kept].T > threshold
    tails = imports[kept].T > threshold
    edges = [
        Hyperedge(frozenset(np.flatnonzero(head).tolist()), frozenset(np.flatnonzero(tail).tolist()))
        for head, tail in zip(heads, tails)
        if head.any() or tail.any()
    ]
    return DirectedHypergraph(edges, len(kept), labels=[countries[i] for i in kept])


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
