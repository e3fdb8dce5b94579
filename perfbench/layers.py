"""The traced pass: one round with a span around every subcommand, then a
span around each call into the package's public functions, per layer.

Only entry points that stay public are called: the CLI, `run_chain` with
`ChainConfig`, and the module-level parse, convert, metric, score and
contagion functions.  Layers the workload's own subcommands never reach are
timed on the same instance where the call is feasible, and otherwise on a
stated stand-in (see PROBE_PREFIX and econ_instance), so that every
per-layer metric exists on every workload.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

from workloads import CONVERGE_MAX_K, WORKLOADS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypernull.contagion import SISConfig, run_quasi_stationary  # noqa: E402
from hypernull.core import (  # noqa: E402
    DirectedHypergraph,
    Hyperedge,
    compute_joint,
    degree_profile,
    format_hypergraph,
    merge_to_undirected,
    parse_hypergraph,
    to_bipartite,
    to_hypergraph,
)
from hypernull.diagnostics import (  # noqa: E402
    arsd_trace,
    mine_top_frequent,
    plateau_checkpoint,
    transaction_db,
)
from hypernull.econ import complexity_scores, hypergraph_biadjacency, rank_compare  # noqa: E402
from hypernull.sampling import ChainConfig, run_chain  # noqa: E402
from hypernull.structure import (  # noqa: E402
    hits,
    hyper_core_decomposition,
    hypergraph_reciprocity,
    laplacian_spectrum,
    pagerank,
    project_weighted,
    structural_entropy,
)

MODELS = ("degs", "joint", "degs-mh")
# Steps of the fixed-length chain whose time, minus a zero-step run, gives steps/s.
CHAIN_STEPS = {
    "metabolic": {"degs": 100_000, "joint": 100_000, "degs-mh": 50_000},
    "trade": {"degs": 20_000, "joint": 15_000, "degs-mh": 400},
    "contact": {"degs": 100_000, "joint": 100_000, "degs-mh": 50_000},
}
# On `trade` these calls take minutes on the full instance (see CHANGES.md), so
# they run on the first N edges of it in canonical order.  (A prefix is not
# cheaper everywhere: on `contact` reciprocity takes 14 s on all 1188 edges
# but 30 s on the first 200, whose edges share more nodes and so fall into
# the exhaustive subset search.)
PROBE_PREFIX = {
    "trade": {"reciprocity": 8, "coreness": 60, "diagnostics": 150, "contagion": 60},
}
# The pooled subcommand timed with one worker and with the default pool: the
# workload's centrality run, or on `contact` (where centrality is not part of
# the pipeline and HITS on its samples takes half a minute) its coreness run.
POOLED = {
    "metabolic": ("metric", "centrality"),
    "trade": ("metric", "centrality"),
    "contact": ("metric", "coreness"),
}
SIS_PROBE = dict(lam=0.06, nu=1.0, burn_in=100.0, sample_count=200)
REPEATS = 3  # for the cheap core calls; the median is reported


def _prefix(H, workload, layer):
    cut = PROBE_PREFIX.get(workload, {}).get(layer)
    return H if cut is None else DirectedHypergraph(H.edges[:cut], H.num_nodes, H.labels)


def econ_instance(workload, H):
    """Complexity scores are undefined on the metabolic and contact graphs
    (degenerate ECI eigenvalue, non-convergent Fitness), so there the econ
    layer is timed on the trade workload's instance."""
    if workload.name == "trade":
        return H
    trade = WORKLOADS["trade"]
    edges = trade.generate(trade.instance_seed)
    return DirectedHypergraph([Hyperedge(h, t) for h, t in edges], 133)


def _scores(H):
    s = complexity_scores(hypergraph_biadjacency(H))
    return {"eci": s.eci, "fitness": s.fitness, "genepy": s.genepy}


def traced_pass(tracer, workload, seed, edges, steps, run_dir, run_round, run_cli, cli_env):
    """Returns (attempted, failed, wrong, per-layer metrics)."""
    name = workload.name
    probes = 0

    def timed(metric, fn, repeats=1):
        nonlocal probes
        probes += 1
        values, result = [], None
        for _ in range(repeats):
            with tracer.span(metric) as record:
                result = fn()
            values.append(record["end"] - record["start"])
        return statistics.median(values), result

    out = {}

    def seconds(metric, fn, repeats=1):
        value, result = timed(metric, fn, repeats)
        out[metric + "_s"] = {"value": value, "unit": "s"}
        return result

    directory = run_dir / "round0"
    with tracer.span("round"):
        _, _, (attempted, failed, wrong) = run_round(steps, workload, edges, directory, tracer)

    # cli: interpreter start plus `import hypernull.cli`, and the worker pool.
    env = cli_env()
    seconds("cli.import", lambda: subprocess.run(
        [sys.executable, "-c", "import hypernull.cli"], env=env, check=True), REPEATS)
    pool = directory / "pool"
    pool.mkdir()
    pooled = sorted((directory / "degs").glob("*.dhg")) + sorted((directory / "joint").glob("*.dhg"))
    for i, path in enumerate(pooled[:2]):
        shutil.copy(path, pool / f"sample_{i}.dhg")
    argv = (*POOLED[name], "--input", "observed.dhg", "--samples", "pool", "--output", "pool.csv")
    one, (_, _, code_one) = timed("cli.pool_one_worker",
                                  lambda: run_cli(argv, directory, cli_env("1")))
    default, (_, _, code_default) = timed("cli.pool_default",
                                          lambda: run_cli(argv, directory, cli_env(None)))
    failed += (code_one != 0) + (code_default != 0)
    out["cli.pool_speedup"] = {"value": one / default, "unit": "ratio"}

    # core
    text = (directory / "observed.dhg").read_text(encoding="utf-8")
    H = seconds("core.parse", lambda: parse_hypergraph(text), REPEATS)
    seconds("core.format", lambda: format_hypergraph(H), REPEATS)
    G = seconds("core.to_bipartite", lambda: to_bipartite(H), REPEATS)
    seconds("core.to_hypergraph", lambda: to_hypergraph(G), REPEATS)
    seconds("core.invariants", lambda: (degree_profile(G), compute_joint(G)), REPEATS)

    # sampling
    for model in MODELS:
        n = CHAIN_STEPS[name][model]
        fixed, _ = timed(f"sampling.{model}.fixed", lambda: list(
            run_chain(H, ChainConfig(model=model, steps=0, seed=seed))))
        full, _ = timed(f"sampling.{model}.steps", lambda: list(
            run_chain(H, ChainConfig(model=model, steps=n, seed=seed))))
        out[f"sampling.{model}.fixed_s"] = {"value": fixed, "unit": "s"}
        out[f"sampling.{model}.steps_per_s"] = {"value": n / (full - fixed), "unit": "1/s"}

    # diagnostics
    D = _prefix(H, name, "diagnostics")
    seconds("diagnostics.mine", lambda: [mine_top_frequent(transaction_db(D, side))
                                         for side in ("head", "tail")])
    trace = seconds("diagnostics.arsd_trace", lambda: arsd_trace(
        D, model="degs", seed=seed, max_multiplier=CONVERGE_MAX_K))
    values = [v for _, v in trace["head" if "head" in trace else min(trace)]]
    k = plateau_checkpoint(values)
    out["diagnostics.plateau_k"] = {"value": len(values) if k is None else k, "unit": "count"}

    # structure
    samples = [parse_hypergraph(p.read_text(encoding="utf-8"))
               for p in sorted((directory / "degs").glob("*.dhg"))]
    seconds("structure.reciprocity", lambda: hypergraph_reciprocity(_prefix(H, name, "reciprocity")))
    C = _prefix(H, name, "coreness")
    seconds("structure.coreness_head", lambda: hyper_core_decomposition(C, "head"))
    seconds("structure.coreness_tail", lambda: hyper_core_decomposition(C, "tail"))
    seconds("structure.pagerank", lambda: pagerank(project_weighted(H)))
    seconds("structure.hits", lambda: hits(to_bipartite(H)))
    seconds("structure.spectrum", lambda: laplacian_spectrum(H, k=6))
    seconds("structure.entropy", lambda: structural_entropy(H, samples, 2, "head"))

    # econ
    E = econ_instance(workload, H)
    if E is H:
        econ_samples = samples
    else:
        econ_samples = list(run_chain(E, ChainConfig(model="degs", steps=2000, seed=seed,
                                                     sample_count=2)))
    observed = seconds("econ.scores", lambda: _scores(E))
    sampled = [_scores(S) for S in econ_samples]
    seconds("econ.rank_compare", lambda: rank_compare(
        observed, {"degs": {score: [s[score] for s in sampled] for score in observed}}))

    # contagion
    Q = merge_to_undirected(_prefix(H, name, "contagion"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        seconds("contagion.qs", lambda: run_quasi_stationary(Q, SISConfig(seed=seed, **SIS_PROBE)))

    return attempted + probes, failed, wrong, out
