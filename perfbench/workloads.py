"""The three workloads: their inputs, the subcommands one round runs, and the
check that each subcommand's output must pass.

A round is the user's pipeline run once into a fresh directory: one
`hypernull` process per subcommand, one at a time.  Every step is an
operation: the subcommand plus its output check.

Each workload's observed graph is one fixed instance, generated with the seed
the acceptance suite uses for it (metabolic_scale(101), contact_scale(2024));
the run's --seed is the --seed of every subcommand, so it picks the chains,
the samples and the contagion runs.  With the instance drawn from --seed
instead, the time of HITS alone ranges from 0.6 to 7.6 s per graph across
instances (its power iteration stops on a singular-value gap that varies),
which would spread analysis_s far beyond any usable bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import read_csv
from instances import (
    contact_scale,
    format_directed,
    format_undirected,
    metabolic_scale,
    trade_like,
)

# Fixed chain lengths on `trade`: --steps auto (20 x 165k arcs = 3.3M steps)
# takes about five minutes per sample, so the run uses a fixed count long
# enough that the chain is the largest part of the degs `sample` process.  A
# joint step is about eight times cheaper than a degs step there (most
# proposals find no same-class partner), hence its larger count; degs-mh
# pays ~2 s for its exact swap count before the first step.
TRADE_STEPS = {"degs": 30000, "joint": 200000, "degs-mh": 400}
CONVERGE_MAX_K = 15  # plateau_checkpoint needs 10 checkpoints past k = 0
CONTACT_NUS = ("1", "2")
CONTACT_GRID = ("0.03", "0.06", "0.12")  # spans lambda_c = 0.0474 (nu=1), 0.0382 (nu=2)
CONTACT_SIS = ("--burn-in", "25", "--sample-count", "50")


@dataclass(frozen=True)
class Step:
    name: str
    stage: str  # "prep", "sample" or "analysis"
    argv: tuple
    check: Callable[[Path], None]


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], list]
    instance_seed: int
    input_name: str
    directed: bool
    steps: Callable[[int, list], list]


def _sample(observed, model, count, seed, steps="auto"):
    argv = ("sample", "--input", "observed.dhg", "--model", model, "--samples",
            str(count), "--steps", str(steps), "--seed", str(seed), "--output-dir", model)
    return Step(f"sample {model}", "sample", argv,
                lambda d: checks.check_samples(observed, d / model, model, count))


def _metric(name, output, check, *options, samples=("--samples", "degs")):
    argv = ("metric", name, "--input", "observed.dhg", *samples, *options,
            "--output", output)
    return Step(f"metric {name} {' '.join(options)}".strip(), "analysis", argv,
                lambda d: check(read_csv(d / output)))


def _converge(seed):
    argv = ("converge", "--input", "observed.dhg", "--model", "degs", "--seed", str(seed),
            "--max-k", str(CONVERGE_MAX_K), "--output", "converge.csv")
    return Step("converge degs", "analysis", argv,
                lambda d: checks.check_converge(read_csv(d / "converge.csv"), CONVERGE_MAX_K))


def _centrality(observed, samples=("--samples", "degs")):
    def check(rows):
        checks.check_pagerank(observed, rows)
        checks.check_hits(observed, rows)

    return _metric("centrality", "centrality.csv", check, samples=samples)


def metabolic_steps(seed, edges):
    return [
        _sample(edges, "degs", 1, seed),
        _sample(edges, "joint", 1, seed),
        _sample(edges, "degs-mh", 1, seed),
        _sample(edges, "null", 1, seed),
        _metric("reciprocity", "reciprocity.csv",
                lambda rows: checks.check_reciprocity(rows, 1)),
        _metric("coreness", "coreness_head.csv",
                lambda rows: checks.check_coreness(edges, rows, "head"), "--side", "head"),
        _metric("coreness", "coreness_tail.csv",
                lambda rows: checks.check_coreness(edges, rows, "tail"), "--side", "tail"),
        _centrality(edges),
        _metric("spectrum", "spectrum.csv", lambda rows: checks.check_spectrum(edges, rows)),
        _metric("entropy", "entropy.csv", checks.check_entropy),
        _converge(seed),
    ]


def trade_steps(seed, edges):
    compare = ("econ", "compare", "--observed", "observed.dhg", "--samples", "degs=degs",
               "--samples", "joint=joint", "--output", "compare.csv")
    scores = ("econ", "scores", "--input", "observed.dhg", "--output-dir", "scores")
    return [
        _sample(edges, "degs", 2, seed, TRADE_STEPS["degs"]),
        _sample(edges, "joint", 1, seed, TRADE_STEPS["joint"]),
        _sample(edges, "degs-mh", 1, seed, TRADE_STEPS["degs-mh"]),
        Step("econ compare", "analysis", compare, lambda d: checks.check_rank_compare(
            read_csv(d / "compare.csv"), {"degs": 2, "joint": 1})),
        Step("econ scores", "analysis", scores, lambda d: checks.check_eci(
            edges, read_csv(d / "scores" / "country_scores.csv"))),
        # Observed graph only: HITS adds about 2 s per sample, a length that
        # depends on the chain seed (see the module docstring).
        _centrality(edges, samples=()),
        _metric("spectrum", "spectrum.csv", lambda rows: checks.check_spectrum(edges, rows)),
    ]


def contact_steps(seed, edges):
    lifted = [(e, e) for e in edges]
    convert = ("convert", "--input", "contact.hg", "--to", "directed",
               "--output", "observed.dhg")
    contagion = ("contagion", "--input", "observed.dhg", "--dataset", "lyon",
                 "--samples", "degs=degs", *(a for nu in CONTACT_NUS for a in ("--nu", nu)),
                 "--lambda-grid", ",".join(CONTACT_GRID), "--method", "quasi-stationary",
                 *CONTACT_SIS, "--seed", str(seed), "--output", "contagion.csv")
    return [
        Step("convert", "prep", convert,
             lambda d: checks.check_lifted(edges, d / "observed.dhg")),
        _sample(lifted, "degs", 1, seed),
        _sample(lifted, "joint", 1, seed),
        _converge(seed),
        Step("contagion", "analysis", contagion, lambda d: checks.check_contagion(
            read_csv(d / "contagion.csv"), 2, CONTACT_NUS, CONTACT_GRID)),
        _metric("coreness", "coreness_head.csv",
                lambda rows: checks.check_coreness(lifted, rows, "head"), "--side", "head"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("metabolic", metabolic_scale, 101, "observed.dhg", True, metabolic_steps),
        Workload("trade", trade_like, 2024, "observed.dhg", True, trade_steps),
        Workload("contact", contact_scale, 2024, "contact.hg", False, contact_steps),
    )
}


def write_input(workload, edges, directory):
    text = format_directed(edges) if workload.directed else format_undirected(edges)
    (Path(directory) / workload.input_name).write_text(text, encoding="utf-8")
