"""Self-test of the output checks: each accepts the program's real output and
rejects a corrupted copy of it.

    python3 perfbench/selftest.py

Runs the CLI from ./src on small instances in a temporary directory under
.perfbench_runs/, removed afterwards.  Exits 0 when every check accepted its
real output and rejected every corruption, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys
import time

from run import RUNS, cli_env, run_cli

import checks
from checks import CheckFailed, read_csv
from instances import (
    contact_scale,
    format_directed,
    format_undirected,
    metabolic_scale,
    parse_directed,
    trade_like,
)


def _set(rows, index, key, value):
    rows = copy.deepcopy(rows)
    rows[index][key] = str(value)
    return rows


def _swap_column(rows, key):
    """Swap the values of `key` between the rows holding its extremes."""
    rows = copy.deepcopy(rows)
    values = [float(r[key]) for r in rows]
    lo, hi = values.index(min(values)), values.index(max(values))
    rows[lo][key], rows[hi][key] = rows[hi][key], rows[lo][key]
    return rows


def _bump(rows, key, delta):
    """Add delta to the largest value of `key`."""
    values = [float(r[key]) for r in rows]
    index = values.index(max(values))
    return _set(rows, index, key, values[index] + delta)


def _reverse_column(rows, key):
    rows = copy.deepcopy(rows)
    for r, value in zip(rows, [r[key] for r in rows][::-1]):
        r[key] = value
    return rows


def _foreign_node(edges):
    """Replace one head node of the first edge by a node outside that edge."""
    h, t = edges[0]
    outsider = next(v for v in checks.nodes_of(edges) if v not in h | t)
    return [(frozenset(sorted(h)[1:]) | {outsider}, t)] + list(edges[1:])


def _cli(argv, directory):
    _, _, code = run_cli(argv, directory, cli_env())
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}: "
                         f"{(directory / 'stderr.log').read_text()[-500:]}")


def cases(d):
    """(name, check, real output, [(corruption, corrupted output)])."""
    obs = metabolic_scale(5, n=120, m=150)
    (d / "observed.dhg").write_text(format_directed(obs))
    for model in ("degs", "joint"):
        _cli(("sample", "--input", "observed.dhg", "--model", model, "--samples", "1",
              "--output-dir", model), d)
    for name, extra in (("centrality", ()), ("spectrum", ()), ("reciprocity", ()),
                        ("coreness", ("--side", "tail")), ("entropy", ())):
        _cli(("metric", name, "--input", "observed.dhg", "--samples", "degs", *extra,
              "--output", f"{name}.csv"), d)
    _cli(("converge", "--input", "observed.dhg", "--max-k", "12", "--output", "converge.csv"), d)

    trade = trade_like(2024)
    (d / "trade.dhg").write_text(format_directed(trade))
    _cli(("sample", "--input", "trade.dhg", "--samples", "2", "--steps", "3000",
          "--output-dir", "trade_degs"), d)
    _cli(("econ", "scores", "--input", "trade.dhg", "--output-dir", "scores"), d)
    _cli(("econ", "compare", "--observed", "trade.dhg", "--samples", "degs=trade_degs",
          "--output", "compare.csv"), d)

    contact = contact_scale(5)
    (d / "contact.hg").write_text(format_undirected(contact))
    _cli(("convert", "--input", "contact.hg", "--to", "directed", "--output", "lifted.dhg"), d)
    _cli(("contagion", "--input", "lifted.dhg", "--dataset", "lyon", "--nu", "1", "--nu", "2",
          "--lambda-grid", "0.03,0.12", "--method", "quasi-stationary", "--burn-in", "25",
          "--sample-count", "50", "--output", "contagion.csv"), d)
    lines = (d / "lifted.dhg").read_text().splitlines()
    head, tail = lines[0].split("|")
    lines[0] = head + "|" + tail.rsplit(",", 1)[0]
    (d / "bad_lifted.dhg").write_text("\n".join(lines) + "\n")

    degs = parse_directed((d / "degs" / "sample_0.dhg").read_text())
    joint = parse_directed((d / "joint" / "sample_0.dhg").read_text())
    csv = {name: read_csv(d / f"{name}.csv") for name in (
        "centrality", "spectrum", "reciprocity", "coreness", "entropy", "converge",
        "compare", "contagion")}
    eci = read_csv(d / "scores" / "country_scores.csv")
    grid = ("0.03", "0.12")
    return [
        ("degs sample", lambda s: checks.check_sample(obs, s, "degs"), degs, [
            ("a node moved to another edge", _foreign_node(degs)),
            ("the observed graph itself", obs)]),
        ("joint sample", lambda s: checks.check_sample(obs, s, "joint"), joint, [
            ("a degs sample, whose joint tensor differs", degs)]),
        ("pagerank", lambda r: checks.check_pagerank(obs, r), csv["centrality"], [
            ("one score + 1e-4", _bump(csv["centrality"], "pagerank", 1e-4))]),
        ("hits", lambda r: checks.check_hits(obs, r), csv["centrality"], [
            ("two hub scores swapped", _swap_column(csv["centrality"], "hub")),
            # When the top singular pair lives on head arcs every node's
            # authority is 0, and a swap would change nothing.
            ("one authority + 0.01", _bump(csv["centrality"], "authority", 0.01))]),
        ("spectrum", lambda r: checks.check_spectrum(obs, r), csv["spectrum"], [
            ("one eigenvalue + 1e-3", _bump(csv["spectrum"], "observed", 1e-3))]),
        ("coreness", lambda r: checks.check_coreness(obs, r, "tail"), csv["coreness"], [
            ("one node + 1", _bump(csv["coreness"], "observed", 1))]),
        ("ECI", lambda r: checks.check_eci(trade, r), eci, [
            ("scores reversed", _reverse_column(eci, "eci"))]),
        ("ARSD", lambda r: checks.check_converge(r, 12), csv["converge"], [
            ("nonzero at k = 0", _set(csv["converge"], 0, "arsd", 0.01))]),
        ("reciprocity", lambda r: checks.check_reciprocity(r, 1), csv["reciprocity"], [
            ("observed above 1", _set(csv["reciprocity"], 0, "observed", 1.5))]),
        ("entropy", checks.check_entropy, csv["entropy"], [
            ("an entropy above 1", _set(csv["entropy"], 0, "entropy", 1.2))]),
        ("rank correlations", lambda r: checks.check_rank_compare(r, {"degs": 2}),
         csv["compare"], [("a Spearman mean above 1",
                           _set(csv["compare"], 0, "spearman_mean", 1.2))]),
        ("contagion", lambda r: checks.check_contagion(r, 1, ("1", "2"), grid),
         csv["contagion"], [("a density above 1", _set(csv["contagion"], 0, "rhoMean", 1.3)),
                            ("a curve that does not rise",
                             _set(csv["contagion"], 1, "rhoMean", 0.0))]),
        ("convert", lambda p: checks.check_lifted(contact, p), d / "lifted.dhg", [
            ("an edge with head != tail", d / "bad_lifted.dhg")]),
    ]


def main():
    d = RUNS / f"selftest-{time.time_ns()}"
    d.mkdir(parents=True)
    problems = 0
    try:
        for name, check, good, corruptions in cases(d):
            try:
                check(good)
                print(f"ok      {name}: real output accepted")
            except CheckFailed as exc:
                problems += 1
                print(f"FAILED  {name}: real output rejected: {exc}")
            for label, bad in corruptions:
                try:
                    check(bad)
                    problems += 1
                    print(f"FAILED  {name}: {label} was accepted")
                except CheckFailed as exc:
                    print(f"ok      {name}: {label} rejected ({exc})")
    finally:
        shutil.rmtree(d, ignore_errors=True)
    print(f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
