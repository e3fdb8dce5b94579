"""End-to-end tests of the command-line pipeline.

Each test drives main() with real files under tmp_path and checks the CSV
output, the run manifest, exit codes, and byte-for-byte determinism.
"""

import builtins
import gc
import hashlib
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
import warnings
import weakref
from collections import Counter
from importlib import metadata
from pathlib import Path

import pytest

from helpers import invariant_text_reference, metabolic_scale, trade_csv, trade_scale, varied_hypergraph
from test_acceptance import contact_scale
import hypernull.cli
import hypernull.contagion
import hypernull.structure
from hypernull.cli import (
    RunManifest,
    WorkerError,
    _fmt,
    _invariant_text,
    _invariants,
    _parse_model_dirs,
    build_parser,
    main,
)
from hypernull.contagion import SISConfig
from hypernull.core import (
    DirectedHypergraph,
    format_hypergraph,
    format_undirected,
    merge_to_undirected,
    parse_hypergraph,
    parse_undirected,
)
from hypernull.sampling import MODELS, STEP_FUNCTIONS, Chains

TOY = "0,1|2\n2|0,1\n1|3\n3|1\n0,2|3\n"

SPONSOR = "0|1,2\n1|0,2\n2|0,1,3\n3|1\n0|3\n1|2\n"

# Frozen 8-country / 12-product trade hypergraph on which the complexity
# scores converge (dense enough, not nested, no degenerate eigenvalue).
ECON = (
    "6,7|0,1\n"
    "0,1,4,7|2,3\n"
    "0,2,3,5,6|1,4\n"
    "4,6,7|0,1\n"
    "3,4|0,1\n"
    "1,2,3,6|0,4\n"
    "5,6|0,1\n"
    "0,1,3,4,5|2,6\n"
    "0,1,4,7|2,3\n"
    "1,4,6,7|0,2\n"
    "1,5|0,2\n"
    "0,2,4,5,7|1,3\n"
)

LABELS = "node_id,category\n0,red\n1,red\n2,blue\n3,blue\n"

TRADE = (
    "year,country,product,export_value,import_value\n"
    "2020,USA,apples,100,5\n"
    "2020,USA,cars,50,10\n"
    "2020,DEU,apples,10,80\n"
    "2020,DEU,cars,200,5\n"
    "2020,JPN,apples,30,40\n"
    "2020,JPN,cars,90,100\n"
)

META = (
    "country,population,avg_trade\n"
    "USA,330000000,2000000000000\n"
    "DEU,83000000,1500000000000\n"
    "JPN,125000000,700000000000\n"
)


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def manifest_of(path):
    return json.loads(path.read_text(encoding="utf-8"))


def assert_no_child():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_inputs_hashed(manifest_path, inputs):
    """The manifest records exactly these inputs, each with its sha256."""
    recorded = manifest_of(manifest_path)["inputs"]
    assert sorted(recorded) == sorted(str(path) for path in inputs)
    for path, digest in recorded.items():
        assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture
def reads(monkeypatch):
    """Counter of reads per path, through open() or Path.read_bytes/read_text."""
    counter = Counter()

    def counted_open(file, *args, **kwargs):
        counter[str(file)] += 1
        return _open(file, *args, **kwargs)

    _open = builtins.open
    monkeypatch.setattr(builtins, "open", counted_open)
    for name in ("read_bytes", "read_text"):
        def counted(self, *args, _read=getattr(Path, name), **kwargs):
            counter[str(self)] += 1
            return _read(self, *args, **kwargs)

        monkeypatch.setattr(Path, name, counted)
    return counter


@pytest.fixture
def toy(tmp_path):
    path = tmp_path / "toy.dhg"
    path.write_text(TOY, encoding="utf-8")
    return path


@pytest.fixture
def sample_dir(tmp_path, toy):
    out = tmp_path / "degs_samples"
    code = run(
        ["sample", "--input", toy, "--model", "degs", "--samples", 3,
         "--seed", 7, "--output-dir", out]
    )
    assert code == 0
    return out


class TestConvert:
    def test_directed_to_undirected_merges_sides(self, tmp_path, toy):
        out = tmp_path / "toy.undir"
        assert run(["convert", "--input", toy, "--to", "undirected",
                    "--output", out]) == 0
        U = parse_undirected(out.read_text(encoding="utf-8"))
        expected = merge_to_undirected(parse_hypergraph(TOY))
        assert sorted(map(sorted, U.edges)) == sorted(map(sorted, expected.edges))

    def test_undirected_to_directed_doubles_each_set(self, tmp_path):
        src = tmp_path / "u.txt"
        src.write_text("0,1\n1,2,3\n", encoding="utf-8")
        out = tmp_path / "u.dhg"
        assert run(["convert", "--input", src, "--to", "directed",
                    "--output", out]) == 0
        H = parse_hypergraph(out.read_text(encoding="utf-8"))
        for e in H.edges:
            assert e.head == e.tail

    def test_directed_identity_is_canonical_form(self, tmp_path, toy):
        out = tmp_path / "canon.dhg"
        assert run(["convert", "--input", toy, "--to", "directed",
                    "--output", out]) == 0
        assert out.read_text(encoding="utf-8") == format_hypergraph(
            parse_hypergraph(TOY)
        )

    def test_manifest_records_input_hash(self, tmp_path, toy):
        out = tmp_path / "toy.undir"
        run(["convert", "--input", toy, "--to", "undirected", "--output", out])
        manifest = manifest_of(tmp_path / "toy.undir.manifest.json")
        assert str(toy) in manifest["inputs"]
        assert len(manifest["inputs"][str(toy)]) == 64
        assert "toy.undir" in manifest["invariants"]["outputs"]
        assert "total_s" in manifest["timings"]

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = run(["convert", "--input", tmp_path / "nope.dhg",
                    "--to", "directed", "--output", tmp_path / "x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSample:
    def test_writes_requested_count(self, sample_dir):
        names = sorted(p.name for p in sample_dir.glob("*.dhg"))
        assert names == ["sample_0.dhg", "sample_1.dhg", "sample_2.dhg"]
        assert (sample_dir / "manifest.json").exists()

    def test_reruns_are_byte_identical(self, tmp_path, toy):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["sample", "--input", toy, "--model", "joint",
                        "--samples", 2, "--seed", 11, "--output-dir", out]) == 0
        for name in ("sample_0.dhg", "sample_1.dhg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1, m2 = manifest_of(out1 / "manifest.json"), manifest_of(out2 / "manifest.json")
        m1.pop("timings"), m2.pop("timings")
        m1["command"], m2["command"] = None, None
        assert m1 == m2

    def test_different_seeds_differ(self, tmp_path, toy):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for seed, out in ((1, out1), (2, out2)):
            run(["sample", "--input", toy, "--samples", 1, "--seed", seed,
                 "--steps", 200, "--output-dir", out])
        assert (out1 / "sample_0.dhg").read_bytes() != (
            out2 / "sample_0.dhg"
        ).read_bytes()

    def test_zero_steps_returns_canonical_input(self, tmp_path, toy):
        out = tmp_path / "frozen"
        assert run(["sample", "--input", toy, "--samples", 1, "--steps", 0,
                    "--seed", 0, "--output-dir", out]) == 0
        written = (out / "sample_0.dhg").read_text(encoding="utf-8")
        assert written == format_hypergraph(parse_hypergraph(TOY))

    def test_manifest_lists_per_sample_checksums(self, sample_dir):
        manifest = manifest_of(sample_dir / "manifest.json")
        records = manifest["invariants"]["samples"]
        assert len(records) == 3
        for record in records:
            assert len(record["sha256"]) == 64
            assert len(record["invariant_sha256"]) == 64
        assert manifest["invariants"]["model"] == "degs"
        assert manifest["seed"] == 7

    @pytest.mark.parametrize("model", MODELS)
    def test_all_models_pass_their_own_verification(self, tmp_path, toy, model):
        out = tmp_path / model
        assert run(["sample", "--input", toy, "--model", model, "--samples", 2,
                    "--seed", 5, "--output-dir", out]) == 0

    def test_verification_catches_broken_sampler(self, tmp_path, toy,
                                                 monkeypatch, capsys):
        monkeypatch.setattr(Chains, "draw", lambda self, index: parse_hypergraph("0|1\n"))
        out = tmp_path / "bad"
        code = run(["sample", "--input", toy, "--samples", 1,
                    "--output-dir", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "invariant verification failed" in err
        assert "expected:" in err and "found:" in err

    def test_joint_verification_catches_relabelled_nodes(self, tmp_path, toy, monkeypatch,
                                                         capsys):
        # Nodes 0 and 3 trade roles: the joint tensor is unchanged, while
        # each node's degrees are not.
        relabelled = "3,1|2\n2|3,1\n1|0\n0|1\n3,2|0\n"
        monkeypatch.setattr(Chains, "draw", lambda self, index: parse_hypergraph(relabelled))
        out = tmp_path / "bad"
        assert run(["sample", "--input", toy, "--model", "joint", "--samples", 1,
                    "--output-dir", out]) == 1
        assert "invariant verification failed" in capsys.readouterr().err

    @pytest.mark.parametrize("model, written, entries", [
        # degs: [in-degrees, out-degrees, sorted (head, tail) sizes]
        ("degs", "0|1\n", ("[0][0] = 1", "[0][0] = 0")),
        # joint: the degs invariant, then sorted ((i, j, k, l, d), count) items
        ("joint", "0,1|2\n2|0,1\n1|3\n3|1\n0,1|3\n", ("[1][1] = 2", "[1][1] = 3")),
        # a degs sample of the toy: equal degrees, a different tensor
        ("joint", "0|1\n0,2|3\n1|0,2\n1,2|3\n3|1\n",
         ("[3][0] = [[1, 2, 1, 2, -1], 1]", "[3][0] = [[1, 2, 1, 1, 1], 1]")),
        # null: sorted sizes; the sample lacks the toy's last one
        ("null", "0,1|2\n2|0,1\n1|3\n3|1\n", ("[4] = [2, 1]", "[4] = null")),
    ], ids=["degs", "joint", "joint-tensor", "null"])
    def test_verification_failure_shows_digests_and_first_difference(
            self, tmp_path, toy, monkeypatch, capsys, model, written, entries):
        # Each side's digest is the invariant_sha256 that sampling it records.
        def invariant_sha256(path):
            out = tmp_path / f"{path.stem}_samples"
            assert run(["sample", "--input", path, "--model", model, "--samples", 1,
                        "--output-dir", out]) == 0
            (record,) = manifest_of(out / "manifest.json")["invariants"]["samples"]
            return record["invariant_sha256"]

        other = tmp_path / "written.dhg"
        other.write_text(written, encoding="utf-8")
        digests = invariant_sha256(toy), invariant_sha256(other)
        capsys.readouterr()
        monkeypatch.setattr(Chains, "draw", lambda self, index: parse_hypergraph(written))
        out = tmp_path / "bad"
        assert run(["sample", "--input", toy, "--model", model, "--samples", 1,
                    "--output-dir", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"invariant verification failed for {out / 'sample_0.dhg'}",
            f"expected: sha256 {digests[0]}, entry{entries[0]}",
            f"found:    sha256 {digests[1]}, entry{entries[1]}",
        ]

    @pytest.mark.parametrize("thinning", [0, -1])
    def test_thinning_below_one_fails_cleanly(self, tmp_path, toy, capsys, thinning):
        code = run(["sample", "--input", toy, "--samples", 3, "--steps", 50,
                    "--thinning", thinning, "--output-dir", tmp_path / "thin"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: thinning")
        assert not list((tmp_path / "thin").glob("*.dhg"))

    def test_thinning_needs_two_samples(self, tmp_path, toy, capsys):
        # A single sample is the chain after --steps swaps; --thinning would
        # be read by nothing.
        out = tmp_path / "one"
        code = run(["sample", "--input", toy, "--samples", 1, "--steps", 50,
                    "--thinning", 7, "--output-dir", out])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --thinning needs --samples of at least 2")
        assert not out.exists()
        assert run(["sample", "--input", toy, "--samples", 2, "--steps", 50,
                    "--thinning", 7, "--output-dir", out]) == 0

    @pytest.mark.parametrize("steps", ["abc", "-5", "2.5", ""])
    def test_steps_must_be_auto_or_a_count(self, tmp_path, toy, capsys, steps):
        out = tmp_path / "bad"
        assert run(["sample", "--input", toy, "--steps", steps, "--output-dir", out]) == 1
        assert capsys.readouterr().err == (
            f"error: --steps must be 'auto' or a non-negative integer, got {steps!r}\n")
        assert not out.exists()

    def test_invariant_text_matches_the_json_reference(self):
        rng = random.Random(0)
        graphs = [DirectedHypergraph([], 3)] + [
            varied_hypergraph(rng, *sizes) for sizes in [(12, 100), (90, 30)] * 20
        ]
        for H in graphs:
            for model in MODELS:
                invariant = _invariants(H, model)
                assert _invariant_text(invariant) == invariant_text_reference(invariant)

    @pytest.mark.parametrize("flags", [["--steps", 500], ["--thinning", 7]])
    def test_null_rejects_chain_flags(self, tmp_path, toy, capsys, flags):
        # The null model draws each sample afresh: no chain steps to set.
        out = tmp_path / "null"
        code = run(["sample", "--input", toy, "--model", "null", "--samples", 2,
                    *flags, "--output-dir", out])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --steps and --thinning")
        assert not out.exists()
        assert run(["sample", "--input", toy, "--model", "null", "--samples", 2,
                    "--steps", "auto", "--output-dir", out]) == 0


class TestConverge:
    def test_trace_shape_and_zero_start(self, tmp_path, toy):
        out = tmp_path / "arsd.csv"
        assert run(["converge", "--input", toy, "--model", "degs", "--seed", 3,
                    "--f", 5, "--l", 2, "--max-k", 8, "--output", out]) == 0
        header, rows = read_rows(out)
        assert header == ["model", "side", "k", "arsd"]
        assert {row[1] for row in rows} == {"head", "tail"}
        for row in rows:
            assert row[0] == "degs"
            if row[2] == "0":
                assert float(row[3]) == 0.0

    @pytest.mark.parametrize(
        "model, digest",
        [
            ("degs", "b69b876cdcd19c9fbf2bc1eda0525068bc23e1f8e92f294bf8bd83612b668112"),
            ("joint", "8c4ade96fb4b34a3c86c351f3dd07caf030f7a765acfb4b6d8ef32e6f3151df4"),
            ("degs-mh", "0f47d9d6992b20f61a17bea32405cde179ee94996d1a878971b4676707bcb4f4"),
        ],
    )
    def test_csv_bytes_pinned(self, tmp_path, toy, model, digest):
        out = tmp_path / "arsd.csv"
        assert run(["converge", "--input", toy, "--model", model, "--seed", 3, "--f", 5,
                    "--l", 2, "--max-k", 8, "--output", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_models_are_the_step_registry(self, tmp_path, toy):
        assert MODELS == (*STEP_FUNCTIONS, "null") == ("degs", "joint", "degs-mh", "null")
        out = tmp_path / "arsd.csv"
        for model in STEP_FUNCTIONS:
            assert run(["converge", "--input", toy, "--model", model, "--f", 5,
                        "--l", 2, "--max-k", 1, "--output", out]) == 0
        with pytest.raises(SystemExit):
            run(["converge", "--input", toy, "--model", "null", "--output", out])

    def test_support_one_sides_warn(self, tmp_path, toy, capsys):
        out = tmp_path / "arsd.csv"
        assert run(["converge", "--input", toy, "--f", 5, "--l", 2, "--max-k", 1,
                    "--output", out]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {side} side: the lowest support among the mined itemsets is 1, "
            "so its ARSD only tracks whether single hyperedges survive"
            for side in ("head", "tail")
        ]

    def test_negative_max_k_fails_cleanly(self, tmp_path, capsys):
        dense = tmp_path / "dense.dhg"
        dense.write_text("1,2,3|4,5,6\n1,2,4|3,5,6\n1,3,5|2,4,6\n2,3,6|1,4,5\n",
                         encoding="utf-8")
        out = tmp_path / "arsd.csv"
        code = run(["converge", "--input", dense, "--f", 5, "--l", 3,
                    "--max-k", -1, "--output", out])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: max_multiplier")
        assert not out.exists()


class TestMetric:
    def test_each_input_is_read_once_per_use(self, tmp_path, toy, sample_dir,
                                             reads, monkeypatch):
        # One CPU: the reads are counted in this process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        out = tmp_path / "core.csv"
        assert run(["metric", "coreness", "--input", toy, "--samples", sample_dir,
                    "--output", out]) == 0
        samples = sorted(str(path) for path in sample_dir.glob("*.dhg"))
        assert reads[str(toy)] == 1
        assert [reads[path] for path in samples] == [1, 1, 1]  # checked as it is loaded
        assert_inputs_hashed(tmp_path / "core.csv.manifest.json", [toy, *samples])

    def test_reciprocity_against_itself_has_unit_ratio(self, tmp_path, toy):
        mirror = tmp_path / "mirror"
        mirror.mkdir()
        (mirror / "sample_0.dhg").write_text(TOY, encoding="utf-8")
        out = tmp_path / "rec.csv"
        assert run(["metric", "reciprocity", "--input", toy,
                    "--samples", mirror, "--output", out]) == 0
        header, rows = read_rows(out)
        assert header == ["observed", "sample_mean", "sample_std",
                          "samples", "ratio"]
        observed, mean, std, count, ratio = rows[0]
        assert observed == mean
        assert float(std) == 0.0
        assert count == "1"
        assert float(ratio) == 1.0

    def test_reciprocity_without_samples_leaves_blanks(self, tmp_path, toy):
        out = tmp_path / "rec.csv"
        assert run(["metric", "reciprocity", "--input", toy,
                    "--output", out]) == 0
        _, rows = read_rows(out)
        observed, mean, std, count, ratio = rows[0]
        assert float(observed) > 0
        assert mean == "" and std == "" and ratio == ""
        assert count == "0"

    def test_coreness_one_row_per_node(self, tmp_path, toy, sample_dir):
        out = tmp_path / "core.csv"
        assert run(["metric", "coreness", "--input", toy, "--samples",
                    sample_dir, "--side", "head", "--output", out]) == 0
        header, rows = read_rows(out)
        assert header == ["node", "observed", "sample_mean", "sample_std",
                          "ratio"]
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]

    @pytest.mark.parametrize("metric, module, measure", [
        ("coreness", hypernull.structure, "hyper_core_decomposition"),
        ("entropy", hypernull.structure, "node_groups"),
    ], ids=["coreness", "entropy"])
    def test_samples_are_streamed(self, tmp_path, toy, sample_dir, monkeypatch,
                                  metric, module, measure):
        # Every graph the metric measures is watched through a weak reference:
        # at each measurement only the observed graph and the sample in hand
        # may still be alive.  One CPU, so that the measurements run in this
        # process; a worker holds the same two graphs.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        watched = []
        alive = []
        original = getattr(module, measure)

        def watching(G, *rest):
            watched.append(weakref.ref(G))
            alive.append(sum(ref() is not None for ref in watched))
            return original(G, *rest)

        monkeypatch.setattr(module, measure, watching)
        assert run(["metric", metric, "--input", toy, "--samples", sample_dir,
                    "--output", tmp_path / f"{metric}.csv"]) == 0
        assert alive == [1, 2, 2, 2]

    def test_entropy_requires_samples(self, tmp_path, toy, capsys):
        code = run(["metric", "entropy", "--input", toy,
                    "--output", tmp_path / "e.csv"])
        assert code == 1
        assert "entropy needs --samples" in capsys.readouterr().err

    def test_entropy_rows_are_sorted_groups(self, tmp_path, toy, sample_dir):
        out = tmp_path / "ent.csv"
        assert run(["metric", "entropy", "--input", toy, "--samples",
                    sample_dir, "--side", "tail", "--group-size", 2,
                    "--output", out]) == 0
        header, rows = read_rows(out)
        assert header == ["group", "entropy"]
        groups = [row[0] for row in rows]
        assert groups == sorted(groups)
        for row in rows:
            assert 0.0 <= float(row[1]) <= 1.0

    def test_centrality_columns(self, tmp_path, toy, sample_dir):
        out = tmp_path / "cent.csv"
        assert run(["metric", "centrality", "--input", toy, "--samples",
                    sample_dir, "--output", out]) == 0
        header, rows = read_rows(out)
        assert header == [
            "node",
            "pagerank", "pagerank_mean", "pagerank_std",
            "hub", "hub_mean", "hub_std",
            "authority", "authority_mean", "authority_std",
        ]
        assert len(rows) == 4
        assert abs(sum(float(row[1]) for row in rows) - 1.0) < 1e-9

    def test_spectrum_row_per_eigenvalue(self, tmp_path, toy, sample_dir):
        out = tmp_path / "spec.csv"
        assert run(["metric", "spectrum", "--input", toy, "--samples",
                    sample_dir, "--k", 3, "--output", out]) == 0
        header, rows = read_rows(out)
        assert header == ["index", "observed", "sample_mean", "sample_std",
                          "ratio"]
        assert [row[0] for row in rows] == ["0", "1", "2"]
        values = [float(row[1]) for row in rows]
        assert values == sorted(values)

    def test_output_uses_lf_and_12_digit_floats(self, tmp_path, toy):
        out = tmp_path / "rec.csv"
        run(["metric", "reciprocity", "--input", toy, "--output", out])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").count("\n") == 2
        from hypernull.structure import hypergraph_reciprocity

        observed = hypergraph_reciprocity(parse_hypergraph(TOY)).value
        _, rows = read_rows(out)
        assert rows[0][0] == format(observed, ".12g")

    def test_spectrum_bytes_pinned_at_metabolic_scale(self, tmp_path):
        # A fresh process, so main() pins BLAS to one thread before numpy
        # loads: the noise-level zero eigenvalue depends on the thread count.
        graph, out = tmp_path / "metabolic.dhg", tmp_path / "spectrum.csv"
        graph.write_text(format_hypergraph(metabolic_scale(101)), encoding="utf-8")
        src = Path(hypernull.cli.__file__).resolve().parents[1]
        subprocess.run([sys.executable, "-m", "hypernull.cli", "metric", "spectrum",
                        "--input", str(graph), "--output", str(out)],
                       env={**os.environ, "PYTHONPATH": str(src)}, check=True,
                       capture_output=True, timeout=300)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b6701225b1661f16fb4e6b30f194d9149b7f0e1d00e86b9496346ef8d1a7aa63")


class TestAffinity:
    @pytest.fixture
    def sponsor(self, tmp_path):
        path = tmp_path / "sponsor.dhg"
        path.write_text(SPONSOR, encoding="utf-8")
        return path

    @pytest.fixture
    def labels(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(LABELS, encoding="utf-8")
        return path

    def test_rows_cover_categories_and_sizes(self, tmp_path, sponsor, labels):
        samples = tmp_path / "sp"
        run(["sample", "--input", sponsor, "--samples", 2, "--seed", 2,
             "--output-dir", samples])
        out = tmp_path / "aff.csv"
        assert run(["affinity", "--input", sponsor, "--labels", labels,
                    "--samples", f"degs={samples}", "--k-min", 2,
                    "--k-max", 3, "--output", out]) == 0
        header, rows = read_rows(out)
        assert header == ["category", "k", "observed", "baseline", "model",
                          "mean", "std", "ratio"]
        assert {(row[0], row[1]) for row in rows} == {
            ("red", "2"), ("red", "3"), ("blue", "2"), ("blue", "3"),
        }
        assert all(row[4] == "degs" for row in rows)
        assert all(row[3] == "0.5" for row in rows)

    def test_missing_node_label_fails(self, tmp_path, sponsor, capsys):
        labels = tmp_path / "partial.csv"
        labels.write_text("node_id,category\n0,red\n", encoding="utf-8")
        code = run(["affinity", "--input", sponsor, "--labels", labels,
                    "--output", tmp_path / "aff.csv"])
        assert code == 1
        assert "no entry in the label file" in capsys.readouterr().err

    def test_half_open_k_range_is_rejected(self, tmp_path, sponsor, labels,
                                           capsys):
        code = run(["affinity", "--input", sponsor, "--labels", labels,
                    "--k-min", 2, "--output", tmp_path / "aff.csv"])
        assert code == 1
        assert "--k-min and --k-max" in capsys.readouterr().err

    def test_inverted_k_range_is_rejected(self, tmp_path, sponsor, labels,
                                          capsys):
        code = run(["affinity", "--input", sponsor, "--labels", labels,
                    "--k-min", 3, "--k-max", 2, "--output", tmp_path / "aff.csv"])
        assert code == 1
        assert "error: --k-min 3 exceeds --k-max 2" in capsys.readouterr().err

    @pytest.mark.parametrize("k_min", [0, -2])
    def test_k_min_below_one_is_rejected(self, tmp_path, sponsor, labels, capsys, k_min):
        out = tmp_path / "aff.csv"
        code = run(["affinity", "--input", sponsor, "--labels", labels,
                    "--k-min", k_min, "--k-max", 2, "--output", out])
        assert code == 1
        assert "error: --k-min must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_without_samples_one_row_per_category_and_size(self, tmp_path,
                                                          sponsor, labels):
        out = tmp_path / "aff.csv"
        assert run(["affinity", "--input", sponsor, "--labels", labels,
                    "--k-min", 2, "--k-max", 3, "--output", out]) == 0
        _, rows = read_rows(out)
        assert [(row[0], row[1]) for row in rows] == [
            ("blue", "2"), ("blue", "3"), ("red", "2"), ("red", "3"),
        ]
        for row in rows:
            assert row[3] == "0.5"
            assert row[4:] == ["", "", "", ""]
        # Node 1 (red) sponsors 1|0,2: one of its two co-sponsors is red.
        assert rows[3][2] == "1"

    def test_multi_node_heads_are_left_out(self, tmp_path, toy, labels):
        # TOY has size-3 edges with two-node heads (0,1|2 and 0,2|3); the
        # single-head affinity skips them instead of stopping the run.
        out = tmp_path / "aff.csv"
        assert run(["affinity", "--input", toy, "--labels", labels,
                    "--output", out]) == 0
        _, rows = read_rows(out)
        assert [(row[0], row[1]) for row in rows] == [
            (category, str(k)) for category in ("blue", "red") for k in range(2, 15)
        ]
        observed = {(row[0], row[1]): row[2] for row in rows}
        # 1|3 and 3|1 cross the classes; 2|0,1 is the one single-head edge of
        # size 3 and has no blue tail member.
        assert observed[("blue", "2")] == observed[("red", "2")] == "0"
        assert observed[("red", "3")] == "0" and observed[("blue", "3")] == ""

    def test_baseline_column(self, tmp_path):
        graph = tmp_path / "one.dhg"
        graph.write_text("0|1\n", encoding="utf-8")
        labels = tmp_path / "two.csv"
        labels.write_text("node_id,category\n0,A\n1,B\n", encoding="utf-8")
        out = tmp_path / "aff.csv"
        assert run(["affinity", "--input", graph, "--labels", labels,
                    "--k-min", 2, "--k-max", 2, "--output", out]) == 0
        _, rows = read_rows(out)
        by_category = {row[0]: row for row in rows}
        # One of two nodes is in each class: a one-node head holds it with
        # probability 1/2.  B's tail member has a sponsor outside B.
        assert by_category["A"][3] == "0.5" and by_category["B"][3] == "0.5"
        assert by_category["A"][2] == "" and by_category["B"][2] == "0"


class TestObservedVsEnsemble:
    @pytest.mark.parametrize(
        "command",
        [("metric", "reciprocity"), ("metric", "coreness"), ("metric", "spectrum"),
         ("affinity",)],
        ids=["reciprocity", "coreness", "spectrum", "affinity"],
    )
    def test_mirror_samples_give_zero_std_and_unit_ratio(self, tmp_path,
                                                         command):
        observed = tmp_path / "sponsor.dhg"
        observed.write_text(SPONSOR, encoding="utf-8")
        mirrors = []
        for copies in (1, 2):
            mirror = tmp_path / f"mirror{copies}"
            mirror.mkdir()
            for index in range(copies):
                (mirror / f"sample_{index}.dhg").write_text(SPONSOR, encoding="utf-8")
            mirrors.append(mirror)
        out = tmp_path / "out.csv"
        if command[0] == "metric":
            options = ["--samples", mirrors[1]]
        else:
            labels = tmp_path / "labels.csv"
            labels.write_text(LABELS, encoding="utf-8")
            options = ["--labels", labels, "--samples", f"one={mirrors[0]}",
                       "--samples", f"two={mirrors[1]}"]
        assert run([*command, "--input", observed, *options, "--output", out]) == 0
        header, rows = read_rows(out)
        mean = header.index("sample_mean" if command[0] == "metric" else "mean")
        defined = [row for row in rows if row[header.index("ratio")] != ""]
        assert defined
        for row in rows:
            assert row[mean + 1] in ("", "0")
        for row in defined:
            assert row[mean] == row[header.index("observed")]
            assert row[header.index("ratio")] == "1"


class TestEcon:
    @pytest.fixture
    def econ_graph(self, tmp_path):
        path = tmp_path / "econ.dhg"
        path.write_text(ECON, encoding="utf-8")
        return path

    def test_build_writes_graph_and_labels(self, tmp_path):
        trade = tmp_path / "trade.csv"
        trade.write_text(TRADE, encoding="utf-8")
        out = tmp_path / "trade.dhg"
        assert run(["econ", "build", "--trade", trade, "--year", 2020,
                    "--output", out]) == 0
        H = parse_hypergraph(out.read_text(encoding="utf-8"))
        assert H.num_nodes == 3
        header, rows = read_rows(tmp_path / "trade.labels.csv")
        assert header == ["node_id", "label"]
        assert [row[1] for row in rows] == ["DEU", "JPN", "USA"]

    def test_build_reads_each_input_once(self, tmp_path, reads):
        trade = tmp_path / "trade.csv"
        trade.write_text(TRADE, encoding="utf-8")
        meta = tmp_path / "meta.csv"
        meta.write_text(META, encoding="utf-8")
        out = tmp_path / "trade.dhg"
        assert run(["econ", "build", "--trade", trade, "--metadata", meta,
                    "--year", 2020, "--output", out]) == 0
        assert (reads[str(trade)], reads[str(meta)]) == (1, 1)
        assert_inputs_hashed(tmp_path / "trade.dhg.manifest.json", [trade, meta])

    @pytest.mark.parametrize("row, error", [
        ("2020,USA,cars,50", "trade table line 3: 4 fields, the header has 5"),
        ("2020,USA,cars,50,10,1", "trade table line 3: 6 fields, the header has 5"),
        ("2020,USA,cars,nan,10", "trade table line 3, column export_value: 'nan' is not a finite number >= 0"),
        ("2020,USA,cars,50,abc", "trade table line 3, column import_value: 'abc' is not a finite number >= 0"),
    ])
    def test_build_rejects_a_malformed_row_by_line(self, tmp_path, capsys, row, error):
        trade, out = tmp_path / "trade.csv", tmp_path / "trade.dhg"
        trade.write_text(TRADE.replace("2020,USA,cars,50,10", row), encoding="utf-8")
        assert run(["econ", "build", "--trade", trade, "--year", 2020, "--output", out]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_build_rejects_a_malformed_metadata_row_by_line(self, tmp_path, capsys):
        trade, meta, out = tmp_path / "trade.csv", tmp_path / "meta.csv", tmp_path / "trade.dhg"
        trade.write_text(TRADE, encoding="utf-8")
        meta.write_text(META.replace("DEU,83000000,", "DEU,nan,"), encoding="utf-8")
        assert run(["econ", "build", "--trade", trade, "--metadata", meta, "--year", 2020,
                    "--output", out]) == 1
        assert capsys.readouterr().err == (
            "error: metadata table line 3, column population: 'nan' is not a finite number >= 0\n")

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_build_rejects_a_threshold_that_is_not_finite(self, tmp_path, capsys, threshold):
        trade, out = tmp_path / "trade.csv", tmp_path / "trade.dhg"
        trade.write_text(TRADE, encoding="utf-8")
        assert run(["econ", "build", "--trade", trade, "--year", 2020, "--threshold", threshold,
                    "--output", out]) == 1
        assert capsys.readouterr().err == f"error: threshold must be finite, got {threshold}\n"

    def test_build_reads_columns_by_name(self, tmp_path):
        # The five columns in another order, plus one more, give the same
        # graph and labels bytes.
        rows = [line.split(",") for line in trade_csv(2019).splitlines()]
        moved = "".join(",".join([row[3], "note" if i == 0 else "x", row[1], row[4], row[0], row[2]]) + "\n"
                        for i, row in enumerate(rows))
        outputs = []
        for name, text in (("plain", trade_csv(2019)), ("moved", moved)):
            trade, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.dhg"
            trade.write_text(text, encoding="utf-8")
            assert run(["econ", "build", "--trade", trade, "--year", 2019, "--output", out]) == 0
            outputs.append((out.read_bytes(), (tmp_path / f"{name}.labels.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_scores_without_any_head_is_one_error(self, tmp_path, capsys):
        graph = tmp_path / "tails.dhg"
        graph.write_text("|0,1\n|1,2\n", encoding="utf-8")
        assert run(["econ", "scores", "--input", graph, "--output-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            "error: biadjacency is empty: no head membership anywhere\n")

    def test_scores_writes_country_and_product_tables(self, tmp_path,
                                                      econ_graph):
        out_dir = tmp_path / "scores"
        assert run(["econ", "scores", "--input", econ_graph,
                    "--output-dir", out_dir]) == 0
        header, rows = read_rows(out_dir / "country_scores.csv")
        assert header == ["country", "eci", "fitness", "genepy"]
        assert len(rows) == 8
        assert all(float(row[2]) > 0 for row in rows)
        assert all(float(row[3]) >= 0 for row in rows)
        header, rows = read_rows(out_dir / "product_scores.csv")
        assert header == ["product", "pci", "quality"]
        assert len(rows) == 12

    def test_compare_with_identical_sample_is_perfect(self, tmp_path,
                                                      econ_graph):
        mirror = tmp_path / "mirror"
        mirror.mkdir()
        (mirror / "sample_0.dhg").write_text(ECON, encoding="utf-8")
        out = tmp_path / "cmp.csv"
        assert run(["econ", "compare", "--observed", econ_graph,
                    "--samples", f"self={mirror}", "--output", out]) == 0
        header, rows = read_rows(out)
        assert header == ["sampler", "score", "samples", "spearman_mean",
                          "spearman_std", "kendall_mean", "kendall_std"]
        assert {row[1] for row in rows} == {"eci", "fitness", "genepy"}
        for row in rows:
            assert row[0] == "self" and row[2] == "1"
            assert float(row[3]) == 1.0 and float(row[5]) == 1.0
            assert float(row[4]) == 0.0 and float(row[6]) == 0.0

    def test_compare_against_degs_samples(self, tmp_path, econ_graph):
        samples = tmp_path / "degs"
        assert run(["sample", "--input", econ_graph, "--samples", 2,
                    "--seed", 4, "--output-dir", samples]) == 0
        out = tmp_path / "cmp.csv"
        assert run(["econ", "compare", "--observed", econ_graph,
                    "--samples", f"degs={samples}", "--output", out]) == 0
        _, rows = read_rows(out)
        for row in rows:
            assert -1.0 <= float(row[3]) <= 1.0


class TestEconBuildPinned:
    """Byte pins of `econ build`: the graph and its labels on trade_csv(2019)
    (50 countries, 200 products), and the zero-denominator warnings."""

    @pytest.mark.parametrize("flags, digest", [
        ([], "48ef14a2e37f886eee201b2dedad1687867d02211c175a4fef08d318489111a7"),
        (["--threshold", 2], "c8f8c75eed2bdbcd7bc0a5ed0a3fac1ee9429268fcd2da7cc333eebd0f06bde6"),
    ])
    def test_graph_and_labels(self, tmp_path, flags, digest):
        trade, out = tmp_path / "trade.csv", tmp_path / "trade.dhg"
        trade.write_text(trade_csv(2019), encoding="utf-8")
        assert run(["econ", "build", "--trade", trade, "--year", 2019, *flags,
                    "--output", out]) == 0
        labels = (tmp_path / "trade.labels.csv").read_bytes()
        assert TestRepeatedLinesPinned.sha256(out.read_bytes(), labels) == digest

    def test_zero_denominators_warn_export_then_import(self, tmp_path, capsys):
        # JPN never imports (4 import entries undefined) and no country
        # exports tea (3 export entries undefined).
        trade, out = tmp_path / "trade.csv", tmp_path / "trade.dhg"
        trade.write_text(
            "year,country,product,export_value,import_value\n"
            "2020,USA,apples,100,5\n2020,USA,cars,50,10\n2020,USA,steel,7,30\n2020,USA,tea,0,4\n"
            "2020,DEU,apples,10,80\n2020,DEU,cars,200,5\n2020,DEU,steel,90,2\n2020,DEU,tea,0,9\n"
            "2020,JPN,apples,30,0\n2020,JPN,cars,90,0\n2020,JPN,steel,20,0\n2020,JPN,tea,0,0\n",
            encoding="utf-8")
        assert run(["econ", "build", "--trade", trade, "--year", 2020, "--output", out]) == 0
        assert capsys.readouterr().err == (
            "warning: 3 RCA entries had zero denominators; set to 0\n"
            "warning: 4 RCA entries had zero denominators; set to 0\n"
        )
        assert out.read_text(encoding="utf-8") == "|0\n0|2\n0,1|2\n2|0\n"


class TestRepeatedLinesPinned:
    """Byte pins of each output on graphs with repeated lines, whose copies
    every stage must keep as separate hyperedges."""

    @pytest.fixture
    def repeated(self, tmp_path):
        path = tmp_path / "repeated.dhg"
        path.write_text(TOY + "1|3\n0,1|2\n", encoding="utf-8")
        return path

    @staticmethod
    def sample(repeated, model, out):
        steps = [] if model == "null" else ["--steps", 100]
        assert run(["sample", "--input", repeated, "--model", model, "--samples", 2, *steps,
                    "--seed", 5, "--output-dir", out]) == 0

    @staticmethod
    def sha256(*parts):
        return hashlib.sha256(b"".join(parts)).hexdigest()

    @pytest.mark.parametrize("model, digest", [
        ("degs", "6cbdfab61d1848924274e2cb4d16e60dcafcd4b9136ff5f63a2279e08990b271"),
        ("joint", "7dd2c684a4dc0ebd6d60e0d378d2040989033348a72ee9612ad1930d8e386ade"),
        ("degs-mh", "1ac088b48165c35b4520e81527c0b0fb9bbf373f8378264ec925a80f6fa07d2e"),
        ("null", "ad2774fb7dad46bbaeba7587ea133e433159ecd7481a76a3e93d779c9bfe88b0"),
    ])
    def test_sample(self, tmp_path, repeated, model, digest):
        out = tmp_path / model
        self.sample(repeated, model, out)
        invariants = manifest_of(out / "manifest.json")["invariants"]
        files = [path.read_bytes() for path in sorted(out.glob("*.dhg"))]
        assert self.sha256(*files, json.dumps(invariants, sort_keys=True).encode()) == digest

    @pytest.mark.parametrize("metric, options, digest", [
        ("coreness", ["--side", "head"],
         "ee581c8ba445df3a181dd869e5ca236df519ebeb3569f0586db58d63af6ad100"),
        ("coreness", ["--side", "tail"],
         "260ab0edba13f808bbeb5f5c11ccf29c2e45d96a427c68a590e10a53e22d63ef"),
        ("centrality", [],
         "cb2d14649d3346ea6145e964fc5e86b4b10fe7f1fe3d96b52f8ee99262be8443"),
        ("spectrum", [],
         "71b35683d4a441497b14cdc49c867b511a3583790b25a65859f604725a8efcdb"),
        ("reciprocity", [],
         "733e7e50854bb055f3fc2e23ce6ac9887ca875ca210365d0d59b32b724c1267a"),
    ])
    def test_metric(self, tmp_path, repeated, metric, options, digest):
        self.sample(repeated, "degs", tmp_path / "degs")
        out = tmp_path / "metric.csv"
        assert run(["metric", metric, "--input", repeated, "--samples", tmp_path / "degs",
                    *options, "--output", out]) == 0
        assert self.sha256(out.read_bytes()) == digest

    def test_econ_scores(self, tmp_path):
        econ = tmp_path / "econ.dhg"
        econ.write_text(ECON + "1,5|0,2\n6,7|0,1\n", encoding="utf-8")
        assert run(["econ", "scores", "--input", econ, "--output-dir", tmp_path / "out"]) == 0
        tables = [(tmp_path / "out" / name).read_bytes()
                  for name in ("country_scores.csv", "product_scores.csv")]
        assert self.sha256(*tables) == (
            "b4855e7f5b8d4fe18f04e34a2072dce2db57d821880be3b76741f7b00c3bb317")

    def test_convert_to_undirected(self, tmp_path, repeated):
        out = tmp_path / "repeated.undir"
        assert run(["convert", "--input", repeated, "--to", "undirected",
                    "--output", out]) == 0
        assert self.sha256(out.read_bytes()) == (
            "c0743b6a30090d2eb75b1a18711fc5827112ac36a1bc48c88014e44fd3665dda")


class TestTradeScalePinned:
    """Byte pins of `sample` on trade_scale(2024, m=300): 133 countries and
    300 products, so a slice's neighbour sets span several 64-bit words, and
    the joint tensor has hundreds of classes."""

    @pytest.fixture(scope="class")
    def trade(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trade") / "trade.dhg"
        path.write_text(format_hypergraph(trade_scale(2024, m=300)), encoding="utf-8")
        return path

    @pytest.mark.parametrize("model, flags, digest", [
        ("degs-mh", ["--samples", 1, "--steps", 400],
         "49ab17619be26d20d494a78f8d3e9ee561fb473ce2f7ae69c541f91c32af1fa7"),
        ("joint", ["--samples", 1, "--steps", 5000],
         "df49a49bcd645795fc35b049f8b161283501dd45af3578dc28527c67b6ea490f"),
        ("degs", ["--samples", 2, "--steps", 5000],
         "15e6efe5e4f7491a5de18521f61a607e19c6b6444ab134fce0a2795404eebe41"),
    ])
    def test_sample(self, tmp_path, trade, model, flags, digest):
        out = tmp_path / model
        assert run(["sample", "--input", trade, "--model", model, *flags, "--seed", 7,
                    "--output-dir", out]) == 0
        invariants = manifest_of(out / "manifest.json")["invariants"]
        files = [path.read_bytes() for path in sorted(out.glob("*.dhg"))]
        assert TestRepeatedLinesPinned.sha256(
            *files, json.dumps(invariants, sort_keys=True).encode()) == digest


class TestContagion:
    def test_contact_csv_bytes_pinned(self, tmp_path, capsys):
        # The contact benchmark's pipeline at a smaller size: the contact-scale
        # instance lifted to head = tail, one degs sample of it, and the
        # quasi-stationary sweep over both.
        contact, observed = tmp_path / "contact.hg", tmp_path / "observed.dhg"
        samples, out = tmp_path / "degs", tmp_path / "sis.csv"
        contact.write_text(format_undirected(contact_scale()), encoding="utf-8")
        assert run(["convert", "--input", contact, "--to", "directed", "--output", observed]) == 0
        assert run(["sample", "--input", observed, "--samples", 1, "--steps", 20000,
                    "--seed", 5, "--output-dir", samples]) == 0
        capsys.readouterr()
        assert run(["contagion", "--input", observed, "--dataset", "lyon",
                    "--samples", f"degs={samples}", "--nu", 1, "--nu", 2,
                    "--lambda-grid", "0.03,0.06,0.12", "--method", "quasi-stationary",
                    "--burn-in", 10, "--sample-count", 30, "--seed", 5, "--output", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b795520ed8b56a9b01ea705f50e73c5e91801f42533da6e244f1554772381c02"
        )
        assert capsys.readouterr().err == (
            "warning: infected density is still drifting across the sampling "
            "window; consider a longer burn-in\n"
        )

    def test_exact_columns_and_zero_lambda(self, tmp_path, toy):
        out = tmp_path / "sis.csv"
        assert run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid",
                    "0,0.4", "--lambda-c", 0.2, "--seed", 9, "--burn-in", 2,
                    "--sample-count", 20, "--output", out]) == 0
        header, rows = read_rows(out)
        assert header == ["dataset", "sampler", "sampleId", "nu", "lambda",
                          "lambdaOverLambdaC", "rhoMean", "rhoStd", "method"]
        assert [row[4] for row in rows] == ["0", "0.4"]
        assert rows[0][0] == "toy"
        assert rows[0][1] == "observed" and rows[0][2] == ""
        assert float(rows[0][6]) == 0.0
        assert float(rows[1][5]) == 2.0
        assert all(row[8] == "stationary" for row in rows)

    def test_samples_add_rows_per_file(self, tmp_path, toy, sample_dir):
        out = tmp_path / "sis.csv"
        assert run(["contagion", "--input", toy, "--samples",
                    f"degs={sample_dir}", "--nu", 1, "--lambda-grid", "0.3",
                    "--seed", 1, "--burn-in", 2, "--sample-count", 10,
                    "--output", out]) == 0
        _, rows = read_rows(out)
        assert [(row[1], row[2]) for row in rows] == [
            ("observed", ""), ("degs", "0"), ("degs", "1"), ("degs", "2"),
        ]

    @pytest.mark.filterwarnings("ignore:infected density:RuntimeWarning")
    def test_reruns_are_byte_identical(self, tmp_path, toy):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run(["contagion", "--input", toy, "--nu", 2,
                        "--lambda-grid", "0.1,0.6", "--method",
                        "quasi-stationary", "--seed", 13, "--burn-in", 2,
                        "--sample-count", 30, "--output", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_dataset_leaves_rescaled_blank(self, tmp_path, toy):
        out = tmp_path / "sis.csv"
        assert run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid",
                    "0.2", "--burn-in", 1, "--sample-count", 5,
                    "--output", out]) == 0
        _, rows = read_rows(out)
        assert rows[0][5] == ""

    def test_known_dataset_uses_shipped_thresholds(self, tmp_path, toy):
        out = tmp_path / "sis.csv"
        assert run(["contagion", "--input", toy, "--dataset", "lyon", "--nu",
                    1, "--lambda-grid", "0.0474", "--burn-in", 1,
                    "--sample-count", 5, "--output", out]) == 0
        _, rows = read_rows(out)
        assert float(rows[0][5]) == pytest.approx(1.0)

    @pytest.fixture
    def thresholds(self, tmp_path):
        path = tmp_path / "thresholds.json"
        entry = {"lambda_c_linear": 0.25, "lambda_c_superlinear": 0.5}
        path.write_text(json.dumps({"toy": entry}), encoding="utf-8")
        return path

    def test_thresholds_file_sets_rescaled_lambda(self, tmp_path, toy, thresholds):
        out = tmp_path / "sis.csv"
        assert run(["contagion", "--input", toy, "--dataset", "toy", "--nu", 1,
                    "--nu", 2, "--lambda-grid", "0.5", "--burn-in", 1,
                    "--sample-count", 5, "--thresholds", thresholds,
                    "--output", out]) == 0
        _, rows = read_rows(out)
        assert [(row[3], row[5]) for row in rows] == [("1", "2"), ("2", "1")]

    def test_thresholds_file_is_read_once(self, tmp_path, toy, thresholds, reads):
        out = tmp_path / "sis.csv"
        assert run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid", "0.5",
                    "--burn-in", 1, "--sample-count", 5, "--thresholds", thresholds,
                    "--output", out]) == 0
        assert (reads[str(toy)], reads[str(thresholds)]) == (1, 1)
        assert_inputs_hashed(tmp_path / "sis.csv.manifest.json", [toy, thresholds])

    def test_lambda_c_and_thresholds_are_exclusive(self, tmp_path, toy, thresholds,
                                                   capsys, reads):
        out = tmp_path / "sis.csv"
        code = run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid", "0.5",
                    "--lambda-c", 0.2, "--thresholds", thresholds, "--output", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --lambda-c and --thresholds are exclusive\n"
        )
        assert (reads[str(toy)], reads[str(thresholds)]) == (0, 0)
        assert sorted(tmp_path.iterdir()) == sorted([thresholds, toy])

    def test_superlinear_nu_uses_other_threshold(self, tmp_path, toy):
        out = tmp_path / "sis.csv"
        assert run(["contagion", "--input", toy, "--dataset", "lyon", "--nu",
                    2.5415, "--lambda-grid", "0.0382", "--burn-in", 1,
                    "--sample-count", 5, "--output", out]) == 0
        _, rows = read_rows(out)
        assert float(rows[0][5]) == pytest.approx(1.0)

    @pytest.mark.filterwarnings("ignore:infected density:RuntimeWarning")
    @pytest.mark.parametrize("flag", [["--qs-history", 20], ["--snapshot-interval", 0.5]],
                             ids=["qs-history", "snapshot-interval"])
    def test_quasi_stationary_flags_need_that_method(self, tmp_path, toy, capsys, flag):
        out = tmp_path / "sis.csv"
        code = run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid", "0.3",
                    "--burn-in", 1, "--sample-count", 5, *flag, "--output", out])
        assert code == 1
        assert "need --method quasi-stationary" in capsys.readouterr().err
        assert not out.exists()
        assert run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid", "0.3",
                    "--method", "quasi-stationary", "--burn-in", 1,
                    "--sample-count", 5, *flag, "--output", out]) == 0

    @pytest.mark.parametrize("flag", [["--lambda-grid", "inf"], ["--lambda-grid", "nan"],
                                      ["--mu", "nan"], ["--nu", "nan"],
                                      ["--lambda-c", "nan"], ["--lambda-c", "inf"],
                                      ["--lambda-c", "0"], ["--lambda-c", "-1"]],
                             ids=["lambda-inf", "lambda-nan", "mu-nan", "nu-nan", "lambda-c-nan",
                                  "lambda-c-inf", "lambda-c-zero", "lambda-c-negative"])
    def test_non_finite_parameters_fail_cleanly(self, tmp_path, toy, capsys, flag):
        out = tmp_path / "sis.csv"
        code = run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid", "0.3",
                    "--burn-in", 1, "--sample-count", 5, *flag, "--output", out])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_drift_warning_is_one_line_without_a_path(self, tmp_path, toy, capsys):
        # Pure recovery from full infection drifts through the sampling window.
        showwarning, filters = warnings.showwarning, list(warnings.filters)
        assert run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid", "0",
                    "--mu", 0.05, "--rho0", 1, "--burn-in", 0, "--sample-count", 40,
                    "--seed", 14, "--output", tmp_path / "sis.csv"]) == 0
        assert capsys.readouterr().err == (
            "warning: infected density is still drifting across the sampling "
            "window; consider a longer burn-in\n"
        )
        assert warnings.showwarning is showwarning
        assert warnings.filters == filters

    def test_any_worker_count_gives_the_same_bytes(self, tmp_path, toy, sample_dir,
                                                   capsys, monkeypatch):
        # Recovery from full infection drifts, so runs warn; the CSV, the
        # warning lines and the manifest (but for timings) must not depend on
        # how many processes the runs were spread over.
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            (tmp_path / str(cpus)).mkdir()
            out = tmp_path / str(cpus) / "sis.csv"
            assert run(["contagion", "--input", toy, "--samples", f"degs={sample_dir}",
                        "--nu", 1, "--nu", 2, "--lambda-grid", "0,0.3",
                        "--method", "quasi-stationary", "--mu", 0.05, "--rho0", 1,
                        "--burn-in", 0, "--sample-count", 40, "--seed", 14,
                        "--output", out]) == 0
            assert_no_child()
            manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
            timings = manifest.pop("timings")
            assert timings["workers"] == cpus
            assert len(timings["runs_s"]) == 16  # 4 graphs x 2 nu x 2 lambda
            manifest["command"].remove(str(out))
            outputs.append((out.read_bytes(), capsys.readouterr().err, manifest))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] == (
            "warning: infected density is still drifting across the sampling "
            "window; consider a longer burn-in\n"
        )

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_error_in_a_run_fails_cleanly(self, tmp_path, toy, capsys, monkeypatch, cpus):
        def fails(substrate, cfg):
            raise ValueError(f"no run at lambda {cfg.lam}")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(hypernull.contagion, "run_stationary", fails)
        out = tmp_path / "sis.csv"
        code = run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid", "0.1,0.2,0.3",
                    "--output", out])
        assert code == 1
        assert capsys.readouterr().err == "error: no run at lambda 0.1\n"
        assert_no_child()
        assert not out.exists()
        code = run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid", "0.1,0.2",
                    "--rho0", 2, "--output", out])
        assert code == 1
        assert capsys.readouterr().err == "error: rho0 must lie in [0, 1], got 2.0\n"

    @pytest.mark.filterwarnings("ignore:infected density:RuntimeWarning")
    def test_sis_flags_at_their_defaults_change_nothing(self, tmp_path, toy):
        defaults = SISConfig(lam=0.0, nu=1.0)
        flags = {
            "--mu": defaults.mu, "--rho0": defaults.rho0, "--burn-in": defaults.burn_in,
            "--sample-count": defaults.sample_count, "--decorrelation": defaults.decorrelation,
            "--qs-history": defaults.qs_history_size,
            "--snapshot-interval": defaults.snapshot_interval,
        }
        outs = []
        for name, given in (("bare.csv", []), ("given.csv", [*itertools.chain(*flags.items())])):
            out = tmp_path / name
            assert run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid", "0.3",
                        "--method", "quasi-stationary", "--seed", 3, *given,
                        "--output", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_usage_names_every_sis_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["contagion", "--help"])
        usage = " ".join(capsys.readouterr().out.split())
        for flag in ("--mu MU", "--rho0 RHO0", "--burn-in BURN_IN", "--sample-count SAMPLE_COUNT",
                     "--decorrelation DECORRELATION", "--qs-history QS_HISTORY",
                     "--snapshot-interval SNAPSHOT_INTERVAL"):
            assert f"[{flag}]" in usage

    def test_empty_grid_fails(self, tmp_path, toy, capsys):
        code = run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid",
                    ",", "--output", tmp_path / "x.csv"])
        assert code == 1
        assert "empty --lambda-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "thresholds must be a JSON object, not list"),
        ('{"toy": 1}', "thresholds entry 'toy' must be a JSON object, not int"),
        ('{"toy": {"lambda_c_linear": "abc", "lambda_c_superlinear": 1}}',
         "thresholds entry 'toy': could not convert string to float: 'abc'"),
        ('{"toy": {"lambda_c_linear": NaN, "lambda_c_superlinear": 1}}',
         "thresholds entry 'toy': values must be finite and > 0, got [nan, 1.0]"),
        ('{"toy": {"lambda_c_linear": -1, "lambda_c_superlinear": 1}}',
         "thresholds entry 'toy': values must be finite and > 0, got [-1.0, 1.0]"),
    ], ids=["array", "number-entry", "string-value", "nan-value", "negative-value"])
    def test_thresholds_of_the_wrong_shape_fail_cleanly(self, tmp_path, toy, capsys,
                                                         text, message):
        path = tmp_path / "thresholds.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "sis.csv"
        code = run(["contagion", "--input", toy, "--nu", 1, "--lambda-grid", "0.5",
                    "--thresholds", path, "--output", out])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestWorkerCounts:
    """Every subcommand that measures several graphs spreads them, or its
    independent chains, over one worker per usable CPU, itself and forked
    children; its files, stderr and manifest (but for timings) do not depend
    on the count."""

    @staticmethod
    def same_for_any_worker_count(tmp_path, monkeypatch, capsys, argv, tasks=None):
        """Run argv, whose OUT names a fresh directory, at 1 and 2 CPUs and
        compare every file written there, stderr and the manifest."""
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"cpus{cpus}"
            out.mkdir()
            capsys.readouterr()
            assert run([str(a).replace("OUT", str(out)) for a in argv]) == 0
            assert_no_child()
            files, manifest = {}, None
            for path in sorted(out.rglob("*")):
                if path.name.endswith("manifest.json"):
                    manifest = manifest_of(path)
                else:
                    files[str(path.relative_to(out))] = path.read_bytes()
            timings = manifest.pop("timings")
            if tasks is not None:
                assert timings["workers"] == min(cpus, tasks)
                assert len(timings.get("graphs_s", timings.get("samples_s"))) == tasks
            manifest["command"] = [a.replace(str(out), "OUT") for a in manifest["command"]]
            printed = [text.replace(str(out), "OUT") for text in capsys.readouterr()]
            outputs.append((files, printed, manifest))
        assert outputs[0] == outputs[1]
        return outputs[0]

    @pytest.mark.parametrize("metric, options", [
        ("reciprocity", []),
        ("coreness", ["--side", "tail"]),
        ("entropy", []),
        ("centrality", []),
        ("spectrum", ["--k", 3]),
    ])
    def test_metric(self, tmp_path, toy, sample_dir, monkeypatch, capsys, metric, options):
        # The observed graph and three samples; entropy measures the samples only.
        files, _, manifest = self.same_for_any_worker_count(
            tmp_path, monkeypatch, capsys,
            ["metric", metric, "--input", toy, "--samples", sample_dir, *options,
             "--output", "OUT/out.csv"],
            tasks=3 if metric == "entropy" else 4)
        assert list(files) == ["out.csv"]
        assert len(manifest["inputs"]) == 4

    def test_econ_compare_over_two_samplers(self, tmp_path, monkeypatch, capsys):
        econ = tmp_path / "econ.dhg"
        econ.write_text(ECON, encoding="utf-8")
        for model in ("degs", "joint"):
            assert run(["sample", "--input", econ, "--model", model, "--samples", 2,
                        "--steps", 300, "--seed", 4, "--output-dir", tmp_path / model]) == 0
        self.same_for_any_worker_count(
            tmp_path, monkeypatch, capsys,
            ["econ", "compare", "--observed", econ, "--samples", f"degs={tmp_path / 'degs'}",
             "--samples", f"joint={tmp_path / 'joint'}", "--output", "OUT/compare.csv"],
            tasks=5)  # the observed graph and four samples
        _, rows = read_rows(tmp_path / "cpus2" / "compare.csv")
        assert [row[:3] for row in rows] == [
            ["degs", "eci", "2"], ["degs", "fitness", "2"], ["degs", "genepy", "2"],
            ["joint", "eci", "2"], ["joint", "fitness", "2"], ["joint", "genepy", "2"],
        ]

    def test_affinity(self, tmp_path, monkeypatch, capsys):
        sponsor, labels = tmp_path / "sponsor.dhg", tmp_path / "labels.csv"
        sponsor.write_text(SPONSOR, encoding="utf-8")
        labels.write_text(LABELS, encoding="utf-8")
        for model in ("degs", "null"):
            assert run(["sample", "--input", sponsor, "--model", model, "--samples", 2,
                        "--seed", 2, "--output-dir", tmp_path / model]) == 0
        self.same_for_any_worker_count(
            tmp_path, monkeypatch, capsys,
            ["affinity", "--input", sponsor, "--labels", labels,
             "--samples", f"degs={tmp_path / 'degs'}", "--samples", f"null={tmp_path / 'null'}",
             "--k-min", 1, "--k-max", 3, "--output", "OUT/aff.csv"],
            tasks=5)  # the observed graph and four samples

    @pytest.mark.parametrize("model", MODELS)
    def test_sample(self, tmp_path, toy, monkeypatch, capsys, model):
        steps = [] if model == "null" else ["--steps", 200]
        files, printed, _ = self.same_for_any_worker_count(
            tmp_path, monkeypatch, capsys,
            ["sample", "--input", toy, "--model", model, "--samples", 3, *steps,
             "--seed", 9, "--output-dir", "OUT"],
            tasks=3)
        assert sorted(files) == ["sample_0.dhg", "sample_1.dhg", "sample_2.dhg"]
        assert printed == ["wrote 3 samples to OUT (verified)\n", ""]

    def test_thinned_sample_is_one_chain(self, tmp_path, toy, monkeypatch, capsys):
        files, _, manifest = self.same_for_any_worker_count(
            tmp_path, monkeypatch, capsys,
            ["sample", "--input", toy, "--samples", 3, "--steps", 50, "--thinning", 10,
             "--seed", 9, "--output-dir", "OUT"])
        assert len(files) == 3
        assert len(manifest["invariants"]["samples"]) == 3

    def test_without_fork_the_tasks_run_here(self, tmp_path, toy, sample_dir, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "core.csv"
        assert run(["metric", "coreness", "--input", toy, "--samples", sample_dir,
                    "--output", out]) == 0
        assert manifest_of(Path(f"{out}.manifest.json"))["timings"]["workers"] == 1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_corrupted_second_sample_fails_cleanly(self, tmp_path, toy, sample_dir,
                                                     monkeypatch, capsys, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        (sample_dir / "sample_1.dhg").write_text(TOY + "0|3\n", encoding="utf-8")
        out = tmp_path / "spectrum.csv"
        assert run(["metric", "spectrum", "--input", toy, "--samples", sample_dir,
                    "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {sample_dir / 'sample_1.dhg'} differs from its sha256 in "
            f"{sample_dir / 'manifest.json'}\n"
        )
        assert_no_child()
        assert not out.exists()

    @pytest.mark.parametrize("command", ["econ", "affinity"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_changed_sample_fails_cleanly(self, tmp_path, monkeypatch, capsys, cpus,
                                            command):
        # The sample's task checks its bytes against the manifest's sha256.
        observed, labels = tmp_path / "econ.dhg", tmp_path / "labels.csv"
        observed.write_text(ECON, encoding="utf-8")
        labels.write_text("node_id,category\n" + "".join(f"{v},c{v % 2}\n" for v in range(8)),
                          encoding="utf-8")
        samples = tmp_path / "degs"
        assert run(["sample", "--input", observed, "--samples", 3, "--steps", 100,
                    "--seed", 4, "--output-dir", samples]) == 0
        (samples / "sample_1.dhg").write_text(ECON, encoding="utf-8")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        argv = {
            "econ": ["econ", "compare", "--observed", observed, "--samples", f"degs={samples}"],
            "affinity": ["affinity", "--input", observed, "--labels", labels,
                         "--samples", f"degs={samples}"],
        }[command]
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert run([*argv, "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {samples / 'sample_1.dhg'} differs from its sha256 in "
            f"{samples / 'manifest.json'}\n"
        )
        assert_no_child()
        assert not out.exists()
        assert not Path(f"{out}.manifest.json").exists()

    @pytest.mark.parametrize("texts, message", [
        ((ECON, ECON.replace(",7|", "|")),
         "sample country set differs from observed in 'm'"),
        # A sample whose scoring raises is reported before any country set
        # is compared, wherever it stands.
        ((ECON.replace(",7|", "|"), "0|1\n0|2\n"), "ECI needs at least two countries"),
    ], ids=["mismatch", "raising-sample-first"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_econ_compare_rejects_another_country_set(self, tmp_path, monkeypatch, capsys,
                                                      cpus, texts, message):
        # Country 7 exports nothing in the sample, so its scores leave it out.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        observed, samples = tmp_path / "econ.dhg", tmp_path / "bare"
        observed.write_text(ECON, encoding="utf-8")
        samples.mkdir()
        for index, text in enumerate(texts):
            (samples / f"sample_{index}.dhg").write_text(text, encoding="utf-8")
        out = tmp_path / "compare.csv"
        assert run(["econ", "compare", "--observed", observed, "--samples", f"m={samples}",
                    "--output", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert_no_child()
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metric", "econ", "affinity"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_parse_error_in_a_sample_fails_cleanly(self, tmp_path, monkeypatch, capsys,
                                                     cpus, command):
        # Samples 1 and 2 are both malformed: the first in sample order is named.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        observed, labels = tmp_path / "econ.dhg", tmp_path / "labels.csv"
        observed.write_text(ECON, encoding="utf-8")
        labels.write_text("node_id,category\n" + "".join(f"{v},c{v % 2}\n" for v in range(8)),
                          encoding="utf-8")
        samples = tmp_path / "bare"
        samples.mkdir()
        for index, text in enumerate((ECON, ECON + "1|2|3\n", "1,x|2\n")):
            (samples / f"sample_{index}.dhg").write_text(text, encoding="utf-8")
        argv = {
            "metric": ["metric", "coreness", "--input", observed, "--samples", samples],
            "econ": ["econ", "compare", "--observed", observed, "--samples", f"degs={samples}"],
            "affinity": ["affinity", "--input", observed, "--labels", labels,
                         "--samples", f"degs={samples}"],
        }[command]
        out = tmp_path / "out.csv"
        assert run([*argv, "--output", out]) == 1
        assert capsys.readouterr().err == "error: line 13: expected exactly one '|'\n"
        assert_no_child()
        assert not out.exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_first_unverified_sample_is_reported(self, tmp_path, toy, monkeypatch,
                                                     capsys, cpus):
        draw = Chains.draw

        def broken_after_zero(self, index):
            return draw(self, index) if index == 0 else parse_hypergraph("0|1\n")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(Chains, "draw", broken_after_zero)
        out = tmp_path / "bad"
        assert run(["sample", "--input", toy, "--samples", 3, "--steps", 50,
                    "--output-dir", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        assert err[0] == f"invariant verification failed for {out / 'sample_1.dhg'}"
        assert_no_child()
        # The run's manifest lists no samples, so no reader takes the files.
        rec = tmp_path / "rec.csv"
        assert run(["metric", "reciprocity", "--input", toy, "--samples", out,
                    "--output", rec]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {out / 'manifest.json'} has no list of samples")
        assert not rec.exists()

    def test_blas_runs_one_thread_whatever_the_environment(self, tmp_path):
        # LAPACK's bits depend on its thread count: on a multi-CPU machine
        # the noise-level zero eigenvalues of this spectrum differ between
        # one and two OpenBLAS threads unless main() pins one.
        observed = tmp_path / "metabolic.dhg"
        observed.write_text(format_hypergraph(metabolic_scale(101)), encoding="utf-8")
        src = Path(hypernull.cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(name, None)

        def cli(*argv, **extra):
            subprocess.run([sys.executable, "-m", "hypernull.cli", *map(str, argv)],
                           env={**env, **extra}, check=True, capture_output=True, timeout=300)

        cli("sample", "--input", observed, "--samples", 1, "--steps", 20000, "--seed", 3,
            "--output-dir", tmp_path / "degs")
        spectra = []
        for threads in (None, "1", "2"):
            out = tmp_path / f"spectrum_{threads}.csv"
            cli("metric", "spectrum", "--input", observed, "--samples", tmp_path / "degs",
                "--output", out, **({} if threads is None else {"OPENBLAS_NUM_THREADS": threads}))
            spectra.append(out.read_bytes())
        assert spectra[0] == spectra[1] == spectra[2]


class NeedsTwo(ValueError):
    """Pickles, but does not load again: unpickling calls NeedsTwo(a)."""

    def __init__(self, a, b):
        super().__init__(a)


class TestForkMap:
    """_map over this process and forked children (two workers unless a test
    says otherwise): tasks are handed out in order as workers free up,
    failures come back in task order, and no child outlives the call."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @staticmethod
    def in_child(marker):
        """A test of where a task runs: in the child it creates marker and
        answers True; here it waits until a child has created marker and
        answers False.  So of two tasks, each process runs one."""
        parent = os.getpid()

        def test():
            if os.getpid() != parent:
                marker.touch()
                return True
            deadline = time.monotonic() + 60
            while not marker.exists():
                assert time.monotonic() < deadline, "no child took a task"
                time.sleep(0.002)
            return False

        return test

    def test_a_long_task_holds_up_one_worker(self, tmp_path):
        # Task 0 finishes only after task 7 has run: the worker that holds
        # task 0 must leave tasks 1-7 to the other.
        marker = tmp_path / "task7"

        def fn(task):
            deadline = time.monotonic() + 60
            while task == 0 and not marker.exists():
                assert time.monotonic() < deadline, "task 0's worker was handed task 7"
                time.sleep(0.002)
            if task == 7:
                marker.touch()
            return os.getpid()

        pids, seconds, workers = hypernull.cli._map(fn, range(8))
        assert workers == 2 and len(seconds) == 8
        assert pids[0] not in pids[1:]
        assert len(set(pids[1:])) == 1
        assert os.getpid() in pids
        assert_no_child()

    def test_every_task_runs_once_under_contention(self, tmp_path, monkeypatch):
        # Eight workers on fewer cores share one pipe of 20000 four-byte
        # indices, more than a 64 KiB pipe holds, so this process also takes
        # tasks itself while the pipe is full.  Each call appends its task to
        # one file (a whole line per O_APPEND write): a lost or repeated
        # index shows there.  SIGALRM bounds the test's time.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        log = os.open(tmp_path / "calls", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def fn(task):
            os.write(log, b"%d\n" % task)
            return 2 * task

        def expire(signum, frame):
            raise TimeoutError("the map did not finish in 120 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        try:
            results, seconds, workers = hypernull.cli._map(fn, range(20000))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            os.close(log)
        assert results == [2 * task for task in range(20000)]
        assert workers == 8 and len(seconds) == 20000
        calls = (tmp_path / "calls").read_text(encoding="ascii").split()
        assert sorted(map(int, calls)) == list(range(20000))
        assert_no_child()

    def test_an_exception_from_a_child_carries_its_traceback(self, tmp_path):
        in_child = self.in_child(tmp_path / "marker")

        def fn(task):
            if in_child():
                raise ValueError(f"bad task {task}")
            return task

        with pytest.raises(ValueError, match=r"^bad task [01]$") as raised:
            hypernull.cli._map(fn, [0, 1])
        assert isinstance(raised.value.__cause__, WorkerError)
        assert "in fn\n" in str(raised.value.__cause__)
        assert_no_child()

    @pytest.mark.parametrize("kind", ["does-not-pickle", "does-not-load"])
    def test_an_exception_that_cannot_come_back_is_a_traceback(self, tmp_path, kind):
        # A WorkerError is no user error, so main() does not print it as one.
        assert not issubclass(WorkerError, (ValueError, OSError, RuntimeError))
        in_child = self.in_child(tmp_path / "marker")

        class Local(ValueError):
            """Pickled by reference to a name that cannot be looked up."""

        def fn(task):
            if in_child():
                raise Local("boom") if kind == "does-not-pickle" else NeedsTwo("boom", 2)
            return task

        with pytest.raises(WorkerError, match="(Local|NeedsTwo): boom"):
            hypernull.cli._map(fn, [0, 1])
        assert_no_child()

    def test_a_result_that_cannot_come_back_is_a_traceback(self, tmp_path):
        in_child = self.in_child(tmp_path / "marker")

        def fn(task):
            return (lambda: task) if in_child() else task

        with pytest.raises(WorkerError, match="pickle"):
            hypernull.cli._map(fn, [0, 1])
        assert_no_child()

    def test_a_child_that_dies_is_an_error(self, tmp_path):
        in_child = self.in_child(tmp_path / "marker")

        def fn(task):
            if in_child():
                os._exit(3)
            return task

        with pytest.raises(RuntimeError, match=r"^a worker process ended without returning task [01]$"):
            hypernull.cli._map(fn, [0, 1])
        assert_no_child()

    def test_keyboard_interrupt_mid_map_leaves_no_child(self, tmp_path):
        # The child is mid-task, asleep, when this process is interrupted.
        in_child = self.in_child(tmp_path / "marker")

        def fn(task):
            if in_child():
                time.sleep(120)
            else:
                raise KeyboardInterrupt
            return task

        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            hypernull.cli._map(fn, [0, 1])
        assert_no_child()
        assert time.monotonic() - started < 60


class TestCollector:
    """main() turns the cyclic garbage collector off while a subcommand runs.

    That is safe because a subcommand leaves next to no cyclic garbage: after
    one, gc.collect() finds at most CYCLIC_GARBAGE objects, however large the
    input (none once warm; a first import of numpy leaves 11).  With the
    collector on, it would walk every live set and tuple of the graphs over
    and over and free nothing more.
    """

    CYCLIC_GARBAGE = 32

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_main_restores_the_collector(self, tmp_path, toy, monkeypatch, enabled):
        convert = ["convert", "--to", "directed", "--output", tmp_path / "out.dhg"]
        states = []

        def fails(args, manifest):
            states.append(gc.isenabled())
            raise KeyError("a programming error propagates")

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run([*convert, "--input", toy]) == 0
            states.append(gc.isenabled())
            assert run([*convert, "--input", tmp_path / "missing.dhg"]) == 1
            states.append(gc.isenabled())
            monkeypatch.setattr(hypernull.cli, "cmd_convert", fails)
            with pytest.raises(KeyError):
                run([*convert, "--input", toy])
            states.append(gc.isenabled())
        finally:
            (gc.enable if was else gc.disable)()
        assert states == [enabled, enabled, False, enabled]

    @pytest.mark.parametrize("argv", [
        ["sample", "--model", "degs", "--samples", 3, "--steps", 200, "--output-dir", "OUT"],
        ["sample", "--model", "joint", "--samples", 3, "--steps", 200, "--output-dir", "OUT"],
        ["sample", "--model", "degs-mh", "--samples", 3, "--steps", 200, "--output-dir", "OUT"],
        ["sample", "--model", "null", "--samples", 3, "--output-dir", "OUT"],
        ["metric", "reciprocity", "--samples", "SAMPLES", "--output", "OUT"],
        ["metric", "coreness", "--samples", "SAMPLES", "--output", "OUT"],
        ["metric", "centrality", "--samples", "SAMPLES", "--output", "OUT"],
        ["metric", "spectrum", "--samples", "SAMPLES", "--output", "OUT"],
        ["contagion", "--samples", "degs=SAMPLES", "--nu", 1, "--lambda-grid", "0.3,0.6",
         "--burn-in", 2, "--sample-count", 10, "--output", "OUT"],
    ], ids=lambda argv: "-".join(str(a) for a in argv[:3]))
    def test_a_subcommand_leaves_no_cyclic_garbage(self, tmp_path, toy, argv):
        samples = tmp_path / "samples"
        assert run(["sample", "--input", toy, "--samples", 2, "--output-dir", samples]) == 0
        argv = [str(a).replace("SAMPLES", str(samples)).replace("OUT", str(tmp_path / "out"))
                for a in [*argv, "--input", toy]]
        assert self.cyclic_garbage(argv) <= self.CYCLIC_GARBAGE

    @pytest.mark.parametrize("model", ["degs", "joint", "degs-mh", "null"])
    def test_sampling_a_larger_graph_leaves_no_more(self, tmp_path, model):
        observed = tmp_path / "metabolic.dhg"
        observed.write_text(format_hypergraph(metabolic_scale(101)), encoding="utf-8")
        steps = [] if model == "null" else ["--steps", "2000"]
        argv = ["sample", "--input", str(observed), "--model", model, "--samples", "2",
                *steps, "--output-dir", str(tmp_path / "out")]
        assert self.cyclic_garbage(argv) <= self.CYCLIC_GARBAGE

    @staticmethod
    def cyclic_garbage(argv) -> int:
        """Objects gc.collect() finds after one subcommand run with the
        collector off, as main() runs it."""
        args, manifest = build_parser().parse_args(argv), RunManifest(command=[])
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert args.func(args, manifest) == 0
        finally:
            if was:
                gc.enable()
        return gc.collect()


class TestHelpers:
    def test_fmt_floats_use_12_significant_digits(self):
        assert _fmt(1 / 3) == "0.333333333333"
        assert _fmt(None) == ""
        assert _fmt(5) == "5"
        assert _fmt(2.0) == "2"

    def test_parse_model_dirs_rejects_bad_entries(self, tmp_path):
        with pytest.raises(ValueError, match="MODEL=DIR"):
            _parse_model_dirs(["degs"])
        d = tmp_path / "s"
        d.mkdir()
        (d / "sample_0.dhg").write_text(TOY, encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            _parse_model_dirs([f"a={d}", f"a={d}"])

    def test_parse_model_dirs_orders_by_index(self, tmp_path):
        d = tmp_path / "s"
        d.mkdir()
        for i in (0, 2, 10):
            (d / f"sample_{i}.dhg").write_text(TOY, encoding="utf-8")
        files = _parse_model_dirs([f"m={d}"])["m"]
        assert [path.name for path, _, _ in files] == [
            "sample_0.dhg", "sample_2.dhg", "sample_10.dhg",
        ]

    def test_empty_sample_dir_fails(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(ValueError, match="no .dhg sample files"):
            _parse_model_dirs([f"m={d}"])

    def test_manifest_is_the_sample_list(self, tmp_path, toy):
        # A smaller run into the same directory leaves sample_1/2.dhg behind;
        # only the sample its manifest lists is read.
        out = tmp_path / "s"
        for count in (3, 1):
            assert run(["sample", "--input", toy, "--samples", count,
                        "--seed", count, "--output-dir", out]) == 0
        assert (out / "sample_2.dhg").exists()
        rec = tmp_path / "rec.csv"
        assert run(["metric", "reciprocity", "--input", toy, "--samples", out,
                    "--output", rec]) == 0
        _, rows = read_rows(rec)
        assert rows[0][3] == "1"

    def test_an_interrupted_run_leaves_a_refused_directory(self, tmp_path, toy, monkeypatch):
        # A finished run's directory, then a run into it cut short after its
        # first sample: neither run's files are read.
        out = tmp_path / "s"
        assert run(["sample", "--input", toy, "--samples", 3, "--output-dir", out]) == 0
        draw = Chains.draw

        def interrupted_after_zero(self, index):
            if index:
                raise KeyboardInterrupt
            return draw(self, index)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(Chains, "draw", interrupted_after_zero)
        with pytest.raises(KeyboardInterrupt):
            run(["sample", "--input", toy, "--samples", 3, "--seed", 1, "--output-dir", out])
        with pytest.raises(ValueError, match="has no list of samples"):
            _parse_model_dirs([f"m={out}"])

    def test_corrupt_manifest_is_a_clean_error(self, tmp_path, toy, sample_dir, capsys):
        manifest = sample_dir / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:60])
        out = tmp_path / "rec.csv"
        assert run(["metric", "reciprocity", "--input", toy, "--samples", sample_dir,
                    "--output", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {manifest} is not valid JSON: ")
        assert not out.exists()

    def test_sample_not_matching_manifest_is_rejected(self, sample_dir):
        (sample_dir / "sample_1.dhg").unlink()
        with pytest.raises(ValueError, match="sample_1.dhg is listed"):
            _parse_model_dirs([f"m={sample_dir}"])

    @pytest.mark.parametrize("entry", ["../outside.dhg", "sub/sample_0.dhg", 5],
                             ids=["parent", "subdirectory", "number"])
    def test_listed_name_must_be_a_plain_file_name(self, tmp_path, toy, sample_dir, entry,
                                                   capsys):
        (tmp_path / "outside.dhg").write_text(TOY, encoding="utf-8")
        (sample_dir / "sub").mkdir()
        (sample_dir / "sub" / "sample_0.dhg").write_text(TOY, encoding="utf-8")
        manifest = sample_dir / "manifest.json"
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        payload["invariants"]["samples"][0]["file"] = entry
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "rec.csv"
        assert run(["metric", "reciprocity", "--input", toy, "--samples", sample_dir,
                    "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {manifest} lists {entry!r}, which is not a plain file name\n")
        assert not out.exists()

    def test_sample_changed_after_verification_is_rejected(self, tmp_path, toy, sample_dir,
                                                           monkeypatch, capsys):
        # The file changes after the listing was checked and before the
        # task that measures it reads it, in this process or in a worker.
        listed, changed = hypernull.cli._sample_files, sample_dir / "sample_1.dhg"
        original = changed.read_bytes()

        def then_changed(directory):
            files = listed(directory)
            changed.write_text(TOY, encoding="utf-8")
            return files

        monkeypatch.setattr(hypernull.cli, "_sample_files", then_changed)
        out = tmp_path / "core.csv"
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            changed.write_bytes(original)
            assert run(["metric", "coreness", "--input", toy, "--samples", sample_dir,
                        "--output", out]) == 1
            assert capsys.readouterr().err == (
                f"error: {changed} differs from its sha256 in {sample_dir / 'manifest.json'}\n"
            )
            assert_no_child()
            assert not out.exists()

    def test_programming_error_is_not_a_user_error(self, tmp_path, toy,
                                                   monkeypatch):
        def broken(args, manifest):
            raise KeyError("bug")

        monkeypatch.setattr(hypernull.cli, "cmd_convert", broken)
        with pytest.raises(KeyError):
            run(["convert", "--input", toy, "--to", "directed",
                 "--output", tmp_path / "x.dhg"])

    def test_import_leaves_scipy_out(self):
        # scipy.stats takes about a second to import, and no subcommand
        # needs it, so none should pay for it.
        src = Path(hypernull.cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, hypernull.cli; print('scipy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True, timeout=120)
        assert result.stdout.strip() == "False"

    def test_import_leaves_logging_out(self):
        # The package reports through return values, warnings and errors;
        # a logger's line would reach stderr unprefixed and out of task order.
        src = Path(hypernull.cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, hypernull.cli; assert 'logging' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

    def test_import_leaves_numpy_out(self, tmp_path, toy):
        # Importing numpy costs about 0.1 s per process; only the econ
        # subcommands, centrality and spectrum need it, so sampling must not.
        src = Path(hypernull.cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, hypernull.cli; print('numpy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True, timeout=120)
        assert result.stdout.strip() == "False"
        code = (
            "import sys; from hypernull.cli import main; "
            f"main(['sample', '--input', {str(toy)!r}, '--model', 'degs-mh', "
            f"'--samples', '2', '--seed', '3', '--output-dir', {str(tmp_path / 'out')!r}]); "
            "print('numpy' in sys.modules)"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True, timeout=120)
        assert result.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "out" / "sample_1.dhg").exists()

    def test_import_and_a_forked_metric_load_only_what_they_run(self, tmp_path, toy,
                                                                 sample_dir):
        # Importing the CLI compiles no metric, sampler or version-reading
        # module; a metric over two workers forks without multiprocessing;
        # econ loads no sampler.
        src = Path(hypernull.cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = tmp_path / "core.csv"
        code = (
            "import os, sys\n"
            "before = set(sys.modules)\n"
            "import hypernull.cli\n"
            "unwanted = ['importlib.metadata', 'email', 'platform', 'multiprocessing',\n"
            "            *(f'hypernull.{name}' for name in ('sampling', 'econ', 'contagion',\n"
            "              'structure', 'diagnostics', 'affinity'))]\n"
            "print([name for name in unwanted if name in set(sys.modules) - before])\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "assert hypernull.cli.main(['metric', 'coreness', '--input', sys.argv[1],\n"
            "                           '--samples', sys.argv[2], '--output', sys.argv[3]]) == 0\n"
            "print('multiprocessing' in sys.modules)\n"
            "import hypernull.econ\n"  # its rank statistics need no sampler
            "print('hypernull.sampling' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", code, str(toy), str(sample_dir), str(out)],
                                env=env, check=True, capture_output=True, text=True, timeout=120)
        assert result.stdout.splitlines()[0] == "[]"
        assert result.stdout.splitlines()[-2:] == ["False", "False"]
        assert manifest_of(Path(f"{out}.manifest.json"))["timings"]["workers"] == 2

    def test_a_missing_library_is_recorded_as_null(self, tmp_path, toy, monkeypatch):
        import importlib.util

        find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, *rest: None if name == "scipy" else find_spec(name, *rest))
        out = tmp_path / "canon.dhg"
        assert run(["convert", "--input", toy, "--to", "directed", "--output", out]) == 0
        versions = manifest_of(Path(f"{out}.manifest.json"))["versions"]
        assert versions["scipy"] is None
        assert versions["numpy"] == metadata.version("numpy")

    def test_versions_are_read_from_the_dist_info_beside_the_package(self, tmp_path,
                                                                     monkeypatch):
        from hypernull.cli import _installed_version

        name = "hypernull_probe_pkg"
        (tmp_path / name).mkdir()
        (tmp_path / name / "__init__.py").write_text("raise ImportError\n", encoding="utf-8")
        monkeypatch.syspath_prepend(str(tmp_path))
        assert _installed_version(name) is None  # no dist-info
        info = tmp_path / f"{name}-1.2.3.dist-info"
        info.mkdir()
        (info / "METADATA").write_text(
            f"Metadata-Version: 2.1\nName: {name}\nVersion: 1.2.3\n\nVersion: 9\n",
            encoding="utf-8")
        assert _installed_version(name) == "1.2.3"
        assert name not in sys.modules
        stale = tmp_path / f"{name}-1.0.dist-info"
        stale.mkdir()
        (stale / "METADATA").write_text("Version: 1.0\n", encoding="utf-8")
        assert _installed_version(name) is None  # which of the two is installed is unknown
        assert _installed_version("hypernull_no_such_package") is None

    def test_manifest_records_library_versions_without_importing_scipy(self, tmp_path, toy):
        out = tmp_path / "canon.dhg"
        src = Path(hypernull.cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = (
            "import sys; from hypernull.cli import main; "
            f"main(['convert', '--input', {str(toy)!r}, '--to', 'directed', "
            f"'--output', {str(out)!r}]); print('scipy' in sys.modules)"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True, timeout=120)
        assert result.stdout.splitlines()[-1] == "False"
        versions = manifest_of(tmp_path / "canon.dhg.manifest.json")["versions"]
        assert versions["numpy"] == metadata.version("numpy")
        assert versions["scipy"] == metadata.version("scipy")
