"""Command-line pipeline: convert, sample, converge, metric, affinity, econ,
and contagion subcommands.

Every run derives all randomness from one --seed (sub-seeds by stable hashing
of seed, role, and index), writes CSV as comma-separated UTF-8 with LF line
endings and floats at 12 significant digits, and emits a JSON run manifest
recording the command line, input hashes, seed, versions, per-output
checksums, and wall-clock timings.  Output files are byte-identical across
re-runs with the same inputs and seed; the manifest differs only in its
timings.  A sample directory's manifest lists its samples: commands that read
the directory take exactly those files and reject one whose checksum differs
when they read it.  `sample` writes a manifest with no sample list before its
first sample and the full one only when every sample is verified, so readers
refuse the directory of a run that failed or did not finish.

Every comparison of the observed hypergraph with its samples goes through one
reducer, _reduce: a subcommand computes one statistic per row on each
hypergraph, and each row reports the observed value with the mean, standard
deviation and observed/mean ratio of the defined sample values.

Every subcommand that measures several graphs runs one task per graph (per
run for contagion, per chain for an unthinned sample) through one ordered
map, _map: this process and one forked child per further usable CPU take the
tasks in order from one pipe, and the results come back in task order.
metric, affinity and econ compare measure through _measure, whose task 0 is
the observed graph.  main() pins BLAS to one thread, so no output depends on
the CPU count.

A process pays only for the subcommand it runs: this module loads the
sampling, metric, affinity, econ and contagion modules inside the commands
that use them, and reads library versions from their installed metadata.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import sys
import time
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import hypernull
from hypernull.core import (
    CHAIN_MODELS,
    MODELS,
    SIDES,
    DirectedHypergraph,
    ParseError,
    format_hypergraph,
    format_undirected,
    merge_to_undirected,
    parse_hypergraph,
    parse_undirected,
    read_labels,
    to_bipartite,
    undirected_to_directed,
)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fmt(value) -> str:
    """CSV cell: empty for None, 12 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _reduce(observed, values):
    """(mean, std, ratio) of the sample values of one statistic against its
    observed value.

    Undefined (None) sample values are dropped first; with none left every
    field is None, and the ratio is None when the observed value is undefined
    or the mean is zero.
    """
    from statistics import fmean, pstdev  # only the commands that compare pay its import

    defined = [value for value in values if value is not None]
    if not defined:
        return None, None, None
    mean = fmean(defined)
    ratio = None if observed is None or mean == 0 else observed / mean
    return mean, pstdev(defined), ratio


def _compare(observed: dict, sampled: list) -> list:
    """(key, observed, mean, std, ratio) for each key of observed, one
    hypergraph's values, reduced over the same key of every sample's."""
    return [
        (key, value, *_reduce(value, [s[key] for s in sampled]))
        for key, value in observed.items()
    ]


def _sniff_directed(text: str) -> bool:
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            return "|" in stripped
    return True


def _undirected_substrate(text: str):
    """Undirected substrate from either format: directed text is merged."""
    if _sniff_directed(text):
        return merge_to_undirected(parse_hypergraph(text))
    return parse_undirected(text)


def _sample_files(directory) -> list:
    """The samples of a directory, as (path, sha256, listing) triples for
    _read_sample, which checks each file's bytes against its sha256.

    A directory written by `sample` holds manifest.json, the listing whose
    sample list is the truth: each listed file must be a plain file name
    present in the directory, and files it does not list are ignored.
    Without a manifest: sample_<i>.dhg files by index, else every .dhg file
    by name, with sha256 and listing None."""
    directory = Path(directory)
    manifest = directory / "manifest.json"
    if manifest.is_file():
        try:  # a JSONDecodeError or UnicodeDecodeError names no file
            payload = json.loads(manifest.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"{manifest} is not valid JSON: {exc}") from exc
        try:
            records = [(r["file"], r["sha256"]) for r in payload["invariants"]["samples"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{manifest} has no list of samples (written when a run succeeds)") from exc
        if not records:
            raise ValueError(f"{manifest} lists no samples")
        for name, _ in records:
            if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
                raise ValueError(f"{manifest} lists {name!r}, which is not a plain file name")
        listed = [(directory / name, digest, manifest) for name, digest in records]
        for path, _, _ in listed:
            if not path.is_file():
                raise ValueError(f"{path} is listed in {manifest} but missing")
        return listed
    indexed = []
    for path in directory.glob("sample_*.dhg"):
        suffix = path.name[len("sample_") : -len(".dhg")]
        if suffix.isdigit():
            indexed.append((int(suffix), path))
    paths = [path for _, path in sorted(indexed)] or sorted(directory.glob("*.dhg"))
    if not paths:
        raise ValueError(f"no .dhg sample files in {directory}")
    return [(path, None, None) for path in paths]


def _parse_model_dirs(entries) -> dict:
    """--samples MODEL=DIR entries to {model: _sample_files(DIR)}."""
    out = {}
    for entry in entries or ():
        model, sep, directory = entry.partition("=")
        if not sep or not model or not directory:
            raise ValueError(f"expected MODEL=DIR, got {entry!r}")
        if model in out:
            raise ValueError(f"duplicate sampler name {model!r}")
        out[model] = _sample_files(directory)
    return out


def _read_sample(path, digest, listing, parse=parse_hypergraph) -> tuple:
    """(graph, sha256) of one file of _sample_files(), parsed from the bytes
    whose sha256 it returns; a file off its listed sha256 fails.  This is the
    one check of a sample's bytes against its listing."""
    data = Path(path).read_bytes()
    sha256 = _sha256(data)
    if listing is not None and sha256 != digest:
        raise ValueError(f"{path} differs from its sha256 in {listing}")
    return parse(data.decode("utf-8")), sha256


def _timed(fn, task) -> tuple:
    """fn(task), its wall seconds, and the warnings it raised, recorded
    rather than shown."""
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        result = fn(task)
    return result, time.perf_counter() - started, [record.message for record in raised]


# A fork map hands tasks out as fixed-width indices in one pipe, written in
# task order and at most 512 bytes (POSIX's least PIPE_BUF) at a time, so every
# write and every read moves whole indices.
_INDEX_BYTES = 4
_INDICES_PER_WRITE = 512 // _INDEX_BYTES


class WorkerError(Exception):
    """A forked worker's exception or result that does not survive pickling,
    or the worker traceback behind an exception that does; its message is
    that traceback, or why the result does not pickle.  Not a user error, so
    main() lets it through."""


def _take(hand_out: int):
    """The next task index from the hand-out pipe, or None at its end."""
    data = os.read(hand_out, _INDEX_BYTES)
    return int.from_bytes(data, "big") if data else None


def _run_share(fn, tasks, take, runs: dict):
    """runs[i] = _timed(fn, tasks[i]) for each index i that take() hands out,
    until it hands out None or a call raises; returns (index, exception) of
    that failure, or None."""
    while (index := take()) is not None:
        try:
            runs[index] = _timed(fn, tasks[index])
        except Exception as exc:
            return index, exc
    return None


def _share_payload(runs: dict, failure) -> bytes:
    """A child's runs and first failure, pickled for its parent.

    Each run and the exception are pickled on their own and must load again
    here: one that does not becomes a WorkerError at its task, so the parent
    can load whatever arrives.  Runs after the failure are not sent."""
    import pickle

    def checked(value) -> bytes:
        data = pickle.dumps(value)
        pickle.loads(data)
        return data

    sent = {}
    for index, run in sorted(runs.items()):
        if failure is not None and index > failure[0]:
            break
        try:
            sent[index] = checked(run)
        except Exception as exc:
            failure = index, WorkerError(f"task {index}'s result does not pickle: {exc!r}")
            break
    if failure is not None:
        import traceback

        index, exc = failure
        text = "".join(traceback.format_exception(exc))
        try:
            failure = index, checked(exc), text
        except Exception:
            failure = index, pickle.dumps(WorkerError(text)), text
    return pickle.dumps((sent, failure))


def _serve(fn, tasks, hand_out: int, feed: int, out: int):
    """A forked child's life: close its copy of the pipe's write end feed,
    run the tasks it takes from hand_out, write its share to out and exit.
    It never returns into the caller, whatever it raises."""
    code = 1
    try:
        os.close(feed)
        runs = {}
        failure = _run_share(fn, tasks, lambda: _take(hand_out), runs)
        with open(out, "wb") as handle:
            handle.write(_share_payload(runs, failure))
        code = 0
    finally:
        os._exit(code)


def _fork_map(fn, tasks: list, workers: int) -> list:
    """_timed(fn, task) for each task, over this process and workers - 1
    forked children.

    Every process takes the next index from one pipe until it is empty and
    closed, so a long task holds up one worker only; this process writes the
    indices in task order as the pipe has room, and takes the next unwritten
    task itself while the pipe is full.  A worker stops at its first failure.
    Every task before a handed-out one was handed out earlier, so each task
    before the first failure in task order has run; that failure is raised,
    and a picklable one carries the worker's traceback as its cause.  A child
    pickles back its runs and exits through os._exit; every child is killed
    and reaped before this returns or raises, KeyboardInterrupt included.
    """
    import pickle
    import signal

    indices = b"".join(index.to_bytes(_INDEX_BYTES, "big") for index in range(len(tasks)))
    hand_out, feed = os.pipe()
    os.set_blocking(feed, False)
    written = 0  # tasks written to the pipe or taken by this process, in order
    children, results = [], []  # child pids; read ends of their result pipes

    def top_up() -> bool:
        """Write indices while the pipe has room; True once all are written."""
        nonlocal written
        while written < len(tasks):
            end = min(written + _INDICES_PER_WRITE, len(tasks))
            try:
                os.write(feed, indices[written * _INDEX_BYTES : end * _INDEX_BYTES])
            except BlockingIOError:
                return False
            written = end
        return True

    def take():
        nonlocal written
        if top_up():
            close_feed()
            return _take(hand_out)
        written += 1
        return written - 1

    def close_feed():
        nonlocal feed
        if feed is not None:
            os.close(feed)
            feed = None

    runs, failures, payloads = {}, [], []
    try:
        top_up()
        for _ in range(workers - 1):
            result, out = os.pipe()
            results.append(result)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, tasks, hand_out, feed, out)
                children.append(pid)
            finally:
                os.close(out)
        failure = _run_share(fn, tasks, take, runs)
        close_feed()  # after a failure here, the children empty the pipe
        if failure is not None:
            failures.append(failure)
        while results:
            with open(results.pop(), "rb") as handle:
                payloads.append(handle.read())
    finally:
        close_feed()
        for fd in (hand_out, *results):
            os.close(fd)
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    for payload in payloads:
        try:
            sent, failure = pickle.loads(payload)
        except (EOFError, pickle.UnpicklingError):  # a child that died writing
            continue
        runs.update((index, pickle.loads(data)) for index, data in sent.items())
        if failure is not None:
            index, data, text = failure
            exc = pickle.loads(data)
            if not isinstance(exc, WorkerError):
                exc.__cause__ = WorkerError(text)
            failures.append((index, exc))
    first = min(failures, key=lambda failure: failure[0], default=None)
    limit = len(tasks) if first is None else first[0]
    lost = next((index for index in range(limit) if index not in runs), None)
    if lost is not None:
        raise RuntimeError(f"a worker process ended without returning task {lost}")
    if first is not None:
        raise first[1]
    return [runs[index] for index in range(len(tasks))]


def _map(fn, tasks) -> tuple:
    """(fn(task) for each task, each call's wall seconds, the worker count).

    The calls are independent, so they spread over one worker per usable
    CPU, at most one per task: this process and forked children (_fork_map).
    With one worker, or on a platform without fork, they run in this process
    alone.  Only tasks' indices and results cross processes.  The first
    failure in task order is raised, as a loop over the tasks would raise it;
    otherwise the warnings of every call are issued again here, in task
    order.  So no output depends on the worker count.  No child outlives the
    call.
    """
    tasks = list(tasks)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    workers = max(1, min(cpus, len(tasks))) if hasattr(os, "fork") else 1
    if workers == 1:
        runs = [_timed(fn, task) for task in tasks]
    else:
        runs = _fork_map(fn, tasks, workers)
    for _, _, raised in runs:
        for message in raised:
            warnings.warn(message)
    return [result for result, _, _ in runs], [seconds for _, seconds, _ in runs], workers


def _measure(manifest, measure, observed, files: dict) -> tuple:
    """(measure(observed), {model: [measure(S) for each sample S of
    files[model]]}), files being {model: _sample_files()}.

    Each graph is one task of _map: task 0 is the observed one, held here
    (None skips it), then the samples in order.  A sample's task reads its
    file with _read_sample, so this process never holds a sample; the first
    failure in task order is raised, and manifest.inputs records the sha256
    each task read.  timings gains graphs_s and workers.
    """
    tasks = [(model, *file) for model, listed in files.items() for file in listed]

    def job(task):
        if task is None:
            return measure(observed), None
        S, sha256 = _read_sample(*task[1:])
        return measure(S), sha256

    results, manifest.timings["graphs_s"], manifest.timings["workers"] = _map(
        job, [None] * (observed is not None) + tasks
    )
    value = results.pop(0)[0] if observed is not None else None
    sampled = {model: [] for model in files}
    for (model, path, _, _), (values, sha256) in zip(tasks, results):
        manifest.inputs[str(path)] = sha256
        sampled[model].append(values)
    return value, sampled


def _installed_version(name: str):
    """The version of the installed distribution `name`, or None when it is
    missing: the Version line of the one <name>-*.dist-info/METADATA beside
    the package an import of `name` would load.  Nothing is imported."""
    from importlib.util import find_spec

    try:
        spec = find_spec(name)
    except (ImportError, ValueError):
        spec = None
    if spec is None or not spec.has_location:
        return None
    root = Path(spec.origin).parent
    if spec.submodule_search_locations is not None:  # a package: origin is its __init__
        root = root.parent
    found = list(root.glob(f"{name}-*.dist-info/METADATA"))
    if len(found) != 1:
        return None
    try:
        with open(found[0], encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("Version:"):
                    return line[len("Version:") :].strip()
                if not line.strip():  # the end of the header
                    break
    except OSError:
        pass
    return None


def _versions() -> dict:
    """hypernull, Python, numpy and scipy versions (None for a library that
    is not installed); no library is imported to read them."""
    return {
        "hypernull": hypernull.__version__,
        "python": sys.version.split()[0],
        "numpy": _installed_version("numpy"),
        "scipy": _installed_version("scipy"),
    }


@dataclass
class RunManifest:
    """Reproducibility record emitted by every subcommand: the exact command
    line, input hashes, master seed, versions, per-output invariant
    checksums, and wall-clock timings."""

    command: list
    inputs: dict = field(default_factory=dict)
    seed: int | None = None
    versions: dict = field(default_factory=_versions)
    invariants: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    destination: Path | None = None

    def read(self, path) -> str:
        """Read an input file's bytes once: record their sha256, return their text."""
        data = Path(path).read_bytes()
        self.inputs[str(path)] = _sha256(data)
        return data.decode("utf-8")

    def add_output(self, path):
        self.invariants.setdefault("outputs", {})[Path(path).name] = _sha256(Path(path).read_bytes())

    def write(self, path):
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "versions": self.versions,
            "invariants": self.invariants,
            "timings": self.timings,
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _finish(manifest: RunManifest, *outputs, destination=None) -> int:
    """Record the written files in the manifest, which goes to destination or
    beside the first file, and report them."""
    for path in outputs:
        manifest.add_output(path)
    manifest.destination = destination or Path(str(outputs[0]) + ".manifest.json")
    print("wrote " + " and ".join(str(path) for path in outputs))
    return 0


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def cmd_convert(args, manifest: RunManifest) -> int:
    text = manifest.read(args.input)
    if args.to == "undirected":
        out = format_undirected(_undirected_substrate(text))
    elif _sniff_directed(text):
        out = format_hypergraph(parse_hypergraph(text))
    else:
        out = format_hypergraph(undirected_to_directed(parse_undirected(text)))
    Path(args.output).write_text(out, encoding="utf-8")
    return _finish(manifest, args.output)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _invariants(H: DirectedHypergraph, model: str):
    """The structure a sampler must preserve, compared by value.

    Edge copies carry no identity across serialization, so sizes are compared
    as a sorted list of (head size, tail size) pairs; node degrees align by
    external id because swaps never change any node's degree.  The joint
    invariant is the degree one followed by the joint tensor, which alone
    cannot tell nodes apart.  The tensor is kept compact: the distinct (in,
    out) node degrees and (head, tail) edge sizes, each sorted, and one int64
    code per arc that indexes both and holds d, sorted.  Codes order as the
    (i, j, k, l, d) keys do.
    """
    left_in, left_out = [0] * H.num_nodes, [0] * H.num_nodes
    for e in H.edges:
        for v in e.tail:
            left_in[v] += 1
        for v in e.head:
            left_out[v] += 1
    sizes = [(len(e.head), len(e.tail)) for e in H.edges]
    degrees = [left_in, left_out, sorted(sizes)]
    if model == "joint":
        nodes = list(zip(left_in, left_out))
        lefts, rights = sorted(set(nodes)), sorted(set(sizes))
        left = {key: 2 * len(rights) * n for n, key in enumerate(lefts)}
        right = {key: 2 * n for n, key in enumerate(rights)}
        node, codes = [left[key] for key in nodes], []
        for e in H.edges:
            edge = right[len(e.head), len(e.tail)]
            codes += [node[v] + edge + 1 for v in e.head] + [node[v] + edge for v in e.tail]
        return (*degrees, lefts, rights, array("q", sorted(codes)))
    if model in ("degs", "degs-mh"):
        return degrees
    return degrees[2]


def _invariant_text(invariant) -> str:
    """Canonical JSON of an invariant; a joint one ends in the tensor's sorted
    ((i, j, k, l, d), count) items.

    A joint item's text is composed from one "[[i, j, " string per node class
    and one "k, l, " string per edge class, the bytes json.dumps would write.
    """
    if not isinstance(invariant, tuple):
        return json.dumps(invariant)
    *degrees, lefts, rights, codes = invariant
    nodes = [f"[[{i}, {j}, " for i, j in lefts]
    edges = [f"{k}, {l}, " for k, l in rights]
    items = ", ".join(  # codes are sorted, so Counter keeps their order
        f"{nodes[c // 2 // len(rights)]}{edges[c // 2 % len(rights)]}{('-1', '1')[c % 2]}], {n}]"
        for c, n in Counter(codes).items()
    )
    return f"{json.dumps(degrees)[:-1]}, [{items}]]"


def _first_difference(expected: str, found: str) -> tuple:
    """The index path to the first entry where two invariant texts differ,
    entering lists longer than a (head size, tail size) pair, and each side's
    entry there (None past its end)."""
    where, sides = "", (json.loads(expected), json.loads(found))
    while all(isinstance(side, list) for side in sides) and max(map(len, sides)) > 2:
        n = next((n for n, (x, y) in enumerate(zip(*sides)) if x != y), min(map(len, sides)))
        where += f"[{n}]"
        sides = [side[n] if n < len(side) else None for side in sides]
    return where, *sides


class _Unverified(Exception):
    """A written sample whose invariant differs from the observed graph's;
    its args are the lines that report it."""


def cmd_sample(args, manifest: RunManifest) -> int:
    from hypernull.sampling import ChainConfig, Chains

    if args.model == "null" and (args.steps != "auto" or args.thinning is not None):
        raise ValueError("--steps and --thinning do not apply to --model null")
    if args.thinning is not None and args.samples == 1:
        raise ValueError("--thinning needs --samples of at least 2: one sample is taken after --steps swaps")
    if args.steps != "auto" and not (args.steps.isascii() and args.steps.isdigit()):
        raise ValueError(f"--steps must be 'auto' or a non-negative integer, got {args.steps!r}")
    H = parse_hypergraph(manifest.read(args.input))
    steps = args.steps if args.steps == "auto" else int(args.steps)
    config = ChainConfig(
        model=args.model,
        steps=steps,
        seed=args.seed,
        sample_count=args.samples,
        thinning=args.thinning,
    )
    expected = _invariants(H, args.model)
    expected_sha256 = _sha256(_invariant_text(expected).encode())
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Readers refuse this manifest, which lists no samples, until main() writes
    # the full one on success.  Compact: json's indenting encoder leaves cycles.
    placeholder = json.dumps({"command": manifest.command}) + "\n"
    (out_dir / "manifest.json").write_text(placeholder, encoding="utf-8")

    def verified(index, sample) -> dict:
        """Write sample `index`, read it back and check its invariant."""
        path = out_dir / f"sample_{index}.dhg"
        path.write_text(format_hypergraph(sample), encoding="utf-8")
        data = path.read_bytes()
        written = _invariants(parse_hypergraph(data.decode("utf-8")), args.model)
        if written != expected:
            texts = _invariant_text(expected), _invariant_text(written)
            where, *entries = _first_difference(*texts)
            raise _Unverified(f"invariant verification failed for {path}", *(
                f"{label} sha256 {_sha256(text.encode())}, entry{where} = {json.dumps(entry)}"
                for label, text, entry in zip(("expected:", "found:   "), texts, entries)
            ))
        return {"file": path.name, "sha256": _sha256(data), "invariant_sha256": expected_sha256}

    chains = Chains(H, config)
    try:
        if chains.independent:  # each sample has its own chain: one task each
            records, manifest.timings["samples_s"], manifest.timings["workers"] = _map(
                lambda index: verified(index, chains.draw(index)), range(args.samples)
            )
        else:  # one thinned chain
            records = [verified(index, sample) for index, sample in enumerate(chains.run())]
    except _Unverified as failure:
        for line in failure.args:
            print(line, file=sys.stderr)
        return 1
    manifest.invariants["model"] = args.model
    manifest.invariants["samples"] = records
    manifest.destination = out_dir / "manifest.json"
    print(f"wrote {len(records)} samples to {out_dir} (verified)")
    return 0


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def cmd_converge(args, manifest: RunManifest) -> int:
    from hypernull.diagnostics import arsd_trace

    H = parse_hypergraph(manifest.read(args.input))
    trace = arsd_trace(
        H,
        model=args.model,
        seed=args.seed,
        f=args.f,
        l=args.l,
        max_multiplier=args.max_k,
    )
    rows = [
        (args.model, side, k, value)
        for side in sorted(trace)
        for k, value in trace[side]
    ]
    _write_csv(args.output, ("model", "side", "k", "arsd"), rows)
    return _finish(manifest, args.output)


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


# Each metric takes (args, H, ensemble) and returns (header, rows), where
# ensemble(measure) is (measure(H), [measure(S) for each sample S]) and
# ensemble(measure, observed=False) leaves H out.


def _metric_reciprocity(args, H, ensemble):
    from hypernull.structure import hypergraph_reciprocity

    observed, values = ensemble(lambda G: hypergraph_reciprocity(G).value)
    mean, std, ratio = _reduce(observed, values)
    header = ("observed", "sample_mean", "sample_std", "samples", "ratio")
    return header, [(observed, mean, std, len(values), ratio)]


def _metric_coreness(args, H, ensemble):
    from hypernull.structure import hyper_core_decomposition

    rows = _compare(*ensemble(
        lambda G: dict(enumerate(hyper_core_decomposition(G, args.side).hypercoreness))
    ))
    header = ("node", "observed", "sample_mean", "sample_std", "ratio")
    return header, [(H.label_of(v), *fields) for v, *fields in rows]


def _metric_entropy(args, H, ensemble):
    from hypernull.structure import node_groups, presence_entropy

    if not args.samples:
        raise ValueError("entropy needs --samples: it measures the ensemble")
    groups = node_groups(H, args.side, args.group_size)
    _, presents = ensemble(
        lambda G: groups & node_groups(G, args.side, args.group_size), observed=False
    )
    keyed = sorted(
        (tuple(sorted(H.label_of(v) for v in group)), value)
        for group, value in presence_entropy(groups, presents).items()
    )
    rows = [("+".join(str(v) for v in group), value) for group, value in keyed]
    return ("group", "entropy"), rows


def _node_centralities(H: DirectedHypergraph) -> dict:
    """{(node, 0/1/2): PageRank / hub / authority score}."""
    from hypernull.structure import hits, pagerank, project_weighted

    scores = pagerank(project_weighted(H))
    hubs, authorities = hits(to_bipartite(H))
    return {
        (v, i): vector[v]
        for i, vector in enumerate((scores, hubs, authorities))
        for v in range(H.num_nodes)
    }


def _metric_centrality(args, H, ensemble):
    compared = {key: fields for key, *fields in _compare(*ensemble(_node_centralities))}
    rows = [
        (H.label_of(v), *(f for i in range(3) for f in compared[(v, i)][:3]))
        for v in range(H.num_nodes)
    ]
    header = (
        "node",
        "pagerank", "pagerank_mean", "pagerank_std",
        "hub", "hub_mean", "hub_std",
        "authority", "authority_mean", "authority_std",
    )
    return header, rows


def _metric_spectrum(args, H, ensemble):
    from hypernull.structure import laplacian_spectrum

    rows = _compare(*ensemble(lambda G: dict(enumerate(laplacian_spectrum(G, k=args.k)))))
    header = ("index", "observed", "sample_mean", "sample_std", "ratio")
    return header, rows


_METRICS = {
    "reciprocity": _metric_reciprocity,
    "coreness": _metric_coreness,
    "entropy": _metric_entropy,
    "centrality": _metric_centrality,
    "spectrum": _metric_spectrum,
}


def cmd_metric(args, manifest: RunManifest) -> int:
    H = parse_hypergraph(manifest.read(args.input))
    files = {"": _sample_files(args.samples)} if args.samples else {}

    def ensemble(measure, observed=True):
        value, sampled = _measure(manifest, measure, H if observed else None, files)
        return value, sampled.get("", [])

    header, rows = _METRICS[args.metric](args, H, ensemble)
    _write_csv(args.output, header, rows)
    return _finish(manifest, args.output)


# ---------------------------------------------------------------------------
# affinity
# ---------------------------------------------------------------------------


def _partition_for(H: DirectedHypergraph, labels_text: str):
    """The category partition of H's nodes that a label file gives."""
    from hypernull.affinity import CategoryPartition

    categories = read_labels(labels_text)
    assignments = []
    for v in range(H.num_nodes):
        label = H.label_of(v)
        if label not in categories:
            raise ValueError(f"node {label} has no entry in the label file")
        assignments.append(categories[label])
    return CategoryPartition(tuple(assignments))


# Hyperedge sizes reported when --k-min/--k-max are not given.
_AFFINITY_SIZES = range(2, 15)


def cmd_affinity(args, manifest: RunManifest) -> int:
    from hypernull.affinity import affinity, affinity_baseline

    H = parse_hypergraph(manifest.read(args.input))
    partition = _partition_for(H, manifest.read(args.labels))
    sizes = _AFFINITY_SIZES
    if args.k_min is not None or args.k_max is not None:
        if args.k_min is None or args.k_max is None:
            raise ValueError("--k-min and --k-max must be given together")
        if args.k_min < 1:
            raise ValueError("--k-min must be at least 1")
        if args.k_min > args.k_max:
            raise ValueError(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
        sizes = range(args.k_min, args.k_max + 1)
    keys = [(category, k) for category in partition.categories for k in sizes]

    def measure(G):
        return {(category, k): affinity(G, partition, category, 1, 1, k) for category, k in keys}

    observed, sampled = _measure(manifest, measure, H, _parse_model_dirs(args.samples))
    rows = []
    for key in keys:
        category, k = key
        value = observed[key]
        baseline = affinity_baseline(partition, category, 1, 1, k)
        if not sampled:
            rows.append((category, k, value, baseline, None, None, None, None))
        for model in sorted(sampled):
            reduced = _reduce(value, [s[key] for s in sampled[model]])
            rows.append((category, k, value, baseline, model, *reduced))
    header = (
        "category", "k", "observed", "baseline", "model", "mean", "std", "ratio"
    )
    _write_csv(args.output, header, rows)
    return _finish(manifest, args.output)


# ---------------------------------------------------------------------------
# econ
# ---------------------------------------------------------------------------


def cmd_econ_build(args, manifest: RunManifest) -> int:
    from hypernull.econ import parse_trade_table, trade_to_hypergraph

    trade = manifest.read(args.trade)
    metadata = None if args.metadata is None else manifest.read(args.metadata)
    table = parse_trade_table(trade, metadata)
    H = trade_to_hypergraph(table, args.year, threshold=args.threshold)
    plain = DirectedHypergraph(H.edges, H.num_nodes)
    Path(args.output).write_text(format_hypergraph(plain), encoding="utf-8")
    labels_path = Path(args.output).with_suffix(".labels.csv")
    _write_csv(
        labels_path,
        ("node_id", "label"),
        [(v, H.label_of(v)) for v in range(H.num_nodes)],
    )
    return _finish(manifest, args.output, labels_path)


def cmd_econ_scores(args, manifest: RunManifest) -> int:
    from hypernull.econ import complexity_scores, hypergraph_biadjacency

    H = parse_hypergraph(manifest.read(args.input))
    scores = complexity_scores(hypergraph_biadjacency(H))
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    country_path = out_dir / "country_scores.csv"
    _write_csv(
        country_path,
        ("country", "eci", "fitness", "genepy"),
        list(zip(scores.countries, scores.eci, scores.fitness, scores.genepy)),
    )
    product_path = out_dir / "product_scores.csv"
    _write_csv(
        product_path,
        ("product", "pci", "quality"),
        list(zip(scores.products, scores.pci, scores.quality)),
    )
    return _finish(manifest, country_path, product_path, destination=out_dir / "manifest.json")


def _country_scores(H: DirectedHypergraph):
    from hypernull.econ import complexity_scores, hypergraph_biadjacency

    scores = complexity_scores(hypergraph_biadjacency(H))
    return scores.countries, {
        "eci": scores.eci,
        "fitness": scores.fitness,
        "genepy": scores.genepy,
    }


def cmd_econ_compare(args, manifest: RunManifest) -> int:
    from hypernull.econ import rank_compare

    H = parse_hypergraph(manifest.read(args.observed))
    (countries, observed), sampled = _measure(
        manifest, _country_scores, H, _parse_model_dirs(args.samples)
    )
    samples = {}
    for model, scored in sampled.items():
        if any(sample_countries != countries for sample_countries, _ in scored):
            raise ValueError(f"sample country set differs from observed in {model!r}")
        samples[model] = {score: [s[score] for _, s in scored] for score in observed}
    header = (
        "sampler", "score", "samples",
        "spearman_mean", "spearman_std", "kendall_mean", "kendall_std",
    )
    rows = [[row[name] for name in header] for row in rank_compare(observed, samples)]
    _write_csv(args.output, header, rows)
    return _finish(manifest, args.output)


# ---------------------------------------------------------------------------
# contagion
# ---------------------------------------------------------------------------


def _lambda_c_for(args, thresholds, nu: float):
    if args.lambda_c is not None:
        return args.lambda_c
    entry = thresholds.get(args.dataset)
    if entry is None:
        return None
    return entry.lambda_linear if nu == 1.0 else entry.lambda_superlinear


# The SISConfig fields that contagion's flags set; a flag not given keeps its default.
_SIS_FLAGS = ("mu", "rho0", "burn_in", "sample_count", "decorrelation", "qs_history_size", "snapshot_interval")


def cmd_contagion(args, manifest: RunManifest) -> int:
    from hypernull import contagion
    from hypernull.sampling import derive_seed

    if args.lambda_c is not None and args.thresholds is not None:
        raise ValueError("--lambda-c and --thresholds are exclusive")
    if args.lambda_c is not None and not (math.isfinite(args.lambda_c) and args.lambda_c > 0):
        raise ValueError(f"--lambda-c must be finite and > 0, got {args.lambda_c}")
    if args.dataset is None:
        args.dataset = Path(args.input).stem
    settings = {key: getattr(args, key) for key in _SIS_FLAGS if getattr(args, key) is not None}
    if args.method == "stationary" and settings.keys() & {"qs_history_size", "snapshot_interval"}:
        raise ValueError("--qs-history and --snapshot-interval need --method quasi-stationary")
    observed = _undirected_substrate(manifest.read(args.input))
    files = _parse_model_dirs(args.samples)
    thresholds = contagion.load_thresholds(
        None if args.thresholds is None else manifest.read(args.thresholds)
    )
    grid = [float(x) for x in args.lambda_grid.split(",") if x.strip()]
    if not grid:
        raise ValueError("empty --lambda-grid")

    def graphs():
        yield "observed", "", observed
        for model, listed in files.items():
            for index, (path, *listing) in enumerate(listed):
                substrate, manifest.inputs[str(path)] = _read_sample(path, *listing, _undirected_substrate)
                yield model, index, substrate

    runner = (contagion.run_stationary if args.method == "stationary"
              else contagion.run_quasi_stationary)
    cells, runs = [], []
    for sampler, sample_id, substrate in graphs():
        for nu in args.nu:
            lambda_c = _lambda_c_for(args, thresholds, nu)
            for index, lam in enumerate(grid):
                cfg = contagion.SISConfig(
                    lam=lam,
                    nu=nu,
                    **settings,
                    seed=derive_seed(
                        args.seed, f"contagion:{sampler}:{sample_id}:{nu!r}", index
                    ),
                )
                rescaled = lam / lambda_c if lambda_c else None
                cells.append((args.dataset, sampler, sample_id, nu, lam, rescaled))
                runs.append((substrate, cfg))
    # Each (graph, nu, lambda) run is seeded on its own: one task each.
    results, manifest.timings["runs_s"], manifest.timings["workers"] = _map(
        lambda index: runner(*runs[index]), range(len(runs))
    )
    rows = [(*cell, result.mean, result.std, args.method) for cell, result in zip(cells, results)]
    header = (
        "dataset", "sampler", "sampleId", "nu", "lambda",
        "lambdaOverLambdaC", "rhoMean", "rhoStd", "method",
    )
    _write_csv(args.output, header, rows)
    return _finish(manifest, args.output)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypernull",
        description="Uniform null models for directed hypergraphs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    convert = commands.add_parser(
        "convert", help="convert between directed and undirected formats"
    )
    convert.add_argument("--input", required=True)
    convert.add_argument("--output", required=True)
    convert.add_argument("--to", required=True, choices=("directed", "undirected"))
    convert.set_defaults(func=cmd_convert)

    sample = commands.add_parser("sample", help="draw randomized hypergraphs")
    sample.add_argument("--input", required=True)
    sample.add_argument("--model", default="degs", choices=MODELS)
    sample.add_argument("--samples", type=int, default=33)
    sample.add_argument("--steps", default="auto", help="'auto' (20w) or an integer")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--thinning", type=int, default=None)
    sample.add_argument("--output-dir", required=True)
    sample.set_defaults(func=cmd_sample)

    converge = commands.add_parser(
        "converge", help="ARSD convergence trace along one chain"
    )
    converge.add_argument("--input", required=True)
    converge.add_argument("--model", default="degs", choices=CHAIN_MODELS)
    converge.add_argument("--seed", type=int, default=0)
    converge.add_argument("--f", type=int, default=20)
    converge.add_argument("--l", type=int, default=3)
    converge.add_argument("--max-k", type=int, default=50)
    converge.add_argument("--output", required=True)
    converge.set_defaults(func=cmd_converge)

    metric = commands.add_parser(
        "metric", help="structural metrics on observed vs samples"
    )
    metrics = metric.add_subparsers(dest="metric", required=True)
    for name in _METRICS:
        sub = metrics.add_parser(name)
        sub.add_argument("--input", required=True)
        sub.add_argument("--samples", default=None, help="directory of .dhg samples")
        sub.add_argument("--output", required=True)
        if name in ("coreness", "entropy"):
            sub.add_argument("--side", default="head", choices=SIDES)
        if name == "entropy":
            sub.add_argument("--group-size", type=int, default=2)
        if name == "spectrum":
            sub.add_argument("--k", type=int, default=6)
        sub.set_defaults(func=cmd_metric)

    affinity = commands.add_parser(
        "affinity", help="group affinity against sampler baselines"
    )
    affinity.add_argument("--input", required=True)
    affinity.add_argument("--labels", required=True)
    affinity.add_argument(
        "--samples",
        action="append",
        default=[],
        metavar="MODEL=DIR",
        help="sampler name and directory; repeatable",
    )
    affinity.add_argument("--k-min", type=int, default=None)
    affinity.add_argument("--k-max", type=int, default=None)
    affinity.add_argument("--output", required=True)
    affinity.set_defaults(func=cmd_affinity)

    econ = commands.add_parser("econ", help="economic-complexity pipeline")
    econs = econ.add_subparsers(dest="econ_command", required=True)
    build = econs.add_parser("build", help="trade files to a trade hypergraph")
    build.add_argument("--trade", required=True)
    build.add_argument("--metadata", default=None)
    build.add_argument("--year", type=int, required=True)
    build.add_argument("--threshold", type=float, default=1.0)
    build.add_argument("--output", required=True)
    build.set_defaults(func=cmd_econ_build)
    scores = econs.add_parser("scores", help="complexity scores of one hypergraph")
    scores.add_argument("--input", required=True)
    scores.add_argument("--output-dir", required=True)
    scores.set_defaults(func=cmd_econ_scores)
    compare = econs.add_parser(
        "compare", help="rank agreement of sampled scores with observed"
    )
    compare.add_argument("--observed", required=True)
    compare.add_argument(
        "--samples", action="append", default=[], metavar="MODEL=DIR", required=True
    )
    compare.add_argument("--output", required=True)
    compare.set_defaults(func=cmd_econ_compare)

    contagion = commands.add_parser(
        "contagion", help="SIS phase points on observed vs samples"
    )
    contagion.add_argument("--input", required=True)
    contagion.add_argument(
        "--dataset", default=None, help="dataset name (default: input stem)"
    )
    contagion.add_argument(
        "--samples", action="append", default=[], metavar="MODEL=DIR"
    )
    contagion.add_argument(
        "--nu", type=float, action="append", required=True, help="repeatable"
    )
    contagion.add_argument(
        "--lambda-grid", required=True, help="comma-separated infection rates"
    )
    contagion.add_argument(
        "--method", default="stationary", choices=("stationary", "quasi-stationary")
    )
    contagion.add_argument(
        "--lambda-c",
        type=float,
        default=None,
        help="explicit invasion threshold (exclusive with --thresholds)",
    )
    contagion.add_argument(
        "--thresholds", default=None, help="JSON thresholds config file"
    )
    contagion.add_argument("--seed", type=int, default=0)
    contagion.add_argument("--mu", type=float)
    contagion.add_argument("--rho0", type=float)
    contagion.add_argument("--burn-in", type=float)
    contagion.add_argument("--sample-count", type=int)
    contagion.add_argument("--decorrelation", type=float)
    contagion.add_argument("--qs-history", type=int, dest="qs_history_size", metavar="QS_HISTORY")
    contagion.add_argument("--snapshot-interval", type=float)
    contagion.add_argument("--output", required=True)
    contagion.set_defaults(func=cmd_contagion)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest = RunManifest(command=["hypernull", *argv])
    manifest.seed = getattr(args, "seed", None)
    # One BLAS thread, set before numpy loads: forked workers then share the
    # CPUs with no spinning BLAS threads, and a LAPACK result, whose bits
    # depend on the thread count, is the same on every machine.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    started = time.perf_counter()
    # A subcommand's graphs of sets and tuples live until it returns and hold
    # no cycles: the cyclic collector would walk them again and again (0.3 to
    # 0.4 s of a trade-scale `sample` on two x86 cores) and free only a few
    # hundred objects.
    collecting = gc.isenabled()
    gc.disable()
    with warnings.catch_warnings():
        # No source location, so stderr is the same in every checkout.
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            code = args.func(args, manifest)
        except (ParseError, ValueError, OSError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            if collecting:
                gc.enable()
    manifest.timings["total_s"] = time.perf_counter() - started
    if code == 0 and manifest.destination is not None:
        manifest.write(manifest.destination)
    return code


if __name__ == "__main__":
    sys.exit(main())
