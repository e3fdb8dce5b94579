"""Nonlinear SIS contagion on undirected hypergraphs.

Each susceptible member of a hyperedge e with i_e infected members gets
infected at rate lam * i_e**nu, and infected nodes recover at rate mu, so a
hyperedge fires infection events at the aggregate rate s_e * lam * i_e**nu
and then picks one of its susceptible members uniformly.  Exact event-driven
simulation (Gillespie) groups the edges into rate classes (|e|, i_e) whose
rates are precomputed (composition method: Slepoy, Thompson and Plimpton,
J. Chem. Phys. 128, 2008; St-Onge et al., Comput. Phys. Commun. 240, 2019).
A toggle moves each incident edge to the neighbouring class in O(1), and a
draw scans the classes, O(#classes), then picks an edge uniformly inside one.
One loop, _events, runs every event from one recording time to the next;
gillespie_step is its one-event call.
Stationary densities come either from a plain run, which stops at the
absorbing state, or from the quasi-stationary method, which revives the
chain from a buffer of recent snapshots whenever it absorbs and thereby
resolves endemic branches near and below threshold.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import warnings
from collections import deque
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

from hypernull.core import UndirectedHypergraph
from hypernull.sampling import _randbelow

# Fraction of the mean the two halves of the sample window may drift apart
# before the burn-in adequacy warning fires.
DRIFT_TOLERANCE = 0.01


class Thresholds(NamedTuple):
    """Invasion thresholds of a dataset, linear and super-linear regime,
    consumed as inputs when rescaling `contagion` output."""

    lambda_linear: float
    lambda_superlinear: float


DEFAULT_THRESHOLDS = {
    "lyon": Thresholds(0.0474, 0.0382),
    "high": Thresholds(0.0101, 0.0096),
    "email-enron": Thresholds(0.0060, 0.0025),
    "email-eu": Thresholds(0.0009, 0.0008),
}


def load_thresholds(text=None) -> dict:
    """Shipped default thresholds, overlaid with entries from JSON text
    mapping dataset name to lambda_c_linear and lambda_c_superlinear."""
    merged = dict(DEFAULT_THRESHOLDS)
    if text is None:
        return merged
    entries = json.loads(text)
    if not isinstance(entries, dict):
        raise ValueError(f"thresholds must be a JSON object, not {type(entries).__name__}")
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            raise ValueError(f"thresholds entry {name!r} must be a JSON object, not {type(entry).__name__}")
        try:
            values = [float(entry[key]) for key in ("lambda_c_linear", "lambda_c_superlinear")]
        except KeyError as missing:
            raise ValueError(
                f"thresholds entry {name!r} is missing key {missing}"
            ) from None
        except (TypeError, ValueError) as exc:  # a value that is not a number, such as null or "abc"
            raise ValueError(f"thresholds entry {name!r}: {exc}") from None
        if not all(math.isfinite(value) and value > 0 for value in values):
            raise ValueError(f"thresholds entry {name!r}: values must be finite and > 0, got {values}")
        merged[name] = Thresholds(*values)
    return merged


@dataclass(frozen=True)
class SISConfig:
    """Parameters of one SIS run: rates, initial density, and the burn-in /
    sampling / snapshot clocks (all in simulated time units)."""

    lam: float
    nu: float
    mu: float = 1.0
    rho0: float = 0.01
    burn_in: float = 10_000.0
    sample_count: int = 10_000
    decorrelation: float = 1.0
    qs_history_size: int = 50
    snapshot_interval: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        values = (self.lam, self.nu, self.mu, self.burn_in, self.decorrelation, self.snapshot_interval)
        if not all(math.isfinite(value) for value in values):
            raise ValueError("lam, nu, mu, burn_in, decorrelation and snapshot_interval must be finite")
        if self.lam < 0 or self.mu < 0 or self.nu < 0:
            raise ValueError("rates and the non-linearity exponent must be >= 0")
        if not 0.0 <= self.rho0 <= 1.0:
            raise ValueError(f"rho0 must lie in [0, 1], got {self.rho0}")
        if self.burn_in < 0:
            raise ValueError("burn-in must be >= 0")
        if type(self.sample_count) is not int or self.sample_count < 1:
            raise ValueError("sample_count must be a positive integer")
        if self.decorrelation <= 0:
            raise ValueError("decorrelation period must be > 0")
        if type(self.qs_history_size) is not int or self.qs_history_size < 1:
            raise ValueError("qs_history_size must be a positive integer")
        if self.snapshot_interval <= 0:
            raise ValueError("snapshot interval must be > 0")


class Event(NamedTuple):
    """One committed transition: the clock after it fired, its kind
    ("infection" or "recovery"), and the toggled node."""

    time: float
    kind: str
    node: int


class StationaryResult(NamedTuple):
    """Mean and standard deviation of the sampled infected density; absorbed
    reports early absorption (plain runs) or any buffer revival (QS runs)."""

    mean: float
    std: float
    absorbed: bool


class SISState:
    """Dynamic state of one simulation: the infected set and the edges
    grouped by rate class.

    An edge's infection rate s_e * lam * i_e**nu depends only on its class
    (|e|, i_e), numbered class_base[|e|] + i_e, whose rate is precomputed in
    class_rate; edge_class[e] holds that number, so it carries i_e.
    buckets[c] lists the edges of class c and slot[e] is e's index in its
    bucket.  Invariants after every event: edge_class[e] - class_base[|e|]
    equals the number of infected members of e, edge e sits at
    buckets[edge_class[e]][slot[e]], and recovery_rate == mu *
    infected_count.  Every counter is an integer, so nothing drifts over a
    run.
    """

    def __init__(self, num_nodes, edges, cfg: SISConfig, infected_nodes=()):
        self.num_nodes = num_nodes
        self.edges = [tuple(sorted(e)) for e in edges]
        self.lam = cfg.lam
        self.nu = cfg.nu
        self.mu = cfg.mu
        incidence = [[] for _ in range(num_nodes)]
        for index, edge in enumerate(self.edges):
            for v in edge:
                incidence[v].append(index)
        self.incidence = incidence
        self.class_base = {}
        self.class_rate = []
        for size in sorted({len(edge) for edge in self.edges}):
            self.class_base[size] = len(self.class_rate)
            self.class_rate.extend(
                self._edge_rate(i, size - i) for i in range(size + 1)
            )
        self.buckets = [[] for _ in self.class_rate]
        # The classes of positive rate, in class order.  Buckets change in
        # place, so these references stay current.
        self.live_buckets, self.live_rates = [], []
        for bucket, rate in zip(self.buckets, self.class_rate):
            if rate > 0.0:
                self.live_buckets.append(bucket)
                self.live_rates.append(rate)
        self.clock = 0.0
        self.reset_infected(infected_nodes)

    def reset_infected(self, infected_nodes):
        """Reinitialize the infected set and every derived counter.  The
        buckets are emptied in place and refilled in edge order, as a fresh
        state holds them."""
        infected = self.infected = bytearray(self.num_nodes)
        infected_list = self.infected_list = []
        position = self.position = [-1] * self.num_nodes
        edge_class = self.edge_class = [self.class_base[len(edge)] for edge in self.edges]
        for v in infected_nodes:
            if not infected[v]:
                infected[v] = 1
                position[v] = len(infected_list)
                infected_list.append(v)
                for index in self.incidence[v]:
                    edge_class[index] += 1
        self.infected_count = len(infected_list)
        self.recovery_rate = self.mu * self.infected_count
        for bucket in self.buckets:
            bucket.clear()
        self.slot = []
        for index, c in enumerate(edge_class):
            self.slot.append(len(self.buckets[c]))
            self.buckets[c].append(index)

    def _edge_rate(self, infected, susceptible) -> float:
        if infected == 0 or susceptible == 0:
            return 0.0
        return susceptible * self.lam * infected**self.nu

    def infection_rate(self) -> float:
        """Summed infection rate of all edges."""
        return sum(map(mul, map(len, self.live_buckets), self.live_rates))

    def total_rate(self) -> float:
        return self.recovery_rate + self.infection_rate()

    def rho(self) -> float:
        return self.infected_count / self.num_nodes


def make_sis_state(
    H: UndirectedHypergraph, infected_nodes, cfg: SISConfig
) -> SISState:
    """State for H with the given nodes initially infected."""
    return SISState(H.num_nodes, H.edges, cfg, infected_nodes)


def _events(state: SISState, rng: random.Random, until: float):
    """Run events until one ends at or after until and return it, or None as
    soon as no event can fire (the absorbing state, or a fully frozen
    configuration when mu == 0).

    Each event takes an Exp(total rate) waiting time, computed as
    expovariate computes it, then picks recovery or an infecting edge
    proportionally to the rates, then a uniform infected node or a uniform
    susceptible member of that edge (bounded draws through
    sampling._randbelow), and moves every incident edge of the toggled node
    to its neighbouring rate class."""
    random, getrandbits, log = rng.random, rng.getrandbits, math.log
    infection_rate, live_buckets, live_rates = state.infection_rate, state.live_buckets, state.live_rates
    edges, incidence, infected = state.edges, state.incidence, state.infected
    infected_list, position, mu = state.infected_list, state.position, state.mu
    buckets, slots, edge_class = state.buckets, state.slot, state.edge_class
    clock, count, recovery = state.clock, state.infected_count, state.recovery_rate
    event = None
    while True:
        total = recovery + infection_rate()
        if total <= 0.0:
            break
        clock += -log(1.0 - random()) / total
        target = random() * total - recovery
        if target < 0.0:
            node = infected_list[_randbelow(getrandbits, count)]
            infected[node] = 0
            last = infected_list.pop()
            if last != node:
                slot = position[node]
                infected_list[slot] = last
                position[last] = slot
            position[node] = -1
            count -= 1
            delta = -1
        else:
            chosen = None
            for bucket, rate in zip(live_buckets, live_rates):
                if bucket:
                    chosen = bucket
                    mass = len(bucket) * rate
                    if target < mass:
                        break
                    target -= mass
            # Rounding can run the target past the last live class; the loop
            # then ends on the last non-empty bucket, which is where it belongs.
            edge = edges[chosen[_randbelow(getrandbits, len(chosen))]]
            susceptibles = [v for v in edge if not infected[v]]
            node = susceptibles[_randbelow(getrandbits, len(susceptibles))]
            infected[node] = 1
            position[node] = len(infected_list)
            infected_list.append(node)
            count += 1
            delta = 1
        recovery = mu * count
        for index in incidence[node]:
            c = edge_class[index]
            bucket = buckets[c]
            last = bucket.pop()
            if last != index:
                slot = slots[index]
                bucket[slot] = last
                slots[last] = slot
            c += delta
            edge_class[index] = c
            bucket = buckets[c]
            slots[index] = len(bucket)
            bucket.append(index)
        if clock >= until:
            event = Event(clock, "recovery" if delta < 0 else "infection", node)
            break
    state.clock, state.infected_count, state.recovery_rate = clock, count, recovery
    return event


def gillespie_step(state: SISState, rng: random.Random):
    """Advance one event (the event loop run up to the current clock).
    Returns the committed Event, or None when no event can fire."""
    return _events(state, rng, state.clock)


def _initial_infected(num_nodes: int, rho0: float, rng: random.Random) -> list:
    return rng.sample(range(num_nodes), math.ceil(rho0 * num_nodes))


def _summarize(samples, absorbed: bool) -> StationaryResult:
    # Called as run_* -> _run -> _summarize: stacklevel 4 points the drift
    # warning at the caller of run_stationary / run_quasi_stationary.
    mean = statistics.fmean(samples)
    std = statistics.pstdev(samples)
    if len(samples) >= 20 and mean > 0:
        half = len(samples) // 2
        drift = abs(
            statistics.fmean(samples[half:]) - statistics.fmean(samples[:half])
        )
        if drift > DRIFT_TOLERANCE * mean:
            warnings.warn(
                "infected density is still drifting across the sampling "
                "window; consider a longer burn-in",
                RuntimeWarning,
                stacklevel=4,
            )
    return StationaryResult(mean, std, absorbed)


def _run(H: UndirectedHypergraph, cfg: SISConfig, quasi_stationary: bool):
    rng = random.Random(cfg.seed)
    initial = _initial_infected(H.num_nodes, cfg.rho0, rng)
    state = make_sis_state(H, initial, cfg)
    buffer = deque(maxlen=cfg.qs_history_size)
    revived = False
    samples = []
    next_sample = cfg.burn_in + cfg.decorrelation
    next_snapshot = cfg.snapshot_interval if quasi_stationary else math.inf
    while len(samples) < cfg.sample_count:
        event = _events(state, rng, min(next_sample, next_snapshot))
        if event is None:
            if state.infected_count > 0:
                # mu == 0 with nothing left to infect: the configuration is
                # frozen, so every remaining sample reads the same density.
                samples.extend([state.rho()] * (cfg.sample_count - len(samples)))
                break
            if not quasi_stationary:
                return StationaryResult(0.0, 0.0, True)
            revived = True
            restored = rng.choice(buffer) if buffer else initial
            if not restored:
                return StationaryResult(0.0, 0.0, True)
            state.reset_infected(restored)
            continue
        # Every recording time before the event reads the state before it.
        toggled = 1 if event.kind == "infection" else -1
        rho = (state.infected_count - toggled) / state.num_nodes
        if next_snapshot <= event.time:
            before = tuple(sorted(set(state.infected_list) ^ {event.node}))
            while next_snapshot <= event.time:
                buffer.append(before)
                next_snapshot += cfg.snapshot_interval
        while next_sample <= event.time and len(samples) < cfg.sample_count:
            samples.append(rho)
            next_sample += cfg.decorrelation
    return _summarize(samples, revived)


def run_stationary(H: UndirectedHypergraph, cfg: SISConfig) -> StationaryResult:
    """Plain stationary estimate: seed ceil(rho0 * |V|) uniform infected
    nodes, burn in, then record the density every decorrelation period.
    Absorption at any point ends the run with (0, 0, absorbed=True)."""
    return _run(H, cfg, quasi_stationary=False)


def run_quasi_stationary(
    H: UndirectedHypergraph, cfg: SISConfig
) -> StationaryResult:
    """Stationary estimate with the quasi-stationary revival rule: a buffer
    of the last qs_history_size snapshots (one per snapshot_interval of
    simulated time) replaces the state uniformly at random whenever the
    absorbing state is reached; before the first snapshot exists the run
    falls back to its initial condition.  The absorbed flag reports whether
    any revival happened (a sub-threshold signature)."""
    return _run(H, cfg, quasi_stationary=True)
