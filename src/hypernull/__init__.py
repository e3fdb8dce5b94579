"""Uniform null models for directed hypergraphs.

Samplers draw random directed hypergraphs that exactly preserve either the four
degree sequences or the full joint degree tensor of an observed hypergraph, via
edge swaps on the bipartite-digraph representation.  Companion modules measure
convergence and compare observed vs. randomized hypergraphs on group affinity,
reciprocity, core structure, spectra, contagion dynamics, and economic-complexity
scores.
"""

from hypernull.core import parse_hypergraph
from hypernull.sampling import (
    ChainConfig,
    delta_state_degree_pso,
    make_chain_state,
    nudhy_degs_step,
    nudhy_joint_step,
    run_chain,
    state_degree_pso,
)
from hypernull.contagion import gillespie_step, make_sis_state, run_quasi_stationary
from hypernull.econ import eci_pci, fitness_quality, genepy
from hypernull.structure import hypergraph_reciprocity

__version__ = "0.1.0"
