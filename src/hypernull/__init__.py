"""Uniform null models for directed hypergraphs.

Samplers draw random directed hypergraphs that exactly preserve either the four
degree sequences or the full joint degree tensor of an observed hypergraph, via
edge swaps on the bipartite-digraph representation.  Companion modules measure
convergence and compare observed vs. randomized hypergraphs on group affinity,
reciprocity, core structure, spectra, contagion dynamics, and economic-complexity
scores.

The exported names load their module on first use (PEP 562): importing the
package loads none of its modules, and importing one loads only what it imports.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the module that defines it.
_EXPORTS = {
    "parse_hypergraph": "core",
    "ChainConfig": "sampling",
    "delta_state_degree_pso": "sampling",
    "make_chain_state": "sampling",
    "nudhy_degs_step": "sampling",
    "nudhy_joint_step": "sampling",
    "run_chain": "sampling",
    "state_degree_pso": "sampling",
    "gillespie_step": "contagion",
    "make_sis_state": "contagion",
    "run_quasi_stationary": "contagion",
    "eci_pci": "econ",
    "fitness_quality": "econ",
    "genepy": "econ",
    "hypergraph_reciprocity": "structure",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
