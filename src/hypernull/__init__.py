"""Uniform null models for directed hypergraphs.

Samplers draw random directed hypergraphs that exactly preserve either the four
degree sequences or the full joint degree tensor of an observed hypergraph, via
edge swaps on the bipartite-digraph representation.  Companion modules measure
convergence and compare observed vs. randomized hypergraphs on group affinity,
reciprocity, core structure, spectra, contagion dynamics, and economic-complexity
scores.
"""

from hypernull.core import (
    BipartiteDigraph,
    DegreeHistograms,
    DegreeProfile,
    DirectedEdge,
    DirectedHypergraph,
    Hyperedge,
    JointTensor,
    ParseError,
    UndirectedHypergraph,
    compute_joint,
    degree_profile,
    format_hypergraph,
    format_undirected,
    joint_marginals,
    merge_to_undirected,
    parse_hypergraph,
    parse_undirected,
    positive_histograms,
    read_labels,
    to_bipartite,
    to_hypergraph,
    undirected_to_directed,
)
from hypernull.affinity import (
    CategoryPartition,
    affinity,
    affinity_baseline,
)
from hypernull.diagnostics import (
    arsd,
    arsd_trace,
    chi_square_uniformity,
    kendall_tau,
    mine_top_frequent,
    plateau_checkpoint,
    spearman,
    transaction_db,
)
from hypernull.sampling import (
    ChainConfig,
    FrozenEnsembleError,
    SwapProposal,
    apply_pso,
    delta_state_degree_pso,
    derive_seed,
    make_chain_state,
    null_sample,
    nudhy_degs_mh_step,
    nudhy_degs_step,
    nudhy_joint_step,
    run_chain,
    state_degree_pso,
)
from hypernull.contagion import (
    DEFAULT_THRESHOLDS,
    Event,
    SISConfig,
    SISState,
    StationaryResult,
    Thresholds,
    gillespie_step,
    load_thresholds,
    make_sis_state,
    run_quasi_stationary,
    run_stationary,
)
from hypernull.econ import (
    Biadjacency,
    ComplexityScores,
    CountryMeta,
    ProximityMatrix,
    RcaMatrix,
    TradeRecord,
    TradeTable,
    complexity_scores,
    eci_pci,
    fitness_quality,
    genepy,
    hypergraph_biadjacency,
    proximity,
    rank_compare,
    rca,
    read_trade_table,
    trade_to_hypergraph,
)
from hypernull.structure import (
    CorenessProfile,
    ReciprocityResult,
    binary_entropy,
    hits,
    hyper_core_decomposition,
    hyperedge_reciprocity,
    hypergraph_reciprocity,
    laplacian_spectrum,
    multi_order_laplacian,
    pagerank,
    project_weighted,
    search_reciprocal_set,
    structural_entropy,
)

__version__ = "0.1.0"
