"""Purity and Renyi-entropy dynamics of random quantum circuits on graphs."""

from .errors import CapacityError, ValidationError
from .graphs import (
    Bipartition,
    FixedSequence,
    Graph,
    MarkovChain,
    UniformIID,
    VertexSet,
    boundary_edges,
    build_graph,
    cem_sequence,
    chain_graph,
    complete_graph,
    sample_sequence,
)
from .moments import (
    cycle_count,
    nd_constant,
    second_moment_I,
    single_edge_alpha_moment,
    single_edge_purity_variance,
)
from .series import PuritySeries
from .swapengine import apply_edge, evolve, twirl_coefficients

__all__ = [
    "Bipartition",
    "CapacityError",
    "FixedSequence",
    "Graph",
    "MarkovChain",
    "PuritySeries",
    "UniformIID",
    "ValidationError",
    "VertexSet",
    "apply_edge",
    "boundary_edges",
    "build_graph",
    "cem_sequence",
    "chain_graph",
    "complete_graph",
    "cycle_count",
    "evolve",
    "nd_constant",
    "sample_sequence",
    "second_moment_I",
    "single_edge_alpha_moment",
    "single_edge_purity_variance",
    "twirl_coefficients",
]

__version__ = "0.1.0"
