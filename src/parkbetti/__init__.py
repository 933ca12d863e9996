"""Exact Betti numbers of graph parking-function, cut-set, and oriented
cut-set ideals, cross-checked by four methods."""

from .chips import (
    enumerate_parking_functions,
    is_parking_function,
    maximal_parking_functions,
    mpf_count,
)
from .graphs import (
    ConnectedPartition,
    Cut,
    Edge,
    GraphParseError,
    GraphValidationError,
    Multigraph,
    bits,
    boundary_degree,
    connected_components,
    connected_partitions,
    contract,
    cut_set,
    enumerate_connected_cuts,
    graph_from_json,
    graph_to_json,
    graph_to_text,
    is_connected_induced,
    is_connected_partition,
    mask_of,
    parse_graph,
    separating_edges,
    sink_fixing_automorphisms,
    spanning_tree_count,
)
from .homology import (
    DEFAULT_CHARS,
    CharacteristicDisagreement,
    betti_gpw,
    betti_koszul,
    betti_mobius,
    betti_wilmes,
    interval_homology_audit,
)
from .ideals import (
    Monomial,
    MonomialCode,
    MonomialIdeal,
    Substitution,
    apply_substitution,
    cutset_ideal,
    forget_orientation_substitution,
    lcm_closure,
    lcm_lattice,
    minimalize,
    oriented_cutset_ideal,
    parking_ideal,
    permute_code,
    shared_vertex_substitution,
    variable_symmetries,
)
from .posets import (
    FiniteLattice,
    LatticeError,
    NotGradedError,
    connected_partition_lattice,
    dual_connected_partition_lattice,
    lattice_isomorphism_failure,
    lattice_to_dot,
    lattice_to_json,
)
from .simplicial import rank_over
from .verify import (
    CheckResult,
    VerificationReport,
    canonical_form,
    export_figure,
    generate_corpus,
    verification_corpus,
    verify_corpus,
    verify_graph,
)

__version__ = "0.1.0"
