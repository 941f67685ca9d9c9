"""Certifying graph list coloring.

Vertices with slack, and all vertices they reach, are colored greedily; the
rest is handled by branching on holes. All certificates (elimination orders,
holes, colorings) are independently checkable.
"""

from .chordal import (
    ChordalityCertificate,
    Coloring,
    Hole,
    InternalInvariantBroken,
    ListAssignment,
    ListExhausted,
    NotAPermutation,
    PeoViolation,
    PreconditionBreach,
    chordality_certificate,
    find_hole_from_witness,
    greedy_color_along,
    mcs_order,
    uniform_lists,
    verify_peo,
)
from .generate import (
    MODELS,
    GeneratorConfig,
    InfeasibleConfig,
    SplitMix64,
    generate,
    random_lists,
)
from .graph import (
    EndpointDeleted,
    Graph,
    GraphError,
    SelfLoop,
    UnknownVertex,
    build_graph,
    connected_components,
    is_complete,
    max_degree,
    surgery,
)
from .instance_io import (
    DuplicateListLine,
    ParseError,
    emit_coloring,
    emit_instance,
    parse_coloring,
    parse_instance,
)
from .oracle import (
    Defect,
    IncompleteColoring,
    OracleOutcome,
    brute_force_list_color,
    verify_coloring,
)
from .solver import (
    BothBranchesBlocked,
    BranchPair,
    HypothesisReport,
    HypothesisViolation,
    InvalidHole,
    MissingList,
    NoStartPair,
    ResidualTooSmall,
    brooks_list_color,
    build_branch_pair,
    check_hypotheses,
    extend_around_cycle,
    residual_lists,
    select_branch,
)

__version__ = "0.1.0"
