"""Certifying graph list coloring.

Vertices with slack, and all vertices they reach, are colored greedily; the
rest is handled by branching on holes. All certificates (elimination orders,
holes, colorings) are independently checkable.

The seeded generators (``GeneratorConfig``, ``SplitMix64``, ``generate``,
``random_lists``) load on first access, so importing the package, or running
``color`` and ``chordal``, does not compile ``generate.py``. The package's
``generate`` is the function however the submodule of that name is first
imported; the module itself is ``sys.modules["brookscolor.generate"]``.
"""

import sys
from types import ModuleType

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
    MODELS,
    DuplicateListLine,
    InfeasibleConfig,
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

_GENERATORS = frozenset({"GeneratorConfig", "SplitMix64", "generate", "random_lists"})


def __getattr__(name: str):
    if name in _GENERATORS:
        module = f"{__name__}.generate"
        __import__(module)
        return getattr(sys.modules[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Package(ModuleType):
    # Importing a submodule binds it on its package under its own name; this
    # package's `generate` is the function, so bind that instead.
    def __setattr__(self, name: str, value: object) -> None:
        if name == "generate" and isinstance(value, ModuleType):
            value = value.generate
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
