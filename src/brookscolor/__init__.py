"""Certifying graph list coloring.

Vertices with slack, and all vertices they reach, are colored greedily; the
rest is handled by branching on holes. All certificates (elimination orders,
holes, colorings) are independently checkable.

Every public name loads its submodule on first access (PEP 562) and is then
bound on the package: ``import brookscolor`` loads no submodule, and each CLI
command only the modules it runs. Submodules are reached by importing them
(``import brookscolor.graph``). The package's ``generate`` is the function
however its submodule is first imported; the module itself is
``sys.modules["brookscolor.generate"]``.
"""

import sys
from types import ModuleType

__version__ = "0.1.0"

# public name -> the submodule that defines it
_LAZY = {name: module for module, names in (
    ("chordal", "ChordalityCertificate Coloring Hole InternalInvariantBroken ListAssignment"
                " ListExhausted NotAPermutation PeoViolation PreconditionBreach"
                " chordality_certificate find_hole_from_witness greedy_color_along mcs_order"
                " uniform_lists verify_peo"),
    ("graph", "EndpointDeleted Graph GraphError SelfLoop UnknownVertex build_graph"
              " connected_components is_complete max_degree surgery"),
    ("instance_io", "MODELS DuplicateListLine InfeasibleConfig ParseError emit_coloring"
                    " emit_instance parse_coloring parse_instance"),
    ("generate", "GeneratorConfig SplitMix64 generate random_lists"),
    ("oracle", "Defect IncompleteColoring OracleOutcome brute_force_list_color verify_coloring"),
    ("solver", "BothBranchesBlocked BranchPair HypothesisReport HypothesisViolation InvalidHole"
               " MissingList NoStartPair ResidualTooSmall brooks_list_color build_branch_pair"
               " check_hypotheses extend_around_cycle residual_lists select_branch"),
) for name in names.split()}

__all__ = [*_LAZY]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_LAZY[name]}"
    __import__(module)
    # bound here, so later reads are plain attribute reads
    value = globals()[name] = getattr(sys.modules[module], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


class _Package(ModuleType):
    # Importing a submodule binds it on its package under its own name; this
    # package's `generate` is the function, so bind that instead.
    def __setattr__(self, name: str, value: object) -> None:
        if name == "generate" and isinstance(value, ModuleType):
            value = value.generate
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
