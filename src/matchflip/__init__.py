"""matchflip: flip-based reconfiguration of (perfect) matchings.

Decide and construct flip/slide reconfiguration sequences between
matchings of a graph: exact polynomial solvers for strongly orderable,
outerplanar and cograph inputs, a brute-force reconfiguration-graph
oracle for validation, and an NCL-gadget hard-instance generator.
"""

from importlib import import_module

from . import errors
from .graph import (
    DiffComponent,
    Flip,
    Graph,
    Move,
    ReconfigSequence,
    Slide,
    Verdict,
    apply_move,
    canonical_flip,
    edge,
    edge_set,
    matching_partners,
    symmetric_difference_components,
    verify_sequence,
)
from .strongly_orderable import (
    OrderCheck,
    canonical_matching,
    solve_strongly_orderable,
    verify_strong_ordering,
)
from .outerplanar import (
    OuterplanarResult,
    boundary_order,
    is_outerplanar,
    solve_outerplanar,
)
from .cograph import (
    CographResult,
    CotreeNode,
    build_cotree,
    is_cograph,
    reachability_class,
    solve_cograph,
)
from .io import (
    Instance,
    instance_to_dict,
    load_instance,
    load_ncl,
    load_sequence,
    sequence_to_dict,
)

__version__ = "0.1.0"

# name -> the submodule it comes from, imported on first access (PEP 562) so
# that a process which only solves or verifies never loads the oracle or NCL code
_LAZY = {name: module for module, names in (
    ("oracle", ("oracle", "FLIP_ONLY", "FLIP_SLIDE", "Mode", "ReachResult",
                "ReconfigGraphStats", "enumerate_matchings", "kflip", "reachable",
                "reconfiguration_components", "reconfiguration_stats")),
    ("hardness", ("hardness", "GadgetInstance", "GadgetReport", "KFactorInstance",
                  "NclMachine", "SAMPLE_MACHINES", "enumerate_configurations",
                  "gadget_selftest", "k_factor_instance", "reduce_ncl_to_pmr",
                  "split_completion", "subdivide_for_kflip", "validate_machine",
                  "validate_ncl")),
) for name in names}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
