"""matchflip: flip-based reconfiguration of (perfect) matchings.

Decide and construct flip/slide reconfiguration sequences between
matchings of a graph: exact polynomial solvers for strongly orderable,
outerplanar and cograph inputs, a brute-force reconfiguration-graph
oracle for validation, and an NCL-gadget hard-instance generator.
"""

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
from .oracle import (
    FLIP_ONLY,
    FLIP_SLIDE,
    Mode,
    ReachResult,
    ReconfigGraphStats,
    enumerate_matchings,
    kflip,
    reachable,
    reconfiguration_components,
    reconfiguration_stats,
)
from .strongly_orderable import (
    OrderCheck,
    StrongOrder,
    canonical_matching,
    solve_strongly_orderable,
    verify_strong_ordering,
)
from .outerplanar import (
    BoundaryOrder,
    OuterplanarResult,
    boundary_order,
    is_outerplanar,
    solve_outerplanar,
    split_at_cut_vertices,
)
from .cograph import (
    CographResult,
    CotreeNode,
    build_cotree,
    check_conditions,
    is_cograph,
    reachability_class,
    root_partition,
    solve_cograph,
)
from .hardness import (
    GadgetInstance,
    GadgetReport,
    KFactorInstance,
    NclMachine,
    SAMPLE_MACHINES,
    enumerate_configurations,
    gadget_selftest,
    k_factor_instance,
    reduce_ncl_to_pmr,
    split_completion,
    subdivide_for_kflip,
    validate_machine,
    validate_ncl,
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
