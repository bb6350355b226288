"""Rigidity of symmetric linearly constrained frameworks in the plane.

A looped simple graph models a bar-joint framework whose loops pin vertices
to lines.  This package decides sparsity, symmetry-compatible tightness,
independence, rigidity, and isostaticity, by combinatorial counts (subset
oracle and pebble game), character comparisons, construction/decomposition
through symmetry-preserving extension moves, and numerical or exact rank of
the rigidity matrix.  See the README for the document format and CLI.
"""

from .errors import (
    ActionError,
    DegenerateInputError,
    InputError,
    InvalidMoveError,
    NotTightError,
    RangeError,
    ReductionDeadEnd,
    SchemaError,
    SlcrigidError,
    UnsupportedBackendError,
)
from .henneberg import (
    ComponentTrace,
    CycleEdge,
    Decomposition,
    GeneratedGraph,
    Move,
    OneEdgeSplit,
    OneLoopSplit,
    Reduction,
    Zero2Edges,
    ZeroEdgeLoop,
    apply_extension,
    base_graph,
    base_union_labels,
    certified_group,
    decompose,
    default_bases,
    enumerate_reductions,
    generate_random,
    is_base_graph,
    replay,
    verify_decomposition,
)
from .realize import (
    Framework,
    MotionReport,
    RankReport,
    RigidityMatrix,
    build_rigidity_matrix,
    check_framework,
    classify,
    motions,
    rank,
    sample_symmetric_placement,
)
from .selftest import run_selftest
from .sparsity import (
    Criticality,
    SparsityReport,
    Witness,
    criticality,
    cross_edge_count,
    pebble_check,
    subset_audit,
)
from .symcheck import (
    CharacterReport,
    FixedCountReport,
    TightReport,
    character_vectors,
    check_tight,
    fixed_count_check,
    is_gamma_tight,
    is_tight,
)
from .symgraph import (
    GroupElement,
    GroupSpec,
    Loop,
    SymmetricGraph,
    element_tables,
    fixed_counts,
    induced_subgraph,
    orbits,
    relabel,
    symmetric_components,
    validate_action,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SlcrigidError",
    "InputError",
    "SchemaError",
    "RangeError",
    "ActionError",
    "UnsupportedBackendError",
    "InvalidMoveError",
    "NotTightError",
    "DegenerateInputError",
    "ReductionDeadEnd",
    # graphs and groups
    "GroupSpec",
    "GroupElement",
    "Loop",
    "SymmetricGraph",
    "element_tables",
    "validate_action",
    "orbits",
    "fixed_counts",
    "symmetric_components",
    "relabel",
    "induced_subgraph",
    # sparsity
    "SparsityReport",
    "Witness",
    "Criticality",
    "subset_audit",
    "pebble_check",
    "criticality",
    "cross_edge_count",
    # symmetry checks
    "CharacterReport",
    "FixedCountReport",
    "TightReport",
    "character_vectors",
    "fixed_count_check",
    "check_tight",
    "is_tight",
    "is_gamma_tight",
    # realization
    "Framework",
    "RigidityMatrix",
    "RankReport",
    "MotionReport",
    "sample_symmetric_placement",
    "check_framework",
    "build_rigidity_matrix",
    "rank",
    "classify",
    "motions",
    # construction
    "Zero2Edges",
    "ZeroEdgeLoop",
    "CycleEdge",
    "OneEdgeSplit",
    "OneLoopSplit",
    "Move",
    "Reduction",
    "ComponentTrace",
    "Decomposition",
    "GeneratedGraph",
    "apply_extension",
    "base_graph",
    "is_base_graph",
    "base_union_labels",
    "default_bases",
    "certified_group",
    "enumerate_reductions",
    "decompose",
    "verify_decomposition",
    "replay",
    "generate_random",
    # selftest
    "run_selftest",
]
