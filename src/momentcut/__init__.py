"""Exact labeled moment polytopes and their circle-action constructions."""

from .errors import (
    BlowupTooLarge,
    DegenerateVertex,
    DimensionMismatch,
    EmptyResult,
    FixedPointInput,
    InputError,
    InternalError,
    MomentcutError,
    NotRegularLevel,
    NotSimple,
    NotUnimodular,
    PreconditionError,
    VertexNotBlowable,
    WallNotSimpleCrossing,
    ZeroVector,
)
from .lattice import (
    format_rational,
    half_sum_integral,
    lattice_index,
    parse_rational,
    primitive,
    solve_exact,
)
from .polytope import (
    Facet,
    LabeledPolytope,
    Vertex,
    canonical_equal,
    is_regular_level,
    slice_at,
    transform,
    validate,
    vertices,
    volume,
)
from .toric import (
    VertexClass,
    VertexKind,
    circle_stabilizer_order,
    classify_vertex,
    edge_generators,
    fixed_components,
    weights_at_vertex,
)
from .ops import (
    BlowupParams,
    ClassLedger,
    CutSide,
    PipelineReport,
    add_fixed_points,
    blowup,
    compactify,
    cut,
    reduce_at,
    reversed_polytope,
)
from .dh import (
    DHProfile,
    WallReport,
    check_log_concavity,
    critical_values,
    dh_profile,
    find_strict_local_minima,
    wall_crossing_check,
)

__version__ = "0.1.0"
