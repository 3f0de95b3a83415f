"""Exact labeled moment polytopes and their circle-action constructions.

A public name loads the module that defines it on first use (PEP 562), so
`import momentcut` loads no submodule and each command pays for its own.
"""
from importlib import import_module

# the public names, by the module that defines them
_NAMES = {
    "errors": "BlowupTooLarge DegenerateVertex DimensionMismatch EmptyResult "
              "FixedPointInput InputError InternalError MomentcutError NotRegularLevel "
              "NotSimple NotUnimodular PreconditionError VertexNotBlowable "
              "WallNotSimpleCrossing ZeroVector",
    "lattice": "format_rational half_sum_integral lattice_index parse_rational "
               "primitive",
    "polytope": "Facet LabeledPolytope Vertex canonical_equal critical_values "
                "require_regular slice_at transform validate vertices volume",
    "toric": "VertexClass VertexKind circle_stabilizer_order classify_vertex "
             "edge_generators fixed_components weights_at_vertex",
    "ops": "BlowupParams ClassLedger CutSide PipelineReport add_fixed_points blowup "
           "compactify cut reduce_at reversed_polytope",
    "dh": "DHProfile WallReport check_log_concavity dh_profile "
          "find_strict_local_minima wall_crossing_check",
}
_MODULE = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = sorted(_MODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE[name]}"), name)
