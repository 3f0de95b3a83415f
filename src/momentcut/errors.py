"""Exception hierarchy shared by all modules.

Three user-visible classes map onto CLI exit codes:
  InputError        -> 1 (bad files, unparseable values, invalid polytopes)
  PreconditionError -> 2 (operation preconditions violated on valid data)
  InternalError     -> 3 (invariants broken; always a bug)
"""
from __future__ import annotations


class MomentcutError(Exception):
    pass


class InputError(MomentcutError):
    pass


class PreconditionError(MomentcutError):
    pass


class InternalError(MomentcutError):
    pass


class ZeroVector(PreconditionError):
    pass


class DimensionMismatch(PreconditionError):
    pass


class NotUnimodular(PreconditionError):
    pass


class NotSimple(InputError):
    """A feasible basic point lies on more than `dim` facets."""


class NotRegularLevel(PreconditionError):
    pass


class EmptyResult(PreconditionError):
    pass


class BlowupTooLarge(PreconditionError):
    pass


class VertexNotBlowable(PreconditionError):
    pass


class DegenerateVertex(PreconditionError):
    pass


class WallNotSimpleCrossing(PreconditionError):
    pass


class FixedPointInput(PreconditionError):
    pass
