"""Exception hierarchy shared by all hingekit modules."""


class HingekitError(Exception):
    """Base class for every error raised by hingekit."""


class DimensionError(HingekitError):
    """Inputs live in incompatible spaces (wrong vector length, mixed ambients)."""


class GradeError(HingekitError):
    """Exterior grades do not match the requested operation."""


class DegenerateGeometryError(HingekitError):
    """A geometric input collapsed (dependent axis directions, zero line, ...)."""


class DegenerateAxisError(DegenerateGeometryError):
    """Axis directions or frame vectors that are dependent or not orthonormal.

    ``index`` is the position of the offending item when a stack of them was
    checked at once, else None.
    """

    def __init__(self, *args, index: int | None = None):
        super().__init__(*args)
        self.index = index


class DegenerateLineError(DegenerateGeometryError):
    pass


class DegenerateLegError(DegenerateGeometryError):
    pass


class DegenerateSimplexError(DegenerateGeometryError):
    pass


class ParallelLinesError(DegenerateGeometryError):
    """No unique common perpendicular between parallel lines."""


class GenericityError(HingekitError):
    """A construction that needs a generic configuration met a special one."""


class ProvenanceError(HingekitError):
    """A linkage does not carry the labels of the canonical construction."""


class DefinitionError(HingekitError, ValueError):
    """A chain, cycle, platform or configuration violates a structural invariant."""


class WrongMapError(HingekitError):
    """An end-point operation was applied to a chain carrying a frame, or vice versa."""


class RigidCycleError(HingekitError):
    """The closure differential has no kernel: there is nothing to flex."""


class ProjectionError(HingekitError):
    """Gauss-Newton projection onto the closure fiber failed to converge."""


class ConsistencyError(HingekitError):
    """Rank verdict and geometric witness disagree; signals a tolerance bug."""


class ToleranceError(HingekitError, ValueError):
    """A rank tolerance that is not a finite number > 0, or one that cuts every singular value
    of a nonzero matrix or rows independent by construction."""


class ScenarioError(HingekitError):
    """Scenario text failed schema or semantic validation."""
