"""Exception hierarchy for degenerate geometric input."""


class GeometryError(Exception):
    """Base class for all degeneracies reported by this package."""


class CoincidentPoints(GeometryError):
    pass


class ParallelLines(GeometryError):
    pass


class DegenerateRay(GeometryError):
    pass


class DegenerateConfiguration(GeometryError):
    pass


class PointAtInfinity(GeometryError):
    pass


class DegenerateP(GeometryError):
    """Pencil shape parameter p = +-1 (the degenerate members)."""


class NonpositiveT(GeometryError):
    pass


class NonFiniteParameter(GeometryError):
    """A pencil parameter p or t that is infinite or NaN."""


class AsymptoticDirection(GeometryError):
    """Focal ray parallel to an asymptote; the radius is unbounded."""


class OnExcludedLine(GeometryError):
    """Point on x = -1/p, which no pencil member reaches."""


class ParabolaMember(GeometryError):
    """Pedal of a parabola about its focus is a line, not a circle."""


class CenterHasNoPolar(GeometryError):
    pass


class LineThroughCenter(GeometryError):
    pass


class CenterNotFocus(GeometryError):
    pass


class FocusOutsideDual(GeometryError):
    """The focus lies outside the dual circle, as on every hyperbola member."""


class AngleOutOfRange(GeometryError):
    pass


class FormulaPole(GeometryError):
    """Closed-form vertex denominator vanishes."""


class NotClosed(GeometryError):
    pass


class AllOppositeSidesParallel(GeometryError):
    pass


class EmptyScene(GeometryError):
    pass


class MalformedInput(GeometryError):
    """JSON input whose shape does not describe the expected object."""
