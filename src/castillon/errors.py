"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Base class for all geometric failures."""


class DegenerateTriangle(GeometryError):
    """Sides violate the triangle inequality or the area cutoff."""


class InfinitePoint(GeometryError):
    """A barycentric point at infinity was used where a finite point is required."""


class CoincidentPoints(GeometryError):
    """Two points expected to span a line are (numerically) proportional."""


class DegenerateConic(GeometryError):
    """Conic fit produced a null space of dimension other than one."""


class CenterPoint(GeometryError):
    """Chord pivot is not a finite point."""


class DegenerateComposition(GeometryError):
    """Composed chord map is zero or a multiple of the identity; every point closes."""


class PathClosed(GeometryError):
    """A seed path of the axis construction closed onto itself."""


class NoRealIntersection(GeometryError):
    """A line expected to meet a circle misses it."""


class NonEllipse(GeometryError):
    """Inconic is not a real ellipse: its perspector is not interior.
    Conics tangent to the extended sides are out of scope."""


class UnknownCenter(GeometryError):
    """Requested Kimberling index is not in the registry."""


class SeedMismatch(GeometryError):
    """Seed vertex does not match the expected closed-form vertex."""


class OutOfRange(GeometryError):
    """Numeric argument outside its mathematical domain."""
