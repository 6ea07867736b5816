"""Inscribed-polygon (Cramer-Castillon) solvers on a triangle's incircle,
excircles and inconics, with closed-form golden-ratio solutions and
verification of the shared Brocard-geometry objects.  Each object is
imported from its module; the package itself exports nothing."""

__version__ = "0.1.0"
