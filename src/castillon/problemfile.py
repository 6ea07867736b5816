"""Problem-file parsing and solution-file serialization (schema castillon/1).

Problems are JSON documents describing exactly one of three kinds:

* triangle + named circle ("incircle" / "excircle-A|B|C")  -> closed-form,
  axis and parameter-map solvers all apply;
* triangle + "inconic_perspector"                          -> closed form on
  the inconic;
* explicit circle {center, radius} + "points"              -> general solver
  (a named circle with a triangle is also accepted for custom points).

Parse errors carry line/column positions; schema violations carry the JSON
path of the offending element.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np
from jsonschema import Draft202012Validator

from . import core
from .core import CircleData, TriangleData

SCHEMA_ID = "castillon/1"

_NUMBER = {"type": "number"}
_POINT = {"type": "array", "minItems": 2, "maxItems": 2, "items": _NUMBER}

PROBLEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "triangle": {
            "type": "object",
            "oneOf": [
                {
                    "required": ["a", "b", "c"],
                    "additionalProperties": False,
                    "properties": {
                        "a": {"type": "number", "exclusiveMinimum": 0},
                        "b": {"type": "number", "exclusiveMinimum": 0},
                        "c": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                {
                    "required": ["vertices"],
                    "additionalProperties": False,
                    "properties": {
                        "vertices": {
                            "type": "array", "minItems": 3, "maxItems": 3,
                            "items": _POINT,
                        },
                    },
                },
            ],
        },
        "circle": {
            "oneOf": [
                {"enum": list(core.CIRCLE_TAGS)},
                {
                    "type": "object",
                    "required": ["center", "radius"],
                    "additionalProperties": False,
                    "properties": {
                        "center": _POINT,
                        "radius": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            ],
        },
        "inconic_perspector": {
            "type": "array", "minItems": 3, "maxItems": 3, "items": _NUMBER,
        },
        "points": {"type": "array", "minItems": 3, "items": _POINT},
    },
}

_VALIDATOR = Draft202012Validator(PROBLEM_SCHEMA)

KIND_TRIANGLE_CIRCLE = "triangle-circle"
KIND_INCONIC = "inconic"
KIND_GENERAL = "general"
KIND_TRIANGLE_ONLY = "triangle-only"


class ProblemFileError(ValueError):
    """Invalid input: a problem document, or a command's option, setting or
    output path (maps to exit code 2)."""


class ProblemSpec(NamedTuple):
    kind: str
    raw: dict
    triangle: TriangleData | None
    circle: CircleData | None
    circle_tag: str | None       # set when the circle was named
    perspector: np.ndarray | None
    points: np.ndarray | None


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ProblemFileError(f"number {literal} is not a finite double")
    return value


def _finite_int(literal: str) -> int:
    _finite_float(literal)
    return int(literal)


def parse_problem_text(text: str) -> ProblemSpec:
    """Parse a problem document; NaN, Infinity and numbers beyond a double
    are invalid.  Integers stay `int`, as the `problem` echo prints them."""
    try:
        doc = json.loads(text, parse_float=_finite_float, parse_int=_finite_int,
                         parse_constant=_finite_float)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_problem(doc)


def load_problem(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    return parse_problem_text(text)


def parse_problem(doc) -> ProblemSpec:
    errors = sorted(_VALIDATOR.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
        )
        raise ProblemFileError(f"schema violation at {path}: {err.message}")

    triangle = None
    if "triangle" in doc:
        spec = doc["triangle"]
        if "vertices" in spec:
            triangle = core.triangle_from_vertices(np.asarray(spec["vertices"], float))
        else:
            triangle = core.triangle_from_sides(spec["a"], spec["b"], spec["c"])

    circle = None
    circle_tag = None
    if "circle" in doc:
        spec = doc["circle"]
        if isinstance(spec, str):
            if triangle is None:
                raise ProblemFileError("a named circle requires a triangle")
            circle_tag = spec
            circle = core.tagged_circle(triangle, spec)
        else:
            circle = CircleData(center=np.asarray(spec["center"], float),
                                radius=float(spec["radius"]))

    perspector = np.asarray(doc["inconic_perspector"], float) if "inconic_perspector" in doc else None
    points = np.asarray(doc["points"], float) if "points" in doc else None

    if perspector is not None:
        if triangle is None:
            raise ProblemFileError("an inconic perspector requires a triangle")
        if circle is not None or points is not None:
            raise ProblemFileError("inconic problems take no circle and no points")
        kind = KIND_INCONIC
    elif points is not None:
        if circle is None:
            raise ProblemFileError("explicit points require a circle")
        kind = KIND_GENERAL
    elif triangle is not None and circle_tag is not None:
        kind = KIND_TRIANGLE_CIRCLE
    elif triangle is not None and circle is None:
        # enough for verify / centers / render; solve rejects it
        kind = KIND_TRIANGLE_ONLY
    else:
        raise ProblemFileError(
            "no problem kind resolvable: give triangle+named circle, "
            "triangle+inconic_perspector, or circle+points"
        )
    return ProblemSpec(kind=kind, raw=doc, triangle=triangle, circle=circle,
                       circle_tag=circle_tag, perspector=perspector, points=points)


# ---------------------------------------------------------------------------
# serialization


def round15(value):
    """Round floats (recursively) to 15 significant digits for stable output."""
    if isinstance(value, dict):
        return {k: round15(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round15(v) for v in value]
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError("non-finite value in output document")
        v = float(f"{v:.15g}")
        return 0.0 if v == 0.0 else v
    if isinstance(value, (int, np.integer, str, bool)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical(values, norm) -> list:
    """Deterministic representative of homogeneous coefficients: `values`
    over their `np.linalg.norm` of order `norm` (np.inf, the largest entry
    size, for a line; "fro" for a conic matrix), signed so that the first
    entry above 1e-14 in size is positive."""
    values = np.asarray(values, dtype=float)
    values = values / np.linalg.norm(values, norm)
    # either norm leaves finite non-zero values an entry of size >= 1/3; any
    # other values now hold a NaN, which `round15` rejects
    lead = values.flat[np.argmax(np.abs(values) > 1e-14)]
    return (values if lead > 0 else -values).tolist()


def dump_document(doc: dict) -> str:
    return json.dumps(round15(doc), indent=2, sort_keys=True) + "\n"
