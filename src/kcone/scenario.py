"""Scenario files: published JSON schema, validation, object construction.

A scenario is one self-contained JSON object naming a vector field, a cone,
and the run parameters. Numbers are plain JSON decimals, matrices row-major
nested arrays. The schema below is part of the tool's interface and the one
definition of which members a scenario has: each family's params, each cone
and domain type's members, required and optional, and no others. The
constructors judge the values. Every refused scenario raises SchemaError
with a JSON pointer: to the offending member for a schema violation, to its
section for a constructor's error.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Any

import jsonschema

from .cones import (
    Cone,
    make_orthant_complement_cone,
    make_orthant_union_cone,
    make_quadratic_cone,
)
from .domains import Box, Cylinder, Domain
from .errors import IoError, KconeError, SchemaError
from .fields import (
    VectorField,
    make_competitive_lv,
    make_cyclic_feedback,
    make_hopf_cylinder,
    make_linear_field,
    parse_field,
)
from .integrators import _require_start
from .limitsets import LOOP_POINTS

# A scenario number is a finite double: JSON admits integers beyond the
# largest one, and Python's reader inf for 1e400 and NaN and Infinity.
_NUMBER = {"type": "number", "minimum": -sys.float_info.max, "maximum": sys.float_info.max}
_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _NUMBER},
}
_VECTOR = {"type": "array", "minItems": 1, "items": _NUMBER}
_BAND = {**_NUMBER, "minimum": 0}
_POSITIVE = {**_NUMBER, "exclusiveMinimum": 0}
# Most rates a lambda_grid may hold; each is scored on every sampled pair.
LAMBDA_GRID_CAP = 10_000
# Most pairs a certificate may sample; at n = 3 a sample peaks near 20
# floats per pair, some 160 MB at the cap.
PAIRS_CAP = 1_000_000
# Most tail grid times estimate_omega may hold, some 50 MB of times and
# indices at the cap.
TAIL_GRID_CAP = 1_000_000
# Largest |coordinate| a field's domain may reach. Every state a run keeps
# lies in the domain, so the squared norms and distances the analyses take,
# at most n (2 DOMAIN_CAP)^2, stay finite below n = 4e7.
DOMAIN_CAP = 1e150


def _members(required: dict, optional: dict) -> dict:
    """An object with every required member, any optional one, and no other."""
    return {
        "type": "object",
        "required": list(required),
        "properties": {**required, **optional},
        "additionalProperties": False,
    }


def _cases(tag: str, cases: dict) -> list:
    """One if/then branch per value of the tag member: the object has the
    tag and that case's (required, optional) members, and no others."""
    return [
        {
            "if": {"required": [tag], "properties": {tag: {"const": value}}},
            "then": _members({tag: {}, **required}, optional),
        }
        for value, (required, optional) in cases.items()
    ]


def _tagged(tag: str, cases: dict) -> dict:
    """An object whose required tag member names the case it follows."""
    return {
        "type": "object",
        "required": [tag],
        "properties": {tag: {"enum": list(cases)}},
        "allOf": _cases(tag, cases),
    }


_RING = {"n": {"type": "integer"}}
_ORTHANTS = ("orthant_complement", "orthant_union")
_ORTHANT = ({"n": {"type": "integer", "minimum": 2}}, {"band": _BAND})

# The params each family reads. A ring has n, its kind (smooth_goodwin unless
# it says glass_pwl) and that kind's shape params.
_FAMILY_PARAMS = {
    "linear": _members({"A": _MATRIX}, {}),
    "hopf_cylinder": _members(
        {"omega": _NUMBER, "c": _NUMBER}, {"radius": _NUMBER, "z_bound": _NUMBER}
    ),
    "cyclic_feedback": {
        "type": "object",
        "properties": {"kind": {"enum": ["smooth_goodwin", "glass_pwl"]}},
        "if": {"required": ["kind"], "properties": {"kind": {"const": "glass_pwl"}}},
        "then": _members(_RING, {"kind": {}, **dict.fromkeys(("lo", "hi", "amp"), _NUMBER)}),
        "else": _members(_RING, {"kind": {}, **dict.fromkeys(("b", "theta", "m"), _NUMBER)}),
    },
    "competitive_lv": _members({"A": _MATRIX, "r": _VECTOR}, {}),
}

_QUADRATIC_ONLY = "lambda, lambda_grid and epsilon apply to quadratic cones only"

SCENARIO_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "kcone scenario",
    "type": "object",
    "required": ["field", "cone"],
    "additionalProperties": False,
    # A parsed field has no domain of its own.
    "if": {
        "required": ["field"],
        "properties": {"field": {"type": "object", "required": ["exprs"]}},
    },
    "then": {"required": ["domain"]},
    # Rates are certified on a quadratic cone only, and epsilon at lambda.
    "allOf": [{
        "if": {"properties": {"cone": {"properties": {"type": {"enum": list(_ORTHANTS)}}}}},
        "then": {"properties": dict.fromkeys(("lambda", "lambda_grid", "epsilon"), {"not": {}})},
    }],
    "dependentSchemas": {"epsilon": {"required": ["lambda"]}},
    "properties": {
        "name": {"type": "string"},
        # A field is parsed from expressions, whose params are all numbers,
        # or is a family's, with the family's params.
        "field": {
            "type": "object",
            "properties": {"family": {"enum": list(_FAMILY_PARAMS)}},
            "if": {"required": ["exprs"]},
            "then": _members(
                {"exprs": {"type": "array", "minItems": 1, "items": {"type": "string"}}},
                {"params": {"type": "object", "additionalProperties": _NUMBER}},
            ),
            "else": {
                "required": ["family"],
                "allOf": _cases(
                    "family", {f: ({"params": p}, {}) for f, p in _FAMILY_PARAMS.items()}
                ),
            },
        },
        "cone": _tagged(
            "type",
            {"quadratic": ({"P": _MATRIX}, {"band": _BAND}), **dict.fromkeys(_ORTHANTS, _ORTHANT)},
        ),
        "domain": _tagged(
            "type",
            {
                "box": ({"lo": _VECTOR, "hi": _VECTOR}, {}),
                "cylinder": ({"radius": _POSITIVE, "rest_lo": _VECTOR, "rest_hi": _VECTOR}, {}),
            },
        ),
        "lambda": _NUMBER,
        "lambda_grid": {"type": "array", "items": _NUMBER, "minItems": 3, "maxItems": 3},
        "epsilon": _POSITIVE,
        "pairs": {"type": "integer", "minimum": 1, "maximum": PAIRS_CAP},
        "seed": {"type": "integer", "minimum": 0},
        "x0": {"oneOf": [_VECTOR, {"type": "array", "minItems": 1, "items": _VECTOR}]},
        **dict.fromkeys(("T", "rtol", "atol", "max_step"), _POSITIVE),
        "analysis": {
            "type": "object",
            "properties": {
                "window_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
                **dict.fromkeys(
                    ("spacing", "tol_omega_rel", "tol_period", "dist_eq_rel", "eps_chain",
                     "r_chain", "t_max_chain"),
                    _POSITIVE,
                ),
                # Picked from the loop's points: more would only repeat them.
                "chain_points": {"type": "integer", "minimum": 1, "maximum": LOOP_POINTS},
            },
            "additionalProperties": False,
        },
    },
}


# Analysis defaults applied when the scenario leaves a knob unset.
ANALYSIS_DEFAULTS = {
    "window_fraction": 0.5,
    "spacing": 0.1,
    "tol_omega_rel": 1e-4,
    "tol_period": 1e-3,
    "dist_eq_rel": 1e-6,
    "eps_chain": None,
    "r_chain": None,
    "t_max_chain": None,
    "chain_points": 8,
}


@dataclass(eq=False)
class Scenario:
    """A parsed scenario, as parse_scenario builds it with every default;
    lambda_grid holds the grid's rates."""

    raw: dict
    field: VectorField
    cone: Cone
    name: str
    lam: float | None
    lambda_grid: tuple[float, ...] | None
    epsilon: float | None
    pairs: int
    seed: int
    x0s: list
    T: float
    rtol: float
    atol: float
    max_step: float
    analysis: dict


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def scenario_digest(obj: dict) -> str:
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def _section(pointer: str, build, *args):
    """build(*args), with a constructor's KconeError made the scenario's
    SchemaError at pointer."""
    try:
        return build(*args)
    except SchemaError:
        raise
    except KconeError as exc:
        raise SchemaError(str(exc), pointer) from exc


def _build_domain(spec: dict) -> Domain:
    if spec["type"] == "box":
        return Box(lo=spec["lo"], hi=spec["hi"])
    return Cylinder(
        radius=float(spec["radius"]), rest=Box(lo=spec["rest_lo"], hi=spec["rest_hi"])
    )


def _matrix(rows: list, pointer: str) -> list:
    """A schema-valid matrix whose rows all have one length."""
    if len({len(row) for row in rows}) != 1:
        raise SchemaError("matrix rows must all have the same length", pointer)
    return rows


def _family_field(family: str, params: dict) -> VectorField:
    """The named family's field, on the family's own domain."""
    if family == "linear":
        return make_linear_field(_matrix(params["A"], "/field/params/A"))
    if family == "hopf_cylinder":
        return make_hopf_cylinder(**{key: float(v) for key, v in params.items()})
    if family == "cyclic_feedback":
        shape = dict(params)
        n = int(shape.pop("n"))
        return make_cyclic_feedback(n, kind=shape.pop("kind", "smooth_goodwin"), params=shape)
    return make_competitive_lv(_matrix(params["A"], "/field/params/A"), params["r"])


def _build_cone(spec: dict) -> Cone:
    kind = spec["type"]
    kwargs = {"boundary_band": float(spec["band"])} if "band" in spec else {}
    if kind == "quadratic":
        return make_quadratic_cone(_matrix(spec["P"], "/cone/P"), **kwargs)
    if kind == "orthant_complement":
        return make_orthant_complement_cone(int(spec["n"]), **kwargs)
    return make_orthant_union_cone(int(spec["n"]), **kwargs)


def parse_scenario(obj: dict) -> Scenario:
    """Validate a scenario object against the schema and construct it.

    The schema decides which members a scenario has; the constructors decide
    whether their values make a field, cone and domain (an asymmetric P, an
    empty box, an expression that does not parse). Either way the error is a
    SchemaError with a JSON pointer: to the member for a schema violation, to
    the section (/domain, /field/params, /field/exprs or /cone) for a
    constructor's error, which is chained as its __cause__. An explicit
    domain replaces a family's own and must match the field's dimension, as
    must the cone's. Every initial condition must lie in the field's
    domain, or the scenario is refused at /x0. A [min, max, step]
    lambda_grid becomes its rates min + i*step, i = 0, 1, ..., up to max.
    """
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = list(err.absolute_path)
        # Point at the missing or unknown member itself.
        if err.validator == "required":
            path.append(err.message.split("'")[1])
        elif err.validator == "additionalProperties":
            path.append(min(set(err.instance) - set(err.schema["properties"])))
        # The one "not" in the schema: jsonschema's message names no reason.
        message = _QUADRATIC_ONLY if err.validator == "not" else err.message
        raise SchemaError(message, "".join(f"/{p}" for p in path))

    spec = obj["field"]
    domain = _section("/domain", _build_domain, obj["domain"]) if "domain" in obj else None
    cone = _section("/cone", _build_cone, obj["cone"])
    if "exprs" in spec:
        n = len(spec["exprs"])
    else:
        field = _section("/field/params", _family_field, spec["family"], spec["params"])
        n = field.dim
    for pointer, part in (("/domain", domain), ("/cone", cone)):
        if part is not None and part.dim != n:
            raise SchemaError(
                f"{pointer[1:]} dimension {part.dim} does not match field dimension {n}",
                pointer,
            )
    if "exprs" in spec:
        field = _section("/field/exprs", parse_field, spec["exprs"], domain, spec.get("params"))
    elif domain is not None:
        field = replace(field, domain=domain)
    reach = field.domain.reach()
    if reach > DOMAIN_CAP:
        raise SchemaError(
            f"domain reaches |x_i| = {reach:.3e}, past {DOMAIN_CAP:.0e}",
            "/domain" if domain is not None else "/field/params",
        )

    x0_raw = obj.get("x0")
    x0s: list = []
    if x0_raw is not None:
        rows = [x0_raw] if not isinstance(x0_raw[0], list) else x0_raw
        for i, row in enumerate(rows):
            if len(row) != n:
                raise SchemaError(
                    f"initial condition {i} has length {len(row)}, field needs {n}", "/x0"
                )
            x0s.append([float(v) for v in row])
            _section("/x0", _require_start, field.domain, x0s[-1])

    grid = obj.get("lambda_grid")
    if grid is not None:
        lo, hi, step = (float(v) for v in grid)
        if not (step > 0 and hi >= lo):
            raise SchemaError("lambda_grid must be [min, max, step] with step > 0", "/lambda_grid")
        # The rates lo + i*step below hi + step/2, and lo always (hi >= lo,
        # but hi + step/2 can round to lo); compared before ceil, which
        # overflows on an infinite count.
        count = (hi + 0.5 * step - lo) / step
        if count > LAMBDA_GRID_CAP:
            raise SchemaError(f"lambda_grid holds over {LAMBDA_GRID_CAP} rates", "/lambda_grid")
        grid = tuple(lo + i * step for i in range(max(1, math.ceil(count))))

    analysis = dict(ANALYSIS_DEFAULTS)
    analysis.update(obj.get("analysis", {}))
    T = float(obj.get("T", 100.0))
    # estimate_omega's grid holds floor(window / spacing) + 1 times, over
    # the cap exactly when window / spacing reaches it; the window is
    # window_fraction of a run that spans at most T.
    if analysis["window_fraction"] * T / analysis["spacing"] >= TAIL_GRID_CAP:
        raise SchemaError(
            f"analysis spacing gives a tail grid of over {TAIL_GRID_CAP} times", "/analysis/spacing"
        )
    if (analysis["r_chain"] or 0.0) > (analysis["t_max_chain"] or math.inf):
        raise SchemaError("analysis r_chain exceeds t_max_chain", "/analysis/r_chain")

    return Scenario(
        raw=obj,
        field=field,
        cone=cone,
        name=str(obj.get("name", "")),
        lam=float(obj["lambda"]) if "lambda" in obj else None,
        lambda_grid=grid,
        epsilon=float(obj["epsilon"]) if "epsilon" in obj else None,
        pairs=int(obj.get("pairs", 10_000)),
        seed=int(obj.get("seed", 0)),
        x0s=x0s,
        T=T,
        rtol=float(obj.get("rtol", 1e-10)),
        atol=float(obj.get("atol", 1e-12)),
        max_step=float(obj.get("max_step", float("inf"))),
        analysis=analysis,
    )


def _refuse_constant(name: str):
    raise SchemaError(f"scenario numbers must be finite, got {name}")


def _read_scenario_object(path) -> dict:
    """The JSON object in a scenario file, before any validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise IoError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("scenario must be a JSON object")
    return obj


def load_scenario(path) -> Scenario:
    return parse_scenario(_read_scenario_object(path))
