"""Scenario files: published JSON schema, validation, object construction.

A scenario is one self-contained JSON object naming a vector field, a cone,
and the run parameters. Numbers are plain JSON decimals, matrices row-major
nested arrays. The schema below is part of the tool's interface; validation
failures surface as SchemaError with a JSON pointer to the offending spot.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dc_field, replace
from typing import Any

import jsonschema

from .cones import (
    Cone,
    make_orthant_complement_cone,
    make_orthant_union_cone,
    make_quadratic_cone,
)
from .domains import Box, Cylinder, Domain
from .errors import IoError, SchemaError
from .fields import (
    VectorField,
    make_competitive_lv,
    make_cyclic_feedback,
    make_hopf_cylinder,
    make_linear_field,
    parse_field,
)

_NUMBER = {"type": "number"}
_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _NUMBER},
}
_VECTOR = {"type": "array", "minItems": 1, "items": _NUMBER}

SCENARIO_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "kcone scenario",
    "type": "object",
    "required": ["field", "cone"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "field": {
            "type": "object",
            "oneOf": [{"required": ["family"]}, {"required": ["exprs"]}],
            "properties": {
                "family": {
                    "enum": ["linear", "hopf_cylinder", "cyclic_feedback", "competitive_lv"]
                },
                "params": {"type": "object"},
                "exprs": {"type": "array", "minItems": 1, "items": {"type": "string"}},
            },
            "additionalProperties": False,
        },
        "cone": {
            "type": "object",
            "required": ["type"],
            "properties": {
                "type": {"enum": ["quadratic", "orthant_complement", "orthant_union"]},
                "P": _MATRIX,
                "n": {"type": "integer", "minimum": 2},
                "band": {"type": "number", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "domain": {
            "type": "object",
            "required": ["type"],
            "properties": {
                "type": {"enum": ["box", "cylinder"]},
                "lo": _VECTOR,
                "hi": _VECTOR,
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "rest_lo": _VECTOR,
                "rest_hi": _VECTOR,
            },
            "additionalProperties": False,
        },
        "lambda": _NUMBER,
        "lambda_grid": {
            "type": "array",
            "items": _NUMBER,
            "minItems": 3,
            "maxItems": 3,
        },
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "pairs": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "x0": {
            "oneOf": [
                _VECTOR,
                {"type": "array", "minItems": 1, "items": _VECTOR},
            ]
        },
        "T": {"type": "number", "exclusiveMinimum": 0},
        "rtol": {"type": "number", "exclusiveMinimum": 0},
        "atol": {"type": "number", "exclusiveMinimum": 0},
        "max_step": {"type": "number", "exclusiveMinimum": 0},
        "analysis": {
            "type": "object",
            "properties": {
                "window_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
                "spacing": {"type": "number", "exclusiveMinimum": 0},
                "tol_omega_rel": {"type": "number", "exclusiveMinimum": 0},
                "tol_period": {"type": "number", "exclusiveMinimum": 0},
                "dist_eq_rel": {"type": "number", "exclusiveMinimum": 0},
                "eps_chain": {"type": "number", "exclusiveMinimum": 0},
                "r_chain": {"type": "number", "exclusiveMinimum": 0},
                "t_max_chain": {"type": "number", "exclusiveMinimum": 0},
                "chain_points": {"type": "integer", "minimum": 1},
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
    raw: dict
    field: VectorField
    cone: Cone
    name: str = ""
    lam: float | None = None
    lambda_grid: tuple[float, float, float] | None = None
    epsilon: float | None = None
    pairs: int = 10_000
    seed: int = 0
    x0s: list = dc_field(default_factory=list)
    T: float = 100.0
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = float("inf")
    analysis: dict = dc_field(default_factory=dict)

    @property
    def domain(self) -> Domain:
        return self.field.domain


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def scenario_digest(obj: dict) -> str:
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def _pointer(path) -> str:
    return "".join(f"/{p}" for p in path)


def _build_domain(spec: dict) -> Domain:
    if spec["type"] == "box":
        if "lo" not in spec or "hi" not in spec:
            raise SchemaError("box domain needs lo and hi", "/domain")
        return Box(lo=spec["lo"], hi=spec["hi"])
    if "radius" not in spec:
        raise SchemaError("cylinder domain needs a radius", "/domain/radius")
    rest_lo = spec.get("rest_lo", [])
    rest_hi = spec.get("rest_hi", [])
    if len(rest_lo) != len(rest_hi):
        raise SchemaError("rest_lo and rest_hi must have equal length", "/domain")
    if len(rest_lo) == 0:
        raise SchemaError("cylinder domain needs rest bounds", "/domain/rest_lo")
    return Cylinder(radius=float(spec["radius"]), rest=Box(lo=rest_lo, hi=rest_hi))


def _family_field(family: str, params: dict) -> VectorField:
    """The named family's field, on the family's own domain."""
    if family == "linear":
        if "A" not in params:
            raise SchemaError("linear family needs params.A", "/field/params/A")
        return make_linear_field(params["A"])
    if family == "hopf_cylinder":
        kwargs = {}
        for key in ("omega", "c", "radius", "z_bound"):
            if key in params:
                kwargs[key] = float(params[key])
        if "omega" not in kwargs or "c" not in kwargs:
            raise SchemaError("hopf_cylinder needs params.omega and params.c", "/field/params")
        return make_hopf_cylinder(**kwargs)
    if family == "cyclic_feedback":
        n = params.pop("n", None)
        kind = params.pop("kind", "smooth_goodwin")
        if n is None:
            raise SchemaError("cyclic_feedback needs params.n", "/field/params/n")
        return make_cyclic_feedback(int(n), kind=kind, params=params)
    # The schema's enum admits no other family.
    if "A" not in params or "r" not in params:
        raise SchemaError("competitive_lv needs params.A and params.r", "/field/params")
    return make_competitive_lv(params["A"], params["r"])


def _check_domain_dim(domain: Domain, n: int) -> None:
    if domain.dim != n:
        raise SchemaError(
            f"domain dimension {domain.dim} does not match field dimension {n}", "/domain"
        )


def _build_field(spec: dict, domain: Domain | None) -> VectorField:
    """The scenario's field. An explicit domain replaces a family's own;
    parsed fields need one. Its dimension must match the field's."""
    params = dict(spec.get("params", {}))
    if "exprs" in spec:
        if domain is None:
            raise SchemaError("parsed fields need an explicit domain", "/domain")
        _check_domain_dim(domain, len(spec["exprs"]))
        return parse_field(spec["exprs"], params=params, domain=domain)
    field = _family_field(spec["family"], params)
    if domain is None:
        return field
    _check_domain_dim(domain, field.dim)
    return replace(field, domain=domain)


def _build_cone(spec: dict) -> Cone:
    kind = spec["type"]
    band = spec.get("band")
    kwargs = {} if band is None else {"boundary_band": float(band)}
    if kind == "quadratic":
        if "P" not in spec:
            raise SchemaError("quadratic cone needs a matrix P", "/cone/P")
        return make_quadratic_cone(spec["P"], **kwargs)
    if "n" not in spec:
        raise SchemaError(f"{kind} cone needs a dimension n", "/cone/n")
    if kind == "orthant_complement":
        return make_orthant_complement_cone(int(spec["n"]), **kwargs)
    return make_orthant_union_cone(int(spec["n"]), **kwargs)


def parse_scenario(obj: dict) -> Scenario:
    """Validate a scenario object against the schema and construct it.

    Structural violations raise SchemaError with a JSON pointer; domain
    errors from the constructed objects (asymmetric P, degenerate rank,
    and so on) propagate as their own types.
    """
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = list(err.absolute_path)
        if err.validator == "required":
            # Point at the missing property itself.
            missing = err.message.split("'")[1]
            path = path + [missing]
        raise SchemaError(err.message, _pointer(path))

    domain = _build_domain(obj["domain"]) if "domain" in obj else None
    field = _build_field(obj["field"], domain)
    cone = _build_cone(obj["cone"])

    n = field.dim
    if hasattr(cone, "dim") and cone.dim != n:
        raise SchemaError(
            f"cone dimension {cone.dim} does not match field dimension {n}", "/cone"
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

    grid = obj.get("lambda_grid")
    if grid is not None:
        lo, hi, step = (float(v) for v in grid)
        if step <= 0 or hi < lo:
            raise SchemaError("lambda_grid must be [min, max, step] with step > 0", "/lambda_grid")
        grid = (lo, hi, step)

    analysis = dict(ANALYSIS_DEFAULTS)
    analysis.update(obj.get("analysis", {}))

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
        T=float(obj.get("T", 100.0)),
        rtol=float(obj.get("rtol", 1e-10)),
        atol=float(obj.get("atol", 1e-12)),
        max_step=float(obj.get("max_step", float("inf"))),
        analysis=analysis,
    )


def _read_scenario_object(path) -> dict:
    """The JSON object in a scenario file, before any validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("scenario must be a JSON object")
    return obj


def load_scenario(path) -> Scenario:
    return parse_scenario(_read_scenario_object(path))
