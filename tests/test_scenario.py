"""Scenario JSON: schema validation, construction, digests, file loading."""

import json

import numpy as np
import pytest

from kcone.cones import OrthantComplementCone, QuadraticCone
from kcone.domains import Box, Cylinder
from kcone.errors import IoError, SchemaError
from kcone.scenario import (
    ANALYSIS_DEFAULTS,
    canonical_json,
    load_scenario,
    parse_scenario,
    scenario_digest,
)

P_STD = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]


def _hopf_obj(**extra):
    obj = {
        "field": {"family": "hopf_cylinder", "params": {"omega": 1.0, "c": 4.0}},
        "cone": {"type": "quadratic", "P": P_STD},
    }
    obj.update(extra)
    return obj


def test_minimal_scenario_defaults():
    scn = parse_scenario(_hopf_obj())
    assert isinstance(scn.cone, QuadraticCone)
    assert scn.field.family == "hopf_cylinder"
    assert isinstance(scn.domain, Cylinder)
    assert scn.name == ""
    assert scn.lam is None
    assert scn.lambda_grid is None
    assert scn.epsilon is None
    assert scn.pairs == 10000
    assert scn.seed == 0
    assert scn.x0s == []
    assert scn.T == 100.0
    assert scn.rtol == 1e-10
    assert scn.atol == 1e-12
    assert scn.max_step == np.inf
    assert scn.analysis == ANALYSIS_DEFAULTS


def test_full_scenario_fields():
    obj = _hopf_obj(
        name="hopf run",
        x0=[[0.1, 0.0, 0.5], [0.2, 0.0, -0.3]],
        T=50.0,
        rtol=1e-9,
        atol=1e-11,
        max_step=0.5,
        seed=7,
        pairs=2000,
        epsilon=0.25,
        analysis={"spacing": 0.05, "chain_points": 4},
    )
    obj["lambda"] = 3.5
    obj["lambda_grid"] = [0.0, 2.0, 0.5]
    scn = parse_scenario(obj)
    assert scn.name == "hopf run"
    assert scn.lam == 3.5
    assert scn.lambda_grid == (0.0, 2.0, 0.5)
    assert scn.epsilon == 0.25
    assert scn.pairs == 2000
    assert scn.seed == 7
    assert scn.x0s == [[0.1, 0.0, 0.5], [0.2, 0.0, -0.3]]
    assert scn.T == 50.0
    assert scn.max_step == 0.5
    assert scn.analysis["spacing"] == 0.05
    assert scn.analysis["chain_points"] == 4
    assert scn.analysis["tol_period"] == ANALYSIS_DEFAULTS["tol_period"]


def test_single_x0_row_promoted():
    scn = parse_scenario(_hopf_obj(x0=[0.1, 0.0, 0.5]))
    assert scn.x0s == [[0.1, 0.0, 0.5]]


def test_linear_family_with_box_domain():
    obj = {
        "field": {"family": "linear", "params": {"A": [[-1.0, 0.0], [0.0, -2.0]]}},
        "cone": {"type": "quadratic", "P": [[-1.0, 0.0], [0.0, 1.0]]},
        "domain": {"type": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
    }
    scn = parse_scenario(obj)
    assert isinstance(scn.domain, Box)
    assert scn.field.dim == 2
    assert np.allclose(scn.field([1.0, 1.0]), [-1.0, -2.0])


def test_exprs_field_and_cylinder_domain():
    obj = {
        "field": {"exprs": ["x2", "0 - x1", "0 - x3"]},
        "cone": {"type": "quadratic", "P": P_STD},
        "domain": {
            "type": "cylinder",
            "radius": 2.0,
            "rest_lo": [-1.0],
            "rest_hi": [1.0],
        },
    }
    scn = parse_scenario(obj)
    assert isinstance(scn.domain, Cylinder)
    assert np.allclose(scn.field([0.5, 0.25, 0.1]), [0.25, -0.5, -0.1])


def test_explicit_domain_replaces_the_family_domain():
    box = {"type": "box", "lo": [-0.5, -0.5, -0.5], "hi": [0.5, 0.5, 0.5]}
    scn = parse_scenario(_hopf_obj(domain=box))
    assert isinstance(scn.field.domain, Box)
    assert np.array_equal(scn.field.domain.lo, box["lo"])
    assert np.array_equal(scn.field.domain.hi, box["hi"])
    # Without a domain key the family keeps its own cylinder.
    assert isinstance(parse_scenario(_hopf_obj()).field.domain, Cylinder)


def test_competitive_lv_scenario():
    A = [[1.0, 0.5], [0.5, 1.0]]
    obj = {
        "field": {"family": "competitive_lv", "params": {"A": A, "r": [1.5, 1.0]}},
        "cone": {"type": "orthant_complement", "n": 2},
    }
    scn = parse_scenario(obj)
    assert scn.field.family == "competitive_lv"
    assert np.allclose(scn.field([1.0, 1.0]), [0.0, -0.5])
    # The family's own box reaches twice the largest carrying capacity.
    assert np.array_equal(scn.domain.hi, [3.0, 3.0])
    obj["field"]["params"] = {"A": A}
    with pytest.raises(SchemaError) as e:
        parse_scenario(obj)
    assert _pointer_of(e) == "/field/params"


def test_orthant_cones_by_dimension():
    obj = {
        "field": {"family": "linear", "params": {"A": [[-1.0, 0.0], [0.5, -1.0]]}},
        "cone": {"type": "orthant_complement", "n": 2},
    }
    scn = parse_scenario(obj)
    assert isinstance(scn.cone, OrthantComplementCone)
    obj["cone"] = {"type": "orthant_union", "n": 2}
    assert parse_scenario(obj).cone.rank_k == 1


def test_cone_band_override():
    obj = _hopf_obj()
    obj["cone"]["band"] = 1e-6
    assert parse_scenario(obj).cone.boundary_band == 1e-6


def _pointer_of(excinfo) -> str:
    return excinfo.value.pointer


def test_schema_error_pointers():
    with pytest.raises(SchemaError) as e:
        parse_scenario({"field": {"family": "linear", "params": {"A": [[-1.0]]}}})
    assert _pointer_of(e) == "/cone"
    with pytest.raises(SchemaError) as e:
        parse_scenario({"cone": {"type": "quadratic", "P": P_STD}})
    assert _pointer_of(e) == "/field"
    with pytest.raises(SchemaError) as e:
        parse_scenario(_hopf_obj(T=-1.0))
    assert _pointer_of(e) == "/T"
    with pytest.raises(SchemaError) as e:
        parse_scenario(_hopf_obj(cone={"type": "no_such_cone", "P": P_STD}))
    assert _pointer_of(e) == "/cone/type"
    with pytest.raises(SchemaError) as e:
        parse_scenario(_hopf_obj(junk=1))
    assert "junk" in str(e.value)


def test_x0_row_length_checked():
    with pytest.raises(SchemaError) as e:
        parse_scenario(_hopf_obj(x0=[[0.1, 0.2]]))
    assert _pointer_of(e) == "/x0"
    assert "length 2" in str(e.value)


def test_lambda_grid_validation():
    obj = _hopf_obj()
    obj["lambda_grid"] = [0.0, 2.0, -0.5]
    with pytest.raises(SchemaError) as e:
        parse_scenario(obj)
    assert _pointer_of(e) == "/lambda_grid"
    obj["lambda_grid"] = [2.0, 0.0, 0.5]
    with pytest.raises(SchemaError):
        parse_scenario(obj)
    obj["lambda_grid"] = [0.0, 2.0]
    with pytest.raises(SchemaError):
        parse_scenario(obj)


def test_cone_field_dimension_mismatch():
    obj = {
        "field": {"family": "linear", "params": {"A": [[-1.0, 0.0], [0.0, -1.0]]}},
        "cone": {"type": "quadratic", "P": P_STD},
    }
    with pytest.raises(SchemaError) as e:
        parse_scenario(obj)
    assert _pointer_of(e) == "/cone"


def test_missing_family_requirements():
    with pytest.raises(SchemaError) as e:
        parse_scenario(
            {"field": {"family": "linear"}, "cone": {"type": "quadratic", "P": P_STD}}
        )
    assert _pointer_of(e) == "/field/params/A"
    with pytest.raises(SchemaError) as e:
        parse_scenario(
            {
                "field": {"family": "cyclic_feedback"},
                "cone": {"type": "quadratic", "P": P_STD},
            }
        )
    assert _pointer_of(e) == "/field/params/n"
    with pytest.raises(SchemaError) as e:
        parse_scenario(
            {
                "field": {"exprs": ["0 - x1"]},
                "cone": {"type": "quadratic", "P": [[-1.0]]},
            }
        )
    assert _pointer_of(e) == "/domain"


def test_domain_requirements():
    obj = _hopf_obj(domain={"type": "box", "lo": [-1.0, -1.0, -1.0]})
    with pytest.raises(SchemaError) as e:
        parse_scenario(obj)
    assert _pointer_of(e) == "/domain"
    obj = _hopf_obj(domain={"type": "cylinder", "radius": 1.0})
    with pytest.raises(SchemaError) as e:
        parse_scenario(obj)
    assert _pointer_of(e) == "/domain/rest_lo"


def test_digest_is_key_order_insensitive():
    a = {"b": 1, "a": [1, 2], "c": {"y": 2.5, "x": 1.5}}
    b = {"c": {"x": 1.5, "y": 2.5}, "a": [1, 2], "b": 1}
    assert scenario_digest(a) == scenario_digest(b)
    assert len(scenario_digest(a)) == 64
    # any value change moves the digest
    c = {"b": 1, "a": [1, 2], "c": {"y": 2.5, "x": 1.50001}}
    assert scenario_digest(a) != scenario_digest(c)


def test_canonical_json_stable():
    obj = {"z": 1, "a": {"k": [1.5, 2]}}
    assert canonical_json(obj) == '{"a":{"k":[1.5,2]},"z":1}'


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_hopf_obj(name="from disk")), encoding="utf-8")
    scn = load_scenario(path)
    assert scn.name == "from disk"


def test_load_scenario_errors(tmp_path):
    with pytest.raises(IoError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_scenario(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_scenario(arr)
