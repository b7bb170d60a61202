"""Scenario JSON: schema validation, construction, digests, file loading."""

import inspect
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from kcone.cli import main
from kcone.cones import OrthantComplementCone, QuadraticCone
from kcone.domains import Box, Cylinder
from kcone.errors import (
    ArityMismatch,
    BadParameter,
    DegenerateRank,
    DimensionMismatch,
    EmptyDomain,
    ExpressionSyntaxError,
    IoError,
    NearSingular,
    NotSymmetric,
    SchemaError,
    UnknownIdentifier,
)
from kcone.limitsets import detect_periodic, estimate_omega
from kcone.report import REPORT_SCHEMA
from kcone.scenario import (
    ANALYSIS_DEFAULTS,
    DOMAIN_CAP,
    LAMBDA_GRID_CAP,
    LOOP_POINTS,
    PAIRS_CAP,
    SCENARIO_SCHEMA,
    TAIL_GRID_CAP,
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
    assert isinstance(scn.field.domain, Cylinder)
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


def test_analysis_defaults_are_the_library_defaults():
    """A scenario that leaves a knob unset runs the library's default."""
    assert set(ANALYSIS_DEFAULTS) == set(SCENARIO_SCHEMA["properties"]["analysis"]["properties"])
    omega = inspect.signature(estimate_omega).parameters
    loop = inspect.signature(detect_periodic).parameters
    for key, param in (
        ("window_fraction", omega["window_fraction"]),
        ("spacing", omega["spacing"]),
        ("tol_omega_rel", omega["tol_rel"]),
        ("tol_period", loop["tol_per"]),
    ):
        assert ANALYSIS_DEFAULTS[key] == param.default, key


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
    assert scn.lambda_grid == (0.0, 0.5, 1.0, 1.5, 2.0)
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
    assert isinstance(scn.field.domain, Box)
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
    assert isinstance(scn.field.domain, Cylinder)
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
    assert np.array_equal(scn.field.domain.hi, [3.0, 3.0])
    obj["field"]["params"] = {"A": A}
    with pytest.raises(SchemaError) as e:
        parse_scenario(obj)
    assert _pointer_of(e) == "/field/params/r"


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


def test_x0_outside_the_domain_is_refused_with_integrate_padding():
    """The Hopf cylinder's |x3| <= 1, padded by 1e-12 max(1, max|x0|) as
    integrate pads its start: a rounding past the face is inside, a
    start 1e-11 past it is refused at /x0."""
    assert parse_scenario(_hopf_obj(x0=[0.1, 0.0, 1.0 + 5e-13])).x0s
    with pytest.raises(SchemaError) as e:
        parse_scenario(_hopf_obj(x0=[[0.1, 0.0, 0.5], [0.1, 0.0, 1.0 + 1e-11]]))
    assert _pointer_of(e) == "/x0"
    assert "outside the field domain" in str(e.value)


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


def test_lambda_grid_rates_are_multiples_of_the_step():
    """lo + i*step, not a running sum, so the grid's zero is exactly 0.0."""
    rates = parse_scenario(_hopf_obj(lambda_grid=[-1.0, 1.0, 0.1])).lambda_grid
    assert len(rates) == 21
    assert rates[10] == 0.0
    assert rates == tuple(-1.0 + i * 0.1 for i in range(21))


def test_lambda_grid_keeps_its_lowest_rate():
    """hi + step/2 rounds to hi = lo here, a count of 0; lo is still a rate."""
    assert parse_scenario(_hopf_obj(lambda_grid=[1.0, 1.0, 1e-300])).lambda_grid == (1.0,)


@pytest.mark.parametrize("grid", [[0.0, 1e20, 1e-20], [0.0, 1e9, 1.0], [-1e308, 1e308, 1.0]])
def test_lambda_grid_of_too_many_rates_is_refused(grid):
    obj = _hopf_obj(lambda_grid=grid)
    with pytest.raises(SchemaError) as e:
        parse_scenario(obj)
    assert _pointer_of(e) == "/lambda_grid"
    assert f"over {LAMBDA_GRID_CAP} rates" in str(e.value)


def test_pairs_beyond_the_cap_are_refused():
    """The validator alone judges pairs: nothing is sampled here."""
    assert parse_scenario(_hopf_obj(pairs=PAIRS_CAP)).pairs == PAIRS_CAP
    for pairs in (PAIRS_CAP + 1, 10**9):
        with pytest.raises(SchemaError) as e:
            parse_scenario(_hopf_obj(pairs=pairs))
        assert _pointer_of(e) == "/pairs"


_PAST_CAP = float(np.nextafter(DOMAIN_CAP, np.inf))
_CUBE = {"type": "box", "lo": [-1.0] * 3, "hi": [1.0] * 3}
_LV = {"family": "competitive_lv", "params": {"A": np.eye(3).tolist(), "r": [1.0] * 3}}


@pytest.mark.parametrize(
    "change, pointer",
    [
        ({"domain": {**_CUBE, "hi": [1.0, DOMAIN_CAP, 1.0]}}, None),
        ({"domain": {**_CUBE, "lo": [-DOMAIN_CAP, -1.0, -1.0]}}, None),
        ({"domain": {**_CUBE, "hi": [1.0, _PAST_CAP, 1.0]}}, "/domain"),
        ({"domain": {**_CUBE, "lo": [-1.0, -1.0, -_PAST_CAP]}}, "/domain"),
        ({"domain": {"type": "cylinder", "radius": DOMAIN_CAP, "rest_lo": [-1.0],
                     "rest_hi": [1.0]}}, None),
        ({"domain": {"type": "cylinder", "radius": _PAST_CAP, "rest_lo": [-1.0],
                     "rest_hi": [1.0]}}, "/domain"),
        ({"domain": {"type": "cylinder", "radius": 1.0, "rest_lo": [-_PAST_CAP],
                     "rest_hi": [1.0]}}, "/domain"),
        ({"field": {"family": "hopf_cylinder",
                    "params": {"omega": 1.0, "c": 4.0, "radius": _PAST_CAP}}}, "/field/params"),
        # The family's own box reaches 2 max(r_i / A_ii).
        ({"field": {**_LV, "params": {**_LV["params"], "r": [DOMAIN_CAP / 2] * 3}}}, None),
        ({"field": {**_LV, "params": {**_LV["params"], "r": [1.0, 1.0, DOMAIN_CAP]}}},
         "/field/params"),
    ],
)
def test_domain_reach_beyond_the_cap_is_refused(change, pointer):
    """Squared distances between points of a domain within DOMAIN_CAP stay
    finite; a domain that reaches further is refused before any run."""
    obj = _hopf_obj(**change)
    if pointer is None:
        assert parse_scenario(obj).field.domain.reach() <= DOMAIN_CAP
        return
    with pytest.raises(SchemaError) as e:
        parse_scenario(obj)
    assert _pointer_of(e) == pointer
    assert "past 1e+150" in str(e.value)


def test_chain_points_beyond_the_loop_are_refused():
    """A loop holds LOOP_POINTS points, so more chain points would only
    repeat them."""
    ok = parse_scenario(_hopf_obj(analysis={"chain_points": LOOP_POINTS}))
    assert ok.analysis["chain_points"] == LOOP_POINTS == 256
    for k in (LOOP_POINTS + 1, 10**6):
        with pytest.raises(SchemaError) as e:
            parse_scenario(_hopf_obj(analysis={"chain_points": k}))
        assert _pointer_of(e) == "/analysis/chain_points"


@pytest.mark.parametrize(
    "T,spacing,n_times",
    [(10.0, 1e-300, None), (2e6, 1.0, TAIL_GRID_CAP + 1), (1_999_998.0, 1.0, TAIL_GRID_CAP)],
)
def test_tail_grid_cap_counts_the_times_estimate_omega_grids(T, spacing, n_times):
    """Accepted exactly when floor(window_fraction T / spacing) + 1, the
    most times estimate_omega's tail grid holds, is at most the cap; the
    validator alone judges it, and nothing is integrated."""
    obj = _hopf_obj(T=T, analysis={"spacing": spacing})
    if n_times is not None:
        assert int(0.5 * T / spacing) + 1 == n_times
    if n_times == TAIL_GRID_CAP:
        assert parse_scenario(obj).analysis["spacing"] == spacing
    else:
        with pytest.raises(SchemaError) as e:
            parse_scenario(obj)
        assert _pointer_of(e) == "/analysis/spacing"
        assert f"over {TAIL_GRID_CAP} times" in str(e.value)


@pytest.mark.parametrize(
    "hi,n_rates", [(9998.5, 9999), (9999.0, 10_000), (9999.5, 10_000), (9999.6, 10_001), (1e4, 10_001)]
)
def test_lambda_grid_cap_counts_the_rates_run_certify_scores(hi, n_rates):
    """Accepted exactly when the rates parse_scenario builds,
    np.arange(lo, hi + step/2, step), are at most the cap."""
    assert len(np.arange(0.0, hi + 0.5, 1.0)) == n_rates
    obj = _hopf_obj(lambda_grid=[0.0, hi, 1.0])
    if n_rates <= LAMBDA_GRID_CAP:
        assert parse_scenario(obj).lambda_grid == tuple(range(n_rates))
    else:
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
    assert _pointer_of(e) == "/field/params"
    with pytest.raises(SchemaError) as e:
        parse_scenario(
            {
                "field": {"family": "cyclic_feedback"},
                "cone": {"type": "quadratic", "P": P_STD},
            }
        )
    assert _pointer_of(e) == "/field/params"
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
    assert _pointer_of(e) == "/domain/hi"
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


def test_published_schemas_are_valid_draft_2020_12():
    jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)


def test_readme_minimal_scenario_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Minimal example:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    scn = parse_scenario(json.loads(block))
    assert scn.name == "rotating cylinder"
    assert scn.lam == 3.5


# The probe scenarios: a 3-d linear field on a box, with one section changed
# (None deletes it).
BASE = {
    "field": {"family": "linear", "params": {"A": [[-1.0, 0, 0], [0, -2.0, 0], [0, 0, -3.0]]}},
    "cone": {"type": "quadratic", "P": P_STD},
    "domain": {"type": "box", "lo": [-2.0] * 3, "hi": [2.0] * 3},
    "lambda": 0.0,
    "pairs": 200,
}
BOX = BASE["domain"]
CYLINDER = {"type": "cylinder", "radius": 1.0, "rest_lo": [-1.0], "rest_hi": [1.0]}


def _probe(**sections):
    obj = json.loads(json.dumps(BASE))
    for key, value in sections.items():
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    return obj


def _family(family, **params):
    return {"family": family, "params": params}


# (scenario, pointer of the missing or unknown member)
STRUCTURE_DEFECTS = {
    "linear_no_params": (_probe(field={"family": "linear"}), "/field/params"),
    "linear_no_A": (_probe(field=_family("linear")), "/field/params/A"),
    "linear_extra_key": (
        _probe(field=_family("linear", A=BASE["field"]["params"]["A"], B=1.0)),
        "/field/params/B",
    ),
    "hopf_no_c": (_probe(field=_family("hopf_cylinder", omega=1.0)), "/field/params/c"),
    "hopf_typo": (
        _probe(field=_family("hopf_cylinder", omega=1.0, c=4.0, radis=2.0)),
        "/field/params/radis",
    ),
    "ring_no_n": (_probe(field=_family("cyclic_feedback", kind="glass_pwl")), "/field/params/n"),
    "goodwin_glass_param": (
        _probe(field=_family("cyclic_feedback", n=3, lo=0.5)), "/field/params/lo"
    ),
    "glass_goodwin_param": (
        _probe(field=_family("cyclic_feedback", n=3, kind="glass_pwl", b=2.0)),
        "/field/params/b",
    ),
    "lv_no_r": (_probe(field=_family("competitive_lv", A=[[1.0]])), "/field/params/r"),
    "field_extra_key": (
        _probe(field={**BASE["field"], "domain": BOX}), "/field/domain"
    ),
    "exprs_no_domain": (_probe(field={"exprs": ["x2", "x3", "x1"]}, domain=None), "/domain"),
    "quadratic_no_P": (_probe(cone={"type": "quadratic"}), "/cone/P"),
    "quadratic_with_n": (_probe(cone={"type": "quadratic", "P": P_STD, "n": 3}), "/cone/n"),
    "orthant_no_n": (_probe(cone={"type": "orthant_union"}), "/cone/n"),
    "orthant_with_P": (
        _probe(cone={"type": "orthant_complement", "n": 3, "P": P_STD}), "/cone/P"
    ),
    "cone_no_type": (_probe(cone={"P": P_STD}), "/cone/type"),
    "box_no_hi": (_probe(domain={"type": "box", "lo": [-1.0] * 3}), "/domain/hi"),
    "box_with_radius": (_probe(domain={**BOX, "radius": 1.0}), "/domain/radius"),
    "cylinder_no_radius": (
        _probe(domain={k: v for k, v in CYLINDER.items() if k != "radius"}), "/domain/radius"
    ),
    "cylinder_no_rest_hi": (
        _probe(domain={k: v for k, v in CYLINDER.items() if k != "rest_hi"}), "/domain/rest_hi"
    ),
    "top_level_extra_key": (_probe(lambda_=1.0), "/lambda_"),
    # Members that would be accepted and never read: the uniform-gap check
    # reads epsilon at lambda, and an orthant cone has no rate to certify.
    "epsilon_without_lambda": (_probe(**{"lambda": None}, epsilon=0.01), "/lambda"),
    "epsilon_beside_a_grid_without_lambda": (
        _probe(**{"lambda": None}, epsilon=0.01, lambda_grid=[0.0, 1.0, 0.5]), "/lambda"
    ),
    "orthant_with_lambda": (_probe(cone={"type": "orthant_complement", "n": 3}), "/lambda"),
    "orthant_with_lambda_grid": (
        _probe(**{"lambda": None}, cone={"type": "orthant_union", "n": 3},
               lambda_grid=[0.0, 1.0, 0.5]),
        "/lambda_grid",
    ),
    "orthant_with_epsilon": (
        _probe(cone={"type": "orthant_complement", "n": 3}, epsilon=0.01), "/epsilon"
    ),
}

# (scenario, section pointer, the constructor's error type)
VALUE_DEFECTS = {
    "linear_non_square_A": (
        _probe(field=_family("linear", A=[[1.0, 0], [0, 1.0], [0, 0]])),
        "/field/params",
        DimensionMismatch,
    ),
    "hopf_omega_zero": (
        _probe(field=_family("hopf_cylinder", omega=0, c=4.0), domain=None),
        "/field/params",
        BadParameter,
    ),
    "ring_n_one": (_probe(field=_family("cyclic_feedback", n=1)), "/field/params", BadParameter),
    "goodwin_negative_b": (
        _probe(field=_family("cyclic_feedback", n=3, b=-1.0)), "/field/params", BadParameter
    ),
    "glass_hi_below_lo": (
        _probe(field=_family("cyclic_feedback", n=3, kind="glass_pwl", lo=1.0, hi=0.5)),
        "/field/params",
        BadParameter,
    ),
    "lv_r_wrong_length": (
        _probe(field=_family("competitive_lv", A=[[1.0, 0.5], [0.5, 1.0]], r=[1.0] * 3)),
        "/field/params",
        DimensionMismatch,
    ),
    "lv_negative_A": (
        _probe(field=_family("competitive_lv", A=[[1.0, -0.5], [0.5, 1.0]], r=[1.0] * 2)),
        "/field/params",
        BadParameter,
    ),
    "exprs_syntax": (
        _probe(field={"exprs": ["x1 +", "x2", "x3"]}), "/field/exprs", ExpressionSyntaxError
    ),
    "exprs_unknown_name": (
        _probe(field={"exprs": ["a * x1", "x2", "x3"]}), "/field/exprs", UnknownIdentifier
    ),
    "exprs_arity": (
        _probe(field={"exprs": ["sin(x1, x2)", "x2", "x3"]}), "/field/exprs", ArityMismatch
    ),
    "P_asymmetric": (
        _probe(cone={"type": "quadratic", "P": [[-1.0, 1.0, 0], [0, -1.0, 0], [0, 0, 1.0]]}),
        "/cone",
        NotSymmetric,
    ),
    "P_non_square": (
        _probe(cone={"type": "quadratic", "P": [[-1.0, 0, 0], [0, 1.0, 0]]}),
        "/cone",
        DimensionMismatch,
    ),
    "P_rank_zero": (
        _probe(cone={"type": "quadratic", "P": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]}),
        "/cone",
        DegenerateRank,
    ),
    "P_singular": (
        _probe(cone={"type": "quadratic", "P": [[-1.0, 0, 0], [0, 0.0, 0], [0, 0, 1.0]]}),
        "/cone",
        NearSingular,
    ),
    "box_hi_at_lo": (
        _probe(domain={"type": "box", "lo": [-1.0] * 3, "hi": [1.0, -1.0, 1.0]}),
        "/domain",
        EmptyDomain,
    ),
    "box_unequal_bounds": (
        _probe(domain={"type": "box", "lo": [-1.0] * 3, "hi": [1.0] * 2}),
        "/domain",
        DimensionMismatch,
    ),
    "cylinder_unequal_rest": (
        _probe(
            field=_family("hopf_cylinder", omega=1.0, c=4.0),
            domain={**CYLINDER, "rest_hi": [1.0, 1.0]},
        ),
        "/domain",
        DimensionMismatch,
    ),
}


def _cli_error(tmp_path, capsys, obj) -> tuple[int, str]:
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    rc = main(["certify", "--scenario", str(path)])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(STRUCTURE_DEFECTS))
def test_missing_or_unknown_member_is_refused_by_the_schema(tmp_path, capsys, name):
    obj, pointer = STRUCTURE_DEFECTS[name]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(obj, SCENARIO_SCHEMA)
    with pytest.raises(SchemaError) as e:
        parse_scenario(obj)
    assert _pointer_of(e) == pointer
    rc, err = _cli_error(tmp_path, capsys, obj)
    assert rc == 2
    assert f"(at JSON pointer '{pointer}')" in err


def test_a_lambda_grid_flag_on_an_orthant_cone_is_refused(tmp_path, capsys):
    path = tmp_path / "ring.json"
    obj = _probe(**{"lambda": None}, cone={"type": "orthant_complement", "n": 3})
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["certify", "--scenario", str(path), "--lambda-grid", "0:1:0.5"]) == 2
    assert "(at JSON pointer '/lambda_grid')" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(VALUE_DEFECTS))
def test_value_defect_is_refused_at_its_section(tmp_path, capsys, name):
    obj, pointer, cause = VALUE_DEFECTS[name]
    jsonschema.validate(obj, SCENARIO_SCHEMA)
    with pytest.raises(SchemaError) as e:
        parse_scenario(obj)
    assert _pointer_of(e) == pointer
    assert type(e.value.__cause__) is cause
    assert str(e.value) == f"{e.value.__cause__} (at JSON pointer '{pointer}')"
    rc, err = _cli_error(tmp_path, capsys, obj)
    assert rc == 2
    assert err == f"kcone: {e.value}\n"
