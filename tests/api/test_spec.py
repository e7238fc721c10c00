"""RouterSpec parsing, round-trips, and validation."""

import pytest

from repro.api import RouterSpec, SpecError, UnknownRouterError
from repro.api.spec import parse_scalar, render_scalar


class TestFromString:
    def test_bare_name(self):
        spec = RouterSpec.from_string("satmap")
        assert spec.name == "satmap"
        assert spec.options == {}

    def test_options_parse_typed_scalars(self):
        spec = RouterSpec.from_string(
            "satmap:slice_size=25,time_budget=60.5,incremental=false,"
            "strategy=linear")
        assert spec.options == {"slice_size": 25, "time_budget": 60.5,
                                "incremental": False, "strategy": "linear"}

    def test_none_literal(self):
        spec = RouterSpec.from_string("nl-satmap:slice_size=none")
        assert spec.options == {"slice_size": None}

    def test_whitespace_is_tolerated(self):
        spec = RouterSpec.from_string("  sabre : seed = 3 ")
        assert spec.name == "sabre"
        assert spec.options == {"seed": 3}

    @pytest.mark.parametrize("bad", ["", "   ", ":slice_size=1",
                                     "satmap:slice_size", "satmap:=1",
                                     "satmap:sli ce=1"])
    def test_malformed_specs_are_rejected(self, bad):
        with pytest.raises(SpecError):
            RouterSpec.from_string(bad)


class TestRoundTrips:
    def test_string_spec_dict_spec(self):
        original = RouterSpec.from_string("satmap:slice_size=25,verify=true")
        rebuilt = RouterSpec.from_dict(original.to_dict())
        assert rebuilt == original

    def test_string_round_trip_is_canonical(self):
        spec = RouterSpec.from_string("sabre:seed=3,lookahead_size=10")
        text = spec.to_string()
        assert text == "sabre:lookahead_size=10,seed=3"  # sorted keys
        assert RouterSpec.from_string(text) == spec

    def test_json_round_trip(self):
        spec = RouterSpec("satmap", {"slice_size": None, "verify": False})
        assert RouterSpec.from_json(spec.to_json()) == spec

    def test_none_and_bools_survive_the_string_form(self):
        spec = RouterSpec("satmap", {"slice_size": None, "incremental": True})
        assert RouterSpec.from_string(spec.to_string()) == spec

    def test_to_dict_sorts_options(self):
        spec = RouterSpec("satmap", {"b": 1, "a": 2})
        assert list(spec.to_dict()["options"]) == ["a", "b"]


class TestParse:
    def test_parse_passes_specs_through(self):
        spec = RouterSpec("sabre", {"seed": 1})
        assert RouterSpec.parse(spec) is spec

    def test_parse_accepts_dicts_and_strings(self):
        assert RouterSpec.parse("sabre:seed=1") == RouterSpec.parse(
            {"router": "sabre", "options": {"seed": 1}})

    def test_parse_accepts_name_alias(self):
        assert RouterSpec.parse({"name": "sabre"}).name == "sabre"

    def test_conflicting_names_are_rejected(self):
        with pytest.raises(SpecError):
            RouterSpec.parse({"router": "sabre", "name": "tket"})

    def test_unknown_dict_keys_are_rejected(self):
        with pytest.raises(SpecError):
            RouterSpec.parse({"router": "sabre", "optionz": {}})

    def test_unsupported_types_are_rejected(self):
        with pytest.raises(SpecError):
            RouterSpec.parse(42)


class TestValidation:
    def test_validated_coerces_types(self):
        spec = RouterSpec("satmap", {"slice_size": "25", "time_budget": 5})
        validated = spec.validated()
        assert validated.options["slice_size"] == 25
        assert validated.options["time_budget"] == 5.0
        assert isinstance(validated.options["time_budget"], float)

    @pytest.mark.parametrize("text", [
        "satmap:slize_size=25",
        # Removed options must fail loudly, never be silently ignored.
        "satmap:cube_workers=2",
        "satmap:pipeline_slices=true",
    ])
    def test_unknown_option_is_rejected(self, text):
        with pytest.raises(SpecError):
            RouterSpec.from_string(text).validated()

    def test_ill_typed_option_is_rejected(self):
        with pytest.raises(SpecError):
            RouterSpec("sabre", {"seed": "not-a-number"}).validated()

    def test_none_only_where_allowed(self):
        assert RouterSpec("satmap", {"slice_size": None}).validated() is not None
        with pytest.raises(SpecError):
            RouterSpec("sabre", {"seed": None}).validated()

    def test_unknown_router_is_a_key_error(self):
        with pytest.raises(UnknownRouterError):
            RouterSpec("definitely-not-registered").validated()
        with pytest.raises(KeyError):
            RouterSpec("definitely-not-registered").validated()


class TestDerivation:
    def test_with_options_overrides(self):
        spec = RouterSpec("satmap", {"slice_size": 10})
        derived = spec.with_options(slice_size=20, verify=False)
        assert derived.options == {"slice_size": 20, "verify": False}
        assert spec.options == {"slice_size": 10}  # original untouched

    def test_with_defaults_fills_only_missing(self):
        spec = RouterSpec("satmap", {"time_budget": 5.0})
        derived = spec.with_defaults(time_budget=60.0, verify=True)
        assert derived.options == {"time_budget": 5.0, "verify": True}


class TestScalars:
    @pytest.mark.parametrize("text,value", [
        ("25", 25), ("2.5", 2.5), ("true", True), ("False", False),
        ("none", None), ("null", None), ("linear", "linear"), ("On", True),
    ])
    def test_parse_scalar(self, text, value):
        assert parse_scalar(text) == value

    @pytest.mark.parametrize("value", [25, 2.5, True, False, None, "linear"])
    def test_render_parse_inverse(self, value):
        assert parse_scalar(render_scalar(value)) == value
