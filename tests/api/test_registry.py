"""The single capability-aware router registry."""

import pytest

from repro.api import (
    OptionField,
    Router,
    RouterSpec,
    SpecError,
    UnknownRouterError,
    describe_routers,
    display_name,
    get_router,
    list_routers,
    register_router,
    router_capabilities,
    router_entry,
    unregister_router,
)

EXPECTED_BUILTINS = {"satmap", "nl-satmap", "noise-satmap", "cyclic", "hybrid",
                     "sabre", "tket", "astar", "bmt", "naive", "olsq", "exact"}


class TestListing:
    def test_builtins_are_registered(self):
        assert EXPECTED_BUILTINS <= set(list_routers())

    def test_list_is_sorted(self):
        names = list_routers()
        assert names == sorted(names)

    def test_capability_filtering(self):
        noise_aware = list_routers(capability="noise_aware")
        assert noise_aware == ["noise-satmap"]
        optimal = set(list_routers(capability="optimal"))
        assert {"satmap", "nl-satmap", "olsq", "exact"} <= optimal
        assert "sabre" not in optimal

    def test_multi_capability_filtering(self):
        both = list_routers(capability=("optimal", "anytime"))
        assert "satmap" in both
        assert "olsq" not in both  # exact, but not anytime

    def test_capabilities_lookup(self):
        assert "anytime" in router_capabilities("satmap")
        assert "fallback" in router_capabilities("naive")

    def test_describe_routers_is_json_ready(self):
        import json

        entries = describe_routers()
        json.dumps(entries)  # must not raise
        by_name = {entry["name"]: entry for entry in entries}
        slice_field = [option for option in by_name["satmap"]["options"]
                       if option["name"] == "slice_size"]
        assert slice_field and slice_field[0]["default"] == 25


class TestGetRouter:
    def test_builds_every_builtin(self):
        for name in EXPECTED_BUILTINS:
            router = get_router(name, time_budget=5.0)
            assert isinstance(router, Router), name
            assert router.time_budget == 5.0

    def test_spec_options_beat_defaults(self):
        router = get_router("satmap:time_budget=7", time_budget=99.0)
        assert router.time_budget == 7.0

    def test_entry_defaults_apply(self):
        assert get_router("satmap").slice_size == 25
        assert get_router("nl-satmap").slice_size is None

    def test_unknown_router_raises_key_error(self):
        with pytest.raises(UnknownRouterError):
            get_router("no-such")
        with pytest.raises(KeyError):
            get_router("no-such")

    def test_unknown_option_raises_before_construction(self):
        with pytest.raises(SpecError):
            get_router("sabre:warp_factor=9")

    @pytest.mark.parametrize("name", ["satmap", "nl-satmap", "noise-satmap",
                                      "cyclic"])
    def test_there_is_no_from_scratch_solve_mode(self, name):
        with pytest.raises(SpecError, match="incremental"):
            get_router(f"{name}:incremental=false")

    def test_accepts_dict_specs(self):
        router = get_router({"router": "sabre", "options": {"seed": 4}})
        assert router.seed == 4


class TestRegistration:
    def test_register_and_unregister(self):
        class FixedRouter:
            name = "fixed"

            def __init__(self, time_budget=60.0, verify=True, answer=42):
                self.time_budget = time_budget
                self.verify = verify
                self.answer = answer

            def route(self, circuit, architecture):
                raise NotImplementedError

        try:
            register_router(
                "fixed", FixedRouter, summary="test router",
                capabilities=("heuristic",),
                options=(OptionField("time_budget", "float", 60.0),
                         OptionField("verify", "bool", True),
                         OptionField("answer", "int", 42)))
            assert "fixed" in list_routers()
            router = get_router("fixed:answer=7")
            assert router.answer == 7
            assert isinstance(router, Router)
        finally:
            unregister_router("fixed")
        assert "fixed" not in list_routers()

    def test_duplicate_registration_requires_replace(self):
        with pytest.raises(ValueError):
            register_router("satmap", lambda **kw: None)

    def test_entry_lookup(self):
        entry = router_entry("tket")
        assert entry.option("window_size") is not None
        assert entry.option("nonexistent") is None


class TestDisplayName:
    def test_display_names_match_router_self_reports(self):
        assert display_name("satmap") == "SATMAP"
        assert display_name("nl-satmap") == "NL-SATMAP"
        assert display_name("sabre") == "SABRE"
        assert display_name("noise-satmap") == "SATMAP-noise"
        assert display_name("cyclic") == "CYC-SATMAP"

    def test_unknown_name_falls_back_to_itself(self):
        assert display_name("not-a-router") == "not-a-router"

    def test_spec_string_display_reflects_options(self):
        # Disabling slicing turns SATMAP into its NL configuration, and the
        # display name self-reports accordingly.
        assert display_name("satmap:slice_size=none") == "NL-SATMAP"
        assert display_name(RouterSpec("satmap", {"slice_size": 10})) == "SATMAP"


class TestOptionField:
    def test_int_rejects_bool(self):
        with pytest.raises(SpecError):
            OptionField("n", "int", 0).coerce(True)

    def test_float_accepts_int(self):
        assert OptionField("x", "float", 0.0).coerce(3) == 3.0

    def test_string_coercion_from_cli_values(self):
        assert OptionField("n", "int", 0).coerce("12") == 12
        assert OptionField("b", "bool", False).coerce("yes") is True
        assert OptionField("s", "str", "").coerce("true") == "true"

    def test_unknown_type_tag_rejected(self):
        with pytest.raises(ValueError):
            OptionField("n", "complex", 0)
