"""Tests for the declarative experiment spec registry (repro.harness.registry)."""

from __future__ import annotations

import inspect

import pytest

from repro.harness import experiments
from repro.harness.registry import (
    PRESET_FULL,
    PRESET_QUICK,
    REGISTRY,
    ExperimentRegistry,
    ExperimentSpec,
    ParameterSpec,
    ParameterValueError,
    SpecValidationError,
    UnknownParameterError,
)
from repro.harness.results import ExperimentResult


def toy_runner(n=3, rate=0.5, seed=0):
    result = ExperimentResult(experiment_id="TOY", title="toy", paper_claim="none")
    result.add_row(n=n, rate=rate, seed=seed)
    result.matches_paper = True
    return result


def toy_spec(**kwargs):
    defaults = dict(
        id="TOY",
        title="toy spec",
        runner=toy_runner,
        parameters=(
            ParameterSpec("n", "int", 3),
            ParameterSpec("rate", "float", 0.5),
            ParameterSpec("seed", "int", 0),
        ),
        quick={"n": 2},
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestParameterSpec:
    def test_scalar_kinds_validate(self):
        assert ParameterSpec("n", "int", 3).normalize(7) == 7
        assert ParameterSpec("rate", "float", 0.5).normalize(1) == 1.0
        assert ParameterSpec("name", "str", "x").normalize("y") == "y"
        assert ParameterSpec("flag", "bool", False).normalize(True) is True

    def test_int_rejects_bool_and_float(self):
        spec = ParameterSpec("n", "int", 3)
        with pytest.raises(ParameterValueError):
            spec.normalize(True)
        with pytest.raises(ParameterValueError):
            spec.normalize(3.5)

    def test_float_coerces_int_to_float(self):
        value = ParameterSpec("rate", "float", 0.5).normalize(1)
        assert isinstance(value, float) and value == 1.0

    def test_sequences_normalize_tuples_to_lists(self):
        spec = ParameterSpec("sizes", "seq[int]", [1, 2])
        assert spec.normalize((3, 4)) == [3, 4]
        assert spec.normalize([3, 4]) == [3, 4]

    def test_sequence_rejects_strings_and_bad_elements(self):
        spec = ParameterSpec("sizes", "seq[int]", [1])
        with pytest.raises(ParameterValueError):
            spec.normalize("12")
        with pytest.raises(ParameterValueError):
            spec.normalize([1, "x"])

    def test_choices_enforced(self):
        spec = ParameterSpec("engine", "str", "auto", choices=("auto", "off"))
        assert spec.normalize("off") == "off"
        with pytest.raises(ParameterValueError):
            spec.normalize("warp")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpec("x", "complex", 1j)

    def test_default_must_satisfy_schema(self):
        with pytest.raises(ParameterValueError):
            ParameterSpec("n", "int", "three")
        with pytest.raises(ParameterValueError):
            ParameterSpec("trials", "int", 0, minimum=1)

    def test_minimum_bounds_an_int_from_below(self):
        spec = ParameterSpec("trials", "int", 10, minimum=1)
        assert spec.normalize(1) == 1
        for value in (0, -5):
            with pytest.raises(ParameterValueError, match="at least 1"):
                spec.normalize(value)


class TestExperimentSpec:
    def test_validate_applies_defaults_and_normalizes(self):
        spec = toy_spec()
        assert spec.validate({}) == {"n": 3, "rate": 0.5, "seed": 0}
        assert spec.validate({"rate": 1}) == {"n": 3, "rate": 1.0, "seed": 0}

    def test_unknown_parameter_raises_clearly(self):
        spec = toy_spec()
        with pytest.raises(UnknownParameterError, match="unknown parameter.*bogus"):
            spec.validate({"bogus": 1})
        with pytest.raises(UnknownParameterError, match="declared parameters: n, rate, seed"):
            spec.validate({"bogus": 1})

    def test_unknown_parameter_raised_before_the_runner_runs(self):
        calls = []

        def recording_runner(**kwargs):
            calls.append(kwargs)
            return toy_runner()

        spec = toy_spec(runner=recording_runner)
        with pytest.raises(UnknownParameterError):
            spec.run({"bogus": 1})
        assert calls == []

    def test_mutating_a_returned_sequence_never_corrupts_the_schema(self):
        """Sequence defaults are copied out of validate(): a runner sorting
        or popping its argument must not poison every later run's parameters
        (and with them the canonical cache keys)."""
        spec = toy_spec(
            parameters=(ParameterSpec("sizes", "seq[int]", [12, 40]),), quick={}
        )
        spec.validate({})["sizes"].append(99)
        assert spec.validate({}) == {"sizes": [12, 40]}
        assert spec.parameter("sizes").default == [12, 40]
        key = spec.cache_key({})
        spec.validate({})["sizes"].clear()
        assert spec.cache_key({}) == key

    def test_presets_and_resolve(self):
        spec = toy_spec()
        assert spec.resolve(PRESET_FULL) == {"n": 3, "rate": 0.5, "seed": 0}
        assert spec.resolve(PRESET_QUICK) == {"n": 2, "rate": 0.5, "seed": 0}
        with pytest.raises(SpecValidationError, match="unknown preset"):
            spec.resolve("turbo")

    def test_resolve_injects_session_seed_only_when_not_pinned(self):
        spec = toy_spec()
        assert spec.resolve(seed=9)["seed"] == 9
        assert spec.resolve(overrides={"seed": 4}, seed=9)["seed"] == 4

    def test_resolve_ignores_seed_and_engine_without_the_capability(self):
        spec = toy_spec(parameters=(ParameterSpec("n", "int", 3),), quick={})
        assert spec.resolve(seed=9, engine="off") == {"n": 3}

    def test_quick_preset_is_validated_eagerly(self):
        with pytest.raises(UnknownParameterError):
            toy_spec(quick={"typo": 1})

    def test_capabilities_derived_from_schema(self):
        assert toy_spec().capabilities == ("seed",)
        no_seed = toy_spec(parameters=(ParameterSpec("n", "int", 3),), quick={})
        assert no_seed.capabilities == ()
        assert not no_seed.accepts_seed and not no_seed.accepts_engine

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            toy_spec(
                parameters=(ParameterSpec("n", "int", 1), ParameterSpec("n", "int", 2)),
                quick={},
            )

    def test_run_calls_runner_with_normalized_mapping(self):
        seen = {}

        def recording_runner(**kwargs):
            seen.update(kwargs)
            return toy_runner(**kwargs)

        spec = toy_spec(runner=recording_runner)
        spec.run({"rate": 1})
        assert seen == {"n": 3, "rate": 1.0, "seed": 0}


class TestRegistryMapping:
    def test_select_resolves_case_and_all(self):
        assert REGISTRY.select(["e1", "E3"]) == ["E1", "E3"]
        assert REGISTRY.select(["all"]) == [f"E{i}" for i in range(1, 11)]
        assert REGISTRY.select(["E5", "e5", "E1"]) == ["E5", "E1"]

    def test_select_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            REGISTRY.select(["E99"])

    def test_register_refuses_duplicates_unless_replacing(self):
        registry = ExperimentRegistry([toy_spec()])
        with pytest.raises(ValueError, match="already registered"):
            registry.register(toy_spec())
        registry.register(toy_spec(title="v2"), replace=True)
        assert registry["TOY"].title == "v2"

    def test_mutablemapping_protocol(self):
        registry = ExperimentRegistry([toy_spec()])
        assert "TOY" in registry and len(registry) == 1
        registry["TOY2"] = toy_spec(id="TOY2")
        assert list(registry) == ["TOY", "TOY2"]
        del registry["TOY2"]
        assert len(registry) == 1


class TestShippedSpecs:
    def test_all_ten_registered_in_order(self):
        assert list(REGISTRY) == [f"E{i}" for i in range(1, 11)]

    def test_runners_are_the_harness_functions(self):
        runners = [spec.runner for spec in REGISTRY.values()]
        assert [runner.__name__ for runner in runners] == experiments.__all__
        for runner in runners:
            assert runner is getattr(experiments, runner.__name__)

    def test_every_spec_has_a_nonempty_quick_preset(self):
        for spec in REGISTRY.values():
            assert spec.quick, f"{spec.id} has no quick preset"

    def test_schemas_cannot_drift_from_runner_signatures(self):
        """The declared schema (names, order, defaults) must match the runner
        signature exactly — the one sanctioned use of introspection, here to
        keep the declarative layer honest."""
        for spec in REGISTRY.values():
            signature = inspect.signature(spec.runner)
            assert spec.parameter_names == tuple(signature.parameters), spec.id
            for parameter in spec.parameters:
                declared = signature.parameters[parameter.name].default
                normalized = parameter._normalize(
                    list(declared) if isinstance(declared, tuple) else declared
                )
                assert parameter.default == normalized, f"{spec.id}.{parameter.name}"

    def test_trial_counts_are_at_least_one(self):
        """Every trial count (``trials``, ``decider_trials``, E10's ``runs``)
        declares a minimum of 1, so a request for fewer trials fails
        validation instead of reaching an estimator."""
        declared = [
            (spec.id, parameter)
            for spec in REGISTRY.values()
            for parameter in spec.parameters
            if parameter.name in ("trials", "decider_trials", "runs")
        ]
        assert len(declared) == 10
        for experiment_id, parameter in declared:
            assert parameter.minimum == 1, f"{experiment_id}.{parameter.name}"
            with pytest.raises(ParameterValueError):
                REGISTRY[experiment_id].resolve(overrides={parameter.name: 0})

    def test_engine_capability_matches_engine_parameter(self):
        engineless = {"E4", "E10"}
        for experiment_id, spec in REGISTRY.items():
            assert spec.accepts_engine == (experiment_id not in engineless)
            assert spec.accepts_seed  # every shipped experiment is seedable

    def test_canonical_cache_keys_from_schema(self):
        spec = REGISTRY["E5"]
        base = spec.cache_key({"trials": 100, "f_values": (1, 2)})
        # Dict ordering and tuple/list spelling do not change the key.
        assert spec.cache_key({"f_values": [1, 2], "trials": 100}) == base
        # Omitted parameters are the defaults, explicitly spelled or not.
        assert spec.cache_key({"trials": 100, "f_values": [1, 2], "n": 60}) == base
        # Changing any parameter (the seed included) changes the key.
        assert spec.cache_key({"trials": 100, "f_values": [1, 2], "seed": 1}) != base
        with pytest.raises(UnknownParameterError):
            spec.cache_key({"bogus": 1})
