"""Declarative experiment specs: the registry behind :mod:`repro.api`.

Each of the paper's experiments (E1–E10) is described by an
:class:`ExperimentSpec`: a typed parameter schema with defaults, the
``full``/``quick`` presets, the seed contract, and the engine-capability
tags, next to the runner function from :mod:`repro.harness.experiments`.
The spec is the single source of truth the rest of the system derives
everything else from:

* **Validation** — unknown parameter names raise :class:`UnknownParameterError`
  (and ill-typed values :class:`ParameterValueError`) at spec-validation time,
  before any workload is built, instead of surfacing as a deep ``TypeError``
  inside an experiment.
* **Normalization** — :meth:`ExperimentSpec.resolve` merges a preset, the
  caller's overrides, and the session-level seed/engine into a *fully
  normalized* parameter mapping (every parameter present, sequences as lists,
  floats as floats).  Two logically identical requests normalize to the same
  mapping regardless of how they were written down.
* **Canonical cache keys** — :meth:`ExperimentSpec.cache_key` hashes the
  normalized mapping (see :func:`repro.engine.cache.request_cache_key`), so
  the cache key of a run is a function of the schema, never of the calling
  convention.
* **Capabilities** — whether a spec accepts ``seed`` and/or ``engine`` is
  part of its schema; nothing in the system introspects function signatures
  anymore (the old ``accepts_seed`` helper is gone).

The module-level :data:`REGISTRY` holds the ten shipped specs; it is a
:class:`~collections.abc.MutableMapping`, so tests can swap specs in and out
with ``monkeypatch.setitem``.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.engine.adapters import ENGINE_CHOICES
from repro.engine.cache import request_cache_key
from repro.errors import ReproError
from repro.harness import experiments as _experiments
from repro.harness.results import ExperimentResult

__all__ = [
    "SpecValidationError",
    "UnknownParameterError",
    "ParameterValueError",
    "ParameterSpec",
    "ExperimentSpec",
    "ExperimentRegistry",
    "REGISTRY",
    "PRESET_FULL",
    "PRESET_QUICK",
]

#: The two preset names every spec defines.  ``full`` is the schema's own
#: defaults; ``quick`` is the reduced workload the CLI's ``--quick`` flag and
#: the CI smoke job use.
PRESET_FULL = "full"
PRESET_QUICK = "quick"


class SpecValidationError(ReproError, ValueError):
    """A parameter mapping does not satisfy an experiment's schema.

    Part of the :mod:`repro.errors` taxonomy (HTTP 400) while remaining a
    ``ValueError`` for pre-taxonomy callers.
    """

    code = "spec_validation"
    http_status = 400


class UnknownParameterError(SpecValidationError):
    """A parameter name not declared by the experiment's schema."""

    code = "unknown_parameter"

    def __init__(self, experiment_id: str, names: Sequence[str], known: Sequence[str]) -> None:
        self.experiment_id = experiment_id
        self.names = tuple(names)
        super().__init__(
            f"unknown parameter(s) for {experiment_id}: {', '.join(sorted(names))}; "
            f"declared parameters: {', '.join(known)}",
            experiment_id=experiment_id,
            names=sorted(names),
            known=list(known),
        )


class ParameterValueError(SpecValidationError):
    """A declared parameter received a value of the wrong shape or type."""

    code = "parameter_value"


@dataclass(frozen=True)
class ParameterSpec:
    """One declared parameter: a name, a kind, and a typed default.

    ``kind`` is one of ``int``, ``float``, ``str``, ``bool``, ``seq[int]``,
    ``seq[float]``.  Normalization coerces the benign cases (tuples to lists,
    ints where floats are declared) and rejects everything else, so the
    normalized form of a value is canonical: two logically equal requests
    produce byte-identical canonical JSON, hence identical cache keys.
    ``minimum`` bounds an ``int`` parameter from below (trial counts are at
    least 1).
    """

    name: str
    kind: str
    default: object
    choices: Optional[Tuple[str, ...]] = None
    doc: str = ""
    minimum: Optional[int] = None

    _KINDS = ("int", "float", "str", "bool", "seq[int]", "seq[float]")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown parameter kind {self.kind!r} for {self.name!r}")
        # The default must satisfy the schema it anchors.
        object.__setattr__(self, "default", self._normalize(self.default, "default for "))

    # ------------------------------------------------------------------ #
    def _scalar(self, kind: str, value: object, context: str) -> object:
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParameterValueError(f"{context}{self.name!r} must be an int, got {value!r}")
            if self.minimum is not None and value < self.minimum:
                raise ParameterValueError(
                    f"{context}{self.name!r} must be at least {self.minimum}, got {value!r}"
                )
            return value
        if kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParameterValueError(
                    f"{context}{self.name!r} must be a float, got {value!r}"
                )
            return float(value)
        if kind == "bool":
            if not isinstance(value, bool):
                raise ParameterValueError(f"{context}{self.name!r} must be a bool, got {value!r}")
            return value
        if not isinstance(value, str):
            raise ParameterValueError(f"{context}{self.name!r} must be a str, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise ParameterValueError(
                f"{context}{self.name!r} must be one of {', '.join(self.choices)}; got {value!r}"
            )
        return value

    def _normalize(self, value: object, context: str = "") -> object:
        if self.kind.startswith("seq["):
            if isinstance(value, str) or not isinstance(value, Sequence):
                raise ParameterValueError(
                    f"{context}{self.name!r} must be a sequence, got {value!r}"
                )
            element_kind = self.kind[4:-1]
            return [self._scalar(element_kind, item, context) for item in value]
        return self._scalar(self.kind, value, context)

    def normalize(self, value: object) -> object:
        """The canonical form of a value for this parameter (or raise
        :class:`ParameterValueError`)."""
        return self._normalize(value)

    def render(self) -> str:
        """The ``name=default (kind)`` cell the CLI's ``list`` prints."""
        kind = self.kind
        if self.choices is not None:
            kind = f"{kind}: {'|'.join(self.choices)}"
        return f"{self.name}={self.default!r} ({kind})"


def _seed_parameter() -> ParameterSpec:
    return ParameterSpec("seed", "int", 0, doc="master seed; runs are bit-reproducible")


def _engine_parameter() -> ParameterSpec:
    return ParameterSpec(
        "engine",
        "str",
        "auto",
        choices=tuple(ENGINE_CHOICES),
        doc="execution engine for the Monte-Carlo stages",
    )


def _precision_parameters() -> Tuple[ParameterSpec, ParameterSpec]:
    """The adaptive-precision contract: a CI half-width target (0 disables
    sequential stopping; the fixed trial budget then applies unchanged) and
    the confidence level of the interval/verdicts."""
    return (
        ParameterSpec(
            "precision",
            "float",
            0.0,
            doc="CI half-width target for sequential stopping (0: fixed trials)",
        ),
        ParameterSpec(
            "confidence",
            "float",
            0.99,
            doc="confidence level of the adaptive CIs and CI-aware verdicts",
        ),
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative description of one experiment.

    Attributes
    ----------
    id:
        The experiment identifier (``"E1"`` .. ``"E10"``).
    title:
        One-line human-readable summary (shown by ``python -m repro list``).
    runner:
        The function that actually runs the experiment; it is always called
        with the **fully normalized** parameter mapping, so its own keyword
        defaults are never exercised through the facade.
    parameters:
        The ordered parameter schema.
    quick:
        The ``quick`` preset: overrides applied on top of the defaults.
    """

    id: str
    title: str
    runner: Callable[..., ExperimentResult]
    parameters: Tuple[ParameterSpec, ...]
    quick: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [parameter.name for parameter in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.id}: duplicate parameter names in schema")
        # Presets are validated eagerly: a typo in a quick preset is a
        # programming error, not something to surface at run time.
        object.__setattr__(self, "quick", dict(self.quick))
        self.validate(self.quick)

    # ------------------------------------------------------------------ #
    @property
    def parameter_names(self) -> Tuple[str, ...]:
        return tuple(parameter.name for parameter in self.parameters)

    def parameter(self, name: str) -> ParameterSpec:
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        raise UnknownParameterError(self.id, [name], self.parameter_names)

    @property
    def accepts_seed(self) -> bool:
        """The seed contract: whether the schema declares a ``seed``."""
        return "seed" in self.parameter_names

    @property
    def accepts_engine(self) -> bool:
        """Whether the schema declares an ``engine`` selector."""
        return "engine" in self.parameter_names

    @property
    def accepts_precision(self) -> bool:
        """The precision contract: whether the schema declares a
        ``precision`` half-width target (adaptive sequential stopping)."""
        return "precision" in self.parameter_names

    @property
    def capabilities(self) -> Tuple[str, ...]:
        """The capability tags (``seed``, ``engine``, ``precision``) the
        schema implies."""
        tags = []
        if self.accepts_seed:
            tags.append("seed")
        if self.accepts_engine:
            tags.append("engine")
        if self.accepts_precision:
            tags.append("precision")
        return tuple(tags)

    @property
    def presets(self) -> Dict[str, Dict[str, object]]:
        return {PRESET_FULL: {}, PRESET_QUICK: dict(self.quick)}

    # ------------------------------------------------------------------ #
    def validate(self, overrides: Mapping[str, object]) -> Dict[str, object]:
        """Defaults overlaid with normalized ``overrides``: the fully
        normalized parameter mapping of one run.

        Raises :class:`UnknownParameterError` for undeclared names and
        :class:`ParameterValueError` for ill-typed values — both before any
        experiment code runs.
        """
        unknown = [name for name in overrides if name not in self.parameter_names]
        if unknown:
            raise UnknownParameterError(self.id, unknown, self.parameter_names)
        normalized: Dict[str, object] = {}
        for parameter in self.parameters:
            if parameter.name in overrides:
                normalized[parameter.name] = parameter.normalize(overrides[parameter.name])
            else:
                # Sequence defaults are copied: a runner (or caller) mutating
                # its argument must never corrupt the registry's schema.
                default = parameter.default
                if isinstance(default, list):
                    default = list(default)
                normalized[parameter.name] = default
        return normalized

    def resolve(
        self,
        preset: str = PRESET_FULL,
        overrides: Optional[Mapping[str, object]] = None,
        seed: Optional[int] = None,
        engine: Optional[str] = None,
        precision: Optional[float] = None,
        confidence: Optional[float] = None,
    ) -> Dict[str, object]:
        """The normalized parameters of one run: preset, then overrides, then
        the session-level ``seed``/``engine``/``precision``/``confidence``
        (applied only when the schema declares the capability and the caller
        did not already pin them)."""
        presets = self.presets
        if preset not in presets:
            raise SpecValidationError(
                f"{self.id}: unknown preset {preset!r}; available: {', '.join(presets)}"
            )
        merged: Dict[str, object] = dict(presets[preset])
        merged.update(overrides or {})
        if seed is not None and self.accepts_seed and "seed" not in merged:
            merged["seed"] = seed
        if engine is not None and self.accepts_engine and "engine" not in merged:
            merged["engine"] = engine
        if precision is not None and self.accepts_precision and "precision" not in merged:
            merged["precision"] = precision
        if confidence is not None and self.accepts_precision and "confidence" not in merged:
            merged["confidence"] = confidence
        return self.validate(merged)

    def cache_key(self, parameters: Mapping[str, object], version: Optional[str] = None) -> str:
        """The canonical cache key of a run: derived from the normalized
        schema, never from raw keyword dicts (see
        :func:`repro.engine.cache.request_cache_key`)."""
        return request_cache_key(self.id, self.validate(parameters), version=version)

    def run(self, parameters: Mapping[str, object]) -> ExperimentResult:
        """Validate and run; the runner sees the fully normalized mapping."""
        return self.runner(**self.validate(parameters))


class ExperimentRegistry(MutableMapping):
    """An ordered mapping of experiment id → :class:`ExperimentSpec`.

    Being a real ``MutableMapping`` keeps tests simple (``monkeypatch.setitem``
    swaps a spec for a stub) while :meth:`register` stays the declarative
    front door.
    """

    def __init__(self, specs: Sequence[ExperimentSpec] = ()) -> None:
        self._specs: Dict[str, ExperimentSpec] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: ExperimentSpec, replace: bool = False) -> ExperimentSpec:
        if not replace and spec.id in self._specs:
            raise ValueError(f"experiment {spec.id!r} is already registered")
        self._specs[spec.id] = spec
        return spec

    def select(self, tokens: Sequence[str]) -> List[str]:
        """Resolve CLI-style tokens (ids in any case, or ``all``) to ids,
        preserving order and dropping duplicates."""
        if any(token.lower() == "all" for token in tokens):
            return list(self._specs)
        resolved: List[str] = []
        for token in tokens:
            experiment_id = token.upper()
            if experiment_id not in self._specs:
                raise KeyError(
                    f"unknown experiment {token!r}; available: "
                    f"{', '.join(self._specs)} or 'all'"
                )
            if experiment_id not in resolved:
                resolved.append(experiment_id)
        return resolved

    # -- MutableMapping protocol --------------------------------------- #
    def __getitem__(self, experiment_id: str) -> ExperimentSpec:
        return self._specs[experiment_id]

    def __setitem__(self, experiment_id: str, spec: ExperimentSpec) -> None:
        self._specs[experiment_id] = spec

    def __delitem__(self, experiment_id: str) -> None:
        del self._specs[experiment_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


def _int_seq(name: str, default: Sequence[int], doc: str = "") -> ParameterSpec:
    return ParameterSpec(name, "seq[int]", list(default), doc=doc)


def _float_seq(name: str, default: Sequence[float], doc: str = "") -> ParameterSpec:
    return ParameterSpec(name, "seq[float]", list(default), doc=doc)


#: The ten shipped specs.  Parameter defaults mirror the runner signatures
#: (a registry test asserts they cannot drift); the quick presets are the
#: reduced workloads that used to live in the CLI's ``QUICK_PARAMETERS``.
REGISTRY = ExperimentRegistry(
    [
        ExperimentSpec(
            id="E1",
            title="amos decided in 0 rounds with guarantee p = (√5−1)/2",
            runner=_experiments.experiment_e1_amos_decider,
            parameters=(
                _int_seq("sizes", [12, 40]),
                _int_seq("selected_counts", [0, 1, 2, 3]),
                ParameterSpec("trials", "int", 3_000, minimum=1),
                _seed_parameter(),
                _engine_parameter(),
                *_precision_parameters(),
            ),
            quick={"sizes": [9], "trials": 400},
        ),
        ExperimentSpec(
            id="E2",
            title="ε-slack 3-coloring solved by the 0-round random coloring",
            runner=_experiments.experiment_e2_eps_slack_random_coloring,
            parameters=(
                _int_seq("sizes", [30, 100, 300, 1000]),
                _float_seq("eps_values", [0.7, 0.62, 0.58]),
                ParameterSpec("trials", "int", 200, minimum=1),
                ParameterSpec("decider_trials", "int", 1_200, minimum=1),
                ParameterSpec("repetitions", "int", 3),
                _seed_parameter(),
                _engine_parameter(),
            ),
            # The verdict needs the concentration of the largest size, so the
            # quick grid keeps one mid-sized cycle (90 was too small: eps=0.62
            # sat within one sigma of the 5/9 mean bad fraction and failed
            # spuriously).
            quick={
                "sizes": [30, 300],
                "eps_values": [0.75, 0.65],
                "trials": 60,
                "decider_trials": 300,
            },
        ),
        ExperimentSpec(
            id="E3",
            title="f-resilient 3-coloring defeats every order-invariant O(1) algorithm",
            runner=_experiments.experiment_e3_resilient_lower_bound,
            parameters=(
                ParameterSpec("n", "int", 24),
                _int_seq("radii", [0, 1]),
                _int_seq("f_values", [1, 2, 4]),
                ParameterSpec("trials", "int", 1_200, minimum=1),
                ParameterSpec("repetitions", "int", 3),
                _seed_parameter(),
                _engine_parameter(),
            ),
            quick={"n": 15, "trials": 300},
        ),
        ExperimentSpec(
            id="E4",
            title="3-coloring the cycle takes Θ(log* n) rounds (Cole–Vishkin upper bound)",
            runner=_experiments.experiment_e4_logstar_coloring,
            parameters=(
                _int_seq("sizes", [8, 32, 128, 512, 2048, 8192, 32768]),
                _seed_parameter(),
            ),
            quick={"sizes": [8, 64, 1024]},
        ),
        ExperimentSpec(
            id="E5",
            title="the f-resilient relaxation is in BPLD (Corollary 1 decider)",
            runner=_experiments.experiment_e5_resilient_decider,
            parameters=(
                _int_seq("f_values", [1, 2, 4, 8]),
                ParameterSpec("n", "int", 60),
                ParameterSpec("trials", "int", 2_000, minimum=1),
                _seed_parameter(),
                _engine_parameter(),
                *_precision_parameters(),
            ),
            quick={"f_values": [1, 2], "n": 24, "trials": 400},
        ),
        ExperimentSpec(
            id="E6",
            title="error amplification over ν hard instances (Claim 3 / Theorem 1)",
            runner=_experiments.experiment_e6_error_amplification,
            parameters=(
                ParameterSpec("q", "float", 0.05),
                ParameterSpec("p", "float", 0.8),
                ParameterSpec("instance_size", "int", 12),
                _int_seq("nu_values", [1, 2, 4, 8, 12]),
                ParameterSpec("trials", "int", 400, minimum=1),
                _seed_parameter(),
                _engine_parameter(),
            ),
            quick={"nu_values": [1, 2, 4], "trials": 120, "instance_size": 8},
        ),
        ExperimentSpec(
            id="E7",
            title="constant-time constructibility vs decidability separations",
            runner=_experiments.experiment_e7_separations,
            parameters=(
                # E7 plants conflicting edges on a 3-colored cycle, so n must
                # be divisible by 3 (16 crashed the workload builder).
                ParameterSpec("n", "int", 24),
                ParameterSpec("deterministic_radius", "int", 2),
                ParameterSpec("trials", "int", 2_000, minimum=1),
                _seed_parameter(),
                _engine_parameter(),
                ParameterSpec("amplified_repetitions", "int", 3),
            ),
            quick={"n": 15, "trials": 400},
        ),
        ExperimentSpec(
            id="E8",
            title="randomization helps for ε-slack but not for f-resilient relaxations",
            runner=_experiments.experiment_e8_slack_vs_resilient,
            parameters=(
                ParameterSpec("n", "int", 24),
                ParameterSpec("eps", "float", 0.7),
                _int_seq("f_values", [1, 2, 4]),
                ParameterSpec("trials", "int", 400, minimum=1),
                _seed_parameter(),
                _engine_parameter(),
            ),
            quick={"n": 15, "trials": 100},
        ),
        ExperimentSpec(
            id="E9",
            title="far-acceptance probabilities and the Claim 5 anchor",
            runner=_experiments.experiment_e9_far_acceptance,
            parameters=(
                ParameterSpec("q", "float", 0.3),
                ParameterSpec("p", "float", 0.8),
                ParameterSpec("instance_size", "int", 20),
                ParameterSpec("trials", "int", 400, minimum=1),
                _seed_parameter(),
                _engine_parameter(),
            ),
            quick={"instance_size": 12, "trials": 120},
        ),
        ExperimentSpec(
            id="E10",
            title="baseline LOCAL algorithms: validity and round growth",
            runner=_experiments.experiment_e10_baselines,
            parameters=(
                _int_seq("sizes", [20, 60, 160, 400]),
                ParameterSpec("degree", "int", 3),
                ParameterSpec("runs", "int", 5, minimum=1),
                _seed_parameter(),
            ),
            quick={"sizes": [20, 40], "runs": 2},
        ),
    ]
)
