"""Acceptance: every experiment run through ``repro.api.Session`` produces
bit-identical ``ExperimentResult`` rows versus calling the pre-redesign
function directly at the same seed and parameters.

The toy seeds differ per experiment, so the check does not hinge on one
seed's coins.
"""

from __future__ import annotations

import json

import pytest

from repro.api import ProcessPoolBackend, Session
from repro.api.wire import decode_result, encode_result
from repro.harness.registry import REGISTRY

#: Toy-scale overrides per experiment: small enough for the test suite, rich
#: enough that every code path (engine stages included) runs.
TOY_OVERRIDES = {
    "E1": dict(sizes=(9,), trials=200, seed=21),
    "E2": dict(
        sizes=(30, 60), eps_values=(0.75,), trials=40, decider_trials=150, seed=10_021
    ),
    "E3": dict(n=15, radii=(0, 1), f_values=(1, 2), trials=150, seed=21),
    "E4": dict(sizes=(8, 64), seed=10_021),
    "E5": dict(f_values=(1, 2), n=24, trials=200, seed=21),
    "E6": dict(q=0.08, instance_size=8, nu_values=(1, 2), trials=60, seed=10_021),
    "E7": dict(n=15, deterministic_radius=1, trials=150, seed=21),
    "E8": dict(n=15, eps=0.75, f_values=(1, 2), trials=60, seed=10_021),
    "E9": dict(instance_size=10, trials=60, seed=21),
    "E10": dict(sizes=(20,), runs=2, seed=10_021),
}


@pytest.mark.parametrize("experiment_id", sorted(TOY_OVERRIDES, key=lambda e: int(e[1:])))
def test_session_is_bit_identical_to_direct_call(experiment_id):
    overrides = TOY_OVERRIDES[experiment_id]
    # The ground truth: the harness function called directly, exactly as the
    # pre-redesign callers did (partial kwargs, function defaults for the rest).
    direct = REGISTRY[experiment_id].runner(**overrides)
    # The facade: the same overrides resolved through the spec registry.
    report = Session(cache=None).run(experiment_id, **overrides)

    assert report.result.rows == direct.rows
    assert report.result.matches_paper == direct.matches_paper
    assert report.result.parameters == direct.parameters
    assert report.result.experiment_id == direct.experiment_id


def test_overrides_cover_every_registered_experiment():
    assert set(TOY_OVERRIDES) == set(REGISTRY)


def test_wire_round_trip_preserves_bit_identity():
    """The JSON wire crossing the service puts a result through must not
    perturb a single float in the result rows."""
    overrides = TOY_OVERRIDES["E5"]
    direct = REGISTRY["E5"].runner(**overrides)
    report = Session(cache=None).run("E5", **overrides)
    text = json.dumps(encode_result(report.result), sort_keys=True)
    crossed = decode_result(json.loads(text))
    assert crossed.rows == direct.rows
    assert crossed.matches_paper == direct.matches_paper


def test_process_pool_backend_preserves_bit_identity():
    """Results shipped back from worker processes equal the direct calls."""
    session = Session(cache=None, backend=ProcessPoolBackend(max_workers=2))
    requests = [session.request(name, **TOY_OVERRIDES[name]) for name in ("E5", "E1")]
    reports = session.run_many(requests)
    for name, report in zip(("E5", "E1"), reports):
        direct = REGISTRY[name].runner(**TOY_OVERRIDES[name])
        assert report.result.rows == direct.rows
        assert report.result.matches_paper == direct.matches_paper


class TestPrecisionDefaultsPreservePr4Identity:
    """With ``precision=None`` (the schema default 0.0) the experiments
    that grew the precision contract remain bit-identical to their
    fixed-trial behaviour at seeds 0 and 10_000 — spelling the new parameters
    explicitly, omitting them, or injecting them as disabled through the
    session must all produce the same stochastic rows."""

    @pytest.mark.parametrize("experiment_id", ["E1", "E5"])
    @pytest.mark.parametrize("seed", [0, 10_000])
    def test_disabled_precision_is_invisible(self, experiment_id, seed):
        overrides = dict(TOY_OVERRIDES[experiment_id])
        overrides["seed"] = seed
        direct = REGISTRY[experiment_id].runner(**overrides)
        spelled = REGISTRY[experiment_id].runner(**overrides, precision=0.0, confidence=0.99)
        via_session = Session(cache=None).run(experiment_id, **overrides)
        assert spelled.rows == direct.rows
        assert spelled.matches_paper == direct.matches_paper
        assert via_session.result.rows == direct.rows
        assert via_session.result.matches_paper == direct.matches_paper
        # The CI provenance fields stay unset on the fixed-trial path.
        assert via_session.result.trials_used is None
        assert via_session.result.ci_low is None and via_session.result.ci_high is None
        assert via_session.result.unresolved is False
