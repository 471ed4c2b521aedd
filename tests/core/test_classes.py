"""Tests for the amos separation (repro.core.classes)."""

from __future__ import annotations

import pytest

from repro.core.classes import amos_separation_report
from repro.core.decision import golden_ratio_guarantee


class TestAmosSeparation:
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_deterministic_window_decider_is_fooled(self, radius):
        report = amos_separation_report(radius=radius, trials=400, seed=3)
        assert report.deterministic_fooled
        assert report.deterministic_radius == radius
        # The witness instance separates the selected nodes beyond 2·radius.
        assert report.witness_diameter > 2 * radius

    def test_randomized_guarantee_close_to_golden_ratio(self):
        report = amos_separation_report(radius=1, trials=3000, seed=4)
        assert report.randomized_guarantee == pytest.approx(
            golden_ratio_guarantee(), abs=0.04
        )

    def test_path_length_validation(self):
        with pytest.raises(ValueError):
            amos_separation_report(radius=2, path_length=5)
