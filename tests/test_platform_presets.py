"""Tests for the named testbed presets."""

import numpy as np
import pytest

from repro import Solver, SteadyStateProblem, validate_allocation
from repro.platform.presets import (
    PRESETS,
    das2_like,
    get_preset,
    grid5000_like,
    intercontinental_grid,
)
from repro.util.errors import PlatformError


class TestPresetStructure:
    def test_grid5000_shape(self):
        p = grid5000_like()
        assert p.n_clusters == 9
        # Every pair of sites is routable over the national backbone.
        for k in range(9):
            for l in range(9):
                if k != l:
                    assert p.has_route(k, l)

    def test_das2_star_backbone(self):
        p = das2_like()
        assert p.n_clusters == 5
        assert "rtr-surfnet" in p.routers  # pass-through router
        # Routes between sites are exactly two hops via surfnet.
        assert len(p.route(0, 1)) == 2

    def test_intercontinental_scarcity(self):
        p = intercontinental_grid()
        # Oceanic links are thin and connection-limited by design.
        assert all(li.max_connect <= 6 for li in p.links.values())
        assert all(li.bw <= 8.0 for li in p.links.values())

    def test_get_preset_lookup(self):
        for name in PRESETS:
            assert get_preset(name).n_clusters >= 4

    def test_unknown_preset(self):
        with pytest.raises(PlatformError):
            get_preset("nope")


class TestPresetsAreSolvable:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_full_pipeline(self, name):
        platform = get_preset(name)
        problem = SteadyStateProblem(platform, objective="maxmin")
        lp = Solver.for_method("lp").solve(problem)
        lprg = Solver.for_method("lprg").solve(problem)
        validate_allocation(platform, lprg.allocation)
        assert 0 < lprg.value <= lp.value + 1e-6

    def test_scarce_preset_separates_heuristics(self):
        # On the intercontinental preset with one dominant application,
        # network scarcity makes heuristic choice visible.
        platform = intercontinental_grid()
        payoffs = [1.0, 1.0, 1.0, 4.0]  # Sydney's work is precious
        problem = SteadyStateProblem(platform, payoffs, objective="maxmin")
        values = {
            m: Solver.for_method(m).solve(problem, rng=0).value
            for m in ("greedy", "lpr", "lprg")
        }
        lp = Solver.for_method("lp").solve(problem).value
        assert values["lprg"] <= lp + 1e-6
        assert values["lprg"] >= values["lpr"] - 1e-9
