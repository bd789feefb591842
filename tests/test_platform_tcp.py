"""Tests for the RTT-aware TCP bandwidth refinement (Section-7 item)."""

import numpy as np
import pytest

from repro import Solver, SteadyStateProblem, line_platform
from repro.platform.tcp import TcpModel, apply_tcp_model
from repro.util.errors import PlatformError


class TestTcpModel:
    def test_validation(self):
        with pytest.raises(PlatformError):
            TcpModel(window=0.0)
        with pytest.raises(PlatformError):
            TcpModel(window=1.0, default_latency=-1.0)
        with pytest.raises(PlatformError):
            TcpModel(window=1.0, latencies={"x": -0.5})

    def test_rtt_sums_link_latencies(self):
        platform = line_platform(3, bw=10.0)
        model = TcpModel(window=100.0, latencies={"seg0": 1.0, "seg1": 2.0})
        route = platform.route(0, 2)
        assert model.rtt(route) == pytest.approx(6.0)  # 2 * (1 + 2)

    def test_window_limited_vs_capacity_limited(self):
        platform = line_platform(2, bw=10.0)
        route = platform.route(0, 1)
        # Short path: capacity-limited at bw = 10.
        short = TcpModel(window=100.0, default_latency=0.1)
        assert short.connection_bandwidth(route) == pytest.approx(10.0)
        # Long path: window-limited at 100 / (2 * 10) = 5 < 10.
        long = TcpModel(window=100.0, default_latency=10.0)
        assert long.connection_bandwidth(route) == pytest.approx(5.0)

    def test_zero_latency_keeps_paper_model(self):
        platform = line_platform(3, bw=10.0)
        model = TcpModel(window=1.0, default_latency=0.0)
        refined = apply_tcp_model(platform, model)
        for pair in platform.routed_pairs():
            assert refined.route(*pair).bandwidth == platform.route(*pair).bandwidth


class TestApplyTcpModel:
    def test_structure_preserved(self):
        platform = line_platform(4, bw=10.0)
        refined = apply_tcp_model(platform, TcpModel(window=40.0, default_latency=1.0))
        assert refined.routed_pairs() == platform.routed_pairs()
        assert set(refined.links) == set(platform.links)
        assert np.array_equal(refined.speeds, platform.speeds)

    def test_longer_routes_get_less_bandwidth(self):
        platform = line_platform(4, bw=10.0)
        refined = apply_tcp_model(platform, TcpModel(window=12.0, default_latency=1.0))
        # 1 hop: min(12/2, 10) = 6; 3 hops: min(12/6, 10) = 2.
        assert refined.route(0, 1).bandwidth == pytest.approx(6.0)
        assert refined.route(0, 3).bandwidth == pytest.approx(2.0)

    def test_refined_platform_is_schedulable(self):
        platform = apply_tcp_model(
            line_platform(4, bw=10.0, g=60.0),
            TcpModel(window=12.0, default_latency=1.0),
        )
        problem = SteadyStateProblem(platform, objective="maxmin")
        result = Solver.for_method("lprg").solve(problem)
        assert problem.check(result.allocation).ok
        assert result.value > 0

    def test_latency_lowers_the_bound(self):
        base = line_platform(4, bw=10.0, g=30.0, max_connect=2)
        problem = SteadyStateProblem(base, [1, 0, 0, 1], objective="maxmin")
        lp_base = Solver.for_method("lp").solve(problem).value
        refined = apply_tcp_model(base, TcpModel(window=6.0, default_latency=1.0))
        lp_refined = Solver.for_method("lp").solve(
            SteadyStateProblem(refined, [1, 0, 0, 1], objective="maxmin")
        ).value
        assert lp_refined <= lp_base + 1e-9

    def test_rankings_can_change_under_latency(self):
        # Latency awareness penalises multi-hop routes: schedulers that
        # relied on distant clusters lose value; the comparison stays
        # internally consistent (LP still dominates).
        base = line_platform(5, bw=20.0, g=100.0, max_connect=3)
        refined = apply_tcp_model(base, TcpModel(window=20.0, default_latency=1.0))
        for platform in (base, refined):
            problem = SteadyStateProblem(platform, objective="maxmin")
            lp = Solver.for_method("lp").solve(problem).value
            lprg = Solver.for_method("lprg").solve(problem).value
            assert lprg <= lp + 1e-6
