"""Simplex contract tests for the LP engine (repro.lp.revised).

Textbook programs, status detection, bound handling and agreement with
HiGHS, including the scale-dependent numerical hazards every simplex
implementation must survive. test_lp_revised.py covers the engine's own
machinery (LU basis, bound flips, warm repair, canonical vertices).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.lp.builder import build_lp
from repro.lp.revised import revised_solve
from repro.lp.scipy_backend import solve_lp_scipy
from repro.util.errors import InfeasibleError, SolverError


class TestBasicLPs:
    def test_textbook_max(self):
        # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6)
        res = revised_solve(
            c=[3, 5],
            A_ub=[[1, 0], [0, 2], [3, 2]],
            b_ub=[4, 12, 18],
        )
        assert res.ok
        assert res.value == pytest.approx(36.0)
        assert res.x == pytest.approx([2.0, 6.0])

    def test_degenerate_origin(self):
        res = revised_solve(c=[-1, -1], A_ub=[[1, 1]], b_ub=[10])
        assert res.ok and res.value == pytest.approx(0.0)

    def test_unbounded_detected(self):
        res = revised_solve(c=[1], A_ub=np.zeros((1, 1)), b_ub=[1])
        assert res.status == "unbounded"

    def test_infeasible_detected(self):
        # x >= 5 (as -x <= -5) with x <= 2.
        res = revised_solve(c=[1], A_ub=[[-1], [1]], b_ub=[-5, 2])
        assert res.status == "infeasible"

    def test_negative_rhs_phase1(self):
        # x >= 3 and x <= 10, maximize -x -> x = 3, value -3.
        res = revised_solve(c=[-1], A_ub=[[-1]], b_ub=[-3], bounds=[(0, 10)])
        assert res.ok
        assert res.x[0] == pytest.approx(3.0)

    def test_upper_bounds(self):
        res = revised_solve(c=[1, 1], A_ub=[[1, 1]], b_ub=[100],
                            bounds=[(0, 3), (0, 4)])
        assert res.ok and res.value == pytest.approx(7.0)

    def test_shifted_lower_bounds(self):
        # x in [2, 5] with no rows: max x -> 5, min x (max -x) -> 2.
        res = revised_solve(c=[1], A_ub=np.zeros((0, 1)), b_ub=[], bounds=[(2, 5)])
        assert res.ok and res.value == pytest.approx(5.0)
        res = revised_solve(c=[-1], A_ub=np.zeros((0, 1)), b_ub=[], bounds=[(2, 5)])
        assert res.ok and res.x[0] == pytest.approx(2.0)

    def test_infinite_lower_bound_rejected(self):
        with pytest.raises(SolverError):
            revised_solve(c=[1], A_ub=[[1]], b_ub=[1], bounds=[(-np.inf, 1)])

    def test_crossed_bounds_infeasible(self):
        res = revised_solve(c=[1], A_ub=[[1]], b_ub=[10], bounds=[(5, 3)])
        assert res.status == "infeasible"

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            revised_solve(c=[1, 2], A_ub=[[1]], b_ub=[1])


class TestAgainstHiGHSRandom:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_random_bounded_lps(self, seed):
        """Random LPs with a feasible origin and finite boxes (always
        feasible, always bounded): HiGHS's value, at a feasible point."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        c = rng.uniform(-5, 5, n)
        A = rng.uniform(-2, 3, (m, n))
        b = rng.uniform(0.5, 10, m)  # b > 0: origin feasible
        ub = rng.uniform(1, 10, n)
        bounds = [(0.0, float(u)) for u in ub]

        ours = revised_solve(c, A, b, bounds)
        assert ours.ok

        ref = linprog(-c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        assert ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, abs=1e-7)
        # Solution must itself be feasible.
        assert np.all(A @ ours.x <= b + 1e-7)
        assert np.all(ours.x >= -1e-9) and np.all(ours.x <= ub + 1e-9)


class TestOnPaperInstances:
    @pytest.mark.parametrize("objective", ["sum", "maxmin"])
    def test_matches_highs_on_program7(self, problem_factory, objective):
        """Real program-(7) instances, solved from a dense copy of the
        constraint matrix, must reproduce HiGHS."""
        problem = problem_factory(seed=0, n_clusters=4, objective=objective)
        inst = build_lp(problem)
        ref = solve_lp_scipy(inst)
        ours = revised_solve(
            inst.obj, inst.A_ub.toarray(), inst.b_ub, (inst.lb, inst.ub)
        )
        assert ours.ok
        assert ours.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)

    def test_several_seeds(self, problem_factory):
        for seed in range(4):
            problem = problem_factory(seed=seed, n_clusters=3, objective="maxmin")
            inst = build_lp(problem)
            ref = solve_lp_scipy(inst)
            ours = revised_solve(
                inst.obj, inst.A_ub.toarray(), inst.b_ub, (inst.lb, inst.ub)
            )
            assert ours.ok
            assert ours.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)


class TestToleranceRegressions:
    """Scale-dependent numerical hazards, each checked against HiGHS.

    The cases pin three tolerance bugs an LP engine can have: an
    absolute tie tolerance in the ratio test (large-magnitude ties are
    missed and Bland's anti-cycling tie-break runs on a truncated tie
    set), a clamp of slightly negative carried-basis values onto the
    feasibility boundary (a superoptimal value from an infeasible
    start), and an absolute phase-1 residual threshold (feasible,
    badly scaled programs misclassified as infeasible).
    """

    @staticmethod
    def _highs(c, A, b):
        return linprog(-np.asarray(c, dtype=float), A_ub=A, b_ub=b,
                       bounds=(0, None), method="highs")

    def test_degenerate_ties_at_large_magnitude(self):
        """Beale's cycling LP (degenerate at the origin, plus a bounding
        row), scaled so every ratio tie sits at ~1e9: the run must
        terminate at HiGHS's optimum."""
        s = 3.7e9
        c = [0.75, -150.0, 0.02, -6.0]
        A = [
            [0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b = [0.0, 0.0, s]
        res = revised_solve(c, A, b, max_iter=10_000)
        assert res.ok
        ref = self._highs(c, A, b)
        assert ref.status == 0
        assert res.value == pytest.approx(-ref.fun, rel=1e-9)

    def test_degenerate_redundant_rows_scaled(self):
        """Coincident constraints at a huge scale: every pivot's ratio
        test is an all-tied, large-magnitude decision."""
        s = 1.9e9
        A = [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 0.0]]
        b = [s, s, 2.0 * s, s]
        res = revised_solve([1.0, 1.0], A, b, max_iter=1000)
        assert res.ok
        ref = self._highs([1.0, 1.0], A, b)
        assert res.value == pytest.approx(-ref.fun, rel=1e-12)
        assert res.value == pytest.approx(s, rel=1e-12)

    def test_warm_negative_basic_rejected_not_clamped(self):
        """A carried basis whose basic values go slightly negative must
        be repaired or rejected, never clamped onto the boundary: the
        clamp reports a superoptimal value."""
        c = [1.0, 1.0]
        A = [[1.0, 1.0], [1.0, -1.0]]
        eps = 1e-9
        b = [2.0, 2.0 + eps]
        # Basis {x, y}: B^{-1} b = [2 + eps/2, -eps/2] — y negative.
        res = revised_solve(c, A, b, initial_basis=np.array([0, 1]))
        assert res.ok
        assert res.value <= 2.0
        ref = self._highs(c, A, b)
        assert res.value == pytest.approx(-ref.fun, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e9])
    def test_phase1_threshold_scales_with_rhs(self, problem_factory, scale):
        """Rescaled program-(7) instances with half the betas pinned (so
        the all-slack start is infeasible and phase 1 runs) must agree
        with HiGHS on status and value at every scale."""
        problem = problem_factory(seed=0, n_clusters=4)
        inst = build_lp(problem)
        ref0 = solve_lp_scipy(inst)
        # Pin half the betas at their LP value, floored: lb == ub > 0
        # shifts those rows' RHS negative.
        for i in range(inst.index.n_alpha, inst.n_vars, 2):
            inst.lb[i] = inst.ub[i] = float(np.floor(ref0.x[i]))
        inst.b_ub *= scale
        inst.lb *= scale
        inst.ub *= scale
        ours = revised_solve(
            inst.obj, inst.A_ub.toarray(), inst.b_ub, (inst.lb, inst.ub)
        )
        try:
            ref = solve_lp_scipy(inst)
        except InfeasibleError:
            assert ours.status == "infeasible"
            return
        assert ours.ok
        assert ours.value == pytest.approx(ref.value, rel=1e-6)
