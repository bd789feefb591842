"""Tests for the warm-started LP re-solve subsystem (repro.lp.session).

The contract under test: an :class:`LPSession` — in-place mutation,
fixed-variable pinning, basis carry — must agree with a *fresh*
``build_lp`` + cold HiGHS solve at every step of a re-solve sequence,
for both objectives, and the heuristics riding on it must keep their
published invariants (validity, LP-bound domination, and for LPRR
bitwise warm/cold allocation identity on pinned seeds).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import repro.heuristics.lprr as lprr_mod
from repro import Solver, SteadyStateProblem, generate_platform
from repro.experiments.config import (
    DEFAULT_SCENARIO,
    PAPER_GRID,
    payoffs_for,
    sample_settings,
    spec_for,
)
from repro.heuristics.base import get_heuristic, registry
from repro.lp.builder import (
    _COOBuilder,
    LPBuildCache,
    LPInstance,
    build_lp,
    use_build_cache,
)
from repro.lp.revised import revised_solve
from repro.lp.scipy_backend import solve_lp_scipy
from repro.lp.session import _PHI, Basis, LPSession, _canon_weights
from repro.util.errors import InfeasibleError, SolverError

from tests.strategies import problems


def _floor_fix(value: float) -> float:
    """A fixing value that keeps the LP feasible (round down, snapped)."""
    return float(max(0.0, np.floor(value + 1e-9)))


class TestSimplexWarmStart:
    def test_reuse_own_basis_is_free(self):
        c = [3, 5]
        A = [[1, 0], [0, 2], [3, 2]]
        b = [4, 12, 18]
        cold = revised_solve(c, A, b)
        assert cold.ok and cold.basis is not None
        warm = revised_solve(c, A, b, initial_basis=cold.basis,
                             initial_at_upper=cold.at_upper)
        assert warm.ok and warm.warm_started
        assert warm.iterations == 0  # already optimal
        assert warm.value == pytest.approx(cold.value)
        assert warm.x == pytest.approx(cold.x)

    def test_warm_start_after_rhs_change(self):
        c = [3, 5]
        A = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
        cold = revised_solve(c, A, [4, 12, 18])
        warm = revised_solve(c, A, [4, 12, 17], initial_basis=cold.basis,
                             initial_at_upper=cold.at_upper)
        ref = revised_solve(c, A, [4, 12, 17])
        assert warm.ok
        assert warm.value == pytest.approx(ref.value)
        assert warm.iterations <= ref.iterations

    def test_invalid_basis_falls_back_cold(self):
        c = [3, 5]
        A = [[1, 0], [0, 2], [3, 2]]
        b = [4, 12, 18]
        ref = revised_solve(c, A, b)
        for bogus in ([0, 1], [0, 0, 1], [0, 1, 99]):
            res = revised_solve(c, A, b, initial_basis=np.array(bogus))
            assert res.ok and not res.warm_started
            assert res.value == pytest.approx(ref.value)

    def test_infeasible_carried_basis_falls_back(self):
        # x basic at 5; the new row -x <= -2 with x <= 4 leaves that
        # basis primal-infeasible, and the re-solve must still land on
        # the optimum x = 4.
        cold = revised_solve([1.0], [[1.0]], [5.0])
        warm = revised_solve([1.0], [[-1.0]], [-2.0], bounds=[(0, 4)],
                             initial_basis=cold.basis,
                             initial_at_upper=cold.at_upper)
        assert warm.ok
        assert warm.x[0] == pytest.approx(4.0)

    def test_bounds_as_array_pair(self):
        c = [1, 1]
        A = [[1, 1]]
        b = [100]
        lst = revised_solve(c, A, b, bounds=[(0, 3), (0, 4)])
        arr = revised_solve(
            c, A, b, bounds=(np.zeros(2), np.array([3.0, 4.0]))
        )
        assert lst.ok and arr.ok
        assert arr.value == pytest.approx(lst.value) == pytest.approx(7.0)


class TestSessionMatchesColdHiGHS:
    """LPSession vs fresh build_lp + solve_lp_scipy, across objectives."""

    @pytest.mark.parametrize("objective", ["maxmin", "sum"])
    def test_first_solve_matches(self, problem_factory, objective):
        for seed in range(3):
            problem = problem_factory(seed=seed, n_clusters=5, objective=objective)
            session = LPSession(build_lp(problem))
            got = session.solve()
            ref = solve_lp_scipy(build_lp(problem))
            assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("objective", ["maxmin", "sum"])
    def test_fixing_sequence_matches(self, problem_factory, objective):
        """Drive an LPRR-like fixing sequence; every re-solve must agree
        with a cold HiGHS solve of an equivalently-bounded fresh LP."""
        problem = problem_factory(seed=2, n_clusters=5, objective=objective)
        instance = build_lp(problem)
        session = LPSession(build_lp(problem))
        n_alpha, n_beta = instance.index.n_alpha, instance.index.n_beta
        solution = session.solve()
        for i in range(n_beta):
            var = n_alpha + i
            session.fix_variable(var, _floor_fix(solution.x[var]))
            solution = session.solve()
            ref_inst = build_lp(problem)
            np.copyto(ref_inst.lb, session.instance.lb)
            np.copyto(ref_inst.ub, session.instance.ub)
            ref = solve_lp_scipy(ref_inst)
            assert solution.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)
        assert session.stats.n_warm > 0  # the basis carry actually engaged

    @given(problems(max_clusters=5), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15)
    def test_random_fixing_property(self, problem, seed):
        """Property: for random problems and random fix subsets, the
        session agrees with fresh cold HiGHS solves."""
        rng = np.random.default_rng(seed)
        instance = build_lp(problem)
        session = LPSession(build_lp(problem))
        solution = session.solve()
        ref = solve_lp_scipy(instance)
        assert solution.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)
        n_alpha, n_beta = instance.index.n_alpha, instance.index.n_beta
        if n_beta == 0:
            return
        n_fix = int(rng.integers(1, n_beta + 1))
        for i in rng.choice(n_beta, size=n_fix, replace=False):
            var = n_alpha + int(i)
            value = _floor_fix(solution.x[var])
            session.fix_variable(var, value)
            instance.lb[var] = instance.ub[var] = value
        got = session.solve()
        ref = solve_lp_scipy(instance)
        assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)

    def test_rhs_update_matches(self, problem_factory):
        """Shrink b_ub in place, re-solve warm."""
        problem = problem_factory(seed=1, n_clusters=5)
        instance = build_lp(problem)
        session = LPSession(build_lp(problem))
        session.solve()
        shrunk = instance.b_ub * 0.7
        np.copyto(session.instance.b_ub, shrunk)
        got = session.solve()
        ref_inst = build_lp(problem)
        np.copyto(ref_inst.b_ub, shrunk)
        ref = solve_lp_scipy(ref_inst)
        assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)


class TestPresolve:
    def test_fixed_vars_eliminated_and_restored(self, problem_factory):
        """Round-trip: fixing every beta must return a full-length x with
        the pinned values bit-exact and HiGHS's optimal value (the
        session freezes fixed variables out of pricing rather than
        eliminating them, so nothing is restored by copying)."""
        problem = problem_factory(seed=0, n_clusters=5)
        instance = build_lp(problem)
        session = LPSession(build_lp(problem))
        solution = session.solve()
        n_alpha, n_beta = instance.index.n_alpha, instance.index.n_beta
        fixed_values = {}
        for i in range(n_beta):
            var = n_alpha + i
            value = _floor_fix(solution.x[var])
            session.fix_variable(var, value)
            fixed_values[var] = value
        got = session.solve()
        assert got.x.shape == (instance.n_vars,)
        for var, value in fixed_values.items():
            assert got.x[var] == value  # exact, not approximate
        ref_inst = build_lp(problem)
        np.copyto(ref_inst.lb, session.instance.lb)
        np.copyto(ref_inst.ub, session.instance.ub)
        assert got.value == pytest.approx(
            solve_lp_scipy(ref_inst).value, rel=1e-6, abs=1e-6
        )

    def test_infeasible_fixing_detected(self, problem_factory):
        """Pinning a beta above its route capacity must raise, exactly
        like the cold HiGHS path does."""
        problem = problem_factory(seed=0, n_clusters=5)
        instance = build_lp(problem)
        n_alpha = instance.index.n_alpha
        bad = float(instance.ub[n_alpha]) + 5.0
        session = LPSession(build_lp(problem))
        session.instance.lb[n_alpha] = session.instance.ub[n_alpha] = bad
        with pytest.raises(InfeasibleError):
            session.solve()

    def test_fully_fixed_program(self):
        """All variables pinned: the session must answer without a solver."""
        from repro import star_platform

        platform = star_platform(2, g=50.0, bw=10.0, max_connect=3)
        problem = SteadyStateProblem(platform, [1.0, 1.0, 0.0], objective="sum")
        session = LPSession(build_lp(problem))
        inst = session.instance
        inst.lb[:] = 0.0
        inst.ub[:] = 0.0
        got = session.solve()
        assert got.value == pytest.approx(0.0)
        assert np.all(got.x == 0.0)


class TestColdReferencePath:
    def test_cold_session_is_deterministic(self, problem_factory):
        problem = problem_factory(seed=3, n_clusters=4)
        a = LPSession(build_lp(problem)).solve(warm_basis=None)
        b = LPSession(build_lp(problem)).solve(warm_basis=None)
        assert np.array_equal(a.x, b.x)
        assert a.value == b.value

    def test_warm_cold_call_matches_cold_session(self, problem_factory):
        """``LPSession.solve(warm_basis=None)`` on a warm session must be
        bitwise-identical to the same call on a fresh session, and to a
        repeat of it (shared final-solve arithmetic)."""
        problem = problem_factory(seed=3, n_clusters=4)
        warm = LPSession(build_lp(problem))
        cold = LPSession(build_lp(problem))
        warm.solve()  # prime a basis; must not leak into the cold call
        a = warm.solve(warm_basis=None)
        b = cold.solve(warm_basis=None)
        b2 = cold.solve(warm_basis=None)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(b.x, b2.x)


class TestHeuristicWarmColdEquivalence:
    """Warm-vs-cold invariants of the rewired heuristics."""

    @pytest.mark.parametrize("objective", ["maxmin", "sum"])
    def test_lprr_bitwise_identical(self, problem_factory, objective):
        """Pinned reference seeds: warm and cold LPRR must produce
        bitwise-identical allocations (the bench asserts this sweep-wide)."""
        for seed in range(3):
            problem = problem_factory(seed=seed, n_clusters=5, objective=objective)
            warm = Solver.for_method(
                "lprr", warm_start=True, lp_backend="session"
            ).solve(problem, rng=seed)
            cold = Solver.for_method(
                "lprr", warm_start=False, lp_backend="session"
            ).solve(problem, rng=seed)
            assert np.array_equal(warm.allocation.alpha, cold.allocation.alpha)
            assert np.array_equal(warm.allocation.beta, cold.allocation.beta)
            assert warm.value == cold.value

    def test_lprr_scipy_escape_hatch(self, problem_factory):
        problem = problem_factory(seed=1, n_clusters=5)
        legacy = Solver.for_method("lprr", lp_backend="scipy").solve(
            problem, rng=0
        )
        assert problem.check(legacy.allocation).ok
        assert "lp_stats" not in legacy.meta
        assert legacy.meta["lp_backend"] == "scipy"

    def test_lprr_warm_solves_fewer_iterations(self, problem_factory):
        problem = problem_factory(seed=2, n_clusters=5)
        warm = Solver.for_method(
            "lprr", warm_start=True, lp_backend="session"
        ).solve(problem, rng=7)
        cold = Solver.for_method(
            "lprr", warm_start=False, lp_backend="session"
        ).solve(problem, rng=7)
        assert warm.meta["lp_stats"]["iterations"] < cold.meta["lp_stats"]["iterations"]
        assert warm.meta["lp_stats"]["n_warm"] > 0
        assert cold.meta["lp_stats"]["n_warm"] == 0

    @pytest.mark.parametrize("objective", ["maxmin", "sum"])
    def test_lprg_it_incremental_vs_rebuild(self, problem_factory, objective):
        """The incremental-update warm path must stay valid, LP-bounded,
        and in the same quality band as the rebuild-per-round reference
        (bitwise identity is not guaranteed: degenerate LPs admit
        multiple optimal vertices and the two backends may round
        different ones)."""
        lp_bound = None
        for seed in range(3):
            problem = problem_factory(seed=seed, n_clusters=5, objective=objective)
            lp_bound = Solver.for_method("lp").solve(problem).value
            warm = Solver.for_method(
                "lprg-it", warm_start=True, lp_backend="session"
            ).solve(problem)
            legacy = Solver.for_method("lprg-it", lp_backend="scipy").solve(problem)
            assert problem.check(warm.allocation).ok
            assert warm.value <= lp_bound + 1e-6
            assert legacy.value <= lp_bound + 1e-6
            if legacy.value > 0:
                assert warm.value >= 0.85 * legacy.value

    @pytest.mark.parametrize("objective", ["maxmin", "sum"])
    def test_all_allocating_heuristics_stay_valid(self, problem_factory, objective):
        """Every registered allocation-producing method keeps its
        contract with the session subsystem in the loop."""
        problem = problem_factory(seed=4, n_clusters=5, objective=objective)
        lp_bound = Solver.for_method("lp").solve(problem).value
        for name in sorted(registry()):
            if name == "lp":
                continue
            result = Solver.for_method(name).solve(problem, rng=0)
            assert problem.check(result.allocation).ok, name
            assert result.value <= lp_bound + 1e-5, name


class TestAutoBackendPolicy:
    """The default LP backend is the warm session at every size."""

    def test_small_instances_prefer_session(self, problem_factory):
        problem = problem_factory(seed=0, n_clusters=4)
        result = Solver.for_method("lprr").solve(problem, rng=0)
        assert result.meta["lp_backend"] == "session"
        assert result.meta["lp_stats"]["n_warm"] > 0

    def test_large_instances_stay_on_session(self, problem_factory):
        """K=12 is past the size where a dense engine would lose to a
        cold HiGHS call; the revised engine keeps the session path."""
        problem = problem_factory(seed=0, n_clusters=12)
        result = Solver.for_method("lprr").solve(problem, rng=0)
        assert result.meta["lp_backend"] == "session"
        assert result.meta["lp_stats"]["n_warm"] > 0


class TestCOOBuilderSetMany:
    def test_set_many_equals_repeated_set(self):
        rows = [0, 2, 1, 2]
        cols = [1, 0, 1, 2]
        vals = [1.0, -3.0, 2.5, 4.0]
        a = _COOBuilder()
        for _ in range(3):
            a.new_row(1.0, "r")
        for r, c, v in zip(rows, cols, vals):
            a.set(r, c, v)
        b = _COOBuilder()
        for _ in range(3):
            b.new_row(1.0, "r")
        b.set_many(rows, cols, vals)
        A, _ = a.to_csr(3)
        B, _ = b.to_csr(3)
        assert np.array_equal(A.toarray(), B.toarray())

    def test_set_many_broadcasts_scalar(self):
        b = _COOBuilder()
        b.new_row(0.0, "r")
        b.set_many([0, 0], [0, 2], 1.0)
        A, _ = b.to_csr(3)
        assert np.array_equal(A.toarray(), [[1.0, 0.0, 1.0]])

    def test_set_many_shape_mismatch(self):
        b = _COOBuilder()
        b.new_row(0.0, "r")
        with pytest.raises(ValueError):
            b.set_many([0, 1], [0], 1.0)

    def test_row_id_lookup(self, problem_factory):
        instance = build_lp(problem_factory(seed=0, n_clusters=4))
        assert instance.row_id("compute[0]") == 0
        assert instance.has_row("local[1]")
        assert not instance.has_row("nonsense[0]")
        assert instance.row_labels[instance.row_id("local[2]")] == "local[2]"


def _with_duplicate_rows(instance: LPInstance, k: int = 3) -> LPInstance:
    """A copy of ``instance`` with its first ``k`` rows appended again —
    an exactly rank-deficient row set (every duplicated row is redundant
    and the optimal vertex is degenerate)."""
    A = sp.vstack([instance.A_ub, instance.A_ub[:k]], format="csr")
    b = np.concatenate([instance.b_ub, instance.b_ub[:k]])
    labels = list(instance.row_labels) + [f"dup[{i}]" for i in range(k)]
    return LPInstance(
        obj=instance.obj.copy(),
        A_ub=A,
        b_ub=b,
        lb=instance.lb.copy(),
        ub=instance.ub.copy(),
        index=instance.index,
        row_labels=labels,
    )


class TestDegenerateAndRedundantLPs:
    """Session solves of degenerate programs must agree with cold HiGHS.

    Redundant rows make every basis that touches them singular-adjacent
    and every vertex degenerate — exactly the regime where absolute
    tolerances and a naive basis carry bite.
    """

    def test_redundant_rows_match_cold_highs(self, problem_factory):
        problem = problem_factory(seed=1, n_clusters=5)
        template = build_lp(problem)
        session = LPSession(_with_duplicate_rows(template))
        got = session.solve()
        ref_inst = _with_duplicate_rows(template)
        ref = solve_lp_scipy(ref_inst)
        assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)
        # Warm re-solve on the redundant program after pinning a beta.
        var = template.index.n_alpha
        value = _floor_fix(got.x[var])
        session.fix_variable(var, value)
        got2 = session.solve()
        ref_inst.lb[var] = ref_inst.ub[var] = value
        ref2 = solve_lp_scipy(ref_inst)
        assert got2.value == pytest.approx(ref2.value, rel=1e-6, abs=1e-6)
        assert session.stats.n_warm >= 1

    def test_degenerate_zero_capacity_rows(self, problem_factory):
        """Zeroing local-traffic rows forces a degenerate vertex (many
        constraints tight at 0); session must still match cold HiGHS."""
        problem = problem_factory(seed=2, n_clusters=5)
        instance = build_lp(problem)
        K = problem.platform.n_clusters
        b = instance.b_ub.copy()
        for k in range(K):
            b[instance.row_id(f"local[{k}]")] = 0.0
        session = LPSession(build_lp(problem))
        session.solve()
        np.copyto(session.instance.b_ub, b)
        got = session.solve()  # warm, on the degenerate program
        ref_inst = build_lp(problem)
        np.copyto(ref_inst.b_ub, b)
        ref = solve_lp_scipy(ref_inst)
        assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)


class TestWarmStartAfterBoundFlip:
    def test_tightened_upper_bound_dual_repair(self, problem_factory):
        """Cutting a basic variable's upper bound below its optimal value
        leaves the carried basis primal-infeasible; the dual simplex must
        repair it and land on the cold HiGHS optimum — deterministically
        (an identically-driven second session reproduces x bit-for-bit)."""
        problem = problem_factory(seed=3, n_clusters=5)
        instance = build_lp(problem)

        def drive():
            session = LPSession(build_lp(problem))
            first = session.solve()
            n_alpha, n_beta = instance.index.n_alpha, instance.index.n_beta
            betas = first.x[n_alpha : n_alpha + n_beta]
            var = n_alpha + int(np.argmax(betas))
            assert first.x[var] > 0.5  # something to cut
            new_ub = float(first.x[var]) / 2.0
            session.instance.ub[var] = new_ub
            return session, session.solve(), var, new_ub

        session, got, var, new_ub = drive()
        assert session.stats.n_warm >= 1
        ref_inst = build_lp(problem)
        ref_inst.ub[var] = new_ub
        ref = solve_lp_scipy(ref_inst)
        assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)
        _, again, _, _ = drive()
        assert np.array_equal(got.x, again.x)

    def test_bound_flip_lower_raised(self, problem_factory):
        """Raising a lower bound above the optimum (forcing a beta up)
        flips the active bound; warm re-solve must match cold HiGHS."""
        problem = problem_factory(seed=4, n_clusters=5)
        instance = build_lp(problem)
        session = LPSession(build_lp(problem))
        first = session.solve()
        n_alpha = instance.index.n_alpha
        # Force the first beta at least one unit above its LP value,
        # staying within its (finite) route-capacity upper bound.
        var = n_alpha
        target = float(np.floor(first.x[var]) + 1.0)
        if target > instance.ub[var]:
            pytest.skip("route already saturated on this seed")
        session.instance.lb[var] = target
        got = session.solve()
        ref_inst = build_lp(problem)
        ref_inst.lb[var] = target
        ref = solve_lp_scipy(ref_inst)
        assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)

    def test_explicit_token_while_carrying_another_basis(self, problem_factory):
        """Re-solving from an explicit token that is not the session's
        last basis, after a bound tightening, while the session carries
        the LU of another basis (the online read fallback's shape), must
        land on the cold HiGHS optimum of the same box —
        deterministically (an identically-driven second session
        reproduces x bit-for-bit)."""
        problem = problem_factory(seed=1, n_clusters=5)

        def drive():
            session = LPSession(build_lp(problem))
            first = session.solve()
            token = session.last_basis  # basis A
            index = session.instance.index
            betas = first.x[index.n_alpha : index.n_alpha + index.n_beta]
            fractional = np.nonzero(betas - np.floor(betas) > 1e-6)[0]
            assert fractional.size >= 2  # two betas to tighten
            cuts = [
                (index.n_alpha + int(i), float(np.floor(betas[i])))
                for i in fractional[:2]
            ]
            session.instance.ub[cuts[0][0]] = cuts[0][1]
            session.solve()  # the session now carries basis B and its LU
            assert not np.array_equal(
                np.sort(session.last_basis.columns), np.sort(token.columns)
            )
            session.instance.ub[cuts[1][0]] = cuts[1][1]
            return session.solve(warm_basis=token), cuts

        got, cuts = drive()
        ref_inst = build_lp(problem)
        for var, value in cuts:
            ref_inst.ub[var] = value
        ref = solve_lp_scipy(ref_inst)
        assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)
        again, _ = drive()
        assert np.array_equal(got.x, again.x)


class TestDualResolveEquivalence:
    def test_rhs_tightening_uses_dual_steps(self, problem_factory):
        """The online drift pattern — tighten one b_ub row, re-solve warm
        — must take dual pivots (not a cold restart) and agree with a
        fresh cold HiGHS solve.

        Note: a *uniform* ``b_ub * 0.8`` shrink keeps the carried basis
        primal-feasible (basic values just scale), so only an uneven cut
        exercises the dual repair.
        """
        problem = problem_factory(seed=5, n_clusters=5)
        instance = build_lp(problem)
        session = LPSession(build_lp(problem))
        session.solve()
        shrunk = instance.b_ub.copy()
        shrunk[instance.row_id("compute[0]")] *= 0.25
        np.copyto(session.instance.b_ub, shrunk)
        got = session.solve()
        assert session.stats.n_warm == 1
        assert session.stats.dual_steps > 0
        ref_inst = build_lp(problem)
        np.copyto(ref_inst.b_ub, shrunk)
        ref = solve_lp_scipy(ref_inst)
        assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)

    def test_uniform_shrink_stays_primal(self, problem_factory):
        """The complementary case: a uniform RHS scale keeps the carried
        basis primal-feasible — warm re-solve without any dual pivots."""
        problem = problem_factory(seed=5, n_clusters=5)
        instance = build_lp(problem)
        session = LPSession(build_lp(problem))
        session.solve()
        np.copyto(session.instance.b_ub, instance.b_ub * 0.8)
        got = session.solve()
        assert session.stats.n_warm == 1
        assert session.stats.dual_steps == 0
        ref_inst = build_lp(problem)
        np.copyto(ref_inst.b_ub, instance.b_ub * 0.8)
        ref = solve_lp_scipy(ref_inst)
        assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)


class TestMutationApi:
    """The sparse in-place mutation surface added for online
    re-scheduling: pin/release with first-pin-wins snapshots, sparse
    RHS/bound edits, and the ``canon`` vertex-canonicalization knob."""

    def test_release_restores_the_pre_pin_box(self, problem_factory):
        problem = problem_factory(seed=3, n_clusters=4)
        session = LPSession(build_lp(problem))
        baseline = session.solve()
        var = session.instance.index.n_alpha  # first beta
        lo, hi = session.instance.lb[var], session.instance.ub[var]
        session.fix_variable(var, 0.0)
        pinned = session.solve()
        assert pinned.x[var] == 0.0
        assert session.pinned_variables == (var,)
        session.release_variable(var)
        assert session.pinned_variables == ()
        assert session.instance.lb[var] == lo
        assert session.instance.ub[var] == hi
        released = session.solve()
        assert released.value == pytest.approx(baseline.value, rel=1e-9)

    def test_repinning_keeps_the_first_snapshot(self, problem_factory):
        problem = problem_factory(seed=3, n_clusters=4)
        session = LPSession(build_lp(problem))
        var = session.instance.index.n_alpha
        lo, hi = session.instance.lb[var], session.instance.ub[var]
        session.fix_variable(var, 0.0)
        session.fix_variable(var, 1.0)  # move the pin; snapshot stays
        assert session.instance.lb[var] == session.instance.ub[var] == 1.0
        session.release_variable(var)
        assert session.instance.lb[var] == lo
        assert session.instance.ub[var] == hi

    def test_release_of_unpinned_variable_raises(self, problem_factory):
        session = LPSession(build_lp(problem_factory(seed=0, n_clusters=3)))
        with pytest.raises(ValueError, match="not pinned"):
            session.release_variable(0)
        session.fix_variable(0, 0.0)
        session.release_variable(0)
        with pytest.raises(ValueError, match="not pinned"):
            session.release_variable(0)  # double release surfaces too

    def test_set_rhs_matches_cold_solve_of_edited_program(self, problem_factory):
        problem = problem_factory(seed=1, n_clusters=4)
        session = LPSession(build_lp(problem))
        session.solve()
        session.set_rhs([0, 2], [session.instance.b_ub[0] * 0.5,
                                 session.instance.b_ub[2] * 0.25])
        got = session.solve()
        ref_inst = build_lp(problem)
        ref_inst.b_ub[0] *= 0.5
        ref_inst.b_ub[2] *= 0.25
        ref = solve_lp_scipy(ref_inst)
        assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)

    def test_set_bounds_matches_cold_solve_of_edited_program(self, problem_factory):
        problem = problem_factory(seed=1, n_clusters=4)
        session = LPSession(build_lp(problem))
        solution = session.solve()
        var = int(np.argmax(solution.x))
        cap = solution.x[var] / 2.0
        session.set_bounds([var], ub=cap)
        got = session.solve()
        assert got.x[var] <= cap + 1e-9
        ref_inst = build_lp(problem)
        ref_inst.ub[var] = cap
        ref = solve_lp_scipy(ref_inst)
        assert got.value == pytest.approx(ref.value, rel=1e-6, abs=1e-6)

    def test_canon_knob_validated_and_value_preserving(self, problem_factory):
        problem = problem_factory(seed=5, n_clusters=4)
        with pytest.raises(ValueError, match="canon"):
            LPSession(build_lp(problem), canon="bogus")
        default = LPSession(build_lp(problem)).solve()
        full = LPSession(build_lp(problem), canon="all").solve()
        # The secondary objective only picks a vertex on the optimal
        # face; the primary value is untouched.
        assert full.value == pytest.approx(default.value, rel=1e-9)

    def test_canon_all_is_deterministic(self, problem_factory):
        problem = problem_factory(seed=5, n_clusters=4)
        first = LPSession(build_lp(problem), canon="all").solve()
        second = LPSession(build_lp(problem), canon="all").solve()
        assert first.value == second.value
        assert np.array_equal(first.x, second.x)

    def test_canon_all_weights_separate_equal_index_sums(self):
        """Golden-ratio weights tie any two column sets of equal index
        sum (up to an integer); the ``all_columns`` stream must not. The
        sets are two swaps between optimal vertices of one online
        program (line platform, K=4, MAXMIN, app 0 departed, node 0
        failed) whose secondary objectives tied to 1e-13."""
        ub = np.full(40, np.inf)
        golden = 1.0 + (np.arange(40) * _PHI) % 1.0
        weights = _canon_weights(ub, all_columns=True)
        assert _canon_weights(ub[:30], all_columns=True).tolist() == (
            weights[:30].tolist()
        )
        for left, right in (([5, 11, 14], [6, 9, 15]), ([20, 27], [23, 24])):
            tie = golden[left].sum() - golden[right].sum()
            assert abs(tie - round(tie)) < 1e-12
            assert abs(weights[left].sum() - weights[right].sum()) > 1e-3


class TestBasisRead:
    """``LPSession.read``: the point of a basis token without pivoting."""

    def test_read_of_last_basis_reproduces_the_solve_bitwise(self, problem_factory):
        problem = problem_factory(seed=2, n_clusters=5)
        session = LPSession(build_lp(problem), canon="all")
        solution = session.solve()
        basis = session.last_basis
        stats = session.stats.as_dict()
        read = session.read(basis)
        assert np.array_equal(read.x, solution.x)
        assert read.value == solution.value
        # a read is not a solve: no stats, same carried token
        assert session.stats.as_dict() == stats
        assert session.last_basis is basis

    def test_read_rejects_misfit_and_infeasible_tokens(self, problem_factory):
        problem = problem_factory(seed=2, n_clusters=4)
        inst = build_lp(problem)
        session = LPSession(inst)
        x = session.solve().x
        basis = session.last_basis
        assert session.read(Basis(basis.columns[:-1], basis.at_upper)) is None
        assert session.read(Basis(basis.columns, basis.at_upper[:-1])) is None
        # cut a row below its use: the basis's own slack goes negative
        n = inst.obj.shape[0]
        slack = inst.b_ub - inst.A_ub @ x
        row = next(
            int(col - n) for col in basis.columns
            if col >= n and slack[col - n] > 1e-6
        )
        session.set_rhs([row], inst.b_ub[row] - 2.0 * slack[row])
        assert session.read(basis) is None

    @staticmethod
    def _malformed_tokens(basis: Basis, n_cols: int) -> dict:
        """Tokens whose columns are not ``m`` distinct columns of
        ``[A | I]``: one column past the end, a negative column (numpy
        would wrap it), a repeated column, and the wrong count."""
        def edited(position, value):
            columns = basis.columns.copy()
            columns[position] = value
            return Basis(columns, basis.at_upper)

        return {
            "past the end": edited(0, n_cols),
            "far past the end": edited(-1, 10 * n_cols),
            "negative": edited(0, -1),
            "repeated": edited(0, basis.columns[1]),
            "too few": Basis(basis.columns[:-1], basis.at_upper),
            "too many": Basis(
                np.append(basis.columns, basis.columns[0]), basis.at_upper
            ),
        }

    def test_read_of_a_malformed_token_is_none(self, problem_factory):
        session = LPSession(build_lp(problem_factory(seed=2, n_clusters=4)))
        session.solve()
        m, n = session.instance.A_ub.shape
        for kind, token in self._malformed_tokens(
            session.last_basis, n + m
        ).items():
            assert session.read(token) is None, kind

    def test_solve_from_a_malformed_token_starts_cold_once(self, problem_factory):
        inst = build_lp(problem_factory(seed=2, n_clusters=4))
        session = LPSession(inst)
        reference = session.solve(warm_basis=None)
        m, n = inst.A_ub.shape
        for kind, token in self._malformed_tokens(
            session.last_basis, n + m
        ).items():
            before = session.stats.as_dict()
            solution = session.solve(warm_basis=token)
            after = session.stats.as_dict()
            assert after["n_solves"] == before["n_solves"] + 1, kind
            assert after["n_cold"] == before["n_cold"] + 1, kind
            assert after["n_warm"] == before["n_warm"], kind
            assert after["n_fallback"] == 0, kind
            np.testing.assert_array_equal(solution.x, reference.x)

    def test_support_token_reads_its_point_back(self, problem_factory):
        """The token of a session optimum, and of the HiGHS optimum of
        the same program (another vertex of the optimal face, in
        general), is a basis whose point is that optimum."""
        problem = problem_factory(seed=2, n_clusters=5)
        session = LPSession(build_lp(problem))
        solution = session.solve()
        highs = solve_lp_scipy(build_lp(problem))
        for x in (solution.x, highs.x):
            token = session.support_token(x)
            assert token.columns.shape == (session.instance.b_ub.shape[0],)
            read = session.read(token)
            assert read.value == pytest.approx(solution.value, rel=1e-9)
            np.testing.assert_allclose(read.x, x, rtol=0, atol=1e-7)

    def test_support_token_of_a_non_vertex_is_none(self, problem_factory):
        problem = problem_factory(seed=2, n_clusters=5)
        session = LPSession(build_lp(problem))
        x = session.solve().x
        # halfway to the origin every positive column is strictly
        # between its bounds, and the capacity rows are no longer tight
        assert session.support_token(0.5 * x) is None


def _fig7_problem(k: int, i: int) -> SteadyStateProblem:
    """A platform drawn the way Figure 7 draws one: a Table 1 grid point
    with connectivity 0.6-0.8."""
    grid = dict(PAPER_GRID, connectivity=(0.6, 0.7, 0.8))
    (setting,) = sample_settings(
        1, rng=np.random.default_rng(2005 + i), k_values=[k], grid=grid
    )
    rng = np.random.default_rng(i)
    platform = generate_platform(spec_for(setting), rng=rng)
    return SteadyStateProblem(
        platform, payoffs_for(setting, DEFAULT_SCENARIO, rng), objective="maxmin"
    )


def _traced_run(problem, method, warm_start):
    """One LPRR run; returns ``(result, betas of every session solve,
    number of HiGHS calls made by the heuristic)``."""
    betas, highs = [], []
    solve_real = LPSession.solve

    def solve_traced(session, *args, **kwargs):
        solution = solve_real(session, *args, **kwargs)
        betas.append(solution.beta.copy())
        return solution

    def highs_counted(instance):
        highs.append(instance)
        return solve_lp_scipy(instance)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LPSession, "solve", solve_traced)
        mp.setattr(lprr_mod, "solve_lp_scipy", highs_counted)
        result = get_heuristic(method).run(
            problem, rng=problem.n_clusters, warm_start=warm_start
        )
    return result, betas, len(highs)


@pytest.fixture(
    scope="module",
    params=[(8, "lprr"), (8, "lprr-eq"), (12, "lprr"), (12, "lprr-eq")],
    ids=lambda p: f"K{p[0]}-{p[1]}",
)
def seeded_chain(request):
    """A warm (seeded) and a cold LPRR chain on one Figure 7 platform."""
    k, method = request.param
    problem = _fig7_problem(k, 0)
    return _traced_run(problem, method, True), _traced_run(problem, method, False)


class TestSeededPinChain:
    """The warm LPRR chain opens from the support token of the
    relaxation's HiGHS optimum instead of a cold solve."""

    def test_only_the_final_solve_is_cold(self, seeded_chain):
        (warm, _, warm_highs), (cold, _, cold_highs) = seeded_chain
        stats = warm.meta["lp_stats"]
        assert stats["n_cold"] == 1
        assert stats["n_warm"] == stats["n_solves"] - 1
        assert stats["n_fallback"] == 0
        # n_lp_solves counts chain solves only, not the HiGHS seed
        assert warm.n_lp_solves == stats["n_solves"]
        assert warm_highs == 1
        # the cold reference stays cold and never calls HiGHS
        assert cold.meta["lp_stats"]["n_warm"] == 0
        assert cold_highs == 0

    def test_allocation_is_the_cold_chains_byte_for_byte(self, seeded_chain):
        (warm, _, _), (cold, _, _) = seeded_chain
        assert warm.allocation.alpha.tobytes() == cold.allocation.alpha.tobytes()
        assert warm.allocation.beta.tobytes() == cold.allocation.beta.tobytes()
        assert warm.value == cold.value
        assert warm.n_lp_solves == cold.n_lp_solves

    def test_betas_match_the_cold_chain_at_every_step(self, seeded_chain):
        """What the seed relies on: rounding reads only betas, and the
        ``"betas"`` canonicalization pins them whatever basis a solve
        starts from (the alphas of warm and cold steps may differ)."""
        (_, warm_betas, _), (_, cold_betas, _) = seeded_chain
        assert len(warm_betas) == len(cold_betas)
        for step, (warm, cold) in enumerate(zip(warm_betas, cold_betas)):
            gap = np.max(np.abs(warm - cold), initial=0.0)
            assert gap <= 1e-12, f"step {step}: betas differ by {gap:.3g}"

    def test_seed_after_the_lp_bound_is_a_memo_hit(self):
        problem = _fig7_problem(8, 1)
        cache = LPBuildCache()
        with use_build_cache(cache):
            get_heuristic("lp").run(problem)
            hits = cache.solution_hits
            result = get_heuristic("lprr").run(problem, rng=0)
        assert cache.solution_hits == hits + 1
        assert result.meta["lp_stats"]["n_cold"] == 1

    def test_highs_failure_falls_back_to_a_cold_first_solve(self, monkeypatch):
        problem = _fig7_problem(8, 1)
        seeded = get_heuristic("lprr").run(problem, rng=0)

        def failing(instance):
            raise SolverError("HiGHS failed")

        monkeypatch.setattr(lprr_mod, "solve_lp_scipy", failing)
        unseeded = get_heuristic("lprr").run(problem, rng=0)
        assert unseeded.meta["lp_stats"]["n_cold"] == 2
        assert seeded.meta["lp_stats"]["n_cold"] == 1
        assert unseeded.allocation.alpha.tobytes() == seeded.allocation.alpha.tobytes()
        assert unseeded.allocation.beta.tobytes() == seeded.allocation.beta.tobytes()
        assert unseeded.value == seeded.value
