"""Unit tests for the revised-simplex core (`repro.lp.revised`) and its
LU-factorized basis (`repro.lp.basis_lu`).

The session-level integration (warm chains, bitwise warm/cold identity,
heuristic wiring) lives in test_lp_session.py; this file exercises the
solver and factorization directly.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.sparse.linalg import splu

from repro import build_scenario
from repro.heuristics.base import get_heuristic
from repro.lp import basis_lu
from repro.lp.basis_lu import (
    ExtendedMatrix, LUBasis, SingularBasisError, valid_basis,
)
from repro.lp.builder import build_lp
from repro.lp.revised import (
    _AT_LOWER, _AT_UPPER, _BASIC, _Program, revised_solve,
)
from repro.lp.scipy_backend import solve_lp_scipy
from repro.lp.session import LPSession
from repro.util.errors import SolverError


class TestLUBasis:
    def _random_system(self, seed, m=8, n=14):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, n))
        basis = rng.permutation(n + m)[:m]
        return A, np.sort(basis)

    @pytest.mark.parametrize("seed", range(4))
    def test_ftran_btran_match_dense(self, seed):
        A, basis = self._random_system(seed)
        m = A.shape[0]
        lu = LUBasis(A, basis)
        B = np.column_stack(
            [A[:, j] if j < A.shape[1] else np.eye(m)[:, j - A.shape[1]]
             for j in basis]
        )
        v = np.random.default_rng(seed + 100).normal(size=m)
        np.testing.assert_allclose(lu.ftran(v), np.linalg.solve(B, v),
                                   rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(lu.btran(v), np.linalg.solve(B.T, v),
                                   rtol=1e-9, atol=1e-11)

    def test_eta_updates_track_column_replacements(self):
        A, basis = self._random_system(3)
        m, n = A.shape
        lu = LUBasis(A, basis, refactor_every=64)
        rng = np.random.default_rng(7)
        for _ in range(10):
            r = int(rng.integers(m))
            candidates = np.setdiff1d(np.arange(n + m), lu.basis)
            j = int(rng.choice(candidates))
            w = lu.ftran(lu.column(j))
            if abs(w[r]) < 1e-6:
                continue
            lu.replace_column(r, j, w)
            B = np.column_stack(
                [A[:, k] if k < n else np.eye(m)[:, k - n] for k in lu.basis]
            )
            v = rng.normal(size=m)
            np.testing.assert_allclose(lu.ftran(v), np.linalg.solve(B, v),
                                       rtol=1e-8, atol=1e-10)
        assert lu.n_updates == lu.updates_since_refactor + 0  # file grew
        lu.refactorize()
        assert lu.updates_since_refactor == 0

    def test_eta_loops_match_the_reference_arithmetic(self):
        """FTRAN and BTRAN through an eta file return bitwise what the
        textbook loops return: the pivot read from the eta column on
        every use, the dot product through the ``@`` operator."""
        A, basis = self._random_system(3)
        m, n = A.shape
        lu = LUBasis(A, basis, refactor_every=64)
        rng = np.random.default_rng(7)
        etas = []
        while len(etas) < 6:
            r = int(rng.integers(m))
            j = int(rng.choice(np.setdiff1d(np.arange(n + m), lu.basis)))
            w = lu.ftran(lu.column(j))
            if abs(w[r]) < 1e-3:
                continue
            lu.replace_column(r, j, w)
            etas.append((r, w.copy()))
            assert lu.updates_since_refactor == len(etas)

        def ftran(v):
            x = lu._lu.solve(v)
            for r, w in etas:
                t = x[r] / w[r]
                if t != 0.0:
                    x -= w * t
                x[r] = t
            return x

        def btran(v):
            y = np.array(v, dtype=float, copy=True)
            for r, w in reversed(etas):
                yr = y[r]
                y[r] = (yr - (w @ y - w[r] * yr)) / w[r]
            return lu._lu.solve(y, trans="T")

        for _ in range(20):
            v = rng.normal(size=m) * 10.0 ** rng.uniform(-6, 6, m)
            v[rng.random(m) < 0.3] = 0.0
            assert lu.ftran(v).tobytes() == ftran(v).tobytes()
            assert lu.btran(v).tobytes() == btran(v).tobytes()

    def test_refactor_every_bounds_eta_file(self):
        A, basis = self._random_system(5)
        m, n = A.shape
        lu = LUBasis(A, basis, refactor_every=3)
        rng = np.random.default_rng(11)
        for _ in range(12):
            r = int(rng.integers(m))
            candidates = np.setdiff1d(np.arange(n + m), lu.basis)
            j = int(rng.choice(candidates))
            w = lu.ftran(lu.column(j))
            if abs(w[r]) < 1e-6:
                continue
            lu.replace_column(r, j, w)
            assert lu.updates_since_refactor <= 3

    def test_singular_basis_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank-1 structural part
        with pytest.raises(SingularBasisError):
            LUBasis(A, np.array([0, 1]))

    def test_matches_requires_same_matrix_object_and_basis(self):
        A, basis = self._random_system(0)
        lu = LUBasis(A, basis)
        assert lu.matches(A, basis)
        assert not lu.matches(A.copy(), basis)
        other = basis.copy()
        other[0] = [c for c in range(A.shape[1]) if c not in set(basis)][0]
        assert not lu.matches(A, other)


class TestRevisedBasics:
    def test_textbook_max(self):
        res = revised_solve([3.0, 5.0], [[1, 0], [0, 2], [3, 2]],
                            [4, 12, 18])
        assert res.ok
        assert res.value == pytest.approx(36.0)
        np.testing.assert_allclose(res.x, [2.0, 6.0])

    def test_native_upper_bounds_no_extra_rows(self):
        # maximize x + y, x + y <= 10, x <= 3, y <= 2 (as *bounds*):
        # the revised engine keeps m = 1.
        res = revised_solve([1.0, 1.0], [[1.0, 1.0]], [10.0],
                            bounds=[(0, 3), (0, 2)])
        assert res.ok
        assert res.value == pytest.approx(5.0)
        assert res.basis is not None and res.basis.shape == (1,)

    def test_bound_flip_path(self):
        # Optimum has both variables at their upper bounds while the
        # slack stays basic: reaching it needs bound flips, not pivots.
        res = revised_solve([1.0, 1.0], [[1.0, 1.0]], [100.0],
                            bounds=[(0, 1), (0, 1)])
        assert res.ok
        assert res.value == pytest.approx(2.0)
        assert res.at_upper[:2].all()

    def test_unbounded_detected(self):
        res = revised_solve([1.0], np.zeros((1, 1)), [1.0])
        assert res.status == "unbounded"

    def test_infeasible_detected(self):
        res = revised_solve([1.0], [[-1.0], [1.0]], [-5.0, 2.0])
        assert res.status == "infeasible"

    def test_phase1_dual_cold_start(self):
        # x >= 3 via -x <= -3: the all-slack basis is primal-infeasible,
        # so the cold start must route through the dual phase 1.
        res = revised_solve([-1.0], [[-1.0]], [-3.0], bounds=[(0, 10)])
        assert res.ok
        assert res.x[0] == pytest.approx(3.0)
        assert res.dual_steps > 0

    def test_crossed_bounds_infeasible(self):
        res = revised_solve([1.0], [[1.0]], [1.0], bounds=[(2.0, 1.0)])
        assert res.status == "infeasible"

    def test_infinite_lower_bound_rejected(self):
        with pytest.raises(SolverError):
            revised_solve([1.0], [[1.0]], [1.0], bounds=[(-np.inf, 1.0)])

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            revised_solve([1.0, 2.0], [[1.0]], [1.0])


class TestRevisedAgainstHiGHSRandom:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_bounded_lps(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        A = rng.normal(size=(m, n))
        b = rng.uniform(-0.5, 3.0, size=m)
        c = rng.normal(size=n)
        lb = np.zeros(n)
        ub = np.where(rng.uniform(size=n) < 0.5,
                      rng.uniform(0.5, 4.0, size=n), np.inf)
        res = revised_solve(c, A, b, (lb, ub))
        from scipy.optimize import linprog

        ref = linprog(-c, A_ub=A, b_ub=b,
                      bounds=list(zip(lb, np.where(np.isfinite(ub), ub, None))),
                      method="highs")
        if ref.status in (2, 3):
            # HiGHS presolve reports some unbounded problems as status
            # 2 ("infeasible"); either non-optimal verdict is fine as
            # long as we also declare the problem unsolvable.
            assert res.status in ("infeasible", "unbounded")
        else:
            assert res.ok
            assert res.value == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)


class TestRevisedWarmStart:
    def _lp(self):
        c = np.array([3.0, 2.0, 4.0])
        A = np.array([[1.0, 1.0, 2.0], [2.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        b = np.array([10.0, 8.0, 6.0])
        bounds = (np.zeros(3), np.array([6.0, 6.0, 6.0]))
        return c, A, b, bounds

    def test_resolve_after_rhs_tightening_uses_dual_repair(self):
        c, A, b, bounds = self._lp()
        first = revised_solve(c, A, b, bounds)
        assert first.ok
        tightened = b * 0.8
        warm = revised_solve(c, A, tightened, bounds,
                             initial_basis=first.basis,
                             initial_at_upper=first.at_upper)
        cold = revised_solve(c, A, tightened, bounds)
        assert warm.ok and cold.ok
        assert warm.warm_started
        assert warm.value == pytest.approx(cold.value, rel=1e-9)
        assert warm.iterations <= cold.iterations

    def test_fixed_basic_variable_is_ejected_exactly(self):
        c, A, b, bounds = self._lp()
        first = revised_solve(c, A, b, bounds)
        assert first.ok
        # Pin a variable that is basic in the first optimum.
        basic_structural = [j for j in first.basis if j < 3]
        var = int(basic_structural[0])
        lb, ub = bounds[0].copy(), bounds[1].copy()
        pinned = float(np.floor(first.x[var]))
        lb[var] = ub[var] = pinned
        warm = revised_solve(c, A, b, (lb, ub),
                             initial_basis=first.basis,
                             initial_at_upper=first.at_upper)
        assert warm.ok
        assert warm.warm_started
        assert warm.x[var] == pinned  # bit-exact, not approximate
        assert var not in set(int(j) for j in warm.basis)

    def test_initial_lu_reused_when_basis_unchanged(self):
        c, A, b, bounds = self._lp()
        first = revised_solve(c, A, b, bounds)
        assert first.ok and first.lu is not None
        again = revised_solve(c, A, b, bounds,
                              initial_basis=first.basis,
                              initial_at_upper=first.at_upper,
                              initial_lu=first.lu)
        assert again.ok
        # Zero pivots needed, so the adopted factorization was never
        # redone: the result carries the very same LUBasis object.
        assert again.lu is first.lu
        assert again.iterations == 0

    def test_stale_lu_is_ignored(self):
        c, A, b, bounds = self._lp()
        first = revised_solve(c, A, b, bounds)
        other = revised_solve(c, A.copy(), b, bounds)
        assert first.ok and other.ok
        # LU over a different matrix object never matches.
        res = revised_solve(c, A, b, bounds,
                            initial_basis=first.basis,
                            initial_at_upper=first.at_upper,
                            initial_lu=other.lu)
        assert res.ok
        assert res.value == pytest.approx(first.value, rel=1e-12)

    def test_garbage_basis_falls_back_cold(self):
        c, A, b, bounds = self._lp()
        res = revised_solve(c, A, b, bounds,
                            initial_basis=np.array([0, 0, 0]))
        assert res.ok
        assert not res.warm_started


class TestCanonicalVertex:
    def test_degenerate_face_reported_identically(self):
        # maximize x + y over x + y <= 1 (a whole optimal facet), with
        # a generic secondary objective: warm and cold runs must report
        # the same vertex bitwise.
        c = np.array([1.0, 1.0])
        A = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        bounds = (np.zeros(2), np.array([1.0, 1.0]))
        weights = np.array([1.3, 1.7])
        cold = revised_solve(c, A, b, bounds, canon_weights=weights)
        assert cold.ok
        # Start a second solve from a *different* vertex of the facet:
        # basis = {y} instead of whatever cold chose.
        warm = revised_solve(c, A, b, bounds,
                             initial_basis=np.array([1]),
                             canon_weights=weights)
        assert warm.ok
        assert np.array_equal(cold.x, warm.x)
        # The canonical vertex maximises the secondary weights: y wins.
        np.testing.assert_allclose(cold.x, [0.0, 1.0])


class TestOnPaperInstances:
    @pytest.mark.parametrize("objective", ["sum", "maxmin"])
    def test_matches_highs_on_program7(self, problem_factory, objective):
        problem = problem_factory(seed=0, n_clusters=5, objective=objective)
        inst = build_lp(problem)
        ref = solve_lp_scipy(inst)
        res = revised_solve(inst.obj, inst.A_ub.toarray(), inst.b_ub,
                            (inst.lb, inst.ub))
        assert res.ok
        assert res.value == pytest.approx(ref.value, rel=1e-7, abs=1e-7)

    def test_warm_chain_matches_highs(self, problem_factory):
        """An LPRR-style chain of beta pins, each re-solve warm-started
        from the previous basis, must track fresh HiGHS throughout."""
        problem = problem_factory(seed=1, n_clusters=5)
        inst = build_lp(problem)
        A = inst.A_ub.toarray()
        lb, ub = inst.lb.copy(), inst.ub.copy()
        res = revised_solve(inst.obj, A, inst.b_ub, (lb, ub))
        assert res.ok
        n_alpha = inst.index.n_alpha
        for var in range(n_alpha, min(n_alpha + 6, inst.n_vars)):
            lb[var] = ub[var] = float(np.floor(res.x[var]))
            res = revised_solve(inst.obj, A, inst.b_ub, (lb, ub),
                                initial_basis=res.basis,
                                initial_at_upper=res.at_upper,
                                initial_lu=res.lu)
            assert res.ok
            assert res.warm_started
            np.copyto(inst.lb, lb)
            np.copyto(inst.ub, ub)
            ref = solve_lp_scipy(inst)
            assert res.value == pytest.approx(ref.value, rel=1e-7, abs=1e-7)


class TestSparseKernelEdgeCases:
    """Cases the sparse basis factorization must handle exactly as the
    dense one did."""

    @pytest.mark.parametrize("sparse", [False, True])
    def test_near_singular_basis_raises(self, sparse):
        A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        with pytest.raises(SingularBasisError):
            LUBasis(sp.csr_matrix(A) if sparse else A, np.array([0, 1]))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_well_separated_basis_factorizes(self, sparse):
        A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
        lu = LUBasis(sp.csr_matrix(A) if sparse else A, np.array([0, 1]))
        v = np.array([2.0, 2.0 + 1e-9])
        np.testing.assert_allclose(lu.ftran(v), [1.0, 1.0], rtol=1e-6)

    def test_empty_program_solves(self):
        # m = 0: no rows, so the optimum sits on the box alone
        res = revised_solve([1.0, -1.0], np.zeros((0, 2)), [],
                            bounds=[(0, 3), (0, 2)])
        assert res.ok
        assert res.value == 3.0
        np.testing.assert_array_equal(res.x, [3.0, 0.0])

    def test_dense_and_sparse_matrices_agree_bitwise(self, problem_factory):
        inst = build_lp(problem_factory(seed=2, n_clusters=6))
        bounds = (inst.lb, inst.ub)
        dense = revised_solve(inst.obj, inst.A_ub.toarray(), inst.b_ub, bounds)
        sparse = revised_solve(inst.obj, inst.A_ub, inst.b_ub, bounds)
        assert dense.ok and sparse.ok
        assert dense.value == sparse.value
        np.testing.assert_array_equal(dense.x, sparse.x)
        np.testing.assert_array_equal(dense.basis, sparse.basis)
        assert dense.iterations == sparse.iterations

    def test_initial_lu_adopted_with_sparse_matrix(self, problem_factory):
        inst = build_lp(problem_factory(seed=3, n_clusters=5))
        bounds = (inst.lb, inst.ub)
        first = revised_solve(inst.obj, inst.A_ub, inst.b_ub, bounds)
        assert first.ok
        again = revised_solve(inst.obj, inst.A_ub, inst.b_ub, bounds,
                              initial_basis=first.basis,
                              initial_at_upper=first.at_upper,
                              initial_lu=first.lu)
        assert again.ok and again.iterations == 0
        assert again.lu is first.lu
        np.testing.assert_array_equal(again.x, first.x)

    def test_point_and_prices_reused_until_state_moves(self):
        c = np.array([3.0, 2.0, 4.0])
        A = np.array([[1.0, 1.0, 2.0], [2.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        b = np.array([10.0, 8.0, 6.0])
        p = _Program(c, A, b, np.zeros(3), np.full(3, 6.0), max_iter=10)
        assert p.load_basis(np.arange(3, 6))
        xb, _ = p.basic_solution()
        d = p.reduced_costs(p.c_ext)
        # nothing moved: the same arrays come back
        assert p.basic_solution()[0] is xb
        assert p.reduced_costs(p.c_ext) is d
        assert p.reduced_costs(p.c_ext.copy()) is not d
        # a bound flip moves x_B; a refactorization recomputes the same bits
        p.vstat[0] = _AT_UPPER
        flipped, _ = p.basic_solution()
        assert not np.array_equal(flipped, xb)
        p.lu.refactorize()
        again, _ = p.basic_solution()
        assert again is not flipped
        np.testing.assert_array_equal(again, flipped)
        # a pivot (column 2 replaces the slack of row 0) recomputes both
        p.lu.replace_column(0, 2)
        p.vstat[2], p.vstat[3] = _BASIC, _AT_LOWER
        assert p.basic_solution()[0] is not again
        assert p.reduced_costs(p.c_ext) is not d

    @staticmethod
    def _badly_scaled(seed: int):
        """A ``table1-small`` program (7) whose every bandwidth
        coefficient is scaled by ``10**U(-3, 3)``."""
        inst = build_lp(build_scenario(
            "table1-small", rng=np.random.default_rng(seed)
        ))
        rng = np.random.default_rng(seed + 500)
        A = inst.A_ub.tolil(copy=True)
        for (k, l) in inst.index.beta_pairs:
            row = inst.row_id(f"bandwidth[{k},{l}]")
            col = inst.index.beta(k, l)
            A[row, col] *= 10.0 ** rng.uniform(-3.0, 3.0)
        return dataclasses.replace(inst, A_ub=A.tocsr())

    def test_badly_scaled_pin_chain_matches_highs(self):
        """An LPRR-style chain of beta pins on programs whose bandwidth
        coefficients span six orders of magnitude: every warm re-solve
        stays within 1e-9 of HiGHS, and none needs a HiGHS rescue."""
        solves = 0
        for seed in range(6):
            inst = self._badly_scaled(seed)
            session = LPSession(inst)
            sol = session.solve()
            for (k, l) in inst.index.beta_pairs:
                var = inst.index.beta(k, l)
                # round down, snapping roundoff below an integer (a
                # -1e-16 read as 0) as LPRR's integrality check does
                session.fix_variable(var, float(np.floor(sol.x[var] + 1e-9)))
                sol = session.solve()
                ref = solve_lp_scipy(inst)
                assert sol.value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)
                solves += 1
            assert session.stats.n_fallback == 0
        assert solves == 160


def _public_factorization_verdict(ext, basis) -> bool:
    """The singular check of ``LUBasis`` written with scipy's public API
    only (``splu`` on a ``csc_matrix``, ``U.diagonal()``): True when the
    basis factorizes."""
    m = ext.m
    B = sp.csc_matrix(ext.gather(basis), shape=(m, m))
    try:
        lu = splu(B, relax=1, panel_size=1)
    except RuntimeError:
        return False
    if not m:
        return True
    diag = np.abs(lu.U.diagonal())
    return bool(
        np.all(np.isfinite(B.data)) and np.all(np.isfinite(lu.U.data))
        and diag.min() > basis_lu._SINGULAR_TOL * max(1.0, diag.max())
    )


class TestKernelAdapter:
    """``repro.lp.basis_lu`` calls SuperLU and the sparse mat-vec kernels
    below scipy's public API. Each adapter function must return bitwise
    what its public twin returns, on the bases program (7) really
    factorizes; a scipy release that changes a kernel fails here."""

    @pytest.fixture(scope="class")
    def chain_bases(self):
        """Every basis an LPRR chain factorizes on two K=6 platforms
        (loads, eta overflows and end-of-solve refactorizations), with
        the extended matrix it was gathered from."""
        from repro import PlatformSpec, SteadyStateProblem, generate_platform

        spec = PlatformSpec(
            n_clusters=6, connectivity=0.7, heterogeneity=0.5, mean_g=200.0,
            mean_bw=30.0, mean_max_connect=10.0, speed_heterogeneity=0.5,
        )
        seen = []
        factorize = LUBasis._factorize

        def record(self):
            seen.append((self._ext, self.basis.copy()))
            factorize(self)

        LUBasis._factorize = record
        try:
            for seed in (0, 1):
                problem = SteadyStateProblem(
                    generate_platform(spec, rng=seed), objective="maxmin"
                )
                get_heuristic("lprr").run(problem, rng=seed)
        finally:
            LUBasis._factorize = factorize
        assert len(seen) > 50
        return seen

    def test_factorization_matches_splu_bitwise(self, chain_bases):
        rng = np.random.default_rng(0)
        for ext, basis in chain_bases[::3]:
            m = ext.m
            data, indices, indptr = ext.gather(basis)
            public = splu(
                sp.csc_matrix((data, indices, indptr), shape=(m, m)),
                relax=1, panel_size=1,
            )
            raw = basis_lu.splu_arrays(data, indices, indptr)
            np.testing.assert_array_equal(raw.perm_r, public.perm_r)
            np.testing.assert_array_equal(raw.perm_c, public.perm_c)
            for factor, twin in ((raw.L, public.L), (raw.U, public.U)):
                f_data, f_indices, f_indptr = factor
                nnz = f_indptr[-1]
                np.testing.assert_array_equal(f_indptr, twin.indptr)
                np.testing.assert_array_equal(f_indices[:nnz], twin.indices)
                assert f_data[:nnz].tobytes() == twin.data.tobytes()
            assert (
                basis_lu.csc_diagonal(m, *raw.U).tobytes()
                == public.U.diagonal().tobytes()
            )
            v = rng.normal(size=m)
            for trans in ("N", "T"):
                assert (
                    raw.solve(v, trans=trans).tobytes()
                    == public.solve(v, trans=trans).tobytes()
                )

    def test_matvecs_match_sparse_operators_bitwise(self, chain_bases):
        rng = np.random.default_rng(1)
        for ext in {id(e): e for e, _ in chain_bases}.values():
            m, n = ext.m, ext.n
            arrays = (ext.data, ext.indices, ext.indptr)
            cols = sp.csc_matrix(arrays, shape=(m, n + m))
            rows = sp.csr_matrix(arrays, shape=(n + m, m))
            for _ in range(5):
                x = rng.normal(size=n + m) * 10.0 ** rng.uniform(-8, 8, n + m)
                y = rng.normal(size=m) * 10.0 ** rng.uniform(-8, 8, m)
                assert ext.matvec(x).tobytes() == (cols @ x).tobytes()
                assert ext.rmatvec(y).tobytes() == (rows @ y).tobytes()

    def test_gathered_blocks_match_column_slices(self, chain_bases):
        ext, basis = chain_bases[-1]
        cols = sp.csc_matrix(
            (ext.data, ext.indices, ext.indptr), shape=(ext.m, ext.n + ext.m)
        )
        np.testing.assert_array_equal(
            ext.dense(basis), cols[:, basis].toarray()
        )

    def test_singular_verdicts_match_the_public_check(self, chain_bases):
        # program-(7) bases (all factorize) ...
        cases = [(ext, basis) for ext, basis in chain_bases[::7]]
        # ... an exactly singular, a near-singular and a well-separated
        # pair, and a basis over a matrix with a non-finite entry
        for A in ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-13]],
                  [[1.0, 1.0], [1.0, 1.0 + 1e-9]], [[np.inf, 0.0], [0.0, 1.0]]):
            cases.append((ExtendedMatrix(np.array(A)), np.array([0, 1])))
        verdicts = set()
        for ext, basis in cases:
            try:
                LUBasis(ext, basis)
                factorizes = True
            except SingularBasisError:
                factorizes = False
            assert factorizes == _public_factorization_verdict(ext, basis)
            verdicts.add(factorizes)
        assert verdicts == {True, False}

    def test_valid_basis_rejects_every_misfit_before_indexing(self):
        assert valid_basis(np.array([0, 4, 2]), 3, 5)
        assert valid_basis(np.array([], dtype=int), 0, 5)
        for bad in ([0, 4], [0, 4, 2, 1], [0, 5, 2], [0, -1, 2], [0, 2, 2],
                    [[0, 4, 2]]):
            assert not valid_basis(np.array(bad), 3, 5), bad
