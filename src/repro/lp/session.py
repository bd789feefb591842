"""Warm-started LP re-solve sessions for the K^2 heuristic hot path.

The paper's cost/quality spectrum (Figure 7) is dominated by LP-solve
count: LPRR pays ~K(K-1) solves per instance, iterated LPRG one solve
per round, branch-and-bound one per node — and consecutive LPs in all
three differ only in box bounds and right-hand sides. An
:class:`LPSession` owns one :class:`~repro.lp.builder.LPInstance` and
exploits exactly that structure:

* **in-place mutation** — ``solve(lb=..., ub=..., b_ub=...)`` writes the
  new data into the owned instance (no ``with_bounds`` copy, no
  ``build_lp`` re-assembly);
* **warm start** — the optimal basis of the previous solve is carried
  across calls (as a :class:`Basis` token) and seeds the simplex, which
  skips phase 1 whenever the carried basis is still usable.

The engine is the bounded-variable revised simplex over an
LU-factorized basis (:mod:`repro.lp.revised`): upper bounds are handled
natively (no extra rows), each pivot costs one FTRAN/BTRAN pair against
the factorization, and a carried basis that bound/RHS edits left
dual-feasible but primal-infeasible (branch-and-bound children,
iterated-LPRG tightening) is repaired by *dual* simplex steps — no
phase-1 restart. It always solves the **full** program: fixed variables
are frozen out of pricing rather than eliminated, so the carried basis
(and its live LU factorization, kept across solves) maps one-to-one
every time instead of going singular against a shrinking column set.

``LPSession(instance, warm_start=False)`` is the escape hatch /
reference: every solve then runs cold (no basis reuse) through the same
engine, so warm-vs-cold output can be compared bitwise. HiGHS
(:func:`repro.lp.scipy_backend.solve_lp_scipy`) stays the independent
cross-check — the test-suite verifies session
objective values against fresh cold HiGHS solves — and serves as the
in-session fallback if the simplex ever hits its iteration limit or
goes numerically bad.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from repro.lp.builder import LPInstance, active_build_cache
from repro.lp.revised import read_vertex, revised_solve
from repro.obs.trace import current_tracer
from repro.lp.scipy_backend import solve_lp_scipy
from repro.lp.solution import LPSolution
from repro.util.errors import InfeasibleError, UnboundedError

#: sentinel distinguishing "use the session's carried basis" from an
#: explicit None (= force a cold start for this call)
_AUTO = object()

#: golden-ratio conjugate: ``frac(j * _PHI)`` is an equidistributed,
#: deterministic stream over column indices (the ``"betas"`` weights)
_PHI = 0.6180339887498949

#: seed of the ``all_columns`` weight stream
_CANON_SEED = 20050404


@functools.lru_cache(maxsize=8)
def _generic_weights(n: int) -> np.ndarray:
    """``n`` weights drawn uniformly from ``[1, 2)`` by a fixed-seed
    PCG64: a pure function of the column index (a longer draw extends a
    shorter one), with no arithmetic relation between indices."""
    w = 1.0 + np.random.Generator(np.random.PCG64(_CANON_SEED)).random(n)
    w.flags.writeable = False
    return w


def _canon_weights(ub: np.ndarray, all_columns: bool = False) -> np.ndarray:
    """Secondary-objective weights for the vertex canonicalization
    (:func:`repro.lp.revised._canonicalize`).

    A pure function of the column index and the box, so warm and cold
    session solves canonicalize their shared optimal face to the same
    point — that is what makes them report identical solutions on
    degenerate LPs. By default columns with infinite upper bound get
    weight zero (an optimal face can be unbounded along them, and the
    heuristics' rounding decisions only consume the finite-bounded betas
    anyway); these weights are ``1 + frac(j * phi)``. ``all_columns``
    weights every structural column — only sound when the caller knows
    the optimal face is bounded along all of them, as program-(7) faces
    are (the compute rows cap the alphas, the maxmin rows cap ``t``).

    The golden-ratio stream is not generic enough for that mode:
    ``frac(a * phi) + frac(b * phi)`` and ``frac(c * phi) + frac(d * phi)``
    differ by an integer whenever ``a + b == c + d``, so two vertices of
    one face that swap columns of equal index sum at equal values tie on
    the secondary objective to roundoff, and warm and cold solves may
    stop at different ones. ``all_columns`` therefore draws its weights
    from :func:`_generic_weights`.
    """
    if all_columns:
        return _generic_weights(ub.shape[0])
    w = 1.0 + (np.arange(ub.shape[0]) * _PHI) % 1.0
    return np.where(np.isfinite(ub), w, 0.0)


@dataclass
class SessionStats:
    """Counters accumulated across the lifetime of one :class:`LPSession`.

    ``iterations`` is the total simplex pivot count — the currency of
    the warm-start benchmark. ``n_warm`` counts solves whose carried
    basis was accepted (phase 1 skipped); ``dual_steps`` the subset of
    pivots taken by the revised engine's dual simplex (carried-basis
    repairs after bound/RHS edits); ``n_fallback`` counts HiGHS rescues
    after an iteration-limited or numerically stuck simplex run.
    """

    n_solves: int = 0
    n_warm: int = 0
    n_cold: int = 0
    n_fallback: int = 0
    iterations: int = 0
    dual_steps: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class Basis:
    """Opaque optimal-basis token in the bounded revised simplex's own
    column numbering.

    ``columns`` holds the ``m`` basic columns: structural variable ``j``
    is column ``j``, the slack of ``A_ub`` row ``i`` is column ``n + i``.
    The bounded simplex needs one more bit per nonbasic column: whether
    it rests at its lower or its upper bound. ``at_upper`` is that mask
    over all ``n + m`` columns. Tokens are never written to: the solver
    copies what it keeps.
    """

    __slots__ = ("columns", "at_upper")

    def __init__(self, columns, at_upper):
        self.columns = np.asarray(columns, dtype=int)
        self.at_upper = np.asarray(at_upper, dtype=bool)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Basis({self.columns.size} basic columns, "
            f"{int(self.at_upper.sum())} at upper)"
        )


class LPSession:
    """Persistent re-solve layer over one :class:`LPInstance`.

    The session *owns* the instance: ``solve`` mutates its ``lb``,
    ``ub`` and ``b_ub`` arrays in place. Callers that need the original
    bounds afterwards should pass a ``with_bounds`` copy.

    Parameters
    ----------
    instance:
        The program-(7) instance to re-solve.
    warm_start:
        ``False`` turns the session into the cold reference: every call
        solves from scratch (identical arithmetic to the warm path's
        ``solve(warm_basis=None)`` calls, enabling bitwise checks).
    max_iter:
        Pivot budget per simplex call; exhausting it triggers one cold
        HiGHS fallback solve instead of failing.
    canon:
        Which structural columns the vertex-canonicalization pass
        weights. ``"betas"`` (default) weights only finite-bounded
        columns — always safe. ``"all"`` also weights infinite-ub
        columns (alphas, ``t``) so degenerate faces with free alpha
        directions — e.g. a failed node leaving surplus capacity
        elsewhere — still canonicalize to a unique vertex; only sound
        when every optimal face is bounded along every column, which
        holds for program (7). The online re-scheduler's warm/oracle
        bitwise contract relies on it.
    """

    def __init__(
        self,
        instance: LPInstance,
        warm_start: bool = True,
        max_iter: int = 100_000,
        canon: str = "betas",
    ):
        if canon not in ("betas", "all"):
            raise ValueError(
                f'canon must be "betas" or "all", got {canon!r}'
            )
        self.instance = instance
        self.warm_start = bool(warm_start)
        self.max_iter = int(max_iter)
        self.canon = canon
        self.stats = SessionStats()
        # Inside a repro.api.Solver the build cache shares one read-only
        # dense matrix across every session on the same template.
        cache = active_build_cache()
        if cache is not None:
            self._A = cache.dense_matrix(instance)
        else:
            self._A = np.asarray(instance.A_ub.toarray(), dtype=float)
        #: original bounds of currently pinned variables, snapshotted at
        #: *first* fix time so fail -> fail -> recover sequences restore
        #: the true pre-pin box (first-pin-wins)
        self._pinned_bounds: dict[int, tuple[float, float]] = {}
        self._basis: "Basis | None" = None
        #: live LU factorization of the last optimal basis: when the next
        #: solve carries the same basis, its load-time refactorization is
        #: skipped entirely
        self._lu = None

    # ------------------------------------------------------------------
    @property
    def last_basis(self) -> "Basis | None":
        """Basis token of the most recent successful solve (or None)."""
        return self._basis

    def fix_variable(self, var: int, value: float) -> None:
        """Pin ``x[var] = value`` for all subsequent solves.

        The variable's current ``(lb, ub)`` box is snapshotted on the
        *first* pin so :meth:`release_variable` can restore it; re-pinning
        an already-pinned variable moves the pin but keeps the original
        snapshot (first-pin-wins).
        """
        var = int(var)
        inst = self.instance
        self._pinned_bounds.setdefault(
            var, (float(inst.lb[var]), float(inst.ub[var]))
        )
        inst.lb[var] = inst.ub[var] = float(value)
        inst.invalidate_bounds()

    def release_variable(self, var: int) -> None:
        """Undo :meth:`fix_variable`: restore the pre-pin ``(lb, ub)`` box.

        Raises ``ValueError`` if ``var`` is not currently pinned by this
        session — releasing twice (or releasing a variable fixed by raw
        array writes) is a bookkeeping bug worth surfacing, not a no-op.
        """
        var = int(var)
        try:
            lo, hi = self._pinned_bounds.pop(var)
        except KeyError:
            raise ValueError(
                f"variable {var} was not pinned via fix_variable; "
                "nothing to release"
            ) from None
        inst = self.instance
        inst.lb[var] = lo
        inst.ub[var] = hi
        inst.invalidate_bounds()

    @property
    def pinned_variables(self) -> tuple:
        """Indices currently pinned via :meth:`fix_variable` (sorted)."""
        return tuple(sorted(self._pinned_bounds))

    # ------------------------------------------------------------------
    def set_rhs(self, rows, values) -> None:
        """Sparse in-place RHS update: ``b_ub[rows] = values``.

        The incremental-mutation primitive for online re-scheduling —
        a drift event touches one or two rows, so rewriting the whole
        ``b_ub`` array (the ``solve(b_ub=...)`` path) both obscures the
        edit and costs O(m) per event. ``values`` broadcasts.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=int))
        self.instance.b_ub[rows] = values

    def set_bounds(self, cols, lb=None, ub=None) -> None:
        """Sparse in-place bound update on a handful of variables.

        Writes ``lb[cols]``/``ub[cols]`` (either may be omitted) and
        invalidates the instance's cached bounds list. ``lb``/``ub``
        broadcast across ``cols``.
        """
        if lb is None and ub is None:
            return
        cols = np.atleast_1d(np.asarray(cols, dtype=int))
        inst = self.instance
        if lb is not None:
            inst.lb[cols] = lb
        if ub is not None:
            inst.ub[cols] = ub
        inst.invalidate_bounds()

    # ------------------------------------------------------------------
    def solve(
        self,
        lb: "np.ndarray | None" = None,
        ub: "np.ndarray | None" = None,
        b_ub: "np.ndarray | None" = None,
        warm_basis=_AUTO,
    ) -> LPSolution:
        """Re-solve the owned instance after an in-place data update.

        Parameters
        ----------
        lb, ub, b_ub:
            Optional replacement arrays, copied into the instance in
            place (omitted blocks keep their current values).
        warm_basis:
            Basis token to warm-start from; defaults to the previous
            solve's basis. Pass an explicit token to re-solve from a
            different parent (branch-and-bound), or ``None`` to solve
            this call from scratch while keeping the session warm — the
            arithmetic of a ``warm_start=False`` session, so the result
            is bitwise-comparable with one.

        Raises
        ------
        InfeasibleError / UnboundedError
            Mirroring :func:`repro.lp.scipy_backend.solve_lp_scipy`.
        """
        inst = self.instance
        if lb is not None:
            np.copyto(inst.lb, lb)
        if ub is not None:
            np.copyto(inst.ub, ub)
        if lb is not None or ub is not None:
            inst.invalidate_bounds()
        if b_ub is not None:
            np.copyto(inst.b_ub, b_ub)

        self.stats.n_solves += 1
        if not self.warm_start:
            basis = None
        else:
            basis = self._basis if warm_basis is _AUTO else warm_basis
        tracer = current_tracer()
        if not tracer.enabled:
            return self._solve(basis)
        with tracer.span("session_resolve") as span:
            iterations_before = self.stats.iterations
            span.set(warm=basis is not None)
            solution = self._solve(basis)
            span.set(
                iterations=self.stats.iterations - iterations_before,
                n_solves=self.stats.n_solves,
            )
        return solution

    # ------------------------------------------------------------------
    def _solve(self, warm_basis: "Basis | None") -> LPSolution:
        """One revised-simplex solve of the *full* program.

        Fixed variables are frozen out of pricing (a carried basic one
        is ejected by a forced dual pivot), never eliminated, so the
        program's shape never changes between solves: the carried basis
        maps one-to-one every time and the LU factorization itself
        persists across solves. ``warm_basis=None`` is the cold
        reference: no basis, no LU.
        """
        inst = self.instance
        n = inst.obj.shape[0]
        m = inst.b_ub.shape[0]
        init = init_up = None
        if warm_basis is not None:
            init, init_up = self._basis_arrays(warm_basis, n, m)
        # Release the carried factorization before solving: a cold solve
        # must not hold a dense LU it never reads while building its own.
        lu, self._lu = (self._lu if init is not None else None), None
        res = revised_solve(
            inst.obj,
            self._A,
            inst.b_ub,
            (inst.lb, inst.ub),
            max_iter=self.max_iter,
            initial_basis=init,
            initial_at_upper=init_up,
            initial_lu=lu,
            canon_weights=_canon_weights(inst.ub, self.canon == "all"),
        )
        self.stats.iterations += res.iterations
        self.stats.dual_steps += res.dual_steps
        if res.warm_started:
            self.stats.n_warm += 1
        else:
            self.stats.n_cold += 1
        if res.status in ("infeasible", "unbounded"):
            self._basis = None
            error = InfeasibleError if res.status == "infeasible" else UnboundedError
            raise error(f"LP {res.status} (revised simplex)")
        if res.status != "optimal" or res.x is None:
            return self._fallback_scipy()
        self._basis = Basis(res.basis, res.at_upper)
        self._lu = res.lu
        return LPSolution(
            x=np.asarray(res.x, dtype=float),
            value=float(res.value),
            index=inst.index,
        )

    def _fallback_scipy(self) -> LPSolution:
        """Cold HiGHS rescue after a numerically stuck simplex run."""
        self.stats.n_fallback += 1
        self._basis = None
        return solve_lp_scipy(self.instance)

    def read(self, basis: Basis) -> "LPSolution | None":
        """The point of ``basis`` on the current data, without pivoting.

        One LU factorization of the basis and one FTRAN
        (:func:`repro.lp.revised.read_vertex`). Returns ``None`` when the
        token does not fit this program, the basis is singular, or its
        point is not primal-feasible. Optimality is the caller's to
        judge (compare the value with a solve's). The carried basis and
        the stats are left alone: a read is not a solve.
        """
        inst = self.instance
        n = inst.obj.shape[0]
        cols, at_upper = self._basis_arrays(basis, n, inst.b_ub.shape[0])
        if cols is None:
            return None
        x = read_vertex(self._A, inst.b_ub, (inst.lb, inst.ub), cols, at_upper)
        if x is None:
            return None
        return LPSolution(x=x, value=float(inst.obj @ x), index=inst.index)

    # ------------------------------------------------------------------
    @staticmethod
    def _basis_arrays(
        basis: Basis, n: int, m: int
    ) -> "tuple[np.ndarray | None, np.ndarray | None]":
        """Validate a token: ``(basis columns, at_upper mask)``, or
        ``(None, None)`` — one cold start — for a token of the wrong size
        or with repeated columns."""
        cols = basis.columns
        if (
            cols.shape != (m,)
            or basis.at_upper.shape != (n + m,)
            or np.unique(cols).size != m
        ):
            return None, None
        return cols, basis.at_upper
