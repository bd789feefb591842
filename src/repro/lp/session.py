"""Warm-started LP re-solve sessions for the K^2 heuristic hot path.

The paper's cost/quality spectrum (Figure 7) is dominated by LP-solve
count: LPRR pays ~K(K-1) solves per instance, the online re-scheduler
one per event — and consecutive LPs in both differ only in box bounds
and right-hand sides. An :class:`LPSession` owns one
:class:`~repro.lp.builder.LPInstance` and exploits exactly that
structure:

* **in-place mutation** — callers edit the owned instance's ``lb``,
  ``ub`` and ``b_ub`` arrays directly or through :meth:`fix_variable`,
  :meth:`set_bounds` and :meth:`set_rhs` (no ``with_bounds`` copy, no
  ``build_lp`` re-assembly), then call :meth:`solve`;
* **warm start** — the optimal basis of the previous solve is carried
  across calls (as a :class:`Basis` token) and seeds the simplex, which
  skips phase 1 whenever the carried basis is still usable;
* **support tokens** — :meth:`LPSession.support_token` derives a token
  from an LP point alone, so a point that another solve reported
  becomes a :meth:`LPSession.read` target or a ``warm_basis``. The
  online scheduler reads every solve's point back through its token;
  LPRR starts its pin chain from the token of the relaxation's HiGHS
  optimum. The session never seeds itself: its own HiGHS calls are
  rescues only.

The engine is the bounded-variable revised simplex over an
LU-factorized basis (:mod:`repro.lp.revised`): upper bounds are handled
natively (no extra rows), each pivot costs one FTRAN/BTRAN pair against
the factorization, and a carried basis that bound/RHS edits left
dual-feasible but primal-infeasible (LPRR pins, online bound and RHS
events) is repaired by *dual* simplex steps — no phase-1 restart. It
always solves the **full** program: fixed variables are frozen out of
pricing rather than eliminated, so the carried basis (and its live LU
factorization, kept across solves) maps one-to-one every time instead
of going singular against a shrinking column set.

``LPSession.solve(warm_basis=None)`` is the cold reference: that call starts
from no basis (and no LU) through the same engine, so warm-vs-cold
output can be compared bitwise on one session. HiGHS
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
import scipy.linalg

from repro.lp.basis_lu import ExtendedMatrix
from repro.lp.builder import LPInstance
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

#: support classification tolerance of :meth:`LPSession.support_token`:
#: a value more than this inside its box is basic, a row with less
#: slack is tight. Coarse enough that two reports of one vertex —
#: roundoff apart, e.g. a warm and a cold solve, or a HiGHS optimum —
#: always classify identically; fine enough to separate genuine basic
#: values from bound-resting ones on program-(7) scales
_SUPPORT_TOL = 1e-7

#: LU pivot, relative to its column's scale, below which a forced column
#: of :meth:`LPSession.support_token` is rank-redundant (so the point is
#: not a vertex)
_RANK_TOL = 1e-8


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
    session solves canonicalize their shared optimal face along the same
    columns — that is what makes them agree on degenerate LPs. By
    default columns with infinite upper bound get weight zero (an
    optimal face can be unbounded along them, and the heuristics'
    rounding decisions only consume the finite-bounded betas anyway), so
    warm and cold solves agree on the betas, to roundoff, but may report
    different alphas; these weights are ``1 + frac(j * phi)``.
    ``all_columns`` weights every structural column — only sound when
    the caller knows the optimal face is bounded along all of them, as
    program-(7) faces are (the compute rows cap the alphas, the maxmin
    rows cap ``t``) — so whole vertices agree.

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
    """Counters accumulated across the lifetime of one :class:`LPSession`
    (or of a chain of them, when a caller hands a replaced session's
    ``stats`` to its successor, as the online scheduler's structural
    rebuilds do).

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

    The session *owns* the instance: every edit mutates its ``lb``,
    ``ub`` and ``b_ub`` arrays in place. Callers that need the original
    bounds afterwards should pass a ``with_bounds`` copy.

    Parameters
    ----------
    instance:
        The program-(7) instance to re-solve.
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
        max_iter: int = 100_000,
        canon: str = "betas",
    ):
        if canon not in ("betas", "all"):
            raise ValueError(
                f'canon must be "betas" or "all", got {canon!r}'
            )
        self.instance = instance
        self.max_iter = int(max_iter)
        self.canon = canon
        self.stats = SessionStats()
        #: ``[A | I]`` in CSC form with its stored transpose, built once:
        #: every solve gathers its basis columns and prices against it
        self._A = ExtendedMatrix(instance.A_ub)
        #: original bounds of currently pinned variables, snapshotted at
        #: *first* fix time so fail -> fail -> recover sequences restore
        #: the true pre-pin box (first-pin-wins)
        self._pinned_bounds: dict[int, tuple[float, float]] = {}
        self._basis: "Basis | None" = None
        #: live LU factorization of the last optimal basis: when the next
        #: solve carries the same basis, its load-time refactorization is
        #: skipped entirely
        self._lu = None
        #: canonicalization weights and the ``ub`` finiteness mask (as
        #: bytes) they were built for: a pin chain never rebuilds them
        self._weights = self._weights_key = None

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

    @property
    def pinned_variables(self) -> tuple:
        """Indices currently pinned via :meth:`fix_variable` (sorted)."""
        return tuple(sorted(self._pinned_bounds))

    # ------------------------------------------------------------------
    def set_rhs(self, rows, values) -> None:
        """Sparse in-place RHS update: ``b_ub[rows] = values``.

        The incremental-mutation primitive for online re-scheduling —
        a drift event touches one or two rows, so rewriting the whole
        ``b_ub`` array both obscures the edit and costs O(m) per event.
        ``values`` broadcasts.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=int))
        self.instance.b_ub[rows] = values

    def set_bounds(self, cols, lb=None, ub=None) -> None:
        """Sparse in-place bound update on a handful of variables.

        Writes ``lb[cols]``/``ub[cols]`` (either may be omitted);
        ``lb``/``ub`` broadcast across ``cols``.
        """
        if lb is None and ub is None:
            return
        cols = np.atleast_1d(np.asarray(cols, dtype=int))
        inst = self.instance
        if lb is not None:
            inst.lb[cols] = lb
        if ub is not None:
            inst.ub[cols] = ub

    # ------------------------------------------------------------------
    def solve(self, warm_basis=_AUTO) -> LPSolution:
        """Re-solve the owned instance after an in-place data update.

        Parameters
        ----------
        warm_basis:
            Basis token to warm-start from; defaults to the previous
            solve's basis. Pass an explicit token to start from another
            basis (a :meth:`support_token`: LPRR's seed, the online
            read fallback), or ``None`` to solve this call from scratch
            (the cold reference; the session's next default call still
            carries this call's basis).

        Raises
        ------
        InfeasibleError / UnboundedError
            Mirroring :func:`repro.lp.scipy_backend.solve_lp_scipy`.
        """
        self.stats.n_solves += 1
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
        # must not hold an LU it never reads while building its own.
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
            canon_weights=self._box_weights(),
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

    def _box_weights(self) -> np.ndarray:
        """:func:`_canon_weights` of the current box, rebuilt only when
        the finiteness of ``ub`` changed since the last solve."""
        ub = self.instance.ub
        if self.canon == "all":
            return _canon_weights(ub, all_columns=True)
        key = np.isfinite(ub).tobytes()
        if key != self._weights_key:
            self._weights = _canon_weights(ub)
            self._weights.flags.writeable = False
            self._weights_key = key
        return self._weights

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

    def support_token(self, x: np.ndarray) -> "Basis | None":
        """Derive a deterministic basis token from the LP point ``x`` alone.

        Forced-basic columns are the structural variables strictly
        between their bounds and the slacks of non-tight rows (both
        classified at :data:`_SUPPORT_TOL`). An LU factorization with
        partial pivoting of the forced structurals' tight-row block
        picks the rows they cover; the slacks of the tight rows left
        over complete the basis (a forced slack covers its own row, so
        this is the factorization of the whole forced block with the
        slacks taken first). The token is a function of (A, bounds,
        support classification) only, and the classification tolerance
        is orders of magnitude above the roundoff separating two reports
        of one vertex — so every report of that vertex, whichever basis
        or solver produced it, gives the *same* token. Returns ``None``
        when the forced columns are dependent (at :data:`_RANK_TOL`), so
        the point is not a vertex (e.g. an interior report).

        Uses: the online scheduler reads every solve's point back
        through :meth:`read` of its token, and LPRR warm-starts its pin
        chain from the token of the relaxation's HiGHS optimum.
        """
        inst = self.instance
        m, n = inst.A_ub.shape
        between = np.nonzero(
            (inst.lb + _SUPPORT_TOL < x) & (x < inst.ub - _SUPPORT_TOL)
        )[0]
        tight = np.nonzero(inst.b_ub - inst.A_ub @ x <= _SUPPORT_TOL)[0]
        if between.size > tight.size:
            return None
        pivoted = np.zeros(m, dtype=bool)
        if between.size:
            forced = self._A.dense(between)
            perm, _, U = scipy.linalg.lu(forced[tight], p_indices=True)
            scale = np.maximum(1.0, np.abs(forced).max(axis=0))
            if np.any(np.abs(np.diag(U)) <= _RANK_TOL * scale):
                return None  # dependent forced columns: not a vertex
            pivoted[tight[perm < between.size]] = True
        at_upper = np.zeros(n + m, dtype=bool)
        at_upper[:n] = (
            np.isfinite(inst.ub)
            & (inst.ub - inst.lb > _SUPPORT_TOL)
            & (np.abs(x - inst.ub) <= _SUPPORT_TOL)
        )
        return Basis(
            np.concatenate([between, n + np.nonzero(~pivoted)[0]]), at_upper
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _basis_arrays(
        basis: Basis, n: int, m: int
    ) -> "tuple[np.ndarray | None, np.ndarray | None]":
        """A token's ``(basis columns, at_upper mask)``, or ``(None,
        None)`` — one cold start — for a token of the wrong size.

        Only the sizes are checked here. Whether the columns are ``m``
        distinct columns in range is checked in O(n + m) by the engine
        (:func:`repro.lp.basis_lu.valid_basis`), before any indexing,
        and not at all when the carried LU already factorizes them."""
        cols = basis.columns
        if cols.shape != (m,) or basis.at_upper.shape != (n + m,):
            return None, None
        return cols, basis.at_upper
