"""Bounded-variable revised simplex over an LU-factorized basis.

This is the package's own LP engine — the stand-in for the paper's
``lp_solve`` — and the one the K^2 heuristic hot paths re-solve with
(:class:`repro.lp.session.LPSession`); HiGHS remains the independent
check and the session's iteration-limit fallback. It works on the
original data, with no extra rows for upper bounds:

* problem form: ``maximize c @ x  s.t.  A @ x <= b,  lb <= x <= ub``
  with finite lower bounds and optional finite upper bounds, handled
  *natively* — a nonbasic variable rests at its lower or upper bound
  and a pivot that only drives the entering variable to its opposite
  bound is a bound flip (no basis change at all);
* each iteration prices with one BTRAN and one FTRAN against the
  sparse LU-factorized basis (:class:`repro.lp.basis_lu.LUBasis`) and
  one product with the stored transpose of ``[A | I]``
  (:class:`repro.lp.basis_lu.ExtendedMatrix`), so a pivot costs time in
  proportion to the nonzeros of ``A`` and of the factors, and the
  factorization is carried across pivots by product-form eta updates
  with periodic refactorization;
* **primal** iterations (Dantzig pricing, Bland's rule engaged after a
  degenerate stall) solve from a primal-feasible basis; **dual**
  iterations re-solve from a dual-feasible one — the warm-start case
  after bound/RHS edits (LPRR pins, online bound and RHS events) where
  the carried optimal basis stays dual-feasible but goes
  primal-infeasible, so no phase-1 restart is needed;
* cold starts use the all-slack basis directly when it is feasible
  (true for every fresh program-(7) instance: ``b >= A @ lb``) and
  otherwise run a dual-simplex phase 1 with zero costs (every basis is
  dual-feasible for the zero objective, so the dual method drives out
  primal infeasibility without artificial variables), then the primal.

Warm starts accept the ``basis``/``at_upper`` arrays of a previous
:class:`RevisedResult` on a nearby LP; the solver picks primal or dual
iterations automatically from the carried basis's status and falls back
to the cold path when the basis is singular or unusable.
:func:`read_vertex` reads the point of a given basis without pivoting.

What a solve reports is a function of its pivot sequence, and the
pivots follow the last bits of every FTRAN and BTRAN. So beside the
pricing rules and tolerances below, the refactorization schedule (the
:class:`~repro.lp.basis_lu.LUBasis` eta-file bound, the fresh
factorization :func:`_finish` takes before extracting ``x``) and the
eta arithmetic are part of the output contract under the session's
``"betas"`` canonicalization, which pins betas but not alphas:
setting ``refactor_every=16`` (from 64) moved 1,114 of the 26,716
leaves of ``scripts/dump_outputs.py``, the Figure 7 LPRR alphas landing
on another vertex of the same optimal face. Work that only removes
overhead around them (the kernel adapter of :mod:`repro.lp.basis_lu`,
token checks, set-up) keeps every pivot and every bit; changing the
schedule or the arithmetic changes outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.lp.basis_lu import (
    ExtendedMatrix, LUBasis, SingularBasisError, valid_basis,
)
from repro.util.errors import SolverError

#: reduced-cost / pivot-eligibility tolerance
_OPT_TOL = 1e-9
#: primal feasibility tolerance (relative to bound magnitude)
_FEAS_TOL = 1e-9
#: dual feasibility slack when classifying a carried basis
_DUAL_TOL = 1e-7
#: consecutive degenerate pivots before Bland's rule takes over
_DEGEN_LIMIT = 25
#: a nonbasic reduced cost decisively nonzero for face-pinning purposes
#: (well above pricing noise ~1e-12, well below real reduced costs)
_PIN_TOL = 1e-7
#: carried-basis staleness cutoff: when more than this fraction of the
#: basic variables sit outside their bounds after a warm load, the edits
#: since the basis was taken amount to a wholesale program rewrite and a
#: cold start beats the long dual repair; small violation counts (LPRR
#: pins, online bound and RHS events) still take the dual-repair path
_STALE_BASIS_FRACTION = 0.25

#: vstat codes
_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


@dataclass
class RevisedResult:
    """Outcome of :func:`revised_solve`.

    ``status`` is one of ``"optimal"``, ``"infeasible"``, ``"unbounded"``,
    ``"iteration_limit"`` or ``"singular"``; ``x`` and ``value`` are
    meaningful only when optimal.

    ``basis`` holds the m basic columns (``[0, n)`` structural,
    ``[n, n + m)`` slacks) and ``at_upper`` flags the nonbasic columns
    resting at their upper bound — feed both back as
    ``initial_basis``/``initial_at_upper`` to warm-start a re-solve of a
    nearby LP. ``warm_started`` records whether the carried basis was
    usable; ``dual_steps`` counts dual-simplex iterations (> 0 means the
    carried basis was repaired dual-feasibly, no phase-1 restart).
    """

    status: str
    x: "np.ndarray | None" = None
    value: float = float("nan")
    iterations: int = 0
    basis: "np.ndarray | None" = None
    at_upper: "np.ndarray | None" = None
    warm_started: bool = False
    dual_steps: int = 0
    refactorizations: int = 0
    #: live factorization of the final basis (optimal runs only). Hand
    #: it back as ``initial_lu`` together with ``basis`` to make the
    #: next warm start skip its load-time refactorization entirely.
    lu: "LUBasis | None" = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


class _Program:
    """Shared state of one :func:`revised_solve` call."""

    def __init__(self, c, A, b, lb, ub, max_iter):
        self.c = c
        self.ext = ExtendedMatrix.of(A)
        self.b = b
        self.m, self.n = m, n = self.ext.shape
        # slacks: lower bound 0, no upper bound, zero cost
        self.lb = np.zeros(n + m)
        self.lb[:n] = lb
        self.ub = np.empty(n + m)
        self.ub[:n] = ub
        self.ub[n:] = np.inf
        self.c_ext = np.zeros(n + m)
        self.c_ext[:n] = c
        self.fixed = self.lb == self.ub
        self.max_iter = max_iter
        self.iterations = 0
        self.dual_steps = 0
        self.lu: "LUBasis | None" = None
        self.vstat = np.zeros(n + m, dtype=np.int8)  # all _AT_LOWER
        #: last x_B / d and the state each was computed in (see
        #: basic_solution and reduced_costs)
        self._xb = self._xb_key = None
        self._d = self._d_key = self._d_for = None
        # scale-aware feasibility slack: program-(7) capacities span
        # orders of magnitude, so feasibility is judged relative to the
        # data, not against an absolute epsilon
        self.feas_tol = _FEAS_TOL * max(
            1.0,
            float(np.abs(b).max(initial=0.0)),
            float(np.abs(lb).max(initial=0.0)),
            float(ub[np.isfinite(ub)].max(initial=0.0)),
        )

    # -- linear algebra helpers ---------------------------------------
    def load_basis(self, basis: np.ndarray) -> bool:
        """Factorize ``basis``; False when singular."""
        try:
            self.lu = LUBasis(self.ext, basis)
        except SingularBasisError:
            self.lu = None
            return False
        self.vstat[self.vstat == _BASIC] = _AT_LOWER
        self.vstat[basis] = _BASIC
        return True

    def adopt_basis(self, lu: LUBasis) -> None:
        """Take over a still-valid factorization from a previous solve."""
        if lu.updates_since_refactor:  # pragma: no cover - defensive
            lu.refactorize()
        self.lu = lu
        self.vstat[self.vstat == _BASIC] = _AT_LOWER
        self.vstat[lu.basis] = _BASIC

    def nonbasic_values(self) -> np.ndarray:
        """Values of all columns with basics zeroed (rhs contribution)."""
        xn = np.where(self.vstat == _AT_UPPER, self.ub, self.lb)
        xn[self.lu.basis] = 0.0  # exactly the columns vstat marks _BASIC
        return xn

    def basic_solution(self) -> tuple[np.ndarray, np.ndarray]:
        """``(x_B, x_full)`` for the current basis and nonbasic rests.

        The solver's hand-offs (violation count -> primal loop, primal
        loop -> face search, dual repair -> primal loop, face search ->
        extraction) ask again for a point nothing has moved since. The
        pair is therefore kept with the state it was computed in — the
        factorization's identity and counters plus the bound statuses —
        and a repeat returns it instead of recomputing the same bits.
        Callers only read the arrays.
        """
        lu = self.lu
        key = (lu, lu.n_refactor, lu.n_updates, self.vstat.tobytes())
        if key != self._xb_key:
            xn = self.nonbasic_values()
            xb = lu.ftran(self.b - self.ext.matvec(xn))
            xn[lu.basis] = xb
            self._xb, self._xb_key = (xb, xn), key
        return self._xb

    def reduced_costs(self, c_ext: np.ndarray) -> np.ndarray:
        """``d = c_ext - y [A | I]`` with ``y = B^{-T} c_B`` (basics ~ 0).

        Kept like :meth:`basic_solution`: ``d`` depends on the basis and
        on ``c_ext`` only, so a repeat for the same objective array
        under an unchanged factorization returns the last one.
        """
        lu = self.lu
        key = (lu, lu.n_refactor, lu.n_updates)
        if c_ext is not self._d_for or key != self._d_key:
            y = lu.btran(c_ext[lu.basis])
            self._d = c_ext - self.ext.rmatvec(y)
            self._d_for, self._d_key = c_ext, key
        return self._d

    def pivot_row_values(self, r: int) -> np.ndarray:
        """Row ``r`` of ``B^{-1} [A | I]`` (the dual pricing row)."""
        e = np.zeros(self.m)
        e[r] = 1.0
        return self.ext.rmatvec(self.lu.btran(e))


def _primal_loop(
    p: _Program,
    c_ext: "np.ndarray | None" = None,
    frozen: "np.ndarray | None" = None,
) -> str:
    """Primal simplex from a primal-feasible basis. Returns a status.

    ``c_ext`` defaults to the program's own objective; the vertex
    canonicalization pass re-enters with a secondary objective and a
    wider ``frozen`` mask (columns pinned to their current bound).
    """
    if c_ext is None:
        c_ext = p.c_ext
    if frozen is None:
        frozen = p.fixed
    lu = p.lu
    free = ~frozen
    degen_streak = 0
    while p.iterations < p.max_iter:
        xb, _ = p.basic_solution()
        d = p.reduced_costs(c_ext)
        improving = free & (
            ((p.vstat == _AT_LOWER) & (d > _OPT_TOL))
            | ((p.vstat == _AT_UPPER) & (d < -_OPT_TOL))
        )
        cand = np.nonzero(improving)[0]
        if cand.size == 0:
            return "optimal"
        if degen_streak > _DEGEN_LIMIT:
            q = int(cand[0])  # Bland: smallest improving index
        else:
            q = int(cand[np.abs(d[cand]).argmax()])  # Dantzig
        s = 1.0 if p.vstat[q] == _AT_LOWER else -1.0
        w = lu.ftran(lu.column(q))
        delta = -s * w  # change of x_B per unit step of the entering var

        lb_b = p.lb[lu.basis]
        ub_b = p.ub[lu.basis]
        # ratio test; each step length is divided only where its row
        # moves toward a bound (the others stay inf)
        t = np.empty(p.m)
        t.fill(np.inf)
        dec = delta < -_OPT_TOL
        np.divide(np.maximum(xb - lb_b, 0.0), -delta, out=t, where=dec)
        inc = (delta > _OPT_TOL) & np.isfinite(ub_b)
        np.divide(np.maximum(ub_b - xb, 0.0), delta, out=t, where=inc)
        t_basic = float(t.min()) if p.m else np.inf
        t_flip = p.ub[q] - p.lb[q]

        if t_flip <= t_basic:
            if not np.isfinite(t_flip):
                return "unbounded"
            # bound flip: the entering variable crosses its whole range
            # before any basic variable hits a bound — no basis change
            p.vstat[q] = _AT_UPPER if p.vstat[q] == _AT_LOWER else _AT_LOWER
            p.iterations += 1
            degen_streak = degen_streak + 1 if t_flip <= p.feas_tol else 0
            continue
        if not np.isfinite(t_basic):
            return "unbounded"

        # relative tie set, so a large-magnitude minimum still collects
        # its ties and Bland's tie-break sees all of them
        tie_tol = _OPT_TOL * max(1.0, abs(t_basic))
        tied = np.nonzero(t <= t_basic + tie_tol)[0]
        if degen_streak > _DEGEN_LIMIT:
            r = int(tied[np.argmin(lu.basis[tied])])  # Bland: smallest basic
        else:
            r = int(tied[np.abs(delta[tied]).argmax()])  # largest pivot
        leaving = int(lu.basis[r])
        p.vstat[leaving] = _AT_LOWER if delta[r] < 0 else _AT_UPPER
        p.vstat[q] = _BASIC
        try:
            lu.replace_column(r, q, w)
        except SingularBasisError:
            return "singular"
        p.iterations += 1
        degen_streak = degen_streak + 1 if t_basic <= p.feas_tol else 0
    return "iteration_limit"


def _canonicalize(p: _Program, weights: np.ndarray) -> str:
    """Move to a trajectory-independent vertex of the optimal face.

    A warm-started simplex run stops at whichever optimal vertex its
    carried basis leads to, so on a degenerate face warm and cold solves
    of the same LP can report different (equally optimal) solutions —
    which would break the warm==cold reproducibility contract the
    heuristics' rounding decisions rely on. This pass makes the reported
    vertex canonical: every nonbasic column whose reduced cost is
    decisively nonzero is frozen at its current bound (on the optimal
    face those columns cannot move), then a fixed *generic* secondary
    objective — ``weights``, keyed by original column index so reduced
    and full formulations of the same program agree — is maximised over
    the face with ordinary primal iterations. A generic objective has a
    unique maximiser on the face, so the final vertex no longer depends
    on how the solve got there.

    ``weights`` covers the structural columns; slacks get weight zero.
    Returns the primal-loop status (``"optimal"`` when the face search
    converged).
    """
    d = p.reduced_costs(p.c_ext)
    pin = (p.vstat != _BASIC) & (np.abs(d) > _PIN_TOL)
    eps = np.zeros(p.n + p.m)
    eps[: p.n] = weights
    return _primal_loop(p, c_ext=eps, frozen=p.fixed | pin)


def _eject_fixed_basics(p: _Program) -> str:
    """Drive fixed (``lb == ub``) variables out of a carried basis.

    A warm basis can contain a column whose bounds were pinned together
    since it was taken (every beta LPRR fixes, every variable an online
    failure event pins). Such a column must end up *nonbasic* — a fixed
    nonbasic column is reported bit-exactly at its pinned value, while a
    basic one would come back through an FTRAN with roundoff, breaking
    the warm==cold bitwise contract (cold starts never let a fixed
    column enter). Each ejection is a forced dual pivot on the fixed
    column's row: the entering column is chosen by the dual ratio test,
    so a dual-feasible carried basis stays dual-feasible and the
    follow-up classification still takes the cheap repair path.

    Returns ``"ok"`` when no fixed basic columns remain; any other
    outcome means the caller should discard the basis and start cold.
    """
    lu = p.lu
    for _ in range(p.m):
        basic_fixed = np.nonzero(p.fixed[lu.basis])[0]
        if basic_fixed.size == 0:
            return "ok"
        r = int(basic_fixed[0])
        j = int(lu.basis[r])
        xb, _ = p.basic_solution()
        delta_r = xb[r] - p.lb[j]
        alpha = p.pivot_row_values(r)
        nonbasic = (p.vstat != _BASIC) & ~p.fixed
        if delta_r < 0:
            eligible = nonbasic & (
                ((p.vstat == _AT_LOWER) & (alpha < -_OPT_TOL))
                | ((p.vstat == _AT_UPPER) & (alpha > _OPT_TOL))
            )
        else:
            eligible = nonbasic & (
                ((p.vstat == _AT_LOWER) & (alpha > _OPT_TOL))
                | ((p.vstat == _AT_UPPER) & (alpha < -_OPT_TOL))
            )
        cand = np.nonzero(eligible)[0]
        if cand.size:
            d = p.reduced_costs(p.c_ext)
            ratios = np.abs(d[cand]) / np.abs(alpha[cand])
            best = float(np.min(ratios))
            tied = cand[ratios <= best + _OPT_TOL * max(1.0, best)]
            q = int(tied[np.argmax(np.abs(alpha[tied]))])
        else:
            # no dual-feasibility-preserving direction: take any usable
            # pivot (classification below may then fall back to cold)
            cand = np.nonzero(nonbasic & (np.abs(alpha) > _PIN_TOL))[0]
            if cand.size == 0:
                return "stuck"
            q = int(cand[np.argmax(np.abs(alpha[cand]))])
        w = lu.ftran(lu.column(q))
        if abs(w[r]) <= _OPT_TOL:
            lu.refactorize()
            w = lu.ftran(lu.column(q))
            if abs(w[r]) <= _OPT_TOL:
                return "stuck"
        p.vstat[j] = _AT_LOWER if delta_r <= 0 else _AT_UPPER
        p.vstat[q] = _BASIC
        try:
            lu.replace_column(r, q, w)
        except SingularBasisError:
            return "singular"
        p.iterations += 1
        p.dual_steps += 1
    return "stuck"  # pragma: no cover - m ejections always suffice


def _dual_loop(p: _Program, c_ext: np.ndarray) -> str:
    """Dual simplex from a dual-feasible basis (for ``c_ext``).

    Repairs primal infeasibility — the state a carried optimal basis is
    left in after bound/RHS edits — without touching dual feasibility.
    With ``c_ext = 0`` every basis is dual-feasible, which makes this
    same loop the phase-1 of a cold start from an infeasible slack
    basis. Returns ``"feasible"`` when primal feasibility is restored.
    """
    lu = p.lu
    degen_streak = 0
    while p.iterations < p.max_iter:
        xb, _ = p.basic_solution()
        lb_b = p.lb[lu.basis]
        ub_b = p.ub[lu.basis]
        below = lb_b - xb
        above = np.where(np.isfinite(ub_b), xb - ub_b, -np.inf)
        viol = np.maximum(below, above)
        bad = np.nonzero(viol > p.feas_tol)[0]
        if bad.size == 0:
            return "feasible"
        if degen_streak > _DEGEN_LIMIT:
            r = int(bad[np.argmin(lu.basis[bad])])  # Bland on the dual
        else:
            r = int(bad[np.argmax(viol[bad])])  # most violated row
        delta_r = xb[r] - (lb_b[r] if below[r] >= above[r] else ub_b[r])

        alpha = p.pivot_row_values(r)
        d = p.reduced_costs(c_ext)
        nonbasic = p.vstat != _BASIC
        if delta_r < 0:  # basic var below lb: leaves at its lower bound
            eligible = nonbasic & ~p.fixed & (
                ((p.vstat == _AT_LOWER) & (alpha < -_OPT_TOL))
                | ((p.vstat == _AT_UPPER) & (alpha > _OPT_TOL))
            )
        else:  # above ub: leaves at its upper bound
            eligible = nonbasic & ~p.fixed & (
                ((p.vstat == _AT_LOWER) & (alpha > _OPT_TOL))
                | ((p.vstat == _AT_UPPER) & (alpha < -_OPT_TOL))
            )
        cand = np.nonzero(eligible)[0]
        if cand.size == 0:
            return "infeasible"
        # dual ratio test: the entering column minimising |d_j / alpha_j|
        # keeps every other reduced cost on its feasible side
        ratios = np.abs(d[cand]) / np.abs(alpha[cand])
        best = float(np.min(ratios))
        tie_tol = _OPT_TOL * max(1.0, best)
        tied = cand[ratios <= best + tie_tol]
        if degen_streak > _DEGEN_LIMIT:
            q = int(tied[0])  # Bland: smallest entering index
        else:
            q = int(tied[np.argmax(np.abs(alpha[tied]))])  # largest pivot
        w = lu.ftran(lu.column(q))
        if abs(w[r]) <= _OPT_TOL:
            # FTRAN disagrees with the BTRAN row: factorization has
            # drifted — refactorize and re-price this row
            lu.refactorize()
            p.iterations += 1
            continue
        leaving = int(lu.basis[r])
        p.vstat[leaving] = _AT_LOWER if delta_r < 0 else _AT_UPPER
        p.vstat[q] = _BASIC
        try:
            lu.replace_column(r, q, w)
        except SingularBasisError:
            return "singular"
        p.iterations += 1
        p.dual_steps += 1
        degen_streak = degen_streak + 1 if best <= _OPT_TOL else 0
    return "iteration_limit"


def _finish(
    p: _Program,
    status: str,
    warm: bool,
    canon: "np.ndarray | None" = None,
) -> RevisedResult:
    """Package a terminal status (extracting x on the optimal path)."""
    if status == "optimal" and canon is not None and p.m:
        # Any non-optimal outcome of the face search means the basis is
        # no longer trustworthy; report "numerical" so callers rescue
        # through HiGHS instead of surfacing a wrong status.
        if _canonicalize(p, canon) != "optimal":
            status = "numerical"
    if status == "optimal" and p.lu is not None and p.lu.updates_since_refactor:
        # Recompute the final point from a fresh factorization of the
        # final basis: the reported floats then depend only on
        # (data, basis, bound statuses), not on the eta history of the
        # path that found them.
        try:
            p.lu.refactorize()
        except SingularBasisError:  # pragma: no cover - defensive
            status = "numerical"
    refactor = p.lu.n_refactor if p.lu is not None else 0
    if status != "optimal":
        return RevisedResult(
            status=status,
            iterations=p.iterations,
            dual_steps=p.dual_steps,
            warm_started=warm,
            refactorizations=refactor,
        )
    xb, x = p.basic_solution()
    lb_b = p.lb[p.lu.basis]
    ub_b = p.ub[p.lu.basis]
    worst = 0.0
    if p.m:
        worst = float(
            max(
                (lb_b - xb).max(initial=0.0),
                (xb - np.where(np.isfinite(ub_b), ub_b, np.inf)).max(initial=0.0),
            )
        )
    if worst > 1e3 * p.feas_tol:
        # the factorization drifted past the feasibility band: a caller
        # (LPSession) treats this like an iteration-limited run and
        # rescues through HiGHS
        return RevisedResult(
            status="numerical",
            iterations=p.iterations,
            dual_steps=p.dual_steps,
            warm_started=warm,
            refactorizations=refactor,
        )
    x_struct = x[: p.n]
    return RevisedResult(
        status="optimal",
        x=x_struct,
        value=float(p.c @ x_struct),
        iterations=p.iterations,
        basis=p.lu.basis.copy(),
        at_upper=(p.vstat == _AT_UPPER).copy(),
        warm_started=warm,
        dual_steps=p.dual_steps,
        refactorizations=refactor,
        lu=p.lu,
    )


def _primal_feasible(p: _Program) -> bool:
    return _count_primal_violations(p) == 0


def _count_primal_violations(p: _Program) -> int:
    """How many basic variables sit outside their bounds."""
    xb, _ = p.basic_solution()
    lb_b = p.lb[p.lu.basis]
    ub_b = p.ub[p.lu.basis]
    viol = lb_b - xb > p.feas_tol
    finite = np.isfinite(ub_b)
    viol |= finite & (xb - ub_b > p.feas_tol)
    return int(np.count_nonzero(viol))


def read_vertex(
    A: "np.ndarray | sp.spmatrix | ExtendedMatrix",
    b: np.ndarray,
    bounds: "tuple[np.ndarray, np.ndarray]",
    basis: np.ndarray,
    at_upper: np.ndarray,
) -> "np.ndarray | None":
    """The point of a given basis, read without pivoting.

    Nonbasic columns rest at their lower bound, or at their upper bound
    where ``at_upper`` flags them; ``x_B`` comes from one LU
    factorization of the basis and one FTRAN — the arithmetic
    :func:`revised_solve` reports its optimum with, so the read equals a
    re-solve from ``basis`` that takes no pivot. Returns the structural
    ``x``, or ``None`` when ``basis`` is not ``m`` distinct columns of
    ``[A | I]`` (checked before any indexing), the basis is singular, or
    ``x_B`` leaves its box by more than the engine's feasibility
    tolerance. Optimality is not checked: the caller compares the
    objective with a solve's.
    """
    lb, ub = bounds
    p = _Program(np.zeros(A.shape[1]), A, b, lb, ub, max_iter=0)
    basis = np.asarray(basis, dtype=int)
    if not (valid_basis(basis, p.m, p.n + p.m) and p.load_basis(basis)):
        return None
    up = np.asarray(at_upper, dtype=bool) & (p.vstat != _BASIC)
    p.vstat[up & np.isfinite(p.ub)] = _AT_UPPER
    if _count_primal_violations(p):
        return None
    return p.basic_solution()[1][: p.n]


def _dual_feasible(p: _Program) -> bool:
    d = p.reduced_costs(p.c_ext)
    free = ~p.fixed
    at_lo = free & (p.vstat == _AT_LOWER)
    at_up = free & (p.vstat == _AT_UPPER)
    return not (
        (d[at_lo] > _DUAL_TOL).any() or (d[at_up] < -_DUAL_TOL).any()
    )


def revised_solve(
    c: Sequence[float],
    A_ub: "np.ndarray | sp.spmatrix | ExtendedMatrix | Sequence[Sequence[float]]",
    b_ub: Sequence[float],
    bounds: "Sequence[tuple[float, float]] | tuple[np.ndarray, np.ndarray] | None" = None,
    max_iter: int = 100_000,
    initial_basis: "np.ndarray | None" = None,
    initial_at_upper: "np.ndarray | None" = None,
    initial_lu: "LUBasis | None" = None,
    canon_weights: "np.ndarray | None" = None,
) -> RevisedResult:
    """Maximise ``c @ x`` subject to ``A_ub @ x <= b_ub`` and box bounds.

    Parameters
    ----------
    A_ub:
        Dense, scipy sparse, or an :class:`~repro.lp.basis_lu.
        ExtendedMatrix` — the form a caller re-solving one matrix many
        times (:class:`~repro.lp.session.LPSession`) builds once and
        passes every time. Any other form is converted per call.
    bounds:
        Per-variable ``(lb, ub)``; ``None`` means ``(0, inf)`` for all.
        A pair of ndarrays ``(lb, ub)`` is accepted directly. Lower
        bounds must be finite; finite upper bounds are handled natively
        (no extra rows).
    initial_basis, initial_at_upper:
        ``basis``/``at_upper`` of a previous :class:`RevisedResult` on a
        nearby LP. Columns whose bounds have been pinned together since
        the basis was taken are first ejected with forced dual pivots
        (:func:`_eject_fixed_basics`); a carried basis that is still
        primal-feasible then resumes with primal iterations; one left
        dual-feasible-but-primal-infeasible by bound/RHS edits is
        repaired with dual iterations (no phase-1 restart); anything
        else falls back to a cold start.
    initial_lu:
        The ``lu`` of the previous :class:`RevisedResult`. When it still
        factorizes exactly ``initial_basis`` over the same ``A_ub``
        object, the load-time refactorization is skipped — a zero-pivot
        warm re-solve then costs only FTRAN/BTRAN passes. Ignored when
        it does not match (the basis is factorized from scratch).
    canon_weights:
        Per-structural-column weights for the optimal-vertex
        canonicalization pass (see :func:`_canonicalize`). ``None``
        (the default) skips the pass: the solver then stops at whatever
        optimal vertex its trajectory reaches. :class:`~repro.lp.
        session.LPSession` always supplies weights so warm and cold
        solves of the same program report the same vertex.
    """
    c = np.asarray(c, dtype=float)
    if isinstance(A_ub, ExtendedMatrix) or sp.issparse(A_ub):
        A = A_ub
    else:
        A = np.asarray(A_ub, dtype=float)
        if A.ndim != 2:
            raise SolverError(f"A_ub must be 2-D, got shape {A.shape}")
    b = np.asarray(b_ub, dtype=float)
    n = c.shape[0]
    if A.shape[1] != n or A.shape[0] != b.shape[0]:
        raise SolverError(
            f"inconsistent shapes: c{c.shape}, A{A.shape}, b{b.shape}"
        )

    if bounds is None:
        lb = np.zeros(n)
        ub = np.full(n, np.inf)
    elif (
        isinstance(bounds, tuple)
        and len(bounds) == 2
        and isinstance(bounds[0], np.ndarray)
    ):
        lb = np.asarray(bounds[0], dtype=float)
        ub = np.asarray(bounds[1], dtype=float)
    else:
        lb = np.array([bo[0] for bo in bounds], dtype=float)
        ub = np.array(
            [np.inf if bo[1] is None else bo[1] for bo in bounds], dtype=float
        )
    if not np.isfinite(lb).all():
        raise SolverError("revised_solve requires finite lower bounds")
    if (ub < lb - _OPT_TOL).any():
        return RevisedResult(status="infeasible")

    p = _Program(c, A, b, lb, ub, max_iter)
    m = p.m

    # -- warm start: classify the carried basis ------------------------
    if initial_basis is not None and m > 0:
        basis = np.asarray(initial_basis, dtype=int).ravel()
        if initial_lu is not None and initial_lu.matches(A, basis):
            # the carried LU factorizes exactly this basis, so the basis
            # is valid by construction
            p.adopt_basis(initial_lu)
            loaded = True
        else:
            loaded = valid_basis(basis, m, n + m) and p.load_basis(basis)
        if loaded:
            if initial_at_upper is not None:
                up = np.asarray(initial_at_upper, dtype=bool).ravel()
                if up.shape == (n + m,):
                    sel = up & (p.vstat != _BASIC) & np.isfinite(p.ub)
                    p.vstat[sel] = _AT_UPPER
            if p.fixed[p.lu.basis].any():
                loaded = _eject_fixed_basics(p) == "ok"
        if loaded:
            violations = _count_primal_violations(p)
            if violations == 0:
                status = _primal_loop(p)
                return _finish(p, status, warm=True, canon=canon_weights)
            if violations <= max(
                1, int(_STALE_BASIS_FRACTION * m)
            ) and _dual_feasible(p):
                status = _dual_loop(p, p.c_ext)
                if status == "feasible":
                    status = _primal_loop(p)
                return _finish(p, status, warm=True, canon=canon_weights)
        # carried basis is unusable / singular / stale (violations point
        # to a wholesale rewrite) / not dual-feasible: cold start
        p.lu = None
        p.vstat[:] = _AT_LOWER

    # -- cold start: all-slack basis at the lower-bound vertex ---------
    p.vstat[:] = _AT_LOWER
    if not p.load_basis(np.arange(n, n + m, dtype=int)):  # pragma: no cover
        return RevisedResult(status="singular")
    if not _primal_feasible(p):
        # phase 1: dual simplex under zero costs (every basis is
        # dual-feasible for c = 0) drives out primal infeasibility
        # without artificial variables
        status = _dual_loop(p, np.zeros(n + m))
        if status != "feasible":
            return _finish(p, "infeasible" if status == "infeasible" else status, warm=False)
    status = _primal_loop(p)
    return _finish(p, status, warm=False, canon=canon_weights)
