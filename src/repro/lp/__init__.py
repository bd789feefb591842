"""LP substrate: program (7) in matrix form plus solver backends.

* :mod:`repro.lp.indexing` / :mod:`repro.lp.builder` assemble the
  steady-state LP (rational relaxation of program (7)) as sparse
  matrices;
* :mod:`repro.lp.scipy_backend` solves it with HiGHS
  (``scipy.optimize.linprog``);
* :mod:`repro.lp.revised` over :mod:`repro.lp.basis_lu` is our own
  bounded-variable *revised* simplex — the stand-in for the paper's
  ``lp_solve`` package, cross-checked against HiGHS: LU-factorized
  basis with eta updates + periodic refactorization, a dual-simplex
  re-solve mode for carried bases, and canonical-vertex selection so
  warm and cold solves of the same program report the same optimal
  vertex;
* :mod:`repro.lp.milp_backend` solves the *mixed* program exactly
  (HiGHS MILP), something the paper could not afford in 2004;
* :mod:`repro.lp.session` is the warm-started re-solve layer for the
  K^2 heuristic hot paths: one :class:`~repro.lp.session.LPSession` per
  instance, in-place bound/RHS mutation, and optimal-basis (plus LU)
  reuse across consecutive solves, with HiGHS as the fallback.
"""

from repro.lp.indexing import VariableIndex
from repro.lp.builder import LPInstance, build_lp
from repro.lp.solution import LPSolution
from repro.lp.scipy_backend import solve_lp_scipy
from repro.lp.milp_backend import solve_milp_scipy
from repro.lp.session import Basis, LPSession, SessionStats
from repro.lp.basis_lu import LUBasis, SingularBasisError
from repro.lp.revised import RevisedResult, revised_solve

__all__ = [
    "VariableIndex",
    "LPInstance",
    "build_lp",
    "LPSolution",
    "solve_lp_scipy",
    "solve_milp_scipy",
    "Basis",
    "LPSession",
    "SessionStats",
    "LUBasis",
    "SingularBasisError",
    "RevisedResult",
    "revised_solve",
]
