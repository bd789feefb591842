"""Sparse LU-factorized simplex basis with product-form eta updates.

The revised simplex (:mod:`repro.lp.revised`) never forms ``B^{-1}``:
every iteration needs one FTRAN (solve ``B x = v``) and one BTRAN
(solve ``B^T y = v``), and every pivot replaces exactly one basis
column. :class:`LUBasis` supports exactly that access pattern:

* a **sparse base factorization** of ``B_0`` by SuperLU (the kernel of
  :func:`scipy.sparse.linalg.splu`, partial pivoting), taken when the
  basis is loaded and periodically thereafter. A program-(7) basis has
  about two nonzeros per column and its factors stay within a few times
  that, so a factorization and each solve against it cost time in
  proportion to those nonzeros, not to ``m^3`` and ``m^2``;
* **product-form eta updates** for pivots: after column ``a_q`` replaces
  basic position ``r``, with ``w = B_k^{-1} a_q`` (the FTRAN of the
  entering column, which the simplex computes anyway for its ratio
  test), ``B_{k+1}^{-1} = E_k B_k^{-1}`` where the elementary matrix
  ``E_k`` is the identity except for column ``r`` — so an update is
  O(m) storage and each later solve applies the eta in O(m);
* **periodic refactorization**: the eta file is discarded and ``B`` is
  refactorized from scratch every :attr:`refactor_every` updates (the
  classical Bartels–Golub/Forrest–Tomlin compromise: eta files grow
  and accumulate roundoff, so bounded-length files keep both the work
  per solve and the error bounded), or eagerly whenever a pivot
  element is too small for a stable eta.

The refactorization schedule and the eta arithmetic are part of the
engine's output contract, not tuning knobs: under the session's
``"betas"`` canonicalization a solve reports the vertex its pivots
reach, and which pivots it takes depends on the last bits of every
FTRAN and BTRAN. Setting ``refactor_every`` to 16 (from 64) moved 1,114
of the 26,716 leaves of ``scripts/dump_outputs.py``; the alphas of the
Figure 7 LPRR legs landed on another vertex of the same optimal face.
A change to either is an output change and needs a dump diff. The eta
loops below may be rewritten only into the same floating-point
operations on the same operands (``x[r] / w_r`` with ``w_r`` read once
as a Python float is the same IEEE division as ``x[r] / w[r]``).

The column convention matches the bounded revised simplex: columns
``[0, n)`` are the structural columns of ``A``; columns ``[n, n + m)``
are slack identity columns (coefficient ``+1`` in their row).
:class:`ExtendedMatrix` holds ``[A | I]`` once in compressed-column
form, so ``B`` is gathered from it by array indexing alone.

**The kernel adapter.** ``splu`` and the ``@`` operator of scipy's
sparse matrices validate their input and build wrapper objects on every
call; on a program-(7) basis that costs more than the compiled kernels
they end in (at K=12, about half of a factorization and of a
``[A | I]`` product). The engine therefore calls those kernels directly,
with exactly the arguments the public wrappers pass, in four places
(:func:`splu_arrays`, :func:`csc_diagonal`, :meth:`ExtendedMatrix.matvec`
and :meth:`ExtendedMatrix.rmatvec`). They are the only code in the
package that reaches below scipy's public API, and there is no fallback
path: ``tests/test_lp_revised.py::TestKernelAdapter`` pins each one
bitwise to its public twin on program-(7) bases, so a scipy release
that changes a kernel fails there rather than in an output.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse.linalg._dsolve import _superlu

#: an eta pivot element smaller than this (relative to the eta column's
#: magnitude) triggers an eager refactorization instead of an update
_ETA_PIVOT_TOL = 1e-8

#: absolute floor under which a pivot is unusable even right after a
#: fresh factorization
_SINGULAR_TOL = 1e-11

#: the SuperLU options ``splu(A, relax=1, panel_size=1)`` passes. No
#: supernode relaxation: a basis this sparse gains nothing from padded
#: supernodes except their explicit zeros
_SPLU_OPTIONS = {"DiagPivotThresh": None, "ColPerm": None, "PanelSize": 1, "Relax": 1}


def _as_arrays(arrays, shape):
    """SuperLU's factor constructor: keep ``(data, indices, indptr)``."""
    return arrays


def splu_arrays(data, indices, indptr):
    """SuperLU factorization of the square CSC matrix given by its arrays.

    The call ``splu(csc_matrix((data, indices, indptr)), relax=1,
    panel_size=1)`` makes for a canonical CSC input (sorted, duplicate-free
    columns) with ``int32`` indices, minus the wrapping: the factors ``L``
    and ``U`` of the result read as raw ``(data, indices, indptr)``
    triples, not sparse matrices. Their ``data`` and ``indices`` may run
    past ``indptr[-1]`` with unwritten entries (the sparse matrix
    constructor prunes them); only the first ``indptr[-1]`` are the
    factor's. Raises ``RuntimeError`` on an exactly singular matrix, as
    ``splu`` does.
    """
    return _superlu.gstrf(
        indptr.size - 1, data.size, data, indices, indptr,
        csc_construct_func=_as_arrays, ilu=False, options=_SPLU_OPTIONS,
    )


def csc_diagonal(n, data, indices, indptr):
    """Main diagonal of an ``n x n`` CSC matrix (``.diagonal()``)."""
    out = np.empty(n)
    _sparsetools.csr_diagonal(0, n, n, indptr, indices, data, out)
    return out


def valid_basis(columns: np.ndarray, m: int, n_cols: int) -> bool:
    """Can the integer array ``columns`` be the basis of an ``m``-row
    program with ``n_cols`` columns? It must hold ``m`` distinct columns,
    each in ``[0, n_cols)``.

    An O(``n_cols``) range-and-mark check that reads no entry out of
    range: wrong-size, negative, too-large and repeated columns are all
    rejected before any indexing.
    """
    if columns.shape != (m,):
        return False
    if m == 0:
        return True
    if columns.min() < 0 or columns.max() >= n_cols:
        return False
    mark = np.zeros(n_cols, dtype=bool)
    mark[columns] = True
    return int(np.count_nonzero(mark)) == m


class SingularBasisError(Exception):
    """The requested basis is singular (or numerically so)."""


class ExtendedMatrix:
    """``[A | I]`` in compressed-column (CSC) form, built once per ``A``.

    The slack columns are unit columns, so the whole extended matrix is
    one set of CSC arrays (``indptr``/``indices``/``data``). The same
    arrays read as CSR are the transpose, so :meth:`matvec`
    (``[A | I] @ x``) and :meth:`rmatvec` (``y @ [A | I]``) share them —
    a transpose stored once instead of built per product.

    ``A`` may be dense or any scipy sparse matrix; ``source`` keeps the
    object it was built from, so :meth:`LUBasis.matches` recognises
    either one.
    """

    __slots__ = ("source", "m", "n", "indptr", "indices", "data", "finite")

    def __init__(self, A):
        self.source = A
        csc = sp.csc_matrix(A, dtype=float, copy=True)
        # canonical and value-determined, so dense and sparse inputs of
        # one matrix give the same arrays (and the same factorizations)
        csc.sum_duplicates()
        csc.eliminate_zeros()
        m, n = csc.shape
        self.m, self.n = m, n
        self.indptr = np.concatenate(
            [csc.indptr, csc.indptr[-1] + 1 + np.arange(m)]
        ).astype(np.int32)
        self.indices = np.concatenate([csc.indices, np.arange(m)]).astype(np.int32)
        self.data = np.concatenate([csc.data, np.ones(m)])
        #: every entry finite, so every basis gathered from it is
        self.finite = bool(np.isfinite(self.data).all())

    @classmethod
    def of(cls, A) -> "ExtendedMatrix":
        """``A`` itself when it already is one, else a fresh build."""
        return A if isinstance(A, cls) else cls(A)

    @property
    def shape(self) -> "tuple[int, int]":
        """Shape of ``A`` (not of ``[A | I]``)."""
        return self.m, self.n

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``[A | I] @ x`` for a float vector ``x`` of length ``n + m``:
        the kernel ``csc_matrix(...) @ x`` ends in."""
        out = np.zeros(self.m)
        _sparsetools.csc_matvec(
            self.m, self.n + self.m, self.indptr, self.indices, self.data, x, out
        )
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``y @ [A | I]`` for a float vector ``y`` of length ``m``: the
        kernel ``csr_matrix(...) @ y`` of the transpose ends in."""
        out = np.zeros(self.n + self.m)
        _sparsetools.csr_matvec(
            self.n + self.m, self.m, self.indptr, self.indices, self.data, y, out
        )
        return out

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``[A | I]`` as a fresh dense vector."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        col = np.zeros(self.m)
        col[self.indices[lo:hi]] = self.data[lo:hi]
        return col

    def gather(
        self, columns: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The ``m x len(columns)`` submatrix of ``[A | I]`` as CSC
        ``(data, indices, indptr)`` arrays, canonical like the source."""
        starts = self.indptr[columns]
        counts = self.indptr[columns + 1] - starts
        indptr = np.zeros(columns.size + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return self.data[take], self.indices[take], indptr

    def dense(self, columns: np.ndarray) -> np.ndarray:
        """The same submatrix as a dense ``m x len(columns)`` array."""
        data, indices, indptr = self.gather(columns)
        out = np.zeros((self.m, columns.size))
        out[indices, np.repeat(np.arange(columns.size), np.diff(indptr))] = data
        return out


class LUBasis:
    """One simplex basis: sparse LU base factorization + eta update file.

    Parameters
    ----------
    A:
        The structural columns (``m`` rows, ``n`` columns): a dense
        array, a scipy sparse matrix, or an :class:`ExtendedMatrix`
        (shared, never copied — what a re-solving caller passes). Only
        read.
    basis:
        The ``m`` basic column indices (``< n`` structural, ``>= n``
        slack). Copied; :meth:`replace_column` keeps it current.
    refactor_every:
        Maximum eta-file length before the next :meth:`replace_column`
        triggers a refactorization.

    Raises
    ------
    SingularBasisError
        If the initial basis matrix does not factorize.
    """

    def __init__(self, A, basis: np.ndarray, refactor_every: int = 64):
        self._ext = ExtendedMatrix.of(A)
        self._m = self._ext.m
        self.basis = np.asarray(basis, dtype=int).copy()
        if self.basis.shape != (self._m,):
            raise SingularBasisError(
                f"basis must have {self._m} columns, got {self.basis.shape}"
            )
        self.refactor_every = int(refactor_every)
        #: eta file: (pivot row r, eta column w = B^{-1} a_entering, and
        #: its pivot w[r] as a Python float, read once per eta per solve)
        self._etas: "list[tuple[int, np.ndarray, float]]" = []
        #: lifetime counters (surfaced in session stats / benchmarks)
        self.n_refactor = 0
        self.n_updates = 0
        self._factorize()

    # ------------------------------------------------------------------
    def _factorize(self) -> None:
        """(Re)factorize the current basis; drops the eta file.

        Partial pivoting keeps every entry of ``L`` within 1 in
        magnitude, so the stability checks read ``U`` alone: its
        diagonal for (near-)singularity, its entries for finiteness.
        """
        data, indices, indptr = self._ext.gather(self.basis)
        try:
            lu = splu_arrays(data, indices, indptr)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularBasisError(str(exc)) from exc
        if self._m:
            u_data, u_indices, u_indptr = lu.U
            diag = np.abs(csc_diagonal(self._m, u_data, u_indices, u_indptr))
            if (
                not (
                    (self._ext.finite or np.isfinite(data).all())
                    and np.isfinite(u_data[: u_indptr[-1]]).all()
                )
                or diag.min() <= _SINGULAR_TOL * max(1.0, diag.max())
            ):
                raise SingularBasisError("basis matrix is numerically singular")
        self._lu = lu
        self._etas = []
        self.n_refactor += 1

    def refactorize(self) -> None:
        """Public eager refactorization (drops the eta file)."""
        self._factorize()

    def matches(self, A, basis: np.ndarray) -> bool:
        """Is this the factorization of ``basis`` over the *same* ``A``?

        Used by warm re-solves to skip the load-time factorization: a
        session hands back the LUBasis of its previous solve, and when
        the requested basis is unchanged (identical ``A`` object — the
        :class:`ExtendedMatrix` or the matrix it was built from — and
        equal basic column set) the factorization is still valid as-is.
        """
        return (
            (A is self._ext or A is self._ext.source)
            and self.basis.shape == np.shape(basis)
            and bool((self.basis == basis).all())
        )

    @property
    def updates_since_refactor(self) -> int:
        return len(self._etas)

    # ------------------------------------------------------------------
    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``[A | I]`` (a fresh dense vector)."""
        return self._ext.column(j)

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """Solve ``B x = v`` (``v`` is not modified)."""
        x = self._lu.solve(v)
        for r, w, w_r in self._etas:
            t = x[r] / w_r
            if t != 0.0:
                x -= w * t
            x[r] = t
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        """Solve ``B^T y = v`` (``v`` is not modified)."""
        if not self._etas:
            return self._lu.solve(v, trans="T")
        y = np.array(v, dtype=float, copy=True)
        for r, w, w_r in reversed(self._etas):
            # the BLAS dot ``w @ y`` calls, then Python float arithmetic
            yr = y.item(r)
            y[r] = (yr - (w.dot(y).item() - w_r * yr)) / w_r
        return self._lu.solve(y, trans="T")

    # ------------------------------------------------------------------
    def replace_column(self, r: int, j: int, w: "np.ndarray | None" = None) -> None:
        """Basis change: column ``j`` becomes basic in position ``r``.

        ``w`` is the FTRAN of the entering column (``B^{-1} a_j``) under
        the *current* factorization; when omitted it is recomputed. If
        the eta pivot ``w[r]`` is too small for a stable product-form
        update, or the eta file is full, the basis is refactorized from
        scratch instead of updated.

        Raises
        ------
        SingularBasisError
            If the post-pivot basis does not factorize (the caller
            chose a pivot that makes ``B`` singular).
        """
        if w is None:
            w = self.ftran(self.column(j))
        self.basis[r] = j
        self.n_updates += 1
        scale = float(np.abs(w).max(initial=0.0))
        w_r = float(w[r])
        if (
            len(self._etas) >= self.refactor_every
            or abs(w_r) <= _ETA_PIVOT_TOL * max(1.0, scale)
        ):
            self._factorize()
            return
        self._etas.append((int(r), np.array(w, dtype=float, copy=True), w_r))
