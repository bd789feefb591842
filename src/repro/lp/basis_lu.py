"""Sparse LU-factorized simplex basis with product-form eta updates.

The revised simplex (:mod:`repro.lp.revised`) never forms ``B^{-1}``:
every iteration needs one FTRAN (solve ``B x = v``) and one BTRAN
(solve ``B^T y = v``), and every pivot replaces exactly one basis
column. :class:`LUBasis` supports exactly that access pattern:

* a **sparse base factorization** of ``B_0`` by SuperLU
  (:func:`scipy.sparse.linalg.splu`, partial pivoting), taken when the
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

The column convention matches the bounded revised simplex: columns
``[0, n)`` are the structural columns of ``A``; columns ``[n, n + m)``
are slack identity columns (coefficient ``+1`` in their row).
:class:`ExtendedMatrix` holds ``[A | I]`` once in compressed-column
form, so ``B`` is gathered from it by array indexing alone.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: an eta pivot element smaller than this (relative to the eta column's
#: magnitude) triggers an eager refactorization instead of an update
_ETA_PIVOT_TOL = 1e-8

#: absolute floor under which a pivot is unusable even right after a
#: fresh factorization
_SINGULAR_TOL = 1e-11


class SingularBasisError(Exception):
    """The requested basis is singular (or numerically so)."""


class ExtendedMatrix:
    """``[A | I]`` in compressed-column (CSC) form, built once per ``A``.

    The slack columns are unit columns, so the whole extended matrix is
    one set of CSC arrays (``indptr``/``indices``/``data``). Two
    read-only views share them: :attr:`cols`, the ``m x (n + m)`` CSC
    matrix, for ``[A | I] @ x``; and :attr:`rows`, the same arrays read
    as the CSR matrix of the transpose, for ``y @ [A | I]`` — a
    transpose stored once instead of built per product.

    ``A`` may be dense or any scipy sparse matrix; ``source`` keeps the
    object it was built from, so :meth:`LUBasis.matches` recognises
    either one.
    """

    __slots__ = ("source", "m", "n", "indptr", "indices", "data", "cols", "rows")

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
        arrays = (self.data, self.indices, self.indptr)
        self.cols = sp.csc_matrix(arrays, shape=(m, n + m))
        self.rows = sp.csr_matrix(arrays, shape=(n + m, m))

    @classmethod
    def of(cls, A) -> "ExtendedMatrix":
        """``A`` itself when it already is one, else a fresh build."""
        return A if isinstance(A, cls) else cls(A)

    @property
    def shape(self) -> "tuple[int, int]":
        """Shape of ``A`` (not of ``[A | I]``)."""
        return self.m, self.n

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``[A | I]`` as a fresh dense vector."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        col = np.zeros(self.m)
        col[self.indices[lo:hi]] = self.data[lo:hi]
        return col

    def gather(self, columns: np.ndarray) -> sp.csc_matrix:
        """The ``m x len(columns)`` CSC submatrix of ``[A | I]``."""
        starts = self.indptr[columns]
        counts = self.indptr[columns + 1] - starts
        indptr = np.zeros(columns.size + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return sp.csc_matrix(
            (self.data[take], self.indices[take], indptr),
            shape=(self.m, columns.size),
        )


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
        #: eta file: (pivot row r, eta column w = B^{-1} a_entering)
        self._etas: "list[tuple[int, np.ndarray]]" = []
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
        B = self._ext.gather(self.basis)
        try:
            # no supernode relaxation: a basis this sparse gains nothing
            # from padded supernodes except their explicit zeros
            lu = splu(B, relax=1, panel_size=1)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularBasisError(str(exc)) from exc
        if self._m:
            U = lu.U
            diag = np.abs(U.diagonal())
            if (
                not (np.all(np.isfinite(B.data)) and np.all(np.isfinite(U.data)))
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
            and bool(np.array_equal(self.basis, basis))
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
        for r, w in self._etas:
            t = x[r] / w[r]
            if t != 0.0:
                x -= w * t
            x[r] = t
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        """Solve ``B^T y = v`` (``v`` is not modified)."""
        if not self._etas:
            return self._lu.solve(v, trans="T")
        y = np.array(v, dtype=float, copy=True)
        for r, w in reversed(self._etas):
            yr = y[r]
            y[r] = (yr - (w @ y - w[r] * yr)) / w[r]
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
        scale = float(np.max(np.abs(w))) if w.size else 0.0
        if (
            len(self._etas) >= self.refactor_every
            or abs(w[r]) <= _ETA_PIVOT_TOL * max(1.0, scale)
        ):
            self._factorize()
            return
        self._etas.append((int(r), np.array(w, dtype=float, copy=True)))
