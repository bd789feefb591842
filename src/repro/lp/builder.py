"""Sparse matrix assembly of program (7).

``build_lp`` turns a :class:`~repro.core.problem.SteadyStateProblem`
into an :class:`LPInstance` in the canonical form

    maximize  obj @ x
    s.t.      A_ub @ x <= b_ub,     lb <= x <= ub

with rows for Equations (7b) compute capacity, (7c) local links,
(7d) backbone connection counts, (7e) route bandwidth, and — for the
MAXMIN objective — the linearisation rows ``t - pi_k * sum_l alpha[k,l]
<= 0``. The matrix is built in COO triplets and converted to CSR once,
so assembly stays O(non-zeros) even for large ``K``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.objectives import Objective, get_objective
from repro.core.problem import SteadyStateProblem
from repro.lp.indexing import VariableIndex, shared_variable_index


@dataclass
class LPInstance:
    """Program (7) in matrix form (maximisation sense).

    Attributes
    ----------
    obj:
        Objective coefficients; the LP maximises ``obj @ x``.
    A_ub, b_ub:
        Inequality system ``A_ub @ x <= b_ub`` (CSR sparse matrix).
    lb, ub:
        Variable box bounds (``ub`` may contain ``np.inf``). Callers
        may write them in place between solves: both engines, and the
        HiGHS memo's key, read the arrays themselves at solve time.
    index:
        The :class:`~repro.lp.indexing.VariableIndex` mapping flat
        positions back to ``alpha``/``beta`` entries.
    row_labels:
        One short label per row of ``A_ub`` (diagnostics and tests).
    """

    obj: np.ndarray
    A_ub: sp.csr_matrix
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    index: VariableIndex
    row_labels: list = field(default_factory=list)
    _row_map: "dict | None" = field(default=None, repr=False, compare=False)

    @property
    def n_vars(self) -> int:
        return self.obj.shape[0]

    @property
    def n_rows(self) -> int:
        return self.A_ub.shape[0]

    def row_id(self, label: str) -> int:
        """Row index of the constraint labelled ``label`` (KeyError if absent)."""
        if self._row_map is None:
            self._row_map = {lab: i for i, lab in enumerate(self.row_labels)}
        return self._row_map[label]

    def has_row(self, label: str) -> bool:
        """True when a constraint row labelled ``label`` exists."""
        if self._row_map is None:
            self._row_map = {lab: i for i, lab in enumerate(self.row_labels)}
        return label in self._row_map

    def with_bounds(self, lb: np.ndarray, ub: np.ndarray) -> "LPInstance":
        """Copy sharing matrices but with different box bounds (B&B, LPRR)."""
        return LPInstance(
            obj=self.obj,
            A_ub=self.A_ub,
            b_ub=self.b_ub,
            lb=np.asarray(lb, dtype=float),
            ub=np.asarray(ub, dtype=float),
            index=self.index,
            row_labels=self.row_labels,
        )

    def fresh_copy(self) -> "LPInstance":
        """Independent-data copy sharing the immutable structure.

        ``obj``/``b_ub``/``lb``/``ub`` are copied because callers (the
        session-backed heuristics) mutate them in place; ``A_ub``,
        ``index`` and ``row_labels`` are shared — nothing in the library
        writes to them after assembly.
        """
        return LPInstance(
            obj=self.obj.copy(),
            A_ub=self.A_ub,
            b_ub=self.b_ub.copy(),
            lb=self.lb.copy(),
            ub=self.ub.copy(),
            index=self.index,
            row_labels=self.row_labels,
            _row_map=self._row_map,
        )


class _COOBuilder:
    """Accumulate (row, col, value) triplets for one CSR conversion."""

    def __init__(self):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.rhs: list[float] = []
        self.labels: list[str] = []
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def new_row(self, rhs: float, label: str) -> int:
        self.rhs.append(float(rhs))
        self.labels.append(label)
        return len(self.rhs) - 1

    def set(self, row: int, col: int, value: float) -> None:
        self.rows.append(row)
        self.cols.append(col)
        self.vals.append(float(value))

    def set_many(self, rows, cols, vals) -> None:
        """Batch variant of :meth:`set` backed by NumPy arrays.

        ``vals`` may be a scalar (broadcast over all entries). One call
        appends a whole block of triplets without a Python-level loop.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.shape != cols.shape:
            raise ValueError(
                f"rows/cols length mismatch: {rows.shape} vs {cols.shape}"
            )
        vals = np.broadcast_to(
            np.asarray(vals, dtype=float), rows.shape
        ).copy()
        if rows.size:
            self._chunks.append((rows, cols, vals))

    def to_csr(self, n_vars: int) -> tuple[sp.csr_matrix, np.ndarray]:
        rows = [np.asarray(self.rows, dtype=np.int64)]
        cols = [np.asarray(self.cols, dtype=np.int64)]
        vals = [np.asarray(self.vals, dtype=float)]
        for r, c, v in self._chunks:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        matrix = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(self.rhs), n_vars),
        ).tocsr()
        return matrix, np.asarray(self.rhs, dtype=float)


class LPBuildCache:
    """Cross-call cache of assembled program-(7) instances.

    Templates are keyed by ``(platform fingerprint, objective, payoffs)``
    — everything the assembled matrices depend on — so repeated solves of
    the same (or an equal-but-distinct) problem skip the whole COO
    assembly. :meth:`fetch` returns a :meth:`LPInstance.fresh_copy`, so
    callers may mutate bounds/RHS freely while the pristine template
    survives; results are therefore bitwise-identical with and without
    the cache. All copies of a template share its CSR ``A_ub`` and its
    :class:`~repro.lp.indexing.VariableIndex`, so an equal-but-distinct
    platform that hits a template builds no index either.

    Install with :func:`use_build_cache`; :class:`repro.api.Solver` owns
    one per instance — it is the facade's cross-call warm state. The
    counters feed ``benchmarks/bench_api_reuse.py``: ``cold_builds``
    counts actual assemblies, ``build_hits`` the assemblies avoided.

    Beside the templates sits a memo of HiGHS optima: a bounded LRU
    (``max_entries`` like the template store) from
    :meth:`solution_key` — a blake2b digest of everything HiGHS reads
    from an instance — to the optimal ``x`` and value.
    :func:`repro.lp.scipy_backend.solve_lp_scipy` consults it whenever a
    cache is active, so a relaxation solved once (LPRG's single LP for
    a pooled service platform; the LP bound, LPR and LPRG of one sweep
    task) is not solved again. HiGHS is deterministic on identical
    input, so a hit is bitwise what a fresh solve returns; the memo
    keeps a private copy of ``x`` and hands out copies, and errors are
    never memoized. ``solution_hits`` counts the solves avoided.

    Thread safety: every lookup/insert/counter mutation holds an
    internal re-entrant lock, so one cache may back concurrent solves
    from many threads (the :mod:`repro.service` request path hammers a
    pooled :class:`repro.api.Solver` this way). The lock guards only the
    cache's own state — the returned template and solution *copies* are
    private to the caller, and the shared ``A_ub`` is read-only by
    contract — so solves themselves still run concurrently.

    Both stores are single-flight. The first miss of a key in
    :meth:`fetch` or :meth:`fetch_solution` returns ``None`` and makes
    its caller the key's producer; a concurrent miss of the same key
    waits until the producer's :meth:`store` / :meth:`store_solution`,
    then reads the entry as a hit. So concurrent first solves of one
    problem assemble program (7) once and call HiGHS once. A producer
    whose build or solve fails calls :meth:`release`: the waiters wake,
    nothing is memoized, and one of them becomes the next producer.
    """

    def __init__(self, max_entries: int = 64):
        self.max_entries = int(max_entries)
        self._templates: "dict[tuple, LPInstance]" = {}
        self._solutions: "OrderedDict[bytes, tuple[np.ndarray, float]]" = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        #: keys being built or solved, each with the event its producer
        #: sets when it stores or releases the key
        self._producing: "dict[tuple | bytes, threading.Event]" = {}
        self.build_hits = 0
        self.cold_builds = 0
        self.solution_hits = 0

    # ------------------------------------------------------------------
    def key_for(
        self,
        problem: SteadyStateProblem,
        obj_fn: Objective,
        base_throughputs: "np.ndarray | None",
    ) -> "tuple | None":
        """Cache key for a build request, or ``None`` when uncacheable.

        Residual re-solves (non-zero ``base_throughputs``) and custom
        objective instances are built fresh every time: the former are
        one-shot programs, the latter could shadow a registered name
        with different coefficients.
        """
        if base_throughputs is not None and np.any(base_throughputs):
            return None
        if get_objective(obj_fn.name) is not obj_fn:
            return None
        from repro.platform.serialization import platform_fingerprint

        try:
            fingerprint = platform_fingerprint(problem.platform)
        except Exception:  # unserialisable platform stand-in
            return None
        return (fingerprint, obj_fn.name, problem.payoffs.tobytes())

    def _single_flight(self, key, lookup):
        """``lookup()`` under the lock until it finds an entry (returned)
        or no other thread is producing ``key``: then this caller claims
        the key and gets ``None``."""
        while True:
            with self._lock:
                found = lookup()
                if found is not None:
                    return found
                producing = self._producing.get(key)
                if producing is None:
                    self._producing[key] = threading.Event()
                    return None
            producing.wait()

    def release(self, key) -> None:
        """End this caller's claim on ``key`` and wake its waiters.

        :meth:`store` and :meth:`store_solution` call it; a producer
        whose build or HiGHS solve failed calls it directly, so no
        waiter is stranded and nothing is memoized."""
        with self._lock:
            producing = self._producing.pop(key, None)
        if producing is not None:
            producing.set()

    def fetch(self, key: tuple) -> "LPInstance | None":
        """A fresh copy of the template for ``key``; ``None`` makes the
        caller its producer, who must :meth:`store` or :meth:`release`
        it (a concurrent miss waits for that)."""

        def lookup():
            template = self._templates.get(key)
            if template is None:
                return None
            self.build_hits += 1
            return template.fresh_copy()

        return self._single_flight(key, lookup)

    def store(self, key: "tuple | None", instance: LPInstance) -> None:
        with self._lock:
            self.cold_builds += 1
            if key is None:
                return
            self._templates[key] = instance.fresh_copy()
            while len(self._templates) > self.max_entries:
                oldest = next(iter(self._templates))
                del self._templates[oldest]
        self.release(key)

    # ------------------------------------------------------------------
    @staticmethod
    def solution_key(instance: LPInstance) -> bytes:
        """Digest of the instance's full content, the memo key.

        Covers ``A_ub`` (shape, indptr, indices, data) plus ``obj``,
        ``b_ub``, ``lb`` and ``ub``, each with its dtype and length, so
        two instances share a key only when HiGHS would read the same
        program from them.
        """
        A = instance.A_ub
        arrays = (
            A.indptr, A.indices, A.data,
            instance.obj, instance.b_ub, instance.lb, instance.ub,
        )
        layout = [A.shape] + [(a.dtype.str, a.shape) for a in arrays]
        digest = hashlib.blake2b(repr(layout).encode(), digest_size=20)
        for array in arrays:
            digest.update(np.ascontiguousarray(array))
        return digest.digest()

    def fetch_solution(self, key: bytes) -> "tuple[np.ndarray, float] | None":
        """A copy of the memoized ``(x, value)`` for ``key``; ``None``
        makes the caller its producer, who must :meth:`store_solution`
        or :meth:`release` it (a concurrent miss waits for that)."""

        def lookup():
            found = self._solutions.get(key)
            if found is not None:
                self._solutions.move_to_end(key)
                self.solution_hits += 1
            return found

        found = self._single_flight(key, lookup)
        if found is None:
            return None
        x, value = found
        return x.copy(), value

    def store_solution(self, key: bytes, x: np.ndarray, value: float) -> None:
        """Memoize a private copy of an optimum (least recently used
        entries go first once ``max_entries`` are held)."""
        with self._lock:
            self._solutions[key] = (np.array(x, dtype=float), float(value))
            self._solutions.move_to_end(key)
            while len(self._solutions) > self.max_entries:
                self._solutions.popitem(last=False)
        self.release(key)

    def stats(self) -> dict:
        with self._lock:
            return {
                "cold_builds": self.cold_builds,
                "build_hits": self.build_hits,
                "templates": len(self._templates),
                "solution_hits": self.solution_hits,
                "solutions": len(self._solutions),
            }


_ACTIVE_BUILD_CACHE: "ContextVar[LPBuildCache | None]" = ContextVar(
    "repro_lp_build_cache", default=None
)


def active_build_cache() -> "LPBuildCache | None":
    """The :class:`LPBuildCache` installed for the current context."""
    return _ACTIVE_BUILD_CACHE.get()


@contextmanager
def use_build_cache(cache: LPBuildCache):
    """Install ``cache`` for :func:`build_lp` / ``LPSession`` in the block.

    Nesting is outer-wins: if a cache is already active, the block keeps
    it (and yields it), so batched drivers — ``Solver.solve_many`` over
    per-instance ``solve`` calls — compose into one shared cache instead
    of shadowing each other.
    """
    current = _ACTIVE_BUILD_CACHE.get()
    if current is not None:
        yield current
        return
    token = _ACTIVE_BUILD_CACHE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE_BUILD_CACHE.reset(token)


def build_lp(
    problem: SteadyStateProblem,
    objective: "str | Objective | None" = None,
    base_throughputs: "np.ndarray | None" = None,
) -> LPInstance:
    """Assemble the rational relaxation of program (7).

    Parameters
    ----------
    problem:
        Platform + applications; the objective defaults to
        ``problem.objective`` but can be overridden.
    base_throughputs:
        Per-application throughput already secured outside this LP
        (iterated heuristics solve on *residual* capacity). Under MAXMIN
        the linearisation rows become ``t - pi_k * sum_l alpha[k, l] <=
        pi_k * base_k`` so ``t`` bounds the combined value; under SUM the
        base is a constant and changes nothing.
    """
    from repro.obs.trace import current_tracer

    tracer = current_tracer()
    if not tracer.enabled:
        return _build_lp(problem, objective, base_throughputs)
    cache = active_build_cache()
    hits_before = cache.stats()["build_hits"] if cache is not None else 0
    with tracer.span("lp_build") as span:
        instance = _build_lp(problem, objective, base_throughputs)
        span.set(
            cache_hit=(
                cache is not None
                and cache.stats()["build_hits"] > hits_before
            ),
            n_vars=int(instance.obj.shape[0]),
            n_rows=int(instance.b_ub.shape[0]),
        )
    return instance


def _build_lp(
    problem: SteadyStateProblem,
    objective: "str | Objective | None" = None,
    base_throughputs: "np.ndarray | None" = None,
) -> LPInstance:
    obj_fn = get_objective(objective) if objective is not None else problem.objective
    K = problem.platform.n_clusters
    if base_throughputs is None:
        base_throughputs = np.zeros(K)
    else:
        base_throughputs = np.asarray(base_throughputs, dtype=float)
        if base_throughputs.shape != (K,):
            raise ValueError(
                f"base_throughputs must have shape ({K},), got "
                f"{base_throughputs.shape}"
            )

    cache = active_build_cache()
    if cache is None:
        return _assemble(problem, obj_fn, base_throughputs)
    cache_key = cache.key_for(problem, obj_fn, base_throughputs)
    if cache_key is not None:
        cached = cache.fetch(cache_key)
        if cached is not None:
            return cached
    try:
        instance = _assemble(problem, obj_fn, base_throughputs)
    except BaseException:
        cache.release(cache_key)
        raise
    cache.store(cache_key, instance)
    return instance


def _assemble(
    problem: SteadyStateProblem,
    obj_fn: Objective,
    base_throughputs: np.ndarray,
) -> LPInstance:
    """Program (7) for ``problem`` under ``obj_fn``, built from scratch."""
    platform = problem.platform
    payoffs = problem.payoffs
    K = platform.n_clusters
    index = shared_variable_index(platform, with_t=(obj_fn.name == "maxmin"))
    n = index.n_vars
    builder = _COOBuilder()

    # (7b) compute capacity: sum_l alpha[l, k] <= s_k
    speeds = platform.speeds
    compute_rows = [builder.new_row(speeds[k], f"compute[{k}]") for k in range(K)]
    # (7c) local link: sum_{l != k} alpha[k, l] + sum_{j != k} alpha[j, k] <= g_k
    g = platform.local_capacities
    local_rows = [builder.new_row(g[k], f"local[{k}]") for k in range(K)]

    # alpha[k, l] occupies flat position i of alpha_pairs; the (7b)/(7c)
    # coefficient blocks go in as three fancy-indexed batches.
    alpha_pair_arr = np.asarray(index.alpha_pairs, dtype=np.int64).reshape(-1, 2)
    alpha_cols = np.arange(index.n_alpha, dtype=np.int64)
    compute_row_of = np.asarray(compute_rows, dtype=np.int64)
    local_row_of = np.asarray(local_rows, dtype=np.int64)
    builder.set_many(compute_row_of[alpha_pair_arr[:, 1]], alpha_cols, 1.0)
    remote = alpha_pair_arr[:, 0] != alpha_pair_arr[:, 1]
    builder.set_many(local_row_of[alpha_pair_arr[remote, 0]], alpha_cols[remote], 1.0)
    builder.set_many(local_row_of[alpha_pair_arr[remote, 1]], alpha_cols[remote], 1.0)

    # (7d) connection counts per backbone link
    for name in sorted(platform.links):
        link = platform.links[name]
        pairs = [p for p in platform.routes_through(name) if index.has_beta(*p)]
        if not pairs:
            continue
        row = builder.new_row(link.max_connect, f"connect[{name}]")
        for (k, l) in pairs:
            builder.set(row, index.beta(k, l), 1.0)

    # (7e) route bandwidth: alpha[k, l] - beta[k, l] * bw_route <= 0
    for (k, l) in index.beta_pairs:
        bw = platform.route_bandwidth(k, l)
        row = builder.new_row(0.0, f"bandwidth[{k},{l}]")
        builder.set(row, index.alpha(k, l), 1.0)
        builder.set(row, index.beta(k, l), -bw)

    # MAXMIN linearisation: t - pi_k * alpha_k <= pi_k * base_k for
    # participating apps (base_k = 0 in the plain formulation).
    if index.with_t:
        for k in range(K):
            if payoffs[k] <= 0:
                continue
            row = builder.new_row(payoffs[k] * base_throughputs[k], f"maxmin[{k}]")
            builder.set(row, index.t_index, 1.0)
            mine = alpha_cols[alpha_pair_arr[:, 0] == k]
            builder.set_many(np.full(mine.size, row, dtype=np.int64), mine, -payoffs[k])

    A_ub, b_ub = builder.to_csr(n)

    # objective (maximisation sense)
    obj = np.zeros(n, dtype=float)
    if obj_fn.name == "sum":
        obj[alpha_cols] = payoffs[alpha_pair_arr[:, 0]]
    else:
        obj[index.t_index] = 1.0

    # box bounds: alpha >= 0 free above; beta in [0, route connection cap]
    lb = np.zeros(n, dtype=float)
    ub = np.full(n, np.inf, dtype=float)
    for (k, l) in index.beta_pairs:
        ub[index.beta(k, l)] = float(platform.route(k, l).connection_cap)
    if index.with_t and not np.any(payoffs > 0):
        # No participating application: the MAXMIN value is 0 by
        # convention and t has no linearisation row to bound it.
        ub[index.t_index] = 0.0

    return LPInstance(
        obj=obj,
        A_ub=A_ub,
        b_ub=b_ub,
        lb=lb,
        ub=ub,
        index=index,
        row_labels=builder.labels,
    )
