"""Streaming sweep aggregation: constant-memory million-row campaigns.

The PR-1 campaign engine made sweep *execution* scale; this module makes
sweep *aggregation* scale. Instead of materialising every per-replicate
:class:`~repro.experiments.runner.ExperimentRow` in a Python list and
reducing it afterwards (memory O(rows)), each completed task is folded
into a set of mergeable constant-size accumulators as it arrives, and
the raw rows flow to a pluggable :class:`RowSink` (JSONL/CSV on disk, or
discarded) — memory O(settings), never O(rows).

Determinism guarantee
---------------------
The whole point of the PR-1 protocol is that results never depend on
``jobs``, chunking or resume patterns. Streaming keeps that guarantee by
*pinning the fold order to the task index*: :class:`StreamFold` holds a
small reorder buffer of out-of-order completions and only ever folds the
next task in index order. Every execution therefore performs the exact
same floating-point operations in the exact same sequence, so the
streamed aggregate tables are **bitwise-identical** for any ``jobs``,
``chunk_size`` or mid-sweep crash/resume pattern (pinned by
``tests/test_stream_equivalence.py``). The in-memory reference is
:meth:`SweepAccumulator.from_rows` over the materialised row list — the
same fold, applied to the same rows in the same order.

Checkpoint integration
----------------------
With a :class:`~repro.parallel.checkpoint.CampaignCheckpoint`, the fold
periodically saves an accumulator snapshot (``save_state`` — an
atomically-replaced sidecar file, O(accumulator) on disk for any
campaign length) holding the number of folded prefix tasks, the
accumulator state and the row sink's byte offset. On resume the fold
restores the snapshot, the sink truncates back to the recorded offset,
and the checkpoint replaces the snapshot-covered prefix results with a
sentinel — so a resumed streaming sweep neither re-runs nor
re-materialises the folded prefix.

Extension point
---------------
New reducers subclass nothing: an accumulator is anything with
``update``-style folding plus ``merge``/``state_dict``/``from_state``.
:class:`SweepAccumulator` composes the reducer families the paper's
tables need (count, exact mean-variance, min-max, fixed-bin quantile
sketch, ratio-vs-bound); register additional per-row statistics by
extending it (or by wrapping it) and the engine-side plumbing
(:class:`StreamFold`, checkpointing, sinks) is inherited unchanged.

Merge exactness
---------------
Every reducer here merges by **exact integer arithmetic** — counts,
histogram bins, min/max, and integer-mantissa sums for the moments
(:class:`_ExactSum`) — so ``merge`` is exactly associative and
commutative, not merely "up to rounding". Folding a row stream in one
pass and merging any partition of it into per-part accumulators produce
bit-identical state. That algebra is what lets the :mod:`repro.distrib`
shard layer promise aggregate tables bitwise-identical to the serial
path for any shard count, backend, or crash/resume pattern.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.parallel.checkpoint import PREFOLDED
from repro.util.errors import SolverError

#: pairwise value-ratio series tracked by default (Section 6.1's
#: headline "LPRG over G" numbers)
DEFAULT_PAIRWISE = (("lprg", "greedy"),)

#: rows with ``value <= ZERO_TOL`` count as zero-valued (here and in
#: :func:`repro.experiments.aggregate.lpr_failure_stats`)
ZERO_TOL = 1e-9


# ----------------------------------------------------------------------
# reducer algebra: constant-size, mergeable, JSON-serialisable
# ----------------------------------------------------------------------
class CountAccumulator:
    """Counts observations, plus how many satisfied a predicate."""

    __slots__ = ("total", "hits")

    def __init__(self, total: int = 0, hits: int = 0):
        self.total = int(total)
        self.hits = int(hits)

    def update(self, hit: bool = False) -> None:
        self.total += 1
        if hit:
            self.hits += 1

    def merge(self, other: "CountAccumulator") -> None:
        self.total += other.total
        self.hits += other.hits

    @property
    def fraction(self) -> float:
        """Hit fraction (``nan`` while empty)."""
        return self.hits / self.total if self.total else float("nan")

    def state_dict(self) -> dict:
        return {"total": self.total, "hits": self.hits}

    @classmethod
    def from_state(cls, state: dict) -> "CountAccumulator":
        return cls(total=state["total"], hits=state["hits"])


class _ExactSum:
    """Exact running sum of finite floats (integer-mantissa arithmetic).

    Every finite double is the rational ``n / 2**k`` exactly
    (``float.as_integer_ratio``), so the sum of any number of doubles is
    held here as ``num / 2**scale`` with Python's arbitrary-precision
    integers — no rounding ever happens while accumulating, and the
    float is produced once, correctly rounded, at read time. That makes
    the sum **fully associative and commutative**: folding a row stream
    sequentially and merging per-shard partial sums produce the same
    state bit for bit, for any partition — the keystone of the
    :mod:`repro.distrib` merge guarantee. State stays tiny: ``scale`` is
    bounded by the largest input exponent (~1100 for doubles) and
    ``num`` by ~``scale + 53 + log2(count)`` bits.
    """

    __slots__ = ("num", "scale")

    def __init__(self, num: int = 0, scale: int = 0):
        self.num = int(num)
        self.scale = int(scale)

    def add_ratio(self, n: int, k: int) -> None:
        """Add the exact rational ``n / 2**k``."""
        if k > self.scale:
            self.num = (self.num << (k - self.scale)) + n
            self.scale = k
        else:
            self.num += n << (self.scale - k)

    def add(self, x: float) -> None:
        n, d = x.as_integer_ratio()
        self.add_ratio(n, d.bit_length() - 1)

    def add_square(self, x: float) -> None:
        """Add the exact rational ``x**2`` (no float squaring error)."""
        n, d = x.as_integer_ratio()
        self.add_ratio(n * n, 2 * (d.bit_length() - 1))

    def merge(self, other: "_ExactSum") -> None:
        self.add_ratio(other.num, other.scale)

    def fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.scale)

    def over(self, count: int) -> float:
        """``sum / count`` as a correctly-rounded float (CPython's big-int
        true division rounds correctly, so this is the closest double to
        the exact mean)."""
        return self.num / ((1 << self.scale) * count)

    def state(self) -> list:
        return [self.num, self.scale]

    @classmethod
    def from_state(cls, state: "Sequence[int]") -> "_ExactSum":
        return cls(int(state[0]), int(state[1]))


class MeanVarAccumulator:
    """Mean/variance reducer with *exactly mergeable* state.

    Instead of Welford running moments (whose Chan-style ``merge`` is
    only associative up to float rounding), the accumulator keeps the
    exact integer-mantissa sums of its inputs and their squares
    (:class:`_ExactSum`): ``mean`` and ``variance`` are computed from
    the exact sums at read time, correctly rounded once. Consequently
    ``merge`` over any partition of the input stream — shards, chunks,
    resume patterns — yields **bitwise** the sequential fold's state and
    statistics, which is what lets :func:`repro.distrib.merge_shards`
    promise bitwise-identical aggregate tables for any shard count.
    Non-finite inputs are tallied separately (they have no integer
    ratio) with numpy-like read-out semantics: any NaN — or infinities
    of both signs — makes the mean NaN; one-signed infinities make it
    that infinity; the variance of any non-finite stream is NaN.
    """

    __slots__ = ("count", "_sum", "_sumsq", "n_nan", "n_posinf", "n_neginf")

    def __init__(self):
        self.count = 0
        self._sum = _ExactSum()
        self._sumsq = _ExactSum()
        self.n_nan = 0
        self.n_posinf = 0
        self.n_neginf = 0

    def _finite(self) -> bool:
        return not (self.n_nan or self.n_posinf or self.n_neginf)

    def update(self, x: float) -> None:
        x = float(x)
        self.count += 1
        if x - x != 0.0:  # NaN or +-inf
            if x != x:
                self.n_nan += 1
            elif x > 0:
                self.n_posinf += 1
            else:
                self.n_neginf += 1
            return
        self._sum.add(x)
        self._sumsq.add_square(x)

    def merge(self, other: "MeanVarAccumulator") -> None:
        self.count += other.count
        self._sum.merge(other._sum)
        self._sumsq.merge(other._sumsq)
        self.n_nan += other.n_nan
        self.n_posinf += other.n_posinf
        self.n_neginf += other.n_neginf

    @property
    def mean(self) -> float:
        if not self.count:
            return 0.0  # the empty accumulator's neutral read-out
        if not self._finite():
            if self.n_nan or (self.n_posinf and self.n_neginf):
                return float("nan")
            return math.inf if self.n_posinf else -math.inf
        return self._sum.over(self.count)

    @property
    def m2(self) -> float:
        """Sum of squared deviations from the mean (exact, then rounded)."""
        if not self.count:
            return 0.0
        if not self._finite():
            return float("nan")
        n = self.count
        exact = self._sumsq.fraction() - self._sum.fraction() ** 2 / n
        return float(exact)

    @property
    def variance(self) -> float:
        """Population variance (``ddof=0``, like ``np.var``'s default)."""
        if not self.count:
            return float("nan")
        if not self._finite():
            return float("nan")
        n = self.count
        exact = (self._sumsq.fraction() - self._sum.fraction() ** 2 / n) / n
        return float(exact)

    def mean_or_nan(self) -> float:
        return self.mean if self.count else float("nan")

    def state_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self._sum.state(),
            "sumsq": self._sumsq.state(),
            "nan": self.n_nan,
            "pinf": self.n_posinf,
            "ninf": self.n_neginf,
        }

    @classmethod
    def from_state(cls, state: dict) -> "MeanVarAccumulator":
        out = cls()
        out.count = int(state["count"])
        out._sum = _ExactSum.from_state(state["sum"])
        out._sumsq = _ExactSum.from_state(state["sumsq"])
        out.n_nan = int(state["nan"])
        out.n_posinf = int(state["pinf"])
        out.n_neginf = int(state["ninf"])
        return out


class MinMaxAccumulator:
    """Running minimum and maximum (``±inf`` identity while empty)."""

    __slots__ = ("vmin", "vmax")

    def __init__(self, vmin: float = math.inf, vmax: float = -math.inf):
        self.vmin = float(vmin)
        self.vmax = float(vmax)

    def update(self, x: float) -> None:
        x = float(x)
        if x < self.vmin:
            self.vmin = x
        if x > self.vmax:
            self.vmax = x

    def merge(self, other: "MinMaxAccumulator") -> None:
        if other.vmin < self.vmin:
            self.vmin = other.vmin
        if other.vmax > self.vmax:
            self.vmax = other.vmax

    def state_dict(self) -> dict:
        return {"vmin": self.vmin, "vmax": self.vmax}

    @classmethod
    def from_state(cls, state: dict) -> "MinMaxAccumulator":
        return cls(vmin=state["vmin"], vmax=state["vmax"])


class QuantileAccumulator:
    """Fixed-bin histogram quantile sketch: exact counts, mergeable.

    The deterministic alternative to P²/t-digest sketches (whose bin
    boundaries drift with update order): the value range is fixed up
    front and split into equal-width bins, so every update lands in a
    bin by pure arithmetic and ``merge`` is exact integer addition of
    counts. Update order and merge partitioning therefore can never
    change a single count — quantiles read off a merged pair of
    sketches are **bitwise** those of the sequential fold, the property
    the :mod:`repro.distrib` merge layer relies on. Values outside
    ``[lo, hi)`` (including ``+-inf``) are tallied in underflow/overflow
    counters and clamp their quantile read-out to the range edge; NaNs
    are counted separately and excluded. Quantiles are reported as bin
    midpoints — resolution ``(hi - lo) / n_bins``, which at the default
    ``[0, 2) / 256`` is ~0.008 on the ratio-to-LP-bound scale.
    """

    __slots__ = ("lo", "hi", "n_bins", "counts", "n_under", "n_over", "n_nan")

    def __init__(self, lo: float = 0.0, hi: float = 2.0, n_bins: int = 256):
        if not (lo < hi):
            raise SolverError(f"need lo < hi, got [{lo}, {hi})")
        if n_bins < 1:
            raise SolverError(f"n_bins must be >= 1, got {n_bins}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.n_bins = int(n_bins)
        self.counts = [0] * self.n_bins
        self.n_under = 0
        self.n_over = 0
        self.n_nan = 0

    def update(self, x: float) -> None:
        x = float(x)
        if x != x:
            self.n_nan += 1
        elif x < self.lo:
            self.n_under += 1
        elif x >= self.hi:
            self.n_over += 1
        else:
            index = int((x - self.lo) * self.n_bins / (self.hi - self.lo))
            # float rounding at the upper edge can overshoot by one
            self.counts[min(index, self.n_bins - 1)] += 1

    def merge(self, other: "QuantileAccumulator") -> None:
        if (other.lo, other.hi, other.n_bins) != (self.lo, self.hi, self.n_bins):
            raise SolverError(
                f"cannot merge quantile sketches with different bins: "
                f"[{self.lo}, {self.hi})/{self.n_bins} vs "
                f"[{other.lo}, {other.hi})/{other.n_bins}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.n_under += other.n_under
        self.n_over += other.n_over
        self.n_nan += other.n_nan

    @property
    def count(self) -> int:
        """Ranked observations (NaNs excluded)."""
        return self.n_under + self.n_over + sum(self.counts)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate (bin midpoint; NaN while empty)."""
        if not 0.0 <= q <= 1.0:
            raise SolverError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            return float("nan")
        rank = max(1, math.ceil(q * total))  # 1-based rank of the target
        if rank <= self.n_under:
            return self.lo
        rank -= self.n_under
        cumulative = 0
        width = (self.hi - self.lo) / self.n_bins
        for i, c in enumerate(self.counts):
            cumulative += c
            if rank <= cumulative:
                return self.lo + (i + 0.5) * width
        return self.hi  # target sits in the overflow tally

    def median(self) -> float:
        return self.quantile(0.5)

    def state_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "n_bins": self.n_bins,
            "counts": list(self.counts),
            "under": self.n_under,
            "over": self.n_over,
            "nan": self.n_nan,
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuantileAccumulator":
        out = cls(lo=state["lo"], hi=state["hi"], n_bins=state["n_bins"])
        out.counts = [int(c) for c in state["counts"]]
        if len(out.counts) != out.n_bins:
            raise SolverError(
                f"quantile sketch state has {len(out.counts)} counts for "
                f"{out.n_bins} bins"
            )
        out.n_under = int(state["under"])
        out.n_over = int(state["over"])
        out.n_nan = int(state["nan"])
        return out


class StatAccumulator:
    """One float series: count + exact mean/variance + min/max."""

    __slots__ = ("moments", "extrema")

    def __init__(self):
        self.moments = MeanVarAccumulator()
        self.extrema = MinMaxAccumulator()

    def update(self, x: float) -> None:
        self.moments.update(x)
        self.extrema.update(x)

    def merge(self, other: "StatAccumulator") -> None:
        self.moments.merge(other.moments)
        self.extrema.merge(other.extrema)

    @property
    def count(self) -> int:
        return self.moments.count

    @property
    def mean(self) -> float:
        return self.moments.mean_or_nan()

    def state_dict(self) -> dict:
        return {
            "moments": self.moments.state_dict(),
            "extrema": self.extrema.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StatAccumulator":
        out = cls()
        out.moments = MeanVarAccumulator.from_state(state["moments"])
        out.extrema = MinMaxAccumulator.from_state(state["extrema"])
        return out


class RatioBoundAccumulator:
    """Value-relative-to-LP-bound reducer for one method.

    Tracks the full stats of the ratio series — including a fixed-bin
    quantile sketch for median/p95 — plus the zero-value fraction: the
    streamed form of :func:`repro.experiments.aggregate.
    lpr_failure_stats` ("LPR ... sometimes rounds every beta to zero").
    """

    __slots__ = ("ratio", "zeros", "sketch")

    def __init__(self):
        self.ratio = StatAccumulator()
        self.zeros = CountAccumulator()
        self.sketch = QuantileAccumulator()

    def update(self, ratio: float, value: float) -> None:
        self.ratio.update(ratio)
        self.sketch.update(ratio)
        self.zeros.update(value <= ZERO_TOL)

    def merge(self, other: "RatioBoundAccumulator") -> None:
        self.ratio.merge(other.ratio)
        self.sketch.merge(other.sketch)
        self.zeros.merge(other.zeros)

    def stats(self) -> dict:
        return {
            "mean_ratio": self.ratio.mean,
            "zero_fraction": self.zeros.fraction,
            "median_ratio": self.sketch.median(),
            "p95_ratio": self.sketch.quantile(0.95),
        }

    def state_dict(self) -> dict:
        return {
            "ratio": self.ratio.state_dict(),
            "zeros": self.zeros.state_dict(),
            "sketch": self.sketch.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RatioBoundAccumulator":
        out = cls()
        out.ratio = StatAccumulator.from_state(state["ratio"])
        out.zeros = CountAccumulator.from_state(state["zeros"])
        out.sketch = QuantileAccumulator.from_state(state["sketch"])
        return out


class PairRatioAccumulator:
    """Mean of per-replicate ``value(num)/value(den)`` ratios.

    Mirrors :func:`repro.experiments.aggregate.pairwise_value_ratio`:
    a replicate where the denominator scored 0 contributes nothing when
    the numerator is also 0, and is counted as an (excluded-from-mean)
    infinity otherwise.
    """

    __slots__ = ("finite", "infinities")

    def __init__(self):
        self.finite = MeanVarAccumulator()
        self.infinities = 0

    def update(self, numerator_value: float, denominator_value: float) -> None:
        if denominator_value <= 0:
            if numerator_value > 0:
                self.infinities += 1
            return
        self.finite.update(numerator_value / denominator_value)

    def merge(self, other: "PairRatioAccumulator") -> None:
        self.finite.merge(other.finite)
        self.infinities += other.infinities

    @property
    def mean(self) -> float:
        return self.finite.mean_or_nan()

    def state_dict(self) -> dict:
        return {"finite": self.finite.state_dict(), "inf": self.infinities}

    @classmethod
    def from_state(cls, state: dict) -> "PairRatioAccumulator":
        out = cls()
        out.finite = MeanVarAccumulator.from_state(state["finite"])
        out.infinities = int(state["inf"])
        return out


# ----------------------------------------------------------------------
# the composite sweep aggregate
# ----------------------------------------------------------------------
def _group_key(method: str, objective: str, k: int) -> str:
    return f"{method}|{objective}|{k}"


def _split_group_key(key: str) -> tuple:
    method, objective, k = key.rsplit("|", 2)
    return method, objective, int(k)


class SweepAccumulator:
    """Everything :mod:`repro.experiments.aggregate` computes from raw
    rows, held as constant-size mergeable state.

    One instance replaces the materialised row list of a sweep: fold
    each task's row list with :meth:`fold_task` (or build one from an
    existing list with :meth:`from_rows` — the in-memory bitwise
    reference), then read the paper's tables through the accessors
    mirroring the classic aggregate functions (:meth:`mean_ratio_by_k`,
    :meth:`runtime_by_k`, :meth:`headline_ratios`,
    :meth:`lpr_failure_stats`). State size is O(distinct (method,
    objective, K) groups) — independent of replicate count.
    """

    #: bumped to 2 when the mean/variance reducers switched to exact
    #: integer-mantissa sums and the ratio quantile sketch landed (the
    #: repro.distrib merge guarantee); version-1 snapshots cannot be
    #: upgraded (running Welford moments do not determine exact sums)
    STATE_VERSION = 2

    def __init__(self, pairwise: Sequence = DEFAULT_PAIRWISE):
        #: (method, objective, k) -> ratio-to-LP stats
        self.ratio_groups: dict[str, StatAccumulator] = {}
        #: (method, objective, k) -> runtime stats
        self.runtime_groups: dict[str, StatAccumulator] = {}
        #: (numerator, denominator, objective) -> paired value ratios
        self.pair_groups: dict[str, PairRatioAccumulator] = {}
        #: method -> ratio-vs-bound failure stats
        self.method_groups: dict[str, RatioBoundAccumulator] = {}
        self.pairwise = tuple((str(n), str(d)) for n, d in pairwise)
        self.n_rows = 0
        self.n_tasks = 0

    # -- folding -------------------------------------------------------
    def fold_task(self, rows: Sequence) -> None:
        """Fold one replicate task's row list (order-sensitive: callers
        must present tasks in task-index order for bitwise stability)."""
        self.n_tasks += 1
        values: dict[str, dict[str, float]] = {}
        for row in rows:
            self.n_rows += 1
            key = _group_key(row.method, row.objective, row.setting.k)
            group = self.ratio_groups.get(key)
            if group is None:
                group = self.ratio_groups[key] = StatAccumulator()
                self.runtime_groups[key] = StatAccumulator()
            group.update(row.ratio)
            self.runtime_groups[key].update(row.runtime)
            method_group = self.method_groups.get(row.method)
            if method_group is None:
                method_group = self.method_groups[row.method] = (
                    RatioBoundAccumulator()
                )
            method_group.update(row.ratio, row.value)
            values.setdefault(row.objective, {})[row.method] = row.value
        for objective, by_method in values.items():
            for num, den in self.pairwise:
                if num in by_method and den in by_method:
                    key = f"{num}|{den}|{objective}"
                    pair = self.pair_groups.get(key)
                    if pair is None:
                        pair = self.pair_groups[key] = PairRatioAccumulator()
                    pair.update(by_method[num], by_method[den])

    @classmethod
    def from_rows(
        cls,
        rows: Sequence,
        methods: "Sequence[str] | None" = None,
        objectives: "Sequence[str] | None" = None,
        pairwise: Sequence = DEFAULT_PAIRWISE,
    ) -> "SweepAccumulator":
        """The in-memory reference fold: the exact aggregate a streaming
        sweep produces, computed from a materialised row list.

        Rows are re-chunked into their originating replicate tasks —
        arithmetically (``(1 + len(methods)) * len(objectives)`` rows per
        task) when the sweep's method/objective lists are given, else by
        the per-replicate boundary marker (each task's rows start with
        the LP-bound row of the first objective).
        """
        agg = cls(pairwise=pairwise)
        for task_rows in iter_task_groups(rows, methods, objectives):
            agg.fold_task(task_rows)
        return agg

    # -- algebra -------------------------------------------------------
    def merge(self, other: "SweepAccumulator") -> None:
        """Fold another partial aggregate into this one.

        **Exactly associative and order-insensitive**: every composed
        reducer merges by exact integer arithmetic (counts, extrema,
        histogram bins, integer-mantissa sums), so merging per-shard
        partials over *any* partition of a row stream reproduces the
        sequential fold's state — and therefore its tables — bit for
        bit. This is the algebraic contract :func:`repro.distrib.
        merge_shards` builds on (pinned by the partition property in
        ``tests/test_distrib_merge.py``)."""
        for attr in ("ratio_groups", "runtime_groups", "pair_groups",
                     "method_groups"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            for key, acc in theirs.items():
                if key in mine:
                    mine[key].merge(acc)
                else:
                    mine[key] = _copy_via_state(acc)
        self.n_rows += other.n_rows
        self.n_tasks += other.n_tasks

    # -- the paper's tables -------------------------------------------
    def mean_ratio_by_k(self, method: str, objective: str) -> list:
        """Streamed :func:`~repro.experiments.aggregate.mean_ratio_by_k`:
        ``[(k, mean value/LP ratio)]`` for one method+objective."""
        out = []
        for key, acc in self.ratio_groups.items():
            m, o, k = _split_group_key(key)
            if m == method and o == objective:
                out.append((k, acc.mean))
        return sorted(out)

    def runtime_by_k(self, method: str, objective: str = "maxmin") -> list:
        """Streamed :func:`~repro.experiments.aggregate.runtime_by_k`."""
        out = []
        for key, acc in self.runtime_groups.items():
            m, o, k = _split_group_key(key)
            if m == method and o == objective:
                out.append((k, acc.mean))
        return sorted(out)

    def pairwise_value_ratio(
        self, numerator: str, denominator: str, objective: str
    ) -> float:
        """Streamed :func:`~repro.experiments.aggregate.
        pairwise_value_ratio` (tracked pairs only)."""
        key = f"{numerator}|{denominator}|{objective}"
        if (numerator, denominator) not in self.pairwise:
            raise SolverError(
                f"pair ({numerator!r}, {denominator!r}) was not tracked by "
                f"this aggregate; tracked: {list(self.pairwise)}"
            )
        pair = self.pair_groups.get(key)
        return pair.mean if pair is not None else float("nan")

    def headline_ratios(self) -> dict:
        """Streamed :func:`~repro.experiments.aggregate.headline_ratios`."""
        return {
            objective: self.pairwise_value_ratio("lprg", "greedy", objective)
            for objective in ("maxmin", "sum")
        }

    def lpr_failure_stats(self) -> dict:
        """Streamed :func:`~repro.experiments.aggregate.lpr_failure_stats`."""
        return self.method_failure_stats("lpr")

    def method_failure_stats(self, method: str) -> dict:
        group = self.method_groups.get(method)
        if group is None:
            nan = float("nan")
            return {
                "mean_ratio": nan,
                "zero_fraction": nan,
                "median_ratio": nan,
                "p95_ratio": nan,
            }
        return group.stats()

    def series_labels(self) -> list:
        """Sorted distinct (method, objective) pairs seen by the fold."""
        seen = {_split_group_key(k)[:2] for k in self.ratio_groups}
        return sorted(seen)

    def ratio_stats(self) -> dict:
        """Full per-group ratio statistics (count / mean / variance /
        min / max) keyed by ``method|objective|k`` — the spread the
        exact-sum moment and min-max reducers track beyond the headline
        means."""
        out = {}
        for key in sorted(self.ratio_groups):
            acc = self.ratio_groups[key]
            out[key] = {
                "count": acc.count,
                "mean": acc.mean,
                "variance": acc.moments.variance,
                "min": acc.extrema.vmin,
                "max": acc.extrema.vmax,
            }
        return out

    def tables(self) -> dict:
        """Every aggregate as one JSON-compatible dict (sorted keys) —
        the comparison unit of the equivalence suite and the memory
        benchmark."""
        return {
            "n_rows": self.n_rows,
            "n_tasks": self.n_tasks,
            "mean_ratio_by_k": {
                f"{m}|{o}": self.mean_ratio_by_k(m, o)
                for m, o in self.series_labels()
            },
            "ratio_stats": self.ratio_stats(),
            "runtime_mean_by_k": {
                f"{m}|{o}": self.runtime_by_k(m, o)
                for m, o in self.series_labels()
            },
            "pairwise": {
                key: {"mean": acc.mean, "infinities": acc.infinities}
                for key, acc in sorted(self.pair_groups.items())
            },
            "method_failure": {
                method: group.stats()
                for method, group in sorted(self.method_groups.items())
            },
        }

    # -- persistence ---------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serialisable state; round-trips bitwise (Python's float
        repr is shortest-round-trip, so json preserves every bit)."""
        return {
            "version": self.STATE_VERSION,
            "pairwise": [list(p) for p in self.pairwise],
            "n_rows": self.n_rows,
            "n_tasks": self.n_tasks,
            "ratio_groups": {
                k: a.state_dict() for k, a in self.ratio_groups.items()
            },
            "runtime_groups": {
                k: a.state_dict() for k, a in self.runtime_groups.items()
            },
            "pair_groups": {
                k: a.state_dict() for k, a in self.pair_groups.items()
            },
            "method_groups": {
                k: a.state_dict() for k, a in self.method_groups.items()
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "SweepAccumulator":
        if state.get("version") != cls.STATE_VERSION:
            raise SolverError(
                f"cannot restore SweepAccumulator state version "
                f"{state.get('version')!r} (expected {cls.STATE_VERSION})"
            )
        agg = cls(pairwise=[tuple(p) for p in state["pairwise"]])
        agg.n_rows = int(state["n_rows"])
        agg.n_tasks = int(state["n_tasks"])
        agg.ratio_groups = {
            k: StatAccumulator.from_state(s)
            for k, s in state["ratio_groups"].items()
        }
        agg.runtime_groups = {
            k: StatAccumulator.from_state(s)
            for k, s in state["runtime_groups"].items()
        }
        agg.pair_groups = {
            k: PairRatioAccumulator.from_state(s)
            for k, s in state["pair_groups"].items()
        }
        agg.method_groups = {
            k: RatioBoundAccumulator.from_state(s)
            for k, s in state["method_groups"].items()
        }
        return agg


def _copy_via_state(acc):
    return type(acc).from_state(acc.state_dict())


def snapshot_compatible(state: dict) -> bool:
    """Can this build restore a checkpoint snapshot's accumulator state?

    The :class:`~repro.parallel.checkpoint.CampaignCheckpoint`
    ``snapshot_validator`` for streamed sweeps: a snapshot written by an
    older accumulator format (e.g. the pre-exact-sum ``STATE_VERSION``
    1) is rejected here — so the resume discards it with a warning and
    replays the still-intact task records, instead of crashing in
    :meth:`SweepAccumulator.from_state` after the replay payloads were
    already released.
    """
    try:
        aggregate = state.get("aggregate")
        return (
            isinstance(aggregate, dict)
            and aggregate.get("version") == SweepAccumulator.STATE_VERSION
        )
    except AttributeError:
        return False


def iter_task_groups(
    rows: Sequence,
    methods: "Sequence[str] | None" = None,
    objectives: "Sequence[str] | None" = None,
) -> Iterable[list]:
    """Split a materialised sweep row list back into per-task chunks.

    With the sweep's ``methods``/``objectives`` the chunk length is exact
    arithmetic; without, a new task starts at each LP-bound row of the
    first objective (``run_replicate`` emits it first), with a
    ``(setting, replicate)`` change as a fallback boundary.
    """
    rows = list(rows)
    if not rows:
        return
    if methods is not None and objectives is not None:
        per_task = (1 + len(methods)) * len(objectives)
        if len(rows) % per_task:
            raise SolverError(
                f"{len(rows)} rows is not a multiple of {per_task} "
                f"rows/task for {len(methods)} methods x "
                f"{len(objectives)} objectives"
            )
        for start in range(0, len(rows), per_task):
            yield rows[start : start + per_task]
        return
    first_objective = rows[0].objective
    group: list = []
    last_key = None
    for row in rows:
        replicate_key = (row.setting, row.replicate)
        starts_task = (
            row.method == "lp" and row.objective == first_objective
        ) or (group and replicate_key != last_key)
        if group and starts_task:
            yield group
            group = []
        group.append(row)
        last_key = replicate_key
    yield group


# ----------------------------------------------------------------------
# row sinks: where the raw rows go instead of RAM
# ----------------------------------------------------------------------
class RowSink:
    """Destination for raw sweep rows under streaming aggregation.

    The contract mirrors the fold's determinism: rows arrive strictly in
    task order, so a file sink's bytes are a pure function of the sweep
    — and exact crash/resume only needs :meth:`offset` (recorded in the
    accumulator snapshot) and :meth:`start` with that offset (which
    truncates whatever a crashed run wrote past it).
    """

    path: "Path | None" = None

    def start(self, offset: "int | None" = None) -> None:
        """Open for writing; ``offset=None`` starts fresh, an integer
        resumes by truncating back to that byte position."""

    def write_rows(self, rows: Sequence) -> None:
        """Append one task's rows."""

    def offset(self) -> int:
        """Current byte position (0 for non-file sinks)."""
        return 0

    def close(self) -> None:
        pass


class NullRowSink(RowSink):
    """Discard rows entirely (aggregate-only sweeps)."""


class _FileRowSink(RowSink):
    """Shared open/truncate/offset plumbing of the file-backed sinks."""

    #: ``open()`` newline mode ('' for csv-module writers, see the csv
    #: docs; None = universal for line-oriented text)
    _newline: "str | None" = None

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self._fh = None
        # deferred: importing persistence at module scope would pull the
        # whole experiments package into `import repro.parallel`
        from repro.experiments.persistence import row_to_dict

        self._row_to_dict = row_to_dict

    def start(self, offset: "int | None" = None) -> None:
        # offset 0 only arises from a snapshot taken before this sink
        # ever wrote (e.g. a resume that newly added a row sink): treat
        # it as a fresh start, not a resume of existing bytes.
        if offset is None or offset == 0:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", newline=self._newline)
            self._on_start()
            self._write_prologue()
            self._fh.flush()
            return
        if not self.path.exists():
            raise SolverError(
                f"cannot resume row sink {self.path}: file is missing "
                f"(expected at least {offset} bytes)"
            )
        if self.path.stat().st_size < offset:
            raise SolverError(
                f"cannot resume row sink {self.path}: file has "
                f"{self.path.stat().st_size} bytes, snapshot recorded "
                f"{offset}"
            )
        with self.path.open("r+") as fh:
            fh.truncate(offset)
        self._fh = self.path.open("a", newline=self._newline)
        self._on_start()

    def _on_start(self) -> None:
        """Hook: the file handle is open, per-handle state may build."""

    def _write_prologue(self) -> None:
        pass

    def write_rows(self, rows: Sequence) -> None:
        for row in rows:
            self._write_row(row)
        self._fh.flush()

    def _write_row(self, row) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def offset(self) -> int:
        return self._fh.tell() if self._fh is not None else 0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class JsonlRowSink(_FileRowSink):
    """Rows as JSON lines (the lossless format of
    :mod:`repro.experiments.persistence`)."""

    def _write_row(self, row) -> None:
        self._fh.write(json.dumps(self._row_to_dict(row), sort_keys=True))
        self._fh.write("\n")


class CsvRowSink(_FileRowSink):
    """Rows as CSV with the persistence module's fixed header."""

    _newline = ""  # the csv module handles line endings itself

    def __init__(self, path: "str | Path"):
        super().__init__(path)
        from repro.experiments.persistence import _FIELDS

        self._fields = list(_FIELDS)
        self._writer = None

    def _on_start(self) -> None:
        import csv

        self._writer = csv.DictWriter(self._fh, fieldnames=self._fields)

    def _write_prologue(self) -> None:
        self._writer.writeheader()

    def _write_row(self, row) -> None:
        self._writer.writerow(self._row_to_dict(row))


class CallbackRowSink(RowSink):
    """Tee sink: delegate to an inner sink, then hand each written batch
    to a callback.

    The streaming feed of the service layer: the fold writes rows
    strictly in task-index order, so the callback observes exactly the
    rows (and order) of the serial reference fold — after they are
    durably in the inner sink, so a consumer that saw a batch can trust
    the sink already holds it. Resume offsets are the inner sink's; a
    resumed prefix is *not* replayed through the callback (it was
    observed by the run that wrote it).
    """

    def __init__(self, callback: "Callable[[Sequence], None]", inner: RowSink):
        self.callback = callback
        self.inner = inner

    @property
    def path(self) -> "Path | None":  # the fold's sink identity check
        return self.inner.path

    def start(self, offset: "int | None" = None) -> None:
        self.inner.start(offset)

    def write_rows(self, rows: Sequence) -> None:
        self.inner.write_rows(rows)
        self.callback(rows)

    def offset(self) -> int:
        return self.inner.offset()

    def close(self) -> None:
        self.inner.close()


def open_row_sink(path: "str | Path | None") -> RowSink:
    """Sink for ``path``: ``None`` discards, ``*.csv`` writes CSV,
    anything else JSON lines."""
    if path is None:
        return NullRowSink()
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return CsvRowSink(path)
    return JsonlRowSink(path)


def validate_row_sink_path(path: "str | Path") -> Path:
    """Fail-fast check that a row sink path is writable.

    Raises :class:`SolverError` *before* a campaign starts when the
    parent directory is missing, not a directory, or not writable —
    instead of crashing mid-sweep with work already spent.
    """
    import os

    path = Path(path)
    parent = path.parent
    if not parent.exists():
        raise SolverError(
            f"row sink directory {parent} does not exist; create it "
            "before starting the sweep"
        )
    if not parent.is_dir():
        raise SolverError(f"row sink parent {parent} is not a directory")
    if path.exists() and path.is_dir():
        raise SolverError(f"row sink path {path} is a directory")
    probe = path if path.exists() else parent
    if not os.access(probe, os.W_OK):
        raise SolverError(f"row sink path {path} is not writable")
    return path


# ----------------------------------------------------------------------
# the engine-side consumer
# ----------------------------------------------------------------------
class StreamFold:
    """Order-pinning engine consumer: completions in, aggregate out.

    Accepts task results in *any* completion order (the engine's pool
    delivers whatever finishes first), holds the out-of-order ones in a
    reorder buffer, and folds strictly in task-index order — the
    determinism guarantee of the module docstring. Optionally writes
    each folded task's rows to a :class:`RowSink` and snapshots
    accumulator state into the campaign checkpoint every
    ``snapshot_every`` folded tasks.

    Buffer bounds: during a live pooled run the engine throttles chunk
    submission against :meth:`buffered_tasks`, so the buffer stays
    O(jobs x chunk_size) even when one pathologically slow task holds
    the fold back. On checkpoint resume the buffer is bounded by the
    completed records beyond the restored snapshot's prefix (those rows
    are already materialised by the checkpoint load; buffering keeps
    references, not copies).
    """

    def __init__(
        self,
        aggregator: SweepAccumulator,
        n_tasks: int,
        sink: "RowSink | None" = None,
        task_ids: "Sequence[str] | None" = None,
        checkpoint=None,
        snapshot_every: int = 32,
        rows_of: "Callable[[Any], Sequence] | None" = None,
    ):
        if checkpoint is not None and task_ids is None:
            raise SolverError("checkpointed streaming requires task_ids")
        if snapshot_every < 1:
            raise SolverError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.aggregator = aggregator
        self.sink = sink if sink is not None else NullRowSink()
        self.n_tasks = int(n_tasks)
        self.task_ids = list(task_ids) if task_ids is not None else None
        self.checkpoint = checkpoint
        self.snapshot_every = int(snapshot_every)
        #: task results completed out of order, awaiting their turn
        self.pending: dict[int, Any] = {}
        #: next task index to fold == number of tasks folded so far
        self.next_index = 0
        self._restored = 0
        self._started = False
        self.rows_of = rows_of if rows_of is not None else (lambda r: r)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the sink fresh (no snapshot to resume from)."""
        self.sink.start(None)
        self._started = True

    def restore(self, state: dict) -> None:
        """Resume from a checkpoint snapshot written by a previous run.

        The snapshot pins the row-sink identity: resuming with a
        different (added, dropped or relocated) sink would silently
        produce a sink file missing every snapshot-covered row, so a
        mismatch fails loudly instead.
        """
        snapshot_sink = state.get("row_sink")
        if snapshot_sink != self._sink_identity():
            raise SolverError(
                f"cannot resume: this streamed campaign ran with "
                f"row_sink={snapshot_sink!r} but is being resumed with "
                f"row_sink={self._sink_identity()!r}; the rows already "
                "folded into the snapshot would be missing from the new "
                "sink. Resume with the original row_sink (or restart "
                "without resume)."
            )
        self.aggregator = SweepAccumulator.from_state(state["aggregate"])
        self.next_index = self._restored = int(state["n_folded"])
        self.sink.start(int(state.get("sink_offset", 0)))
        self._started = True

    def _sink_identity(self) -> "str | None":
        path = self.sink.path
        return None if path is None else str(Path(path).resolve())

    # ------------------------------------------------------------------
    def buffered_tasks(self) -> int:
        """Out-of-order results currently held back (the engine's
        backpressure signal)."""
        return len(self.pending)

    # ------------------------------------------------------------------
    def add(self, index: int, result) -> None:
        """Engine callback: task ``index`` finished with ``result``."""
        if not self._started:
            self.start()
        if result is PREFOLDED:
            if index >= self._restored:
                raise SolverError(
                    f"task index {index} marked pre-folded but the restored "
                    f"snapshot only covers {self._restored} tasks"
                )
            return
        if index < self.next_index:
            raise SolverError(
                f"task index {index} delivered twice to the stream fold"
            )
        self.pending[index] = result
        while self.next_index in self.pending:
            rows = self.rows_of(self.pending.pop(self.next_index))
            self.aggregator.fold_task(rows)
            self.sink.write_rows(rows)
            if self.checkpoint is not None:
                self.checkpoint.mark_folded(self.task_ids[self.next_index])
            self.next_index += 1
            if (
                self.checkpoint is not None
                and self.next_index % self.snapshot_every == 0
            ):
                self._snapshot()

    def _snapshot(self) -> None:
        self.checkpoint.save_state(
            {
                "n_folded": self.next_index,
                "aggregate": self.aggregator.state_dict(),
                "sink_offset": self.sink.offset(),
                "row_sink": self._sink_identity(),
            }
        )

    # ------------------------------------------------------------------
    def finalize(self) -> SweepAccumulator:
        """Close out the fold; returns the completed aggregate."""
        if not self._started:
            self.start()  # empty campaign: still produce a valid sink
        if self.pending or self.next_index != self.n_tasks:
            raise SolverError(
                f"stream fold incomplete: folded {self.next_index} of "
                f"{self.n_tasks} tasks ({len(self.pending)} buffered)"
            )
        if self.checkpoint is not None:
            self._snapshot()
        self.sink.close()
        return self.aggregator
