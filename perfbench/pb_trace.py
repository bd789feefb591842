"""Traced runs: spans around each layer's public functions.

The traced run installs wrappers (:func:`install`) around the public
entry points of every layer a workload crosses, records one span per
call, and folds the spans into per-layer metrics
(:func:`layer_metrics`). Nothing here touches the program's own
telemetry (``repro.obs``), which stays off.

* A wrapper is patched where its caller looks the name up: ``from x
  import f`` binds ``f`` in the importing module, so a module-level
  function is replaced in every ``repro`` module that holds it (or, for
  per-site names, in the one module named). Methods are replaced on
  their class.
* Spans stay in memory: id, name, parent, request id, thread, start,
  end. High-rate leaf calls (LU solves and updates) are folded into
  per-name counters instead and charged to the enclosing span, which
  keeps the trace small and the overhead low.
* A span's self time is its duration minus the part of its interval
  covered by its children (on any thread), minus the leaf calls made
  directly inside it. A coalesced batch span lists the requests it
  served and counts as a child of each of their submit spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Iterable, Sequence


class Span:
    __slots__ = (
        "id", "name", "parent", "rid", "thread", "start", "end",
        "leaf_ns", "links", "attrs",
    )

    def __init__(self, sid, name, parent, rid, thread, start, end=None):
        self.id = sid
        self.name = name
        self.parent = parent
        self.rid = rid
        self.thread = thread
        self.start = start
        self.end = end
        self.leaf_ns = 0
        self.links: "list[int]" = []
        self.attrs: dict = {}

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "request": self.rid,
            "thread": self.thread,
            "start_ns": self.start,
            "end_ns": self.end,
            "leaf_ns": self.leaf_ns,
            "links": self.links,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span and counter store, safe to use from many threads."""

    def __init__(self):
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._per_thread: "list[tuple[dict, dict]]" = []
        #: request id -> its root span id / its submit span
        self.roots: "dict[object, int]" = {}
        self.submits: "dict[object, Span]" = {}
        #: request id -> when it entered the coalescer (ns)
        self.enqueued: "dict[object, int]" = {}
        #: solve seed / problem identity -> request id (service workload)
        self.rid_by_seed: dict = {}
        self.rid_by_problem: dict = {}

    # -- per-thread state -------------------------------------------------
    def _state(self):
        tls = self._tls
        try:
            return tls.stack, tls.leaves, tls.counts
        except AttributeError:
            tls.stack = []
            tls.leaves = defaultdict(lambda: [0, 0])
            tls.counts = defaultdict(int)
            with self._lock:
                self._per_thread.append((tls.leaves, tls.counts))
            return tls.stack, tls.leaves, tls.counts

    # -- spans ------------------------------------------------------------
    def open(self, name: str, rid=None, root: bool = False) -> Span:
        stack = self._state()[0]
        top = stack[-1] if stack else None
        if rid is None and top is not None:
            rid = top.rid
        if top is not None:
            parent = top.id
        elif not root and rid is not None:
            parent = self.roots.get(rid)
        else:
            parent = None
        span = Span(
            next(self._ids), name, parent, rid, threading.get_ident(),
            perf_counter_ns(),
        )
        if root and rid is not None:
            self.roots[rid] = span.id
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        stack = self._state()[0]
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - unbalanced wrapper; keep going
            stack.remove(span)

    def record(self, name, start, end, parent=None, rid=None, thread=None) -> Span:
        """Add an already finished span (an interval measured elsewhere)."""
        span = Span(next(self._ids), name, parent, rid, thread, start, end)
        self.spans.append(span)
        return span

    # -- leaf calls and counters ------------------------------------------
    def leaf(self, name: str, ns: int) -> None:
        stack, leaves, _ = self._state()
        top = stack[-1] if stack else None
        if top is not None:
            top.leaf_ns += ns
        entry = leaves[(name, top.name if top is not None else None)]
        entry[0] += 1
        entry[1] += ns

    def add(self, name: str, n: int = 1) -> None:
        self._state()[2][name] += n

    def leaves(self) -> "dict[tuple[str, str | None], list[int]]":
        out: dict = defaultdict(lambda: [0, 0])
        with self._lock:
            for leaves, _ in self._per_thread:
                for key, (count, ns) in list(leaves.items()):
                    out[key][0] += count
                    out[key][1] += ns
        return out

    def counts(self) -> "dict[str, int]":
        out: dict = defaultdict(int)
        with self._lock:
            for _, counts in self._per_thread:
                for key, n in list(counts.items()):
                    out[key] += n
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
            for (name, parent), (count, ns) in sorted(
                self.leaves().items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
            ):
                fh.write(json.dumps({
                    "leaf": name, "parent_name": parent,
                    "count": count, "busy_ns": ns,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(sorted(self.counts().items()))}) + "\n")


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def covered_ns(start: int, end: int, intervals: Iterable[tuple]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(a, start), min(b, end))
        for a, b in intervals
        if min(b, end) > max(a, start)
    )
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> "dict[int, int]":
    """Span id -> self time in ns (never negative)."""
    children: "dict[int, list[tuple[int, int]]]" = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
        for link in span.links:
            children[link].append((span.start, span.end))
    return {
        span.id: max(
            0,
            span.duration
            - covered_ns(span.start, span.end, children.get(span.id, ()))
            - span.leaf_ns,
        )
        for span in spans
    }


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def span_wrapper(tracer: Tracer, name: str, fn: Callable, rid_of=None,
                 before=None, after=None, on_open=None) -> Callable:
    """Wrap ``fn`` in a span.

    ``rid_of(args, kwargs)`` names the request the call serves (else it
    inherits the enclosing span's); ``before(args, kwargs)`` returns
    state handed to ``after(span, state, args, kwargs, result)``, which
    runs once the call returned.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rid = rid_of(args, kwargs) if rid_of is not None else None
        state = before(args, kwargs) if before is not None else None
        span = tracer.open(name, rid=rid)
        if on_open is not None:
            on_open(span, args, kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span, state, args, kwargs, result)
        return result

    return wrapper


def leaf_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, perf_counter_ns() - t0)

    return wrapper


class Patches:
    """Attribute replacements that :meth:`undo` restores."""

    def __init__(self):
        self._saved: "list[tuple[object, str, object]]" = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, original: Callable, make: Callable[[Callable], Callable]) -> None:
        """Replace ``original`` in every loaded ``repro`` module binding it."""
        wrapper = make(original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the workloads cross; returns the patches."""
    import repro.api.report as report_mod
    import repro.api.scenarios as scenarios_mod
    import repro.api.solver as solver_mod
    import repro.core.problem as problem_mod
    import repro.dynamic.online as online_mod
    import repro.experiments.runner as runner_mod
    import repro.heuristics.base as heuristics_base
    import repro.lp.basis_lu as lu_mod
    import repro.lp.builder as builder_mod
    import repro.lp.scipy_backend as scipy_backend_mod
    import repro.lp.session as session_mod
    import repro.parallel.engine as engine_mod
    import repro.parallel.sweep as sweep_mod
    import repro.platform.generator as generator_mod
    import repro.platform.serialization as serialization_mod
    import repro.service.app as app_mod
    import repro.service.asgi as asgi_mod
    import repro.service.coalescer as coalescer_mod
    import repro.service.pool as pool_mod

    p = Patches()

    def method(cls, attr, name, **hooks):
        p.set(cls, attr, span_wrapper(tracer, name, cls.__dict__[attr], **hooks))

    def leaf_method(cls, attr, name):
        p.set(cls, attr, leaf_wrapper(tracer, name, cls.__dict__[attr]))

    # -- repro.lp -----------------------------------------------------------
    LPSession = session_mod.LPSession

    def session_before(args, kwargs):
        stats = args[0].stats
        return stats.n_warm, stats.iterations

    def session_after(span, state, args, kwargs, result):
        stats = args[0].stats
        tracer.add("lp.session.warm", stats.n_warm - state[0])
        span.attrs["iterations"] = stats.iterations - state[1]

    method(LPSession, "solve", "lp.session.solve",
           before=session_before, after=session_after)
    for attr in ("set_rhs", "set_bounds", "fix_variable", "release_variable"):
        leaf_method(LPSession, attr, "lp.session.edit")

    def revised_after(span, state, args, kwargs, result):
        tracer.add("lp.revised.iterations", int(result.iterations))
        tracer.add("lp.revised.dual_steps", int(result.dual_steps))

    p.set(session_mod, "revised_solve", span_wrapper(
        tracer, "lp.revised", session_mod.revised_solve, after=revised_after))
    # HiGHS called from the session is a rescue; from anywhere else
    # (the LP bound, LPRG's single solve) it is the planned cold solve
    p.set(session_mod, "solve_lp_scipy", span_wrapper(
        tracer, "lp.fallback", session_mod.solve_lp_scipy))
    p.everywhere(scipy_backend_mod.solve_lp_scipy,
                 lambda fn: span_wrapper(tracer, "lp.highs", fn))

    LUBasis = lu_mod.LUBasis
    leaf_method(LUBasis, "__init__", "lp.lu.factor")
    leaf_method(LUBasis, "refactorize", "lp.lu.factor")
    leaf_method(LUBasis, "ftran", "lp.lu.solve")
    leaf_method(LUBasis, "btran", "lp.lu.solve")
    replace_column = LUBasis.__dict__["replace_column"]

    @functools.wraps(replace_column)
    def replace_column_wrapper(self, *args, **kwargs):
        # an update that overflows the eta file refactorizes in place
        before = self.n_refactor
        t0 = perf_counter_ns()
        try:
            return replace_column(self, *args, **kwargs)
        finally:
            tracer.leaf(
                "lp.lu.factor" if self.n_refactor != before else "lp.lu.update",
                perf_counter_ns() - t0,
            )

    p.set(LUBasis, "replace_column", replace_column_wrapper)

    p.everywhere(builder_mod.build_lp,
                 lambda fn: span_wrapper(tracer, "lp.build", fn))

    def fetch_after(span, state, args, kwargs, result):
        if result is not None:
            tracer.add("lp.build.hits")

    method(builder_mod.LPBuildCache, "fetch", "lp.build.fetch", after=fetch_after)

    # -- repro.heuristics, repro.core, repro.platform ----------------------
    def heuristic_after(span, state, args, kwargs, result):
        tracer.add("heuristics.lp_solves", int(result.n_lp_solves))

    method(heuristics_base.Heuristic, "run", "heuristics.run", after=heuristic_after)
    method(problem_mod.SteadyStateProblem, "check", "core.check")
    p.everywhere(generator_mod.generate_platform,
                 lambda fn: span_wrapper(tracer, "platform.generate", fn))
    p.everywhere(serialization_mod.platform_fingerprint,
                 lambda fn: leaf_wrapper(tracer, "platform.fingerprint", fn))

    # -- repro.api ----------------------------------------------------------
    def problem_rid(args, kwargs):
        problem = args[1] if len(args) > 1 else kwargs.get("problem")
        return tracer.rid_by_problem.get(id(problem))

    def batch_open(span, args, kwargs):
        # a coalesced batch: close each served request's queue wait and
        # make the batch a child of every request it serves
        problems = args[1] if len(args) > 1 else kwargs.get("problems", ())
        for problem in problems:
            rid = tracer.rid_by_problem.get(id(problem))
            submit = tracer.submits.get(rid)
            if submit is None:
                continue
            span.links.append(submit.id)
            span.attrs.setdefault("requests", []).append(rid)
            enqueued = tracer.enqueued.pop(rid, None)
            if enqueued is not None:
                tracer.record("service.coalescer.wait", enqueued, span.start,
                              parent=submit.id, rid=rid, thread=submit.thread)

    Solver = solver_mod.Solver
    method(Solver, "solve", "api.solve", rid_of=problem_rid)
    method(Solver, "solve_many", "api.solve_many", on_open=batch_open)
    method(Solver, "sweep", "api.sweep")
    method(report_mod.SolveReport, "to_dict", "api.report")

    # -- repro.parallel, repro.experiments ---------------------------------
    def engine_before(args, kwargs):
        tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
        tracer.add("parallel.tasks", len(tasks))

    method(engine_mod.CampaignEngine, "run", "parallel.engine", before=engine_before)
    p.everywhere(sweep_mod.run_sweep_task,
                 lambda fn: span_wrapper(tracer, "parallel.task", fn))
    p.everywhere(runner_mod.run_replicate,
                 lambda fn: span_wrapper(tracer, "experiments.replicate", fn))

    # -- repro.service ------------------------------------------------------
    asgi_call = asgi_mod.AsgiApp.__dict__["__call__"]

    @functools.wraps(asgi_call)
    async def asgi_wrapper(self, scope, receive, send):
        if scope.get("type") != "http":
            return await asgi_call(self, scope, receive, send)
        span = tracer.open("service.asgi")
        if span.rid is not None:
            # work the app hands to other threads hangs below this span
            tracer.roots[span.rid] = span.id

        async def observed_send(message):
            if message.get("type") == "http.response.start":
                span.attrs["status"] = message["status"]
                if message["status"] != 200:
                    tracer.add("service.failed")
            await send(message)

        try:
            return await asgi_call(self, scope, receive, observed_send)
        finally:
            tracer.close(span)

    p.set(asgi_mod.AsgiApp, "__call__", asgi_wrapper)

    def payload_rid(args, kwargs):
        payload = args[1] if len(args) > 1 else kwargs.get("payload", {})
        return tracer.rid_by_seed.get(payload.get("seed"))

    def submit_open(span, args, kwargs):
        if span.rid is not None:
            tracer.submits[span.rid] = span

    method(app_mod.SolverService, "submit_solve", "service.submit",
           rid_of=payload_rid, on_open=submit_open)

    def built_after(span, state, args, kwargs, result):
        if span.rid is not None:
            tracer.rid_by_problem[id(result)] = span.rid

    method(scenarios_mod.ScenarioRegistry, "build_problem",
           "service.build_problem", after=built_after)
    method(pool_mod.SolverPool, "solver_for", "service.pool")

    def enqueue_open(span, args, kwargs):
        if span.rid is not None:
            tracer.enqueued[span.rid] = span.start

    method(coalescer_mod.RequestCoalescer, "submit", "service.coalescer.submit",
           on_open=enqueue_open)

    # -- repro.dynamic ------------------------------------------------------
    method(online_mod.OnlineScheduler, "step", "dynamic.step")
    p.set(online_mod, "round_down", span_wrapper(
        tracer, "dynamic.round", online_mod.round_down))
    return p


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: span or leaf names each workload must exercise in a traced run
REQUIRED = {
    "fig7-sweep": (
        "api.sweep", "parallel.engine", "parallel.task",
        "experiments.replicate", "platform.generate", "heuristics.run",
        "lp.build", "lp.session.solve", "lp.revised", "lp.highs",
        "lp.lu.factor", "lp.lu.solve",
    ),
    "service-solve": (
        "service.request", "service.asgi", "service.submit",
        "service.build_problem", "service.pool", "service.coalescer.submit",
        "service.coalescer.wait", "api.solve_many", "api.solve", "api.report",
        "parallel.engine", "platform.generate", "platform.fingerprint",
        "heuristics.run", "core.check", "lp.build", "lp.highs",
    ),
    "online-drift": (
        "dynamic.step", "dynamic.round", "lp.session.edit",
        "lp.session.solve", "lp.revised", "lp.lu.factor", "lp.lu.solve",
        "core.check",
    ),
}

#: (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("lp.session.solves", "count"),
    ("lp.session.self_ms", "ms"),
    ("lp.session.warm_ratio", "ratio"),
    ("lp.revised.iterations", "count"),
    ("lp.revised.dual_steps", "count"),
    ("lp.revised.self_ms", "ms"),
    ("lp.lu.factorizations", "count"),
    ("lp.lu.factor_ms", "ms"),
    ("lp.lu.factorizations_per_solve", "count/solve"),
    ("lp.lu.solves", "count"),
    ("lp.lu.solve_ms", "ms"),
    ("lp.fallbacks", "count"),
    ("lp.fallback_ms", "ms"),
    ("lp.highs.busy_ms", "ms"),
    ("lp.build.calls", "count"),
    ("lp.build.hit_ratio", "ratio"),
    ("lp.build.busy_ms", "ms"),
    ("heuristics.runs", "count"),
    ("heuristics.self_ms", "ms"),
    ("heuristics.lp_solves_per_run", "count/run"),
    ("core.check.calls", "count"),
    ("core.check.busy_ms", "ms"),
    ("platform.generate.calls", "count"),
    ("platform.generate.busy_ms", "ms"),
    ("platform.fingerprint.busy_ms", "ms"),
    ("api.solve.self_ms", "ms"),
    ("api.report.busy_ms", "ms"),
    ("api.sweep.self_ms", "ms"),
    ("parallel.tasks", "count"),
    ("parallel.self_ms", "ms"),
    ("experiments.replicate.self_ms", "ms"),
    ("service.requests", "count"),
    ("service.failed", "count"),
    ("service.request.self_ms", "ms"),
    ("service.asgi.self_ms", "ms"),
    ("service.submit.self_ms", "ms"),
    ("service.build_problem.busy_ms", "ms"),
    ("service.pool.hit_ratio", "ratio"),
    ("service.coalescer.wait_ms", "ms"),
    ("service.coalescer.batch_mean", "count/batch"),
    ("dynamic.events", "count"),
    ("dynamic.step.self_ms", "ms"),
    ("dynamic.apply.busy_ms", "ms"),
    ("dynamic.resolve.busy_ms", "ms"),
    ("dynamic.solves_per_event", "count/event"),
    ("dynamic.iterations_per_event", "count/event"),
    ("dynamic.round.busy_ms", "ms"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    # an unexercised layer reports 0 rather than an undefined ratio
    return float(num) / den if den else 0.0


def missing_boundaries(tracer: Tracer, workload: str) -> "list[str]":
    """Required boundaries of ``workload`` that recorded zero calls."""
    seen = {span.name for span in tracer.spans}
    seen.update(name for name, _ in tracer.leaves())
    return [name for name in REQUIRED[workload] if name not in seen]


def layer_metrics(tracer: Tracer, pool_hits: int = 0, pool_lookups: int = 0) -> dict:
    """Every per-layer metric except ``trace.overhead_s`` (the harness
    adds it from two processes). Times are totals over the timed phase.

    ``pool_hits``/``pool_lookups`` are the service pool's counter deltas
    over the timed phase, read from its public ``stats()``.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    named: "dict[str, list[Span]]" = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    leaves = tracer.leaves()
    counts = tracer.counts()

    def n(name):
        return len(named[name])

    def busy_ms(name, spans_=None):
        return sum(s.duration for s in (named[name] if spans_ is None else spans_)) / 1e6

    def self_ms(*names):
        return sum(selfs[s.id] for name in names for s in named[name]) / 1e6

    def leaf(name, parent="*"):
        count = ns = 0
        for (leaf_name, parent_name), (c, t) in leaves.items():
            if leaf_name == name and (parent == "*" or parent_name == parent):
                count += c
                ns += t
        return count, ns / 1e6

    def under_step(name):
        return [
            s for s in named[name]
            if s.parent is not None and by_id[s.parent].name == "dynamic.step"
        ]

    solves = n("lp.session.solve")
    factorizations, factor_ms = leaf("lp.lu.factor")
    lu_solves, lu_solve_ms = leaf("lp.lu.solve")
    runs = n("heuristics.run")
    batches = [s for s in named["api.solve_many"] if s.attrs.get("requests")]
    events = n("dynamic.step")
    step_solves = under_step("lp.session.solve")
    return {
        "lp.session.solves": solves,
        "lp.session.self_ms": self_ms("lp.session.solve"),
        "lp.session.warm_ratio": _ratio(counts["lp.session.warm"], solves),
        "lp.revised.iterations": counts["lp.revised.iterations"],
        "lp.revised.dual_steps": counts["lp.revised.dual_steps"],
        "lp.revised.self_ms": self_ms("lp.revised"),
        "lp.lu.factorizations": factorizations,
        "lp.lu.factor_ms": factor_ms,
        "lp.lu.factorizations_per_solve": _ratio(factorizations, solves),
        "lp.lu.solves": lu_solves,
        "lp.lu.solve_ms": lu_solve_ms,
        "lp.fallbacks": n("lp.fallback"),
        "lp.fallback_ms": busy_ms("lp.fallback"),
        "lp.highs.busy_ms": busy_ms("lp.highs"),
        "lp.build.calls": n("lp.build"),
        "lp.build.hit_ratio": _ratio(counts["lp.build.hits"], n("lp.build")),
        "lp.build.busy_ms": busy_ms("lp.build"),
        "heuristics.runs": runs,
        "heuristics.self_ms": self_ms("heuristics.run"),
        "heuristics.lp_solves_per_run": _ratio(counts["heuristics.lp_solves"], runs),
        "core.check.calls": n("core.check"),
        "core.check.busy_ms": busy_ms("core.check"),
        "platform.generate.calls": n("platform.generate"),
        "platform.generate.busy_ms": busy_ms("platform.generate"),
        "platform.fingerprint.busy_ms": leaf("platform.fingerprint")[1],
        "api.solve.self_ms": self_ms("api.solve", "api.solve_many"),
        "api.report.busy_ms": busy_ms("api.report"),
        "api.sweep.self_ms": self_ms("api.sweep"),
        "parallel.tasks": counts["parallel.tasks"],
        "parallel.self_ms": self_ms("parallel.engine", "parallel.task"),
        "experiments.replicate.self_ms": self_ms("experiments.replicate"),
        "service.requests": n("service.asgi"),
        "service.failed": counts["service.failed"],
        "service.request.self_ms": self_ms("service.request"),
        "service.asgi.self_ms": self_ms("service.asgi"),
        "service.submit.self_ms": self_ms("service.submit"),
        "service.build_problem.busy_ms": busy_ms("service.build_problem"),
        "service.pool.hit_ratio": _ratio(pool_hits, pool_lookups),
        "service.coalescer.wait_ms": busy_ms("service.coalescer.wait"),
        "service.coalescer.batch_mean": _ratio(
            sum(len(s.attrs["requests"]) for s in batches), len(batches)
        ),
        "dynamic.events": events,
        "dynamic.step.self_ms": self_ms("dynamic.step"),
        "dynamic.apply.busy_ms": leaf("lp.session.edit", parent="dynamic.step")[1],
        "dynamic.resolve.busy_ms": busy_ms("lp.session.solve", step_solves),
        "dynamic.solves_per_event": _ratio(len(step_solves), events),
        "dynamic.iterations_per_event": _ratio(
            sum(s.attrs.get("iterations", 0) for s in step_solves), events
        ),
        "dynamic.round.busy_ms": busy_ms("dynamic.round"),
    }
