"""Property: online re-scheduling is exact and replayable.

For ANY valid event trace — drift, failures, recoveries, application
churn, interleaved in any stateful-legal order — two invariants must
hold bit-for-bit:

* **oracle exactness**: the incremental (carried-basis) scheduler's
  report has the same ``state_dict`` as a from-scratch
  (``warm_start=False``) scheduler's, and every record matches its
  from-scratch oracle exactly. Warm-starting buys pivots, never floats.
* **JSON replayability**: running the scheduler on the trace recovered
  from its own JSON serialization reproduces the same ``state_dict`` —
  a saved trace file is a complete replay artifact.
* **the oracle only observes**: warm and from-scratch runs, each with
  the oracle on and off, report the same per-event solutions and
  allocations and the same ``state_dict`` — checking never steers.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings as hyp_settings
from hypothesis import strategies as st

from repro import SteadyStateProblem
from repro.dynamic import DynamicOptions, EventTrace, OnlineScheduler, PlatformEvent
from repro.platform import line_platform

FAST = DynamicOptions(replay=False)
#: check_oracle -> options
OPTIONS = {
    oracle: DynamicOptions(replay=False, check_oracle=oracle)
    for oracle in (True, False)
}

_FACTORS = (0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0)
_PAYOFFS = (0.5, 1.0, 1.5, 2.0)


@st.composite
def legal_traces(draw, n_clusters: int, link_names: "tuple[str, ...]"):
    """A stateful-legal trace: fail/recover strictly paired, churn only
    departs live apps and re-arrives on empty slots, at least one
    application stays live (an app-free program has no objective)."""
    n_events = draw(st.integers(min_value=1, max_value=8))
    failed_nodes: set = set()
    failed_links: set = set()
    live = set(range(n_clusters))
    events = []
    t = 0.0
    for _ in range(n_events):
        t += draw(st.sampled_from((0.5, 1.0, 1.5)))
        moves = ["cpu-drift", "bw-drift"]
        if len(failed_nodes) < n_clusters - 1:
            moves.append("node-fail")
        if failed_nodes:
            moves.append("node-recover")
        if failed_links != set(link_names):
            moves.append("link-fail")
        if failed_links:
            moves.append("link-recover")
        if len(live) > 1:
            moves.append("app-depart")
        if len(live) < n_clusters:
            moves.append("app-arrive")
        kind = draw(st.sampled_from(sorted(moves)))
        if kind in ("cpu-drift", "bw-drift"):
            events.append(PlatformEvent(
                time=t, kind=kind,
                target=draw(st.integers(0, n_clusters - 1)),
                factor=draw(st.sampled_from(_FACTORS)),
            ))
        elif kind == "node-fail":
            k = draw(st.sampled_from(sorted(set(range(n_clusters)) - failed_nodes)))
            failed_nodes.add(k)
            events.append(PlatformEvent(time=t, kind=kind, target=k))
        elif kind == "node-recover":
            k = draw(st.sampled_from(sorted(failed_nodes)))
            failed_nodes.discard(k)
            events.append(PlatformEvent(time=t, kind=kind, target=k))
        elif kind == "link-fail":
            name = draw(st.sampled_from(sorted(set(link_names) - failed_links)))
            failed_links.add(name)
            events.append(PlatformEvent(time=t, kind=kind, target=name))
        elif kind == "link-recover":
            name = draw(st.sampled_from(sorted(failed_links)))
            failed_links.discard(name)
            events.append(PlatformEvent(time=t, kind=kind, target=name))
        elif kind == "app-depart":
            k = draw(st.sampled_from(sorted(live)))
            live.discard(k)
            events.append(PlatformEvent(time=t, kind=kind, target=k))
        else:
            k = draw(st.sampled_from(sorted(set(range(n_clusters)) - live)))
            live.add(k)
            events.append(PlatformEvent(
                time=t, kind="app-arrive", target=k,
                payoff=draw(st.sampled_from(_PAYOFFS)),
            ))
    return EventTrace(seed=0, events=tuple(events))


@given(data=st.data())
@hyp_settings(max_examples=20, deadline=None)
def test_incremental_matches_from_scratch_and_replays_from_json(data):
    n_clusters = data.draw(st.integers(min_value=2, max_value=4), label="K")
    platform = line_platform(
        n_clusters, speed=100.0, g=50.0, bw=10.0, max_connect=4
    )
    trace = data.draw(
        legal_traces(n_clusters, tuple(platform.links)), label="trace"
    )
    problem = SteadyStateProblem(platform, objective="maxmin")

    warm = OnlineScheduler(problem, options=FAST, warm_start=True).run(trace)
    assert all(r.oracle_match for r in warm.records), warm.summary()

    # The trace recovered from its own JSON wire form drives a
    # from-scratch-mode scheduler to the identical fingerprint.
    recovered = EventTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
    assert recovered == trace
    cold = OnlineScheduler(
        problem, options=FAST, warm_start=False
    ).run(recovered)
    assert warm.state_dict() == cold.state_dict()


def _line(n_clusters: int):
    return line_platform(n_clusters, speed=100.0, g=50.0, bw=10.0, max_connect=4)


@st.composite
def online_cases(draw):
    """(K, objective, legal trace) on a K-cluster line platform."""
    n_clusters = draw(st.integers(min_value=2, max_value=5), label="K")
    objective = draw(st.sampled_from(("maxmin", "sum")), label="objective")
    trace = draw(
        legal_traces(n_clusters, tuple(_line(n_clusters).links)), label="trace"
    )
    return n_clusters, objective, trace


def _trace(*events) -> EventTrace:
    return EventTrace(seed=0, events=tuple(events))


#: golden-ratio canonicalization weights tied two optimal vertices here;
#: the oracle's tie-break then made event 2 depend on check_oracle
DEPART_THEN_DRIFT = _trace(
    PlatformEvent(time=0.5, kind="app-depart", target=0),
    PlatformEvent(time=1.0, kind="bw-drift", target=0, factor=0.25),
)
#: the same tie, reached through a node failure
DEPART_THEN_FAIL = _trace(
    PlatformEvent(time=0.5, kind="app-depart", target=0),
    PlatformEvent(time=1.0, kind="node-fail", target=0),
)


@given(case=online_cases())
@example(case=(4, "maxmin", DEPART_THEN_DRIFT))
@example(case=(4, "maxmin", DEPART_THEN_FAIL))
@hyp_settings(max_examples=25, deadline=None)
def test_oracle_only_observes(case):
    n_clusters, objective, trace = case
    problem = SteadyStateProblem(_line(n_clusters), objective=objective)
    reports = {
        (warm, oracle): OnlineScheduler(
            problem, options=OPTIONS[oracle], warm_start=warm
        ).run(trace)
        for warm in (True, False)
        for oracle in (True, False)
    }
    production = reports[True, False]
    shas = [(r.solution_sha, r.alloc_sha) for r in production.records]
    for (warm, oracle), report in reports.items():
        assert [(r.solution_sha, r.alloc_sha) for r in report.records] == shas
        assert report.state_dict() == production.state_dict()
        if oracle:
            assert all(r.oracle_match for r in report.records), report.summary()
            assert report.summary()["near_ties"] == 0
