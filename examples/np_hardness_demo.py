#!/usr/bin/env python
"""The NP-completeness reduction of Section 4, end to end.

Takes a small graph, builds the paper's Figure-4 platform (shared
max-connect-1 backbone links encode the edges), and shows that solving
the scheduling problem exactly *is* solving MAXIMUM-INDEPENDENT-SET:
the optimal throughput equals the maximum independent set size, and the
clusters that receive work form that independent set.

Run:  python examples/np_hardness_demo.py
"""

from repro import Solver
from repro.complexity import (
    allocation_from_independent_set,
    exact_max_independent_set,
    greedy_independent_set,
    independent_set_from_allocation,
    reduce_mis_to_scheduling,
    verify_lemma1,
)


def main() -> None:
    # A 6-vertex graph: a pentagon with a chord and a pendant vertex.
    n = 6
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (4, 5)]
    print(f"graph: {n} vertices, edges = {edges}")

    mis = exact_max_independent_set(n, edges)
    print(f"maximum independent set (exact solver): {sorted(mis)} (size {len(mis)})")
    greedy = greedy_independent_set(n, edges)
    print(f"greedy MIS approximation:               {sorted(greedy)} (size {len(greedy)})")
    print()

    # ------------------------------------------------------------------
    # Build instance I2 (Figure 4 of the paper).
    # ------------------------------------------------------------------
    inst = reduce_mis_to_scheduling(n, edges, bound=len(mis))
    platform = inst.platform
    print(
        f"reduced platform: {platform.n_clusters} clusters, "
        f"{len(platform.routers)} routers, {len(platform.links)} unit links"
    )
    print(f"Lemma 1 (routes share a link iff vertices adjacent): {verify_lemma1(inst)}")
    for i in (0, 1):
        route = platform.route(0, i + 1)
        print(f"  route C0 -> C{i + 1}: {' -> '.join(route.links)}")
    print()

    # ------------------------------------------------------------------
    # Solving the scheduling instance exactly solves the MIS instance.
    # ------------------------------------------------------------------
    result = Solver.for_method("milp").solve(inst.problem())
    print(f"exact scheduling optimum (throughput of A_0): {result.value:.3f}")
    print(f"maximum independent set size:                 {len(mis)}")
    recovered = independent_set_from_allocation(inst, result.allocation)
    print(f"vertices recovered from the optimal schedule: {sorted(recovered)}")
    assert abs(result.value - len(mis)) < 1e-6
    print()

    # Forward direction too: an independent set IS a valid schedule.
    alloc = allocation_from_independent_set(inst, mis)
    print(
        "allocation built from the independent set achieves throughput "
        f"{alloc.maxmin_value(inst.payoffs):.3f}"
    )

    # And the polynomial heuristics? The greedy G effectively computes a
    # maximal independent set — good, but not always maximum:
    g = Solver.for_method("greedy").solve(inst.problem())
    print(f"greedy heuristic G achieves:                  {g.value:.3f}")
    print()
    print("This is Theorem 1 in executable form: optimizing steady-state")
    print("throughput on this platform family is exactly MAX-INDEPENDENT-SET,")
    print("so no polynomial heuristic can be optimal everywhere (P != NP).")


if __name__ == "__main__":
    main()
