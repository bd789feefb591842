#!/usr/bin/env python
"""SUM vs MAXMIN: the fairness trade-off of Section 3.1.

The paper proposes two objectives: SUM (total weighted throughput,
Eq. 5) "risks that one application would be unduly favored and granted
most of the resources", while MAXMIN (Eq. 6) enforces weighted max-min
fairness. This example makes the trade-off concrete on a platform with
one very-well-connected cluster and two poorly-connected ones, then
shows how payoff factors implement priorities under MAXMIN.

Run:  python examples/fairness_and_priorities.py
"""

import numpy as np

from repro import (
    BackboneLink,
    Cluster,
    Platform,
    Solver,
    SteadyStateProblem,
)
from repro.simulation.metrics import jain_index
from repro.util.tables import TextTable


def build_lopsided_platform() -> Platform:
    """'hub' has fat pipes to the compute farm; 'edge*' sit behind thin ones."""
    clusters = [
        Cluster("hub", speed=20.0, g=500.0, router="R0"),
        Cluster("edge1", speed=20.0, g=60.0, router="R1"),
        Cluster("edge2", speed=20.0, g=60.0, router="R2"),
        Cluster("farm", speed=400.0, g=450.0, router="R3"),
    ]
    routers = ["R0", "R1", "R2", "R3"]
    links = [
        BackboneLink("fat", ("R0", "R3"), bw=60.0, max_connect=6),
        BackboneLink("thin1", ("R1", "R3"), bw=6.0, max_connect=2),
        BackboneLink("thin2", ("R2", "R3"), bw=6.0, max_connect=2),
    ]
    return Platform(clusters, routers, links)


def main() -> None:
    platform = build_lopsided_platform()
    payoffs = [1.0, 1.0, 1.0, 0.0]  # the farm runs no application
    milp = Solver.for_method("milp")  # small enough for exact

    print("Part 1 - SUM maximizes total payoff, MAXMIN protects the weak")
    print("-" * 66)
    table = TextTable(
        ["objective", "hub", "edge1", "edge2", "total", "Jain index"],
        float_fmt=".1f",
    )
    for objective in ("sum", "maxmin"):
        problem = SteadyStateProblem(platform, payoffs, objective=objective)
        alloc = milp.solve(problem).allocation
        t = alloc.throughputs
        table.add_row(
            [objective, t[0], t[1], t[2], t[:3].sum(), jain_index(t[:3])]
        )
    print(table.render())
    print()
    print("SUM funnels nearly the whole farm to the well-connected hub;")
    print("MAXMIN lifts the worst-off application as high as its thin pipe")
    print("allows before handing out the slack - fairer (higher Jain index)")
    print("at some cost in total throughput.")
    print()

    print("Part 2 - payoff factors as priorities under MAXMIN")
    print("-" * 66)
    table2 = TextTable(
        ["hub payoff", "hub alpha", "edge1 alpha", "edge2 alpha",
         "hub alpha*pi", "edge alpha*pi"],
        float_fmt=".1f",
    )
    for hub_payoff in (1.0, 2.0, 4.0):
        problem = SteadyStateProblem(
            platform, [hub_payoff, 1.0, 1.0, 0.0], objective="maxmin"
        )
        alloc = milp.solve(problem).allocation
        t = alloc.throughputs
        table2.add_row(
            [hub_payoff, t[0], t[1], t[2], t[0] * hub_payoff, t[1] * 1.0]
        )
    print(table2.render())
    print()
    print("MAXMIN protects min_k alpha_k * pi_k: the edge applications are")
    print("pinned at 32 by their thin pipes, so the objective equals 32*1")
    print("regardless of the hub. As the hub's payoff grows, the raw")
    print("throughput it needs to stay at least 'equally served' shrinks")
    print("(alpha >= 32/pi); any farm capacity beyond that is slack the")
    print("solver may hand out arbitrarily - priorities cap what the hub")
    print("can *demand*, not what it may receive for free.")


if __name__ == "__main__":
    main()
