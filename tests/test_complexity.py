"""Tests for the NP-completeness machinery (Section 4)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import Solver, validate_allocation
from repro.complexity import (
    allocation_from_independent_set,
    exact_max_independent_set,
    greedy_independent_set,
    independent_set_from_allocation,
    is_independent_set,
    reduce_mis_to_scheduling,
    verify_lemma1,
)
from repro.complexity.independent_set import random_graph_edges

from tests.strategies import small_graphs


class TestIndependentSetSolvers:
    def test_triangle(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        assert len(exact_max_independent_set(3, edges)) == 1

    def test_path_graph(self):
        # P4: 0-1-2-3 -> MIS {0, 2} or {1, 3} or {0, 3}, size 2.
        assert len(exact_max_independent_set(4, [(0, 1), (1, 2), (2, 3)])) == 2

    def test_empty_graph(self):
        assert exact_max_independent_set(5, []) == {0, 1, 2, 3, 4}

    def test_is_independent_set(self):
        edges = [(0, 1)]
        assert is_independent_set(3, edges, {0, 2})
        assert not is_independent_set(3, edges, {0, 1})
        assert not is_independent_set(3, edges, {5})

    def test_greedy_is_valid_and_maximal(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            edges = random_graph_edges(n, 0.4, rng)
            greedy = greedy_independent_set(n, edges)
            assert is_independent_set(n, edges, greedy)
            exact = exact_max_independent_set(n, edges)
            assert len(greedy) <= len(exact)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            exact_max_independent_set(2, [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            exact_max_independent_set(2, [(0, 5)])


class TestReductionConstruction:
    def test_cluster_parameters_match_paper(self):
        inst = reduce_mis_to_scheduling(3, [(0, 1)], bound=2)
        platform = inst.platform
        assert platform.clusters[0].speed == 0.0
        assert platform.clusters[0].g == 3.0  # g_0 = n
        for i in range(1, 4):
            assert platform.clusters[i].speed == 1.0
            assert platform.clusters[i].g == 1.0
        assert inst.payoffs.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_all_links_unit(self):
        inst = reduce_mis_to_scheduling(4, [(0, 1), (2, 3), (1, 2)], bound=1)
        for link in inst.platform.links.values():
            assert link.bw == 1.0 and link.max_connect == 1

    def test_route_follows_equation8(self):
        # Vertex 1 is in edges 0=(0,1) and 1=(1,2): its route chains
        # through lcommon0 then lcommon1.
        inst = reduce_mis_to_scheduling(3, [(0, 1), (1, 2)], bound=1)
        route = inst.platform.route(0, 2)  # cluster of vertex 1
        common = [name for name in route.links if name.startswith("lcommon")]
        assert common == ["lcommon0", "lcommon1"]

    def test_isolated_vertex_direct_link(self):
        inst = reduce_mis_to_scheduling(2, [], bound=2)
        assert len(inst.platform.route(0, 1)) == 1
        assert len(inst.platform.route(0, 2)) == 1

    @given(small_graphs(max_vertices=6))
    @settings(max_examples=20)
    def test_lemma1_holds(self, graph):
        n, edges = graph
        inst = reduce_mis_to_scheduling(n, edges, bound=1)
        assert verify_lemma1(inst)


class TestSolutionMappings:
    def test_forward_mapping_valid(self):
        edges = [(0, 1), (1, 2)]
        inst = reduce_mis_to_scheduling(3, edges, bound=2)
        alloc = allocation_from_independent_set(inst, {0, 2})
        validate_allocation(inst.platform, alloc)
        assert alloc.maxmin_value(inst.payoffs) == pytest.approx(2.0)

    def test_forward_mapping_rejects_dependent_set(self):
        inst = reduce_mis_to_scheduling(3, [(0, 1)], bound=2)
        with pytest.raises(ValueError):
            allocation_from_independent_set(inst, {0, 1})

    def test_backward_mapping(self):
        edges = [(0, 1)]
        inst = reduce_mis_to_scheduling(2, edges, bound=1)
        alloc = allocation_from_independent_set(inst, {1})
        assert independent_set_from_allocation(inst, alloc) == {1}

    @given(small_graphs(max_vertices=5))
    @settings(max_examples=15)
    def test_milp_equals_mis(self, graph):
        """The headline equivalence: exact scheduling optimum == MIS size."""
        n, edges = graph
        inst = reduce_mis_to_scheduling(n, edges, bound=1)
        mis = exact_max_independent_set(n, edges)
        result = Solver.for_method("milp").solve(inst.problem())
        assert result.value == pytest.approx(len(mis), abs=1e-6)
        back = independent_set_from_allocation(inst, result.allocation)
        assert is_independent_set(n, edges, back)
        assert len(back) == len(mis)

    def test_greedy_heuristic_yields_independent_set(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            n = int(rng.integers(3, 7))
            edges = random_graph_edges(n, 0.5, rng)
            inst = reduce_mis_to_scheduling(n, edges, bound=1)
            result = Solver.for_method("greedy").solve(inst.problem())
            back = independent_set_from_allocation(inst, result.allocation)
            assert is_independent_set(n, edges, back)
