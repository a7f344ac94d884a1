"""Tests for triangulation, elimination orders and clique extraction."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesian.triangulate import (
    elimination_cliques,
    find_elimination_order,
    is_chordal,
    max_clique_state_space,
    triangulate,
)


def cycle_graph(n):
    g = nx.Graph()
    g.add_edges_from((f"v{i}", f"v{(i + 1) % n}") for i in range(n))
    return g


def random_graph(n, p, seed):
    return nx.relabel_nodes(
        nx.gnp_random_graph(n, p, seed=seed), {i: f"v{i}" for i in range(n)}
    )


class TestEliminationOrder:
    def test_order_covers_all_nodes(self):
        g = cycle_graph(6)
        order = find_elimination_order(g)
        assert sorted(order) == sorted(g.nodes)

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError):
            find_elimination_order(cycle_graph(4), heuristic="magic")

    def test_min_fill_on_tree_adds_nothing(self):
        tree = nx.Graph([("a", "b"), ("b", "c"), ("b", "d")])
        order = find_elimination_order(tree, "min_fill")
        _, _, fills = triangulate(tree, order=order)
        assert fills == []

    def test_deterministic(self):
        g = random_graph(10, 0.4, seed=1)
        assert find_elimination_order(g) == find_elimination_order(g)

    def test_min_degree_heuristic(self):
        g = cycle_graph(5)
        order = find_elimination_order(g, "min_degree")
        assert sorted(order) == sorted(g.nodes)


class TestTriangulate:
    @pytest.mark.parametrize("n", [4, 5, 6, 9])
    def test_cycle_becomes_chordal(self, n):
        chordal, _, fills = triangulate(cycle_graph(n))
        assert is_chordal(chordal)
        assert len(fills) == n - 3  # optimal for a cycle

    def test_invalid_order_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="permutation"):
            triangulate(g, order=["v0"])

    def test_input_not_mutated(self):
        g = cycle_graph(5)
        before = set(g.edges)
        triangulate(g)
        assert set(g.edges) == before

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 1000))
    def test_random_graphs_become_chordal(self, n, seed):
        g = random_graph(n, 0.35, seed)
        for heuristic in ("min_fill", "min_degree"):
            chordal, order, _ = triangulate(g, heuristic=heuristic)
            assert is_chordal(chordal)
            assert sorted(order) == sorted(g.nodes)

    def test_paper_figure3_fill_in(self):
        """The moral graph of the paper's Figure 2 needs exactly one
        fill-in, breaking the 4-6-7-8 square (the paper adds X4--X7)."""
        moral = nx.Graph()
        moral.add_edges_from(
            [
                ("1", "5"), ("2", "5"), ("1", "2"),
                ("3", "6"), ("4", "6"), ("3", "4"),
                ("5", "7"), ("6", "7"), ("5", "6"),
                ("4", "8"),
                ("7", "9"), ("8", "9"), ("7", "8"),
            ]
        )
        chordal, _, fills = triangulate(moral)
        assert is_chordal(chordal)
        assert len(fills) == 1
        assert set(fills[0]) in ({"4", "7"}, {"6", "8"})


class TestCliques:
    def test_cliques_are_maximal_and_cover(self):
        g = cycle_graph(6)
        chordal, order, _ = triangulate(g)
        cliques = elimination_cliques(chordal, order)
        covered = set().union(*cliques)
        assert covered == set(g.nodes)
        for i, a in enumerate(cliques):
            for j, b in enumerate(cliques):
                if i != j:
                    assert not a <= b

    def test_cliques_match_networkx_on_chordal(self):
        g = random_graph(9, 0.4, seed=3)
        chordal, order, _ = triangulate(g)
        ours = {frozenset(c) for c in elimination_cliques(chordal, order)}
        reference = {frozenset(c) for c in nx.find_cliques(chordal)}
        assert ours == reference

    def test_every_original_edge_in_some_clique(self):
        g = random_graph(8, 0.45, seed=7)
        chordal, order, _ = triangulate(g)
        cliques = elimination_cliques(chordal, order)
        for u, v in g.edges:
            assert any({u, v} <= c for c in cliques)


def width_of_order(graph, order):
    """Largest eliminated neighbourhood along ``order``."""
    chordal, _, _ = triangulate(graph, order=order)
    return max(len(c) for c in elimination_cliques(chordal, order)) - 1


class TestMetrics:
    def test_max_clique_state_space(self):
        cliques = [frozenset({"a", "b"}), frozenset({"c"})]
        assert max_clique_state_space(cliques, {"a": 4, "b": 4, "c": 2}) == 16

    def test_min_fill_not_worse_than_min_degree_on_average(self):
        # Aggregate sanity: over a bag of random graphs min-fill should
        # produce no larger total width than min-degree.
        total_fill, total_degree = 0, 0
        for seed in range(12):
            g = random_graph(12, 0.3, seed)
            total_fill += width_of_order(g, find_elimination_order(g, "min_fill"))
            total_degree += width_of_order(
                g, find_elimination_order(g, "min_degree")
            )
        assert total_fill <= total_degree + 2


def _moral_and_cards(name):
    from repro.bayesian.moral import moral_graph
    from repro.circuits import suite
    from repro.core.inputs import IndependentInputs
    from repro.core.lidag import build_lidag

    bn = build_lidag(suite.load_circuit(name), IndependentInputs(0.5))
    return moral_graph(bn), {n: bn.cardinality(n) for n in bn.nodes}


class TestBudgetedWalk:
    """A clique budget stops the min-fill walk at its first over-budget
    clique without changing the decision or any order that fits."""

    @pytest.mark.parametrize("name", ["c432s", "c499s", "alu"])
    def test_raises_exactly_when_the_full_walk_is_over_budget(self, name):
        from repro.errors import CliqueBudgetExceeded

        moral, cards = _moral_and_cards(name)
        full = find_elimination_order(moral, "min_fill", cards)
        chordal, _, _ = triangulate(moral, order=full)
        worst = max_clique_state_space(elimination_cliques(chordal, full), cards)
        budgets = [4 ** k for k in range(4, 12)] + [worst - 1, worst]
        for budget in budgets:
            if worst > budget:
                with pytest.raises(CliqueBudgetExceeded):
                    find_elimination_order(moral, "min_fill", cards, budget)
            else:
                assert find_elimination_order(moral, "min_fill", cards, budget) == full

    def test_orders_of_fitting_suite_circuits_are_unchanged(self):
        from repro.circuits import suite
        from repro.errors import CliqueBudgetExceeded

        fitting = 0
        for name in suite.FULL_SUITE:
            moral, cards = _moral_and_cards(name)
            try:
                order = find_elimination_order(moral, "min_fill", cards, 4 ** 10)
            except CliqueBudgetExceeded:
                continue
            fitting += 1
            assert order == find_elimination_order(moral, "min_fill", cards), name
        assert fitting >= 10
