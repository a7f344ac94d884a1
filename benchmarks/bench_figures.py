"""Figures 1-4: compile-pipeline microbenchmarks on the paper's example.

The figures themselves are structural (see ``examples/paper_figures.py``
and ``python -m repro.cli figures``); this benchmark times the pipeline
stages that produce them -- LIDAG construction, moralization +
triangulation, junction-tree build, and calibration -- and asserts the
structures match the paper.
"""

import pytest

from repro.bayesian.junction import JunctionTree
from repro.bayesian.moral import moral_graph_with_fill_report
from repro.circuits.examples import paper_circuit
from repro.core.lidag import build_lidag


@pytest.fixture(scope="module")
def lidag():
    return build_lidag(paper_circuit())


def test_figure2_lidag_build(benchmark):
    circuit = paper_circuit()
    bn = benchmark(build_lidag, circuit)
    assert set(bn.parents("9")) == {"7", "8"}


def test_figure3_moralize(benchmark, lidag):
    moral, marriages = benchmark(moral_graph_with_fill_report, lidag)
    assert sorted(tuple(sorted(e)) for e in marriages) == [
        ("1", "2"),
        ("3", "4"),
        ("5", "6"),
        ("7", "8"),
    ]


def test_figure4_junction_tree(benchmark, lidag):
    jt = benchmark(JunctionTree.from_network, lidag)
    assert len(jt.fill_ins) == 1
    assert all(len(c) == 3 for c in jt.cliques)
    assert jt.check_running_intersection()


def test_figure4_calibration(benchmark, lidag):
    jt = JunctionTree.from_network(lidag)

    def calibrate():
        jt.reset_propagation()
        jt.calibrate()
        return jt.marginal("9")

    marginal = benchmark(calibrate)
    assert marginal.sum() == pytest.approx(1.0)
