"""Shared helpers for Bayesian-engine tests."""

import numpy as np

from repro.bayesian import BayesianNetwork, TabularCPD
from repro.bayesian.factor import Factor, factor_product


def random_bn(
    n_nodes: int,
    seed: int = 0,
    max_parents: int = 2,
    cardinality: int = 2,
    name: str = "rand",
) -> BayesianNetwork:
    """A random DAG-structured network with strictly positive CPDs."""
    rng = np.random.default_rng(seed)
    bn = BayesianNetwork(name)
    names = [f"v{i}" for i in range(n_nodes)]
    for i, node in enumerate(names):
        k = int(rng.integers(0, min(max_parents, i) + 1))
        parents = list(rng.choice(names[:i], size=k, replace=False)) if k else []
        shape = tuple([cardinality] * k + [cardinality])
        table = rng.random(shape) + 0.1
        table /= table.sum(axis=-1, keepdims=True)
        bn.add_cpd(TabularCPD(node, cardinality, table, parents))
    return bn


def sprinkler_bn() -> BayesianNetwork:
    """The classic cloudy/sprinkler/rain/wet-grass network."""
    bn = BayesianNetwork("sprinkler")
    bn.add_cpd(TabularCPD.prior("cloudy", [0.5, 0.5]))
    bn.add_cpd(
        TabularCPD("sprinkler", 2, np.array([[0.5, 0.5], [0.9, 0.1]]), ["cloudy"])
    )
    bn.add_cpd(TabularCPD("rain", 2, np.array([[0.8, 0.2], [0.2, 0.8]]), ["cloudy"]))
    bn.add_cpd(
        TabularCPD(
            "wet",
            2,
            np.array(
                [
                    [[1.0, 0.0], [0.1, 0.9]],
                    [[0.1, 0.9], [0.01, 0.99]],
                ]
            ),
            ["sprinkler", "rain"],
        )
    )
    return bn


def reference_potential(jt, idx, cpds=()) -> np.ndarray:
    """Clique ``idx``'s CPD product by a one-scenario ``Factor`` fold.

    The reference the compiled install plans must match bitwise: the
    product of the CPDs assigned to the clique (``cpds`` replacing the
    network's, by variable) over the clique scope, as a dense table in
    canonical (sorted-variable) order.
    """
    order = tuple(sorted(jt.cliques[idx]))
    shape = tuple(jt._cardinalities[v] for v in order)
    replaced = {cpd.variable: cpd for cpd in cpds}
    factors = [Factor.uniform(order, shape)] + [
        replaced.get(node, jt._bn.cpd(node)).to_factor()
        for node in jt._cpd_members[idx]
    ]
    return factor_product(factors).permute(order).values


def storage_layout(jt, idx, table) -> np.ndarray:
    """A dense canonical clique table (leading axes kept) in the
    engine's storage layout: packed entries or the flattened table."""
    schedule = jt._ensure_schedule()
    table = np.asarray(table, dtype=np.float64)
    lead = table.shape[: table.ndim - len(schedule.shapes[idx])]
    flat = table.reshape(lead + (-1,))
    sp = schedule.sparse_cliques.get(idx)
    return flat if sp is None else flat[..., sp.flat_idx]
