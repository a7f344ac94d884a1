"""Exact discrete Bayesian-network engine built from scratch.

Since no third-party BN library is available offline, this package
implements the complete probabilistic machinery the paper obtained from
the HUGIN tool:

- :mod:`repro.bayesian.factor` -- discrete factor algebra on numpy.
- :mod:`repro.bayesian.cpd` -- tabular conditional probability
  distributions.
- :mod:`repro.bayesian.network` -- the :class:`BayesianNetwork` container
  (DAG + CPDs) with joint-distribution and Markov-blanket queries.
- :mod:`repro.bayesian.dsep` -- d-separation (Pearl's Definition 2).
- :mod:`repro.bayesian.moral` -- moralization of the DAG.
- :mod:`repro.bayesian.triangulate` -- elimination-order heuristics and
  graph triangulation.
- :mod:`repro.bayesian.junction` -- junction tree construction and
  Hugin-style two-phase message passing (the paper's Section 5).
- :mod:`repro.bayesian.elimination` -- variable elimination, an
  independent exact engine used to cross-check the junction tree.
"""

from repro.bayesian.cpd import TabularCPD
from repro.bayesian.elimination import variable_elimination
from repro.bayesian.factor import Factor
from repro.bayesian.junction import JunctionTree
from repro.bayesian.network import BayesianNetwork

__all__ = [
    "BayesianNetwork",
    "Factor",
    "JunctionTree",
    "TabularCPD",
    "variable_elimination",
]
