"""Segment-graph estimation of large circuits.

The package splits segmentation along its three concerns:

- :mod:`.partition` -- cut discovery and the explicit segment DAG
  (:class:`SegmentGraph`), pure structure;
- :mod:`.boundary` -- the input models that carry statistics across a
  cut;
- :mod:`.refine` -- iterative boundary refinement via glue-cone joints;
- :mod:`.estimator` -- :class:`SegmentedEstimator`, orchestrating all
  of the above.
"""

from repro.core.segments.boundary import (
    FixedMarginalInputs,
    SegmentInputs,
    TreeBoundaryInputs,
)
from repro.core.segments.estimator import SegmentedEstimator
from repro.core.segments.partition import (
    SegmentGraph,
    SegmentNode,
    SegmentRegistry,
)
from repro.core.segments.refine import BoundaryRefiner, GlueEdge

__all__ = [
    "BoundaryRefiner",
    "FixedMarginalInputs",
    "GlueEdge",
    "SegmentGraph",
    "SegmentInputs",
    "SegmentNode",
    "SegmentRegistry",
    "SegmentedEstimator",
    "TreeBoundaryInputs",
]
