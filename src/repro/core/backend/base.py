"""Backend protocol and the serializable :class:`CompiledModel` artifact.

The paper's central cost split is *compile once, re-propagate per input
statistics*.  This module makes the compiled half a first-class,
process-independent artifact:

- :class:`Backend` -- one query strategy over the switching model
  (``compile(circuit) -> CompiledModel``).
- :class:`CompiledModel` -- the compiled artifact.  ``query(inputs)``
  re-propagates new input statistics; ``save()``/``load()`` round-trip
  the junction-tree structure, propagation schedules, and potentials
  through a schema-versioned pickle envelope so a compile survives
  process boundaries (and can live in the on-disk compile cache).
- :class:`Method` -- the single enumerated vocabulary every backend's
  :class:`~repro.core.estimator.SwitchingEstimate` reports in its
  ``method`` field.

This module stays import-light (stdlib and :mod:`repro.errors` only)
so the engine layers can depend on it without cycles.
"""

from __future__ import annotations

import io
import pickle
from abc import ABC, abstractmethod
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import ArtifactSchemaError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.netlist import Circuit
    from repro.core.estimator import SwitchingEstimate
    from repro.core.inputs import InputModel

__all__ = ["ARTIFACT_SCHEMA", "ARTIFACT_SCHEMA_VERSION", "Backend", "CompiledModel", "Method"]

#: Bump whenever the pickled layout of any CompiledModel changes; the
#: compile cache keys on it, so stale artifacts miss instead of
#: unpickling garbage.
#: v2: propagation message buffers moved from the schedule onto the
#: engine (batched propagation), new engine counters.
#: v3: schedules carry support-analysis state (per-clique feasibility
#: masks, packed sparse-kernel index plans); engines carry packed belief
#: buffers.  Supports serialize with the artifact, so cache hits skip
#: the support analysis entirely.
#: v4: segmented estimators carry the segment graph (SegmentNode
#: records with glue-edge plans) and the boundary refiner's compiled
#: glue-cone estimators instead of the flat segment/boundary-tree
#: lists.
#: v5: junction trees hold one engine slot and the install bookkeeping
#: (stale and stacked cliques) instead of Factor potentials, separators
#: and a second batch engine.
#: v6: engines drop their buffer dtype and segmented estimators their
#: thread-pool width and iteration cap (one serial float64 pipeline).
#: v7: segmented estimators drop their glue-cone support budget (now
#: the module constant ``refine.GLUE_STATES``).
#: v8: estimator-backed models record ``row_bytes``, the bytes one
#: scenario row of ``query_many`` needs; schedules' general reduction
#: plans are axis sums instead of einsums.
#: v9: ``auto`` compiles one junction tree whenever it fits, so a v8
#: ``auto`` artifact may hold a segmented model of a circuit that now
#: compiles exactly (voter and c2670s among them).
#: v10: enumeration segments hold their retained gate states instead of
#: per-query caches, and segment nodes record the boundary pairs whose
#: joints they publish.
#: v11: junction trees hold their network potentials in the schedule's
#: storage layout and compiled install plans instead of dense CPD
#: products; schedules record separator sizes for the engines' shared
#: scratch.
#: v12: schedules' interleaved reductions are BLAS chains (no ``sum``
#: plans), a ``dot`` plan records its fold chunk, and schedules carry
#: per-(clique, axes) read plans and the chain scratch size.
#: v13: an edge touching a packed clique stores only its live separator
#: entries (messages carry their index arrays, packed cliques gather by
#: position in them), and dense broadcasts carry compiled plans.
ARTIFACT_SCHEMA_VERSION = 13

#: Schema tag written into every saved artifact envelope.
ARTIFACT_SCHEMA = f"repro.compiled/v{ARTIFACT_SCHEMA_VERSION}"


class Method(str, Enum):
    """Canonical vocabulary for ``SwitchingEstimate.method``.

    Every backend reports one of these values (as its plain string
    form), so downstream consumers can switch on the method without
    chasing scattered string literals.
    """

    SINGLE_BN = "single-bn"
    SEGMENTED = "segmented"
    ENUMERATION = "enumeration"
    PAIRWISE = "pairwise"
    LOCAL_CONE = "local-cone"
    INDEPENDENCE = "independence"
    MONTE_CARLO = "monte-carlo"
    SIMULATION = "simulation"

    @classmethod
    def canonical(cls, value: "str | Method") -> str:
        """Validate ``value`` against the vocabulary; return the string."""
        return cls(value).value


class CompiledModel(ABC):
    """A compiled switching model: query many times, compile once.

    Subclasses wrap whatever state their backend's compile produced
    (junction trees with propagation schedules, enumeration grids, or
    nothing at all for the closed-form baselines) behind one surface:

    - :meth:`query` -- re-propagate new input statistics and return a
      :class:`~repro.core.estimator.SwitchingEstimate`,
    - :meth:`save` / :meth:`load` -- schema-versioned (de)serialization.

    Attributes
    ----------
    backend_name:
        Registry name of the backend that produced this model.
    circuit:
        The compiled circuit.
    cache_hit:
        Set by the facade: ``True`` when this model came out of the
        compile cache, ``False`` when freshly compiled, ``None`` when
        no cache was consulted.
    """

    def __init__(self, backend_name: str, circuit: "Circuit"):
        self.backend_name = backend_name
        self.circuit = circuit
        self.cache_hit: Optional[bool] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @abstractmethod
    def query(self, inputs: "Optional[InputModel]" = None) -> "SwitchingEstimate":
        """Estimate switching activity under ``inputs``.

        ``None`` re-queries with the statistics the model currently
        holds; any other model becomes the held one, without
        recompiling.  The exact backends answer a query as the one row
        of a one-scenario :meth:`query_many`.
        """

    def query_many(
        self, inputs_list: "list[InputModel]"
    ) -> "list[SwitchingEstimate]":
        """Estimate K input-statistics scenarios against one compile.

        The default implementation loops :meth:`query`; backends whose
        estimator supports batched propagation (junction-tree,
        segmented) override this with a vectorized pass that propagates
        each distinct scenario once (bitwise-equal to propagating each
        copy) and splits the rows into passes that fit the memory
        budget.
        """
        return [self.query(model) for model in inputs_list]

    @property
    def compile_seconds(self) -> float:
        """Seconds the original compile took (0 for compile-free backends)."""
        return 0.0

    def describe(self) -> Dict[str, Any]:
        """Small introspection dict for CLIs and cache listings."""
        return {
            "backend": self.backend_name,
            "circuit": self.circuit.name,
            "gates": self.circuit.num_gates,
            "compile_seconds": self.compile_seconds,
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize into a schema-versioned envelope.

        The envelope (schema tag, backend, circuit name) is a small
        outer pickle; the model itself is an inner blob, so loaders can
        reject incompatible artifacts before touching the payload.
        """
        envelope = {
            "schema": ARTIFACT_SCHEMA,
            "backend": self.backend_name,
            "circuit": self.circuit.name,
            "blob": pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL),
        }
        return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def read_envelope(data: bytes) -> Dict[str, Any]:
        """Decode and validate the outer envelope without unpickling the
        model blob (used by cache listings)."""
        try:
            envelope = pickle.loads(data)
        except Exception as exc:  # pickle raises many distinct types
            raise ArtifactSchemaError(f"unreadable artifact: {exc}") from exc
        if not isinstance(envelope, dict) or "schema" not in envelope:
            raise ArtifactSchemaError("artifact has no schema envelope")
        if envelope["schema"] != ARTIFACT_SCHEMA:
            raise ArtifactSchemaError(
                f"artifact schema {envelope['schema']!r} is not the "
                f"supported {ARTIFACT_SCHEMA!r}"
            )
        return envelope

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompiledModel":
        """Inverse of :meth:`to_bytes`; validates the schema tag."""
        envelope = cls.read_envelope(data)
        model = pickle.loads(envelope["blob"])
        if not isinstance(model, CompiledModel):
            raise ArtifactSchemaError(
                f"artifact blob is a {type(model).__name__}, not a CompiledModel"
            )
        return model

    def save(self, path) -> None:
        """Write the artifact to ``path`` (any ``os.PathLike``)."""
        with io.open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "CompiledModel":
        """Load an artifact previously written by :meth:`save`."""
        with io.open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


class Backend(ABC):
    """One query strategy over the LIDAG switching model.

    A backend is a stateless factory: :meth:`compile` turns a circuit
    (plus the input model's *structure* -- correlation edges, not
    values) into a :class:`CompiledModel` that answers any number of
    :meth:`~CompiledModel.query` calls.
    """

    #: registry name; subclasses override.
    name: str = ""

    @abstractmethod
    def compile(
        self,
        circuit: "Circuit",
        inputs: "Optional[InputModel]" = None,
        **options: Any,
    ) -> CompiledModel:
        """Compile ``circuit`` into a reusable model.

        ``inputs`` fixes the input-to-input edge structure baked into
        the compile (values are refreshed per query); ``options`` are
        backend-specific knobs (clique budgets, segment sizes, ...).
        """

    def cache_token(self, **options: Any) -> str:
        """Deterministic string of the options that affect the compile.

        Part of the compile-cache key: two compiles with equal tokens
        (same circuit, backend, input structure, schema version) are
        interchangeable.
        """
        return repr(sorted(options.items()))
