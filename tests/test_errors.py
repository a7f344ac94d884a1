"""The consolidated ``repro.errors`` hierarchy and its re-exports."""

import pytest

from repro import errors


class TestHierarchy:
    def test_every_error_is_a_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_validation_branch(self):
        for cls in (
            errors.CircuitError,
            errors.DuplicateDefinitionError,
            errors.UndefinedLineError,
            errors.CombinationalCycleError,
            errors.BenchFormatError,
        ):
            assert issubclass(cls, errors.ValidationError)
            # ValidationError kept its historical ValueError ancestry.
            assert issubclass(cls, ValueError)

    def test_compile_branch(self):
        for cls in (
            errors.CliqueBudgetExceeded,
            errors.SegmentTooWide,
            errors.MemoryBudgetExceeded,
        ):
            assert issubclass(cls, errors.CompileError)
            assert issubclass(cls, RuntimeError)

    def test_input_model_error_is_value_error(self):
        assert issubclass(errors.InputModelError, ValueError)

    def test_zero_belief_error_keeps_zero_division_ancestry(self):
        assert issubclass(errors.ZeroBeliefError, errors.PropagationError)
        assert issubclass(errors.ZeroBeliefError, ZeroDivisionError)

    def test_key_errors_print_unquoted(self):
        # KeyError.__str__ repr-quotes its argument; the overrides keep
        # CLI one-liners readable.
        assert str(errors.UnknownCircuitError("no such circuit")) == "no such circuit"
        assert str(errors.UnknownBackendError("no such backend")) == "no such backend"
        assert issubclass(errors.UnknownCircuitError, KeyError)
        assert issubclass(errors.UnknownBackendError, KeyError)


class TestHistoricalLocations:
    """Old import paths must keep resolving to the same objects."""

    def test_bench_module_reexports(self):
        from repro.circuits import bench

        assert bench.BenchFormatError is errors.BenchFormatError

    def test_netlist_module_reexports(self):
        from repro.circuits import netlist

        assert netlist.CircuitError is errors.CircuitError

    def test_enumeration_module_reexports(self):
        from repro.core import enumeration

        assert enumeration.SegmentTooWide is errors.SegmentTooWide

    def test_junction_module_reexports(self):
        from repro.bayesian import junction

        assert junction.CliqueBudgetExceeded is errors.CliqueBudgetExceeded

    def test_package_root_reexports(self):
        import repro

        assert repro.ValidationError is errors.ValidationError
        assert repro.CompileError is errors.CompileError
        assert repro.InputModelError is errors.InputModelError
        assert repro.PropagationError is errors.PropagationError
        assert repro.ReproError is errors.ReproError


class TestDeprecatedAliases:
    def test_unknown_attribute_still_raises(self):
        import repro.core.estimator as estimator

        with pytest.raises(AttributeError):
            estimator.NoSuchName
