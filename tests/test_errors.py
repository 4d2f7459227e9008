"""Exception hierarchy tests."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is errors.ReproError:
                    continue
                assert issubclass(obj, errors.ReproError), name

    def test_language_errors(self):
        assert issubclass(errors.TokenizeError, errors.LanguageError)
        assert issubclass(errors.ParseError, errors.LanguageError)

    def test_config_error_is_a_value_error(self):
        assert issubclass(errors.ConfigError, errors.ReproError)
        assert issubclass(errors.ConfigError, ValueError)

    def test_type_check_error_is_schema_error(self):
        assert issubclass(errors.TypeCheckError, errors.SchemaError)

    def test_rollback_is_execution_control_flow(self):
        assert issubclass(errors.RollbackSignal, errors.ExecutionError)

    def test_limit_errors_are_processing_errors(self):
        assert issubclass(
            errors.RuleProcessingLimitExceeded, errors.RuleProcessingError
        )
        assert issubclass(
            errors.ExplorationLimitExceeded, errors.RuleProcessingError
        )


class TestMessages:
    def test_tokenize_error_position(self):
        error = errors.TokenizeError("bad char", 3, 7)
        assert "line 3" in str(error)
        assert error.line == 3 and error.column == 7

    def test_parse_error_optional_position(self):
        with_position = errors.ParseError("oops", 2, 5)
        assert "line 2" in str(with_position)
        without = errors.ParseError("oops")
        assert "line" not in str(without)

    def test_priority_cycle_message(self):
        error = errors.PriorityCycleError(["a", "b", "a"])
        assert "a > b > a" in str(error)
        assert error.cycle == ["a", "b", "a"]

    def test_rollback_signal_message(self):
        assert errors.RollbackSignal("why").message == "why"
        assert errors.RollbackSignal().message == ""
        assert "rollback" in str(errors.RollbackSignal())

    def test_limit_messages(self):
        assert "100 steps" in str(errors.RuleProcessingLimitExceeded(100))
        assert "50 states" in str(errors.ExplorationLimitExceeded(50))
