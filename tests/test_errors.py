"""Validation-helper tests."""

from __future__ import annotations

import pytest

from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            errors.ConfigError,
            errors.MappingError,
            errors.CapacityError,
            errors.NetlistError,
            errors.SynthesisError,
        ):
            assert issubclass(exc, errors.ReproError)


class TestRequire:
    def test_require_passes(self):
        errors.require(True, "never raised")

    def test_require_raises(self):
        with pytest.raises(errors.ConfigError, match="boom"):
            errors.require(False, "boom")

    def test_require_positive_accepts(self):
        assert errors.require_positive("x", 1.5) == 1.5

    @pytest.mark.parametrize("bad", [0, -1, None])
    def test_require_positive_rejects(self, bad):
        with pytest.raises(errors.ConfigError):
            errors.require_positive("x", bad)

    def test_require_non_negative_accepts_zero(self):
        assert errors.require_non_negative("x", 0.0) == 0.0

    def test_require_non_negative_rejects(self):
        with pytest.raises(errors.ConfigError):
            errors.require_non_negative("x", -0.1)

    def test_require_non_negative_rejects_nan(self):
        with pytest.raises(errors.ConfigError):
            errors.require_non_negative("x", float("nan"))

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_require_fraction_accepts(self, value):
        assert errors.require_fraction("f", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, None])
    def test_require_fraction_rejects(self, value):
        with pytest.raises(errors.ConfigError):
            errors.require_fraction("f", value)

    def test_require_in(self):
        assert errors.require_in("mode", "a", ("a", "b")) == "a"
        with pytest.raises(errors.ConfigError):
            errors.require_in("mode", "c", ("a", "b"))
