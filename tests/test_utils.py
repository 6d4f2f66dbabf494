"""Tests for repro.utils: RNG derivation, units, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import derive_rng
from repro.utils.units import (
    GiB,
    HOURS,
    MINUTES,
    MiB,
    format_duration,
    format_money,
)
from repro.utils.validation import check_fraction, check_non_negative, check_positive


class TestDeriveRng:
    def test_same_seed_same_stream(self):
        a = derive_rng(42).random(8)
        b = derive_rng(42).random(8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = derive_rng(42).random(8)
        b = derive_rng(43).random(8)
        assert not np.array_equal(a, b)

    def test_keys_derive_distinct_streams(self):
        a = derive_rng(42, "alpha").random(8)
        b = derive_rng(42, "beta").random(8)
        assert not np.array_equal(a, b)

    def test_keys_are_stable(self):
        a = derive_rng(42, "alpha", 3).random(4)
        b = derive_rng(42, "alpha", 3).random(4)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert derive_rng(gen) is gen

    def test_generator_with_keys_derives_child(self):
        gen = np.random.default_rng(7)
        child = derive_rng(gen, "x")
        assert child is not gen

    def test_none_seed_works(self):
        assert derive_rng(None).random() >= 0.0

    def test_bad_key_type_rejected(self):
        with pytest.raises(TypeError):
            derive_rng(42, 3.14)

    def test_int_keys_accepted(self):
        a = derive_rng(1, 5).random(4)
        b = derive_rng(1, 6).random(4)
        assert not np.array_equal(a, b)


class TestUnits:
    def test_time_constants(self):
        assert HOURS == 3600.0
        assert MINUTES == 60.0

    def test_size_constants(self):
        assert MiB == 1024 * 1024
        assert GiB == 1024 * MiB

    def test_format_duration_seconds(self):
        assert format_duration(12.3) == "12.3s"

    def test_format_duration_minutes(self):
        assert format_duration(90) == "1m30s"
        assert format_duration(120) == "2m"

    def test_format_duration_hours(self):
        assert format_duration(5400) == "1h30m"
        assert format_duration(7200) == "2h"

    def test_format_duration_negative(self):
        assert format_duration(-60).startswith("-")

    def test_format_money(self):
        assert format_money(3.14159) == "$3.14"
        assert format_money(1234.6) == "$1,235"


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 1.5) == 1.5

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_check_positive_rejects(self, value):
        with pytest.raises(ValueError):
            check_positive("x", value)

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative("x", 0.0) == 0.0

    def test_check_non_negative_rejects(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -0.1)

    def test_check_fraction_bounds(self):
        assert check_fraction("x", 0.0) == 0.0
        assert check_fraction("x", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_fraction("x", 1.01)
        with pytest.raises(ValueError):
            check_fraction("x", -0.01)
