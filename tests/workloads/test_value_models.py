"""Value-model tests: the generated values must land on the profile's
Figure 2 curves."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.values import (
    MAX_UINT64,
    fp_exponent_bits,
    fp_significand_bits,
    is_all_zeros_or_ones,
    significant_bits,
)
from repro.workloads.value_models import (
    WIDTH_GRID,
    FpValueModel,
    IntValueModel,
    WidthAnchors,
)


def _anchors(f10=0.5):
    from repro.workloads.profiles import int_anchors

    return int_anchors(f10)


class TestWidthAnchors:
    def test_validation(self):
        with pytest.raises(ValueError):
            WidthAnchors([0.5] * 3)
        with pytest.raises(ValueError):
            WidthAnchors([0.1] * len(WIDTH_GRID))  # last must be 1.0
        bad = [0.5, 0.4] + [1.0] * (len(WIDTH_GRID) - 2)
        with pytest.raises(ValueError):
            WidthAnchors(bad)  # non-monotone

    def test_fraction_interpolates(self):
        a = WidthAnchors((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0))
        assert a.fraction_at_most(0) == 0.0
        assert a.fraction_at_most(1) == pytest.approx(0.1)
        assert a.fraction_at_most(64) == 1.0
        assert 0.1 < a.fraction_at_most(2) < 0.2

    def test_cdf_monotone(self):
        a = _anchors()
        previous = 0.0
        for width in range(1, 65):
            f = a.fraction_at_most(width)
            assert f >= previous - 1e-12
            previous = f

    def test_sample_within_grid(self):
        a = _anchors()
        rng = random.Random(0)
        for _ in range(500):
            assert 1 <= a.sample_width(rng) <= 64


class TestIntValueModel:
    @given(st.integers(min_value=1, max_value=64), st.integers(0, 1000))
    @settings(max_examples=60)
    def test_value_of_width_is_exact(self, width, seed):
        model = IntValueModel(_anchors())
        value = model.value_of_width(width, random.Random(seed))
        assert significant_bits(value) == width

    def test_sampled_widths_match_cdf(self):
        model = IntValueModel(_anchors(0.5))
        rng = random.Random(42)
        n = 4000
        narrow = sum(significant_bits(model.sample(rng)) <= 10 for _ in range(n))
        assert narrow / n == pytest.approx(0.5, abs=0.05)

    def test_positive_bias(self):
        model = IntValueModel(_anchors(), positive_bias=1.0)
        rng = random.Random(0)
        assert all(model.sample(rng) >= 0 for _ in range(200))


    @pytest.mark.parametrize("f10", [0.05, 0.5, 0.95])
    def test_sampler_makes_the_reference_draws(self, f10):
        """The closure the generator calls draws what ``sample_width``
        then ``value_of_width`` draw, in the same order."""
        model = IntValueModel(_anchors(f10))
        fast, reference = random.Random(9), random.Random(9)
        sample = model.sampler(fast)
        for _ in range(3000):
            width = model.anchors.sample_width(reference)
            assert sample() == model.value_of_width(width, reference)
        assert fast.getstate() == reference.getstate()


class TestFpValueModel:
    def test_zero_fraction(self):
        model = FpValueModel(zero_frac=0.5, ones_frac=0.02)
        rng = random.Random(1)
        n = 4000
        zeros = sum(model.sample(rng) == 0 for _ in range(n))
        assert zeros / n == pytest.approx(0.5, abs=0.05)

    def test_inlineable_fraction(self):
        model = FpValueModel(zero_frac=0.45, ones_frac=0.05)
        rng = random.Random(2)
        n = 4000
        inlineable = sum(
            is_all_zeros_or_ones(model.sample(rng)) for _ in range(n)
        )
        assert inlineable / n == pytest.approx(0.5, abs=0.05)

    def test_exponent_narrow_fraction(self):
        model = FpValueModel(zero_frac=0.4, ones_frac=0.02, exp_narrow_frac=0.77)
        rng = random.Random(3)
        n = 4000
        narrow = sum(fp_exponent_bits(model.sample(rng)) == 0 for _ in range(n))
        assert narrow / n == pytest.approx(0.77, abs=0.06)

    def test_significand_narrow_fraction(self):
        model = FpValueModel(zero_frac=0.4, ones_frac=0.02, sig_narrow_frac=0.54)
        rng = random.Random(4)
        n = 4000
        narrow = sum(fp_significand_bits(model.sample(rng)) == 0 for _ in range(n))
        assert narrow / n == pytest.approx(0.54, abs=0.06)

    def test_patterns_are_64_bit(self):
        model = FpValueModel()
        rng = random.Random(5)
        for _ in range(500):
            assert 0 <= model.sample(rng) <= MAX_UINT64

    def test_rejects_overfull_fractions(self):
        with pytest.raises(ValueError):
            FpValueModel(zero_frac=0.8, ones_frac=0.4)
