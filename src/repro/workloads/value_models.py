"""Operand value models.

These produce the values that flow through the synthetic traces.  The
integer model is driven by a per-benchmark cumulative width distribution
(the curves of the paper's Figure 2, top); the FP model is driven by the
fraction of all-zero operands and the exponent/significand significance
distributions (Figure 2, bottom).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from math import log
from typing import Callable, Sequence

from repro.isa.values import (
    MAX_UINT64,
    significant_bits,
)

#: Width grid on which integer CDF anchors are specified.
WIDTH_GRID = (1, 4, 7, 10, 16, 24, 32, 48, 64)


class WidthAnchors:
    """A cumulative distribution over two's-complement widths.

    ``fractions[i]`` is the probability that an operand needs at most
    ``WIDTH_GRID[i]`` significant bits.  The last fraction must be 1.0.
    Sampling interpolates within grid segments so every width is
    reachable.
    """

    __slots__ = ("fractions", "_cum", "_segments")

    def __init__(self, fractions: Sequence[float]) -> None:
        if len(fractions) != len(WIDTH_GRID):
            raise ValueError(
                f"expected {len(WIDTH_GRID)} anchor fractions, got {len(fractions)}"
            )
        if abs(fractions[-1] - 1.0) > 1e-9:
            raise ValueError("final anchor fraction must be 1.0")
        prev = 0.0
        for f in fractions:
            if f < prev - 1e-12:
                raise ValueError("anchor fractions must be non-decreasing")
            prev = f
        self.fractions = tuple(float(f) for f in fractions)
        # sample_width's lookup tables.  The running maximum is sorted
        # (the fractions may dip by 1e-12) and first reaches ``u`` at the
        # first anchor whose own fraction does, so bisecting it finds the
        # same segment a linear scan would.  Each segment is
        # (width, fraction, previous width, previous fraction).
        self._cum = tuple(accumulate(self.fractions, max))
        segments, lo_w, lo_f = [], 0, 0.0
        for w, f in zip(WIDTH_GRID, self.fractions):
            segments.append((w, f, lo_w, lo_f))
            lo_w, lo_f = w, f
        self._segments = tuple(segments)

    def fraction_at_most(self, width: int) -> float:
        """CDF value at ``width`` (linear interpolation between anchors)."""
        if width <= 0:
            return 0.0
        if width >= WIDTH_GRID[-1]:
            return 1.0
        lo_w, lo_f = 0, 0.0
        for w, f in zip(WIDTH_GRID, self.fractions):
            if width <= w:
                span = w - lo_w
                if span == 0:
                    return f
                return lo_f + (f - lo_f) * (width - lo_w) / span
            lo_w, lo_f = w, f
        return 1.0

    def sample_width(self, rng: random.Random) -> int:
        """Draw a width in ``[1, 64]`` from the distribution."""
        u = rng.random()
        i = bisect_left(self._cum, u)
        if i == len(WIDTH_GRID):
            return WIDTH_GRID[-1]
        w, f, lo_w, lo_f = self._segments[i]
        if f == lo_f:
            return w
        # Interpolate to an integer width inside (lo_w, w].
        width = lo_w + max(1, round((u - lo_f) / (f - lo_f) * (w - lo_w)))
        return width if width < w else w


class IntValueModel:
    """Generates signed 64-bit integer values with a target width CDF.

    Widths are drawn from :class:`WidthAnchors`; a value of exactly that
    two's-complement width is then constructed (positive with probability
    ``positive_bias``).
    """

    def __init__(self, anchors: WidthAnchors, positive_bias: float = 0.8) -> None:
        self.anchors = anchors
        self.positive_bias = positive_bias

    def sample(self, rng: random.Random) -> int:
        return self.sampler(rng)()

    def sampler(self, rng: random.Random) -> Callable[[], int]:
        """:meth:`sample` bound to ``rng``: a closure that draws one
        value per call.  It inlines :meth:`WidthAnchors.sample_width`
        and :meth:`value_of_width` and makes their draws in their order,
        so the trace generator's loop pays one call per integer result."""
        random_ = rng.random
        getrandbits = rng.getrandbits
        cum = self.anchors._cum
        segments = self.anchors._segments
        positive_bias = self.positive_bias

        def sample() -> int:
            u = random_()
            i = bisect_left(cum, u)
            if i == len(WIDTH_GRID):
                width = WIDTH_GRID[-1]
            else:
                w, f, lo_w, lo_f = segments[i]
                if f == lo_f:
                    width = w
                else:
                    width = lo_w + max(1, round((u - lo_f) / (f - lo_f) * (w - lo_w)))
                    if width > w:
                        width = w
            if width <= 1:
                return 0 if random_() < positive_bias else -1
            positive = random_() < positive_bias
            lo = 1 << (width - 2)
            r = getrandbits(width - 1)
            while r >= lo:
                r = getrandbits(width - 1)
            value = lo + r if positive else -(lo + 1 + r)
            assert significant_bits(value) == width
            return value

        return sample

    def value_of_width(self, width: int, rng: random.Random) -> int:
        """A signed value whose :func:`significant_bits` is exactly ``width``."""
        random_ = rng.random
        if width <= 1:
            return 0 if random_() < self.positive_bias else -1
        positive = random_() < self.positive_bias
        # Positive values of width k: lo + [0, lo) with lo = 2**(k-2);
        # negative ones: -(lo + 1 + [0, lo)).  The offset is drawn as
        # ``randint`` draws it: getrandbits(k - 1), redrawn while >= lo.
        lo = 1 << (width - 2)
        getrandbits = rng.getrandbits
        r = getrandbits(width - 1)
        while r >= lo:
            r = getrandbits(width - 1)
        value = lo + r if positive else -(lo + 1 + r)
        assert significant_bits(value) == width
        return value


class FpValueModel:
    """Generates 64-bit IEEE-754 bit patterns with target significance.

    ``zero_frac`` of operands are the all-zero pattern (inlineable and 0
    exponent/significand bits); ``ones_frac`` are the all-ones pattern.
    The remaining operands get exponent and significand fields sampled so
    that :func:`repro.isa.values.fp_exponent_bits` and
    :func:`repro.isa.values.fp_significand_bits` land on the benchmark's
    Figure 2 curves: with probability ``exp_narrow_frac`` the exponent
    field is all zeroes/ones, and with probability ``sig_narrow_frac`` the
    significand field is all zeroes.
    """

    def __init__(
        self,
        zero_frac: float = 0.5,
        ones_frac: float = 0.02,
        exp_narrow_frac: float = 0.5,
        sig_narrow_frac: float = 0.1,
        exp_mean_bits: float = 5.0,
        sig_mean_bits: float = 30.0,
    ) -> None:
        if zero_frac + ones_frac > 1.0:
            raise ValueError("zero_frac + ones_frac must not exceed 1")
        self.zero_frac = zero_frac
        self.ones_frac = ones_frac
        self.exp_narrow_frac = exp_narrow_frac
        self.sig_narrow_frac = sig_narrow_frac
        self.exp_mean_bits = exp_mean_bits
        self.sig_mean_bits = sig_mean_bits
        # Per-sample constants.  The zero-pattern operands already
        # contribute ``zero_frac + ones_frac`` of the narrow exponent and
        # significand fields, so the remaining operands' narrow fractions
        # are rescaled residuals.
        self._patterned = base = zero_frac + ones_frac
        self._exp_residual = self._residual(exp_narrow_frac, base)
        self._sig_residual = self._residual(sig_narrow_frac, base)
        self._exp_lambda = 1.0 / exp_mean_bits

    @staticmethod
    def _residual(narrow_frac: float, base: float) -> float:
        if narrow_frac > base:
            return (narrow_frac - base) / max(1e-9, 1.0 - base)
        return 0.0

    def sample(self, rng: random.Random) -> int:
        random_ = rng.random
        u = random_()
        if u < self.zero_frac:
            return 0
        if u < self._patterned:
            return MAX_UINT64
        getrandbits = rng.getrandbits
        # Exponent: all zeroes/ones with the residual probability, else a
        # field of bounded two's-complement width (expovariate, inlined).
        if random_() < self._exp_residual:
            exponent = 0 if random_() < 0.5 else 0x7FF
        else:
            width = min(11, int(-log(1.0 - random_()) / self._exp_lambda) + 2)
            lo = 1 << (width - 2)
            r = getrandbits(width - 1)
            while r >= lo:
                r = getrandbits(width - 1)
            exponent = lo + r
            if random_() < 0.5:
                exponent = (-exponent - 1) & 0x7FF  # sign-extended negative pattern
        # Significand: all zeroes with the residual probability, else `m`
        # significant high-order bits: top m bits meaningful, the m-th bit
        # from the top set, lower 52-m bits zero.
        if random_() < self._sig_residual:
            significand = 0
        else:
            m = min(52, max(1, int(rng.gauss(self.sig_mean_bits, 10.0))))
            if m >= 52:
                significand = getrandbits(52) | 1
            elif m > 1:
                significand = ((getrandbits(m - 1) << 1) | 1) << (52 - m)
            else:
                significand = 1 << 51
            if significand == (1 << 52) - 1:
                significand -= 2  # avoid the all-ones fraction (counted separately)
        sign = getrandbits(1)
        return (sign << 63) | (exponent << 52) | significand
