"""Tests for repro.schedule.rationalize."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.core.allocation import Allocation
from repro.schedule.rationalize import (
    quantize_allocation,
    rationalize_allocation,
)
from repro.util.errors import ScheduleError


def _alloc(alpha_entries, K=3):
    a = Allocation.zeros(K)
    for (k, l), v in alpha_entries.items():
        a.alpha[k, l] = v
    return a


class TestQuantize:
    def test_exact_grid_values_preserved(self):
        a = _alloc({(0, 0): 1.5, (1, 2): 0.25})
        q = quantize_allocation(a, denominator=4)
        assert q.alloc.alpha[0, 0] == 1.5
        assert q.alloc.alpha[1, 2] == 0.25
        assert q.period in (1, 2, 4)
        # loads/period reproduces alpha exactly
        assert np.allclose(q.loads / q.period, q.alloc.alpha)

    def test_rounds_down(self):
        a = _alloc({(0, 1): 1 / 3})
        q = quantize_allocation(a, denominator=10)
        assert q.alloc.alpha[0, 1] <= 1 / 3
        assert q.alloc.alpha[0, 1] == pytest.approx(0.3)

    def test_period_reduced_by_gcd(self):
        a = _alloc({(0, 0): 0.5})
        q = quantize_allocation(a, denominator=1000)
        assert q.period == 2
        assert q.loads[0, 0] == 1

    def test_zero_allocation(self):
        q = quantize_allocation(Allocation.zeros(2), denominator=100)
        assert q.period == 1 and q.loads.sum() == 0

    def test_near_grid_snaps_up(self):
        # float noise below a grid point must not lose a whole step
        a = _alloc({(0, 0): 2.0 - 1e-12})
        q = quantize_allocation(a, denominator=10)
        assert q.alloc.alpha[0, 0] == pytest.approx(2.0)

    def test_invalid_denominator(self):
        with pytest.raises(ScheduleError):
            quantize_allocation(Allocation.zeros(1), denominator=0)

    def test_throughputs(self):
        a = _alloc({(0, 0): 1.0, (0, 1): 0.5})
        q = quantize_allocation(a, denominator=2)
        assert q.throughputs[0] == pytest.approx(1.5)

    @given(st.integers(min_value=0, max_value=10_000))
    @example(3342)  # an entry 1.9e-8 below a grid point: floor, no snap
    @example(7400)  # an entry 3.5e-7 below a grid point: floor, no snap
    def test_quantized_never_exceeds_original(self, seed):
        rng = np.random.default_rng(seed)
        a = Allocation.zeros(3)
        a.alpha[:] = rng.uniform(0, 5, (3, 3))
        q = quantize_allocation(a, denominator=97)
        assert np.all(q.alloc.alpha <= a.alpha + 1e-9)
        assert np.all(q.loads >= 0)
        assert np.allclose(q.loads / q.period, q.alloc.alpha)


class TestRationalize:
    def test_exact_lcm_period(self):
        a = _alloc({(0, 0): 0.5, (1, 1): 1 / 3})
        q = rationalize_allocation(a, max_denominator=10)
        assert q.period == 6
        assert q.loads[0, 0] == 3 and q.loads[1, 1] == 2

    def test_period_overflow_guard(self):
        a = Allocation.zeros(4)
        # Prime-ish denominators make the lcm blow up.
        primes = [97, 89, 83, 79, 73, 71, 67, 61, 59, 53, 47, 43]
        idx = 0
        for k in range(4):
            for l in range(4):
                a.alpha[k, l] = 1.0 / primes[idx % len(primes)]
                idx += 1
        with pytest.raises(ScheduleError):
            rationalize_allocation(a, max_denominator=100, max_period=10**6)

    def test_negative_noise_clamped(self):
        a = _alloc({(0, 1): -1e-15})
        q = rationalize_allocation(a)
        assert q.loads.sum() == 0
