"""Tests for the compute-cost model: one constant rate table.

A work-shared chunk costs ``units x rate``, where the rate is the first
``KERNEL_RATES`` entry along the domain class's MRO, else
``DEFAULT_KERNEL_RATE``.  Nothing is measured, so the charge depends on
the work alone.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.series import Series
from repro.apps.sor import SOR
from repro.vtime.machine import DEFAULT_KERNEL_RATE, KERNEL_RATES, kernel_cost


class StaticSOR(SOR):
    """A subclass that keeps the base's kernel."""


class SkewedSeries(Series):
    """A subclass that overrides the kernel, not its table entry."""

    def compute_terms(self, lo, hi):
        return super().compute_terms(lo, hi)


class Unlisted:
    def kernel(self, lo, hi):
        pass


class TestKernelCost:
    def test_listed_key_charges_its_rate(self):
        assert KERNEL_RATES["SOR.relax"] == 7e-6
        assert KERNEL_RATES["Series.compute_terms"] == 50e-6
        assert kernel_cost(SOR, "relax", 100) == 100 * 7e-6
        assert kernel_cost(Series, "compute_terms", 3) == 3 * 50e-6

    def test_subclass_inherits_base_rate(self):
        assert kernel_cost(StaticSOR, "relax", 64) == \
            kernel_cost(SOR, "relax", 64)

    def test_overriding_subclass_inherits_base_rate(self):
        assert kernel_cost(SkewedSeries, "compute_terms", 9) == \
            kernel_cost(Series, "compute_terms", 9)

    def test_subclass_entry_beats_base_entry(self, monkeypatch):
        monkeypatch.setitem(KERNEL_RATES, "SkewedSeries.compute_terms", 2e-3)
        assert kernel_cost(SkewedSeries, "compute_terms", 4) == 4 * 2e-3
        assert kernel_cost(Series, "compute_terms", 4) == 4 * 50e-6

    def test_unlisted_key_charges_default_rate(self):
        assert kernel_cost(Unlisted, "kernel", 10) == 10 * DEFAULT_KERNEL_RATE
        # a listed class, but not that method
        assert kernel_cost(SOR, "end_iteration", 10) == \
            10 * DEFAULT_KERNEL_RATE

    @pytest.mark.parametrize("units", [0, -1, -100])
    def test_no_work_charges_nothing(self, units):
        assert kernel_cost(SOR, "relax", units) == 0.0
        assert kernel_cost(Unlisted, "kernel", units) == 0.0

    @given(st.integers(min_value=1, max_value=10**6))
    def test_charge_is_linear_in_units(self, units):
        assert kernel_cost(SOR, "relax", units) == units * 7e-6
        assert kernel_cost(Unlisted, "kernel", units) == \
            units * DEFAULT_KERNEL_RATE
