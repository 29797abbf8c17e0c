"""Tests for the Walden FoM survey used by non-linear A-Cells."""

import math
import random

import numpy as np
import pytest

from repro import units
from repro.exceptions import ConfigurationError
from repro.hw.analog.adc_fom import (
    FOM_SURVEY,
    _envelope,
    _median,
    adc_energy_per_conversion,
    walden_fom,
)


def _linear_scan_fom(sample_rate, window_decades=0.5):
    """Reference lookup: test every survey point against the window."""
    log_rate = math.log10(sample_rate)
    nearby = [point.fom for point in FOM_SURVEY
              if abs(math.log10(point.sample_rate) - log_rate)
              <= window_decades]
    if not nearby:
        return _envelope(sample_rate)
    return _median(nearby)


def _window_edge_rates():
    """Every survey rate shifted to both window edges, each with its
    floating-point neighbours: the rates where membership flips."""
    rates = []
    for point in FOM_SURVEY:
        for shift in (-0.5, 0.5):
            edge = 10.0 ** (math.log10(point.sample_rate) + shift)
            below = math.nextafter(edge, 0.0)
            above = math.nextafter(edge, math.inf)
            rates.extend((math.nextafter(below, 0.0), below, edge, above,
                          math.nextafter(above, math.inf)))
    return rates


class TestSurveyDataset:
    def test_survey_is_non_trivial(self):
        assert len(FOM_SURVEY) > 50

    def test_survey_spans_the_published_rate_range(self):
        rates = [p.sample_rate for p in FOM_SURVEY]
        assert min(rates) <= 10 * units.kHz
        assert max(rates) >= 1 * units.GHz

    def test_survey_foms_positive(self):
        assert all(p.fom > 0 for p in FOM_SURVEY)

    def test_survey_deterministic(self):
        """The dataset must be reproducible across imports/runs."""
        from repro.hw.analog.adc_fom import _build_survey
        assert _build_survey() == tuple(FOM_SURVEY)


class TestWaldenLookup:
    def test_flat_floor_below_corner(self):
        """Below ~100 MS/s the median FoM is rate-independent (tens of fJ)."""
        low = walden_fom(1 * units.MHz)
        mid = walden_fom(10 * units.MHz)
        assert low == pytest.approx(mid, rel=0.6)
        assert 1 * units.fJ < low < 200 * units.fJ

    def test_fom_degrades_above_corner(self):
        assert walden_fom(5 * units.GHz) > 3 * walden_fom(10 * units.MHz)

    def test_out_of_range_falls_back_to_envelope(self):
        very_slow = walden_fom(1.0)  # 1 S/s, far below the survey
        assert very_slow > 0

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ConfigurationError):
            walden_fom(0.0)
        with pytest.raises(ConfigurationError):
            walden_fom(np.array([1e6, 0.0]))


class TestWaldenExactness:
    """The binary-search lookup equals the linear scan bit for bit, on
    floats and on arrays alike."""

    def _rates(self):
        rng = random.Random("walden")
        return _window_edge_rates() + [10.0 ** rng.uniform(1.0, 11.0)
                                       for _ in range(4000)]

    def test_floats_match_linear_scan(self):
        for rate in self._rates():
            assert walden_fom(rate) == _linear_scan_fom(rate), rate

    def test_arrays_match_linear_scan(self):
        rates = self._rates()
        looked_up = walden_fom(np.array(rates))
        assert isinstance(looked_up, np.ndarray)
        assert looked_up.tolist() == [_linear_scan_fom(rate)
                                      for rate in rates]

    def test_empty_array(self):
        assert walden_fom(np.array([])).shape == (0,)


class TestEnergyPerConversion:
    def test_exponential_in_bits(self):
        e8 = adc_energy_per_conversion(10 * units.MHz, 8)
        e10 = adc_energy_per_conversion(10 * units.MHz, 10)
        assert e10 == pytest.approx(4 * e8)

    def test_10bit_adc_energy_plausible(self):
        """10-bit column ADCs run single-digit to tens of pJ/conversion."""
        energy = adc_energy_per_conversion(1 * units.MHz, 10)
        assert 1 * units.pJ < energy < 100 * units.pJ

    def test_comparator_is_cheap(self):
        """A comparator (1-bit ADC) costs ~2x the FoM floor."""
        energy = adc_energy_per_conversion(1 * units.MHz, 1)
        assert energy < 1 * units.pJ

    def test_rejects_zero_bits(self):
        with pytest.raises(ConfigurationError):
            adc_energy_per_conversion(1 * units.MHz, 0)
