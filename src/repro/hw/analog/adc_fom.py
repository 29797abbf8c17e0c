"""Walden figure-of-merit survey for ADC energy estimation.

Non-linear A-Cells (ADCs, comparators) mix dynamic, static, and digital
sub-circuits, so CamJ estimates their energy from the empirical Walden FoM
survey [53] instead of analytical formulas (Eq. 12): given the ADC's
sampling rate, use the *median* energy-per-conversion among surveyed
converters at that rate.

The embedded dataset is a synthetic reconstruction of the survey's envelope:
the Walden FoM of published converters is roughly flat (tens of fJ per
conversion-step) below a corner sampling rate around 100 MS/s and rises
roughly linearly with the rate above the corner.  Points are spread
deterministically around that envelope so median lookups behave like they
would against the real scatter plot.

The lookup takes a float or a NumPy column of rates.  The window search
stays in Python floats (``math.log10`` is not reproduced bit-for-bit by
NumPy), once per distinct rate, so both forms give identical medians.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

from repro import units
from repro.columns import any_true, per_value
from repro.exceptions import ConfigurationError

#: Walden FoM floor below the corner frequency (J per conversion-step).
_FOM_FLOOR = 15.0 * units.fJ
#: Corner sampling rate where FoM starts degrading.
_CORNER_RATE = 100.0 * units.MHz


class FomPoint(NamedTuple):
    """One surveyed converter: sampling rate (Hz), FoM (J/conversion-step)."""

    sample_rate: float
    fom: float


def _envelope(sample_rate: float) -> float:
    """Median Walden FoM trend at a sampling rate."""
    return _FOM_FLOOR * max(1.0, sample_rate / _CORNER_RATE)


def _build_survey() -> tuple:
    """Deterministically scatter survey points around the envelope.

    Sampling rates span 1 kS/s to 10 GS/s (log-uniform); each decade holds a
    fixed number of designs whose FoM spreads multiplicatively around the
    envelope, mimicking the order-of-magnitude scatter of the real survey.
    """
    points = []
    decades = range(3, 11)  # 1e3 .. 1e10 S/s
    per_decade = 16
    for decade in decades:
        for i in range(per_decade):
            fraction = i / per_decade
            rate = 10.0 ** (decade + fraction)
            # Deterministic pseudo-scatter in [-1, 1], multiplicative spread
            # of about 0.3x .. 3x around the envelope median.
            phase = math.sin(12.9898 * (decade + fraction) + 4.1414 * i)
            spread = 3.0 ** phase
            points.append(FomPoint(sample_rate=rate, fom=_envelope(rate) * spread))
    return tuple(points)


FOM_SURVEY: Sequence[FomPoint] = _build_survey()
_SURVEY_LOG_RATES = tuple(math.log10(point.sample_rate)
                          for point in FOM_SURVEY)
_SURVEY_FOMS = tuple(point.fom for point in FOM_SURVEY)


def _median(values) -> float:
    ordered = sorted(values)
    count = len(ordered)
    middle = count // 2
    if count % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def walden_fom(sample_rate, window_decades: float = 0.5):
    """Median Walden FoM (J/conversion-step) near ``sample_rate``.

    Looks up all surveyed converters within ``window_decades`` of the rate
    (in log space) and returns their median FoM; falls back to the envelope
    trend when the window is empty (rates beyond the survey range).
    ``sample_rate`` may be a float or a NumPy column of rates.
    """
    if any_true(sample_rate <= 0):
        raise ConfigurationError(
            f"sample_rate must be positive, got {sample_rate}")
    return per_value(partial(_walden_fom, window_decades), sample_rate)


def _walden_fom(window_decades: float, sample_rate: float) -> float:
    # The window is every survey point with -w <= s - p <= w.  The survey
    # is ascending, so s - p is monotone and each bound is where its
    # exact predicate flips: a bisect on the once-more-rounded p -/+ w
    # seeds it, and the nudges settle it on the predicate itself.
    log_rate = math.log10(sample_rate)
    survey = _SURVEY_LOG_RATES
    size = len(survey)
    start = bisect_left(survey, log_rate - window_decades)
    while start > 0 and survey[start - 1] - log_rate >= -window_decades:
        start -= 1
    while start < size and not survey[start] - log_rate >= -window_decades:
        start += 1
    stop = bisect_right(survey, log_rate + window_decades, start)
    while stop > start and not survey[stop - 1] - log_rate <= window_decades:
        stop -= 1
    while stop < size and survey[stop] - log_rate <= window_decades:
        stop += 1
    if start == stop:
        return _envelope(sample_rate)
    return _window_median(start, stop)


@lru_cache(maxsize=None)
def _window_median(start: int, stop: int) -> float:
    return _median(_SURVEY_FOMS[start:stop])


def adc_energy_per_conversion(sample_rate: float, bits: int) -> float:
    """Median energy of one full conversion: ``FoM * 2**bits`` (Eq. 12)."""
    if bits < 1:
        raise ConfigurationError(f"ADC resolution must be >= 1 bit, got {bits}")
    return walden_fom(sample_rate) * (2 ** bits)
