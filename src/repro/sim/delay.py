"""Delay estimation (Sec. 4.1, Fig. 6).

CamJ's insight: the CIS pipeline is designed to never stall, because pixels
arrive at a constant exposure rate.  In a balanced pipeline every analog
stage therefore shares the same delay, which can be *inferred* from the
frame-rate target instead of asked from the user:

    ``N_slots * T_A + T_D = T_FR = 1 / FPS``

where ``N_slots`` counts the analog pipeline stages — the exposure phase
plus every analog functional array on the signal path (the Fig. 6 example
has exposure + binned-pixel readout + ADC, hence ``3 * T_A + T_D``).

The arithmetic is written once, in :func:`frame_timing`, over a float or
the NumPy columns of one explored group (the explore fast path, where
``frame_rate`` and ``exposure_slots`` vary per point).  A column timing
flags its over-budget points instead of raising; their
:class:`TimingError` is the scalar one, from :func:`estimate_frame_timing`
on that point's own options.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.columns import maximum
from repro.exceptions import ConfigurationError, TimingError

#: The exposure phase occupies one analog pipeline slot (Fig. 6).
EXPOSURE_SLOTS = 1


@dataclass(frozen=True)
class FrameTiming:
    """Timing facts of one frame under a frame-rate target.

    Every field but ``digital_latency`` may be a per-point column.
    """

    frame_rate: Any
    frame_time: Any
    digital_latency: float
    num_analog_slots: Any
    analog_stage_delay: Any

    @property
    def analog_total_time(self):
        """Total time the analog domain occupies per frame."""
        return self.num_analog_slots * self.analog_stage_delay


def frame_timing(frame_rate, digital_latency: float, num_analog_arrays: int,
                 exposure_slots=EXPOSURE_SLOTS) -> Tuple[FrameTiming, Any]:
    """The balanced timing of a frame-rate target, unvalidated, and
    whether the digital domain alone overruns the frame budget (a bool,
    or a mask over the points of a column)."""
    frame_time = 1.0 / frame_rate
    slots = num_analog_arrays + exposure_slots
    analog_budget = frame_time - digital_latency
    # A pipeline without analog slots keeps the whole budget (slots
    # count whole stages, so dividing by max(slots, 1) is exact).
    timing = FrameTiming(frame_rate=frame_rate, frame_time=frame_time,
                         digital_latency=digital_latency,
                         num_analog_slots=slots,
                         analog_stage_delay=analog_budget
                         / maximum(slots, 1))
    return timing, analog_budget <= 0


def estimate_frame_timing(frame_rate: float, digital_latency: float,
                          num_analog_arrays: int,
                          exposure_slots: int = EXPOSURE_SLOTS
                          ) -> FrameTiming:
    """Infer the balanced analog stage delay ``T_A`` from the FPS target.

    Raises :class:`TimingError` when the digital domain alone exceeds the
    frame budget — the "re-design the accelerator" feedback of Sec. 3.3.
    """
    if frame_rate <= 0:
        raise ConfigurationError(
            f"frame rate must be positive, got {frame_rate}")
    if digital_latency < 0:
        raise ConfigurationError(
            f"digital latency must be non-negative, got {digital_latency}")
    if num_analog_arrays < 0:
        raise ConfigurationError(
            f"analog array count must be non-negative, "
            f"got {num_analog_arrays}")
    if exposure_slots < 0:
        raise ConfigurationError(
            f"exposure slots must be non-negative, got {exposure_slots}")
    timing, over_budget = frame_timing(frame_rate, digital_latency,
                                       num_analog_arrays, exposure_slots)
    if over_budget:
        raise TimingError(
            f"digital latency ({digital_latency:.3e} s) exceeds the frame "
            f"budget ({timing.frame_time:.3e} s at {frame_rate:g} FPS); the "
            f"digital pipeline needs a re-design")
    return timing
