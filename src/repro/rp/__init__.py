"""Register-pressure analysis: liveness profiles, the incremental tracker
used inside every scheduler, and the PRP/APRP cost functions."""

from .liveness import pressure_profile, peak_pressure, schedule_peak
from .tracker import PressureTracker, RegisterTable
from .cost import rp_cost, rp_cost_lower_bound, ScheduleQuality, evaluate_schedule

__all__ = [
    "pressure_profile",
    "peak_pressure",
    "schedule_peak",
    "PressureTracker",
    "RegisterTable",
    "rp_cost",
    "rp_cost_lower_bound",
    "ScheduleQuality",
    "evaluate_schedule",
]
