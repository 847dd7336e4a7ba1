"""Whole-schedule liveness: pressure profiles and peak pressure.

These functions re-derive pressure from a complete :class:`Schedule` (the
tracker in :mod:`repro.rp.tracker` does the same incrementally during
construction); the test suite cross-checks the two against each other.
:func:`peak_pressure` always replays; the verifier relies on that.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.registers import RegisterClass
from ..schedule.schedule import Schedule
from .tracker import PressureTracker


def pressure_profile(schedule: Schedule) -> Dict[RegisterClass, List[int]]:
    """Per-class pressure after each issue slot, in issue order.

    Entry ``k`` of each list is the number of live registers of that class
    right after the ``k``-th issued instruction (stall cycles do not change
    pressure and are not represented).
    """
    region = schedule.region
    tracker = PressureTracker(region)
    profile: Dict[RegisterClass, List[int]] = {cls: [] for cls in tracker.classes}
    for index in schedule.order:
        tracker.schedule_at(index)
        current = tracker.current
        for cls in tracker.classes:
            profile[cls].append(current[cls])
    return profile


def peak_pressure(schedule: Schedule) -> Dict[RegisterClass, int]:
    """Per-class PRP of a complete schedule."""
    region = schedule.region
    tracker = PressureTracker(region)
    for index in schedule.order:
        tracker.schedule_at(index)
    return tracker.peak_pressure()


def schedule_peak(schedule: Schedule) -> Dict[RegisterClass, int]:
    """Per-class PRP of a complete schedule: the peak its producer tracked,
    else :func:`peak_pressure`."""
    tracked = schedule.tracked_peak
    return tracked if tracked is not None else peak_pressure(schedule)
