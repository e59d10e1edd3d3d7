"""Deterministic discrete-event simulation kernel.

This package is the substrate everything else in :mod:`repro` runs on. It
provides a SimPy-flavoured, generator-based process model on top of an
integer-nanosecond event queue with fully deterministic ordering (ties are
broken by scheduling priority, then by insertion sequence number), which is
what makes every experiment in the repository bit-reproducible under a
fixed seed.
"""

from repro.sim.engine import Environment, SimulationError, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    EventPriority,
    Timeout,
)
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngRegistry
from repro.sim.units import MICROSECOND, MILLISECOND, NANOSECOND, SECOND, fmt_time

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "EventPriority",
    "Interrupt",
    "MICROSECOND",
    "MILLISECOND",
    "NANOSECOND",
    "Process",
    "Resource",
    "RngRegistry",
    "SECOND",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
    "fmt_time",
]
