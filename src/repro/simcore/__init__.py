"""Discrete-event simulation core (from scratch).

Public surface::

    from repro.simcore import Environment
    env = Environment()
    env.process(my_generator(env))
    env.run(until=1000.0)

The engine uses generator-based processes with SimPy-compatible semantics
(events, conditions, stores) implemented in-tree so
the reproduction has no external runtime dependencies.
"""

from .engine import Environment, Infinity
from .events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout, NORMAL, URGENT
from .process import Process
from .resources import Store
from .rng import RandomStreams, ScopedStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Environment",
    "Event",
    "Infinity",
    "NORMAL",
    "Process",
    "RandomStreams",
    "ScopedStreams",
    "Store",
    "Timeout",
    "URGENT",
]
