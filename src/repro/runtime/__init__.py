"""The shared-variable self-stabilization runtime (Chapter 2 of the thesis).

This package implements the execution model the paper's protocols are written
in:

* processors own *locally shared variables* that only they may write and that
  they and their neighbors may read (:mod:`~repro.runtime.variables`,
  :mod:`~repro.runtime.configuration`);
* programs are finite sets of *guarded actions* ``<label> :: <guard> -->
  <statement>`` executed atomically (:mod:`~repro.runtime.actions`,
  :mod:`~repro.runtime.protocol`);
* a *daemon* (scheduler adversary) selects, at each computation step, a
  non-empty set of enabled processors -- the distributed daemon of the paper,
  plus central, synchronous and adversarial variants, all with the weak
  fairness guarantee the paper assumes (:mod:`~repro.runtime.daemon`);
* the :class:`~repro.runtime.scheduler.Scheduler` drives executions, counts
  steps, moves and rounds, and detects convergence to a legitimacy predicate
  (:mod:`~repro.runtime.scheduler`, :mod:`~repro.runtime.metrics`); every
  step's moves reach observers as :class:`~repro.runtime.scheduler.StepRecord`
  objects (:mod:`~repro.runtime.observers`);
* transient faults are modeled by starting from arbitrary configurations or by
  corrupting variables mid-execution (:mod:`~repro.runtime.faults`).
"""

from repro.runtime.variables import VariableSpec, int_variable, pointer_variable, map_variable, enum_variable
from repro.runtime.configuration import Configuration
from repro.runtime.actions import Action
from repro.runtime.processor import ProcessorView
from repro.runtime.protocol import Protocol
from repro.runtime.composition import LayeredProtocol, HookedComposition, HookingLayer
from repro.runtime.daemon import (
    Daemon,
    CentralDaemon,
    SynchronousDaemon,
    DistributedDaemon,
    AdversarialDaemon,
    make_daemon,
)
from repro.runtime.scheduler import MoveRecord, Scheduler, RunResult, StepRecord
from repro.runtime.observers import (
    CallbackObserver,
    MetricsObserver,
    Observer,
    ProgressObserver,
)
from repro.runtime.metrics import ExecutionMetrics, space_bits_per_node, space_summary
from repro.runtime.faults import random_configuration, corrupt_configuration, FaultInjector

__all__ = [
    "VariableSpec",
    "int_variable",
    "pointer_variable",
    "map_variable",
    "enum_variable",
    "Configuration",
    "Action",
    "ProcessorView",
    "Protocol",
    "LayeredProtocol",
    "HookedComposition",
    "HookingLayer",
    "Daemon",
    "CentralDaemon",
    "SynchronousDaemon",
    "DistributedDaemon",
    "AdversarialDaemon",
    "make_daemon",
    "Scheduler",
    "RunResult",
    "StepRecord",
    "MoveRecord",
    "Observer",
    "MetricsObserver",
    "ProgressObserver",
    "CallbackObserver",
    "ExecutionMetrics",
    "space_bits_per_node",
    "space_summary",
    "random_configuration",
    "corrupt_configuration",
    "FaultInjector",
]
