"""The unified experiment API: one declarative spec, one entry point.

Every simulation this repository can run -- daemon-step stabilization
measurements, fault-injection scenarios, synchronous message-passing
workloads -- is described by a single declarative, serializable
:class:`RunSpec` and executed through a single engine-agnostic entry point:

>>> from repro.api import NetworkSpec, RunSpec, run
>>> spec = RunSpec(
...     engine="scheduler",
...     protocol="dftno",
...     network=NetworkSpec(family="random_connected", size=12, seed=3),
...     daemon="distributed",
...     seed=7,
... )
>>> result = run(spec)
>>> result.converged
True
>>> result.row["protocol"]
'dftno'

Specs round-trip through plain dictionaries (``spec.to_dict()`` /
``RunSpec.from_dict``) and carry a stable :attr:`RunSpec.canonical_hash`, so
they can be stored, shipped to workers, and deduplicated.  Instrumentation is
pluggable: pass :class:`Observer` implementations to :func:`run` to receive
``on_step`` / ``on_round`` / ``on_event`` / ``on_converged`` notifications
from whichever engine executes the spec.

The campaign engine (:mod:`repro.campaign`) builds on this API: each
campaign ``TaskSpec`` maps to one ``RunSpec`` executed by :func:`run`, and
sweeps, stores and resume logic layer on top rather than being baked into
each experiment.  The dependency is one-way: this package never imports
:mod:`repro.campaign`; the protocol, daemon and family name validators that
both use live in :mod:`repro.api.spec`.
"""

from repro.api.engines import (
    Engine,
    FullScanSchedulerEngine,
    MsgpassEngine,
    ScenarioEngine,
    SchedulerEngine,
    engine_names,
    get_engine,
    register_engine,
    run,
)
from repro.api.observers import (
    CallbackObserver,
    MetricsObserver,
    Observer,
    ProgressObserver,
    RecoveryObserver,
)
from repro.api.spec import (
    ENGINE_NAMES,
    SCHEDULER_ENGINES,
    NetworkSpec,
    RunResult,
    RunSpec,
    StopSpec,
    WORKLOADS,
)

__all__ = [
    "ENGINE_NAMES",
    "SCHEDULER_ENGINES",
    "WORKLOADS",
    "Engine",
    "FullScanSchedulerEngine",
    "MsgpassEngine",
    "NetworkSpec",
    "Observer",
    "CallbackObserver",
    "MetricsObserver",
    "ProgressObserver",
    "RecoveryObserver",
    "RunResult",
    "RunSpec",
    "ScenarioEngine",
    "SchedulerEngine",
    "StopSpec",
    "engine_names",
    "get_engine",
    "register_engine",
    "run",
]
