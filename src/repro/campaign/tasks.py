"""Campaign tasks as unified-API specs.

:func:`runspec_for_task` maps one :class:`~repro.campaign.grid.TaskSpec` to a
declarative :class:`~repro.api.RunSpec`; :func:`repro.campaign.run_task`
executes it through the engine-agnostic :func:`repro.api.run` entry point and
adds the task's identity fields and config hash afterwards.  The task type
picks the engine (:data:`~repro.campaign.grid.TASK_ENGINES`):

* ``stabilize`` -- the stabilization measurement on the daemon-step
  scheduler engine (byte-identical rows and hashes to the pre-API campaign
  engine);
* ``scenario`` -- a fault-injection / dynamic-network scenario from the
  library (:mod:`repro.scenarios`), reporting per-event recovery aggregates
  plus the persisted per-event records;
* ``msgpass`` -- a message-passing workload (broadcast, DFS traversal, or
  ring leader election) on the synchronous simulator, comparing message
  costs with and without the orientation (the application story of EXP-A1 as
  a sweepable campaign axis).  Its orientation is the centralized reference
  (the protocols' fixed point), so the ``protocol`` and ``daemon`` identity
  axes do not influence the measurement: sweeping them yields repeated
  trials on fresh networks.
"""

from __future__ import annotations

from repro.api import NetworkSpec, RunSpec, StopSpec
from repro.api.spec import HEIGHT_TREE_FAMILY
from repro.campaign.grid import TASK_ENGINES, TaskSpec


def network_spec_for_task(spec: TaskSpec) -> NetworkSpec:
    """The declarative topology of a task, seeded from its config hash."""
    if spec.height is not None:
        return NetworkSpec(
            family=HEIGHT_TREE_FAMILY,
            size=spec.size,
            height=spec.height,
            seed=spec.network_seed,
        )
    return NetworkSpec(family=spec.family, size=spec.size, seed=spec.network_seed)


def runspec_for_task(spec: TaskSpec) -> RunSpec:
    """Map a campaign task onto the unified :class:`~repro.api.RunSpec`.

    This is the whole adapter: the task type picks the engine, the identity
    fields become the spec, and the hash-derived seeds keep every row
    reproducible no matter where it executes.
    """
    if spec.task_type not in TASK_ENGINES:
        raise ValueError(f"no RunSpec mapping for task type {spec.task_type!r}")
    if spec.task_type == "scenario" and spec.scenario is None:
        raise ValueError("scenario tasks need a scenario name (Grid(scenarios=...))")
    return RunSpec(
        engine=TASK_ENGINES[spec.task_type],
        protocol=spec.protocol,
        network=network_spec_for_task(spec),
        daemon=spec.daemon,
        seed=spec.run_seed,
        scenario=spec.scenario if spec.task_type == "scenario" else None,
        workload=(spec.workload or "broadcast") if spec.task_type == "msgpass" else None,
        stop=StopSpec(after_substrate=spec.after_substrate),
        parameter=spec.parameter,
    )


__all__ = ["network_spec_for_task", "runspec_for_task"]
