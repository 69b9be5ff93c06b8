"""Registered wakeup/select scheduler strategies.

:data:`SCHEDULER_REGISTRY` names the issue-stage strategies a
``MachineConfig.scheduler`` may select, mirroring ``MACHINE_REGISTRY``
(:mod:`repro.core.machines`) and ``DELAY_MODEL_REGISTRY``
(:mod:`repro.delay.critical_path`):

* ``conventional`` -- the paper's broadcast wakeup + select over a
  flexible window (also drives the window-steered clustered shapes);
* ``fifo_steering`` -- Section 5's dependence-based FIFOs, where only
  FIFO heads are visible to select;
* ``load_delay_tracking`` -- predicted ready-time issue with real-time
  load-delay feedback (Diavastos & Carlson, arXiv:2109.03112): an
  instruction whose producing load is predicted still in flight is
  held back instead of competing for issue slots, modelling a
  scheduler that replaces the broadcast CAM with per-instruction
  ready-time countdowns.

Each strategy's behaviour is a branch of the generated cycle loop
(:func:`repro.uarch.compile.generate_source`) and, in plain form, of
the frozen reference model (:mod:`repro.uarch.pipeline_reference`),
which the equivalence suite pins the generated code to.  The classes
here carry only what callers need before a run: identity and whether
idle-cycle skipping is sound.

Strategy identity (name + version) is folded into the campaign cache
key by :func:`strategy_identity`, exactly like ``PREANALYSIS_VERSION``:
bump a strategy's ``version`` whenever its timing behaviour changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.uarch.config import MachineConfig


class SchedulerStrategy:
    """Base class: one registered wakeup/select strategy."""

    #: Registry key; also the value ``MachineConfig.scheduler`` takes.
    name = ""
    #: Bumped on any timing-behaviour change (cache-key component).
    version = 1
    #: Whether idle-cycle skipping is sound under this strategy.  A
    #: strategy that holds candidates until a cycle the event machinery
    #: does not know about must disable skipping.
    supports_cycle_skip = True


class ConventionalScheduler(SchedulerStrategy):
    """Broadcast wakeup + select over flexible windows (Section 4)."""

    name = "conventional"


class FifoSteeringScheduler(SchedulerStrategy):
    """Dependence-based FIFOs; only heads are selectable (Section 5)."""

    name = "fifo_steering"


class LoadDelayTrackingScheduler(SchedulerStrategy):
    """Predicted ready-time issue with real-time load-delay feedback.

    Follows Diavastos & Carlson (arXiv:2109.03112): instead of a
    broadcast CAM, each instruction carries a predicted ready time
    derived from its producers.  Non-load producers are exact (fixed
    latency); load latencies are *predicted* from the last observed
    latency of the same static load (defaulting to a cache hit) and
    corrected in real time when the load actually issues.  A candidate
    whose predicted ready time is still in the future is held out of
    select that cycle and charged to :data:`StallCause.SCHED_WAIT` --
    the IPC cost of dropping the CAM, which the matching delay model
    (``ldt_window_logic_ps``) repays in clock.

    Holds expire by pure time advance, at cycles the event-driven
    arrival machinery does not schedule, so idle-cycle skipping is
    disabled for this strategy.
    """

    name = "load_delay_tracking"
    supports_cycle_skip = False


#: All registered scheduler strategies, keyed by name.
SCHEDULER_REGISTRY: dict[str, type[SchedulerStrategy]] = {
    ConventionalScheduler.name: ConventionalScheduler,
    FifoSteeringScheduler.name: FifoSteeringScheduler,
    LoadDelayTrackingScheduler.name: LoadDelayTrackingScheduler,
}


def supports_reference(config: "MachineConfig") -> bool:
    """True when the frozen reference model covers ``config``.

    The reference carries plain forms of every registered scheduler
    and register-file strategy, so it covers every valid config.
    """
    return (
        config.scheduler in SCHEDULER_REGISTRY
        and config.regfile in ("unlimited", "ports_limited")
    )


def strategy_identity(config: "MachineConfig") -> str:
    """Cache-key component naming the config's strategies + versions.

    Two configs differing only in scheduler/regfile strategy (or in a
    strategy's behaviour version) must never collide in the
    content-addressed campaign cache; this string, folded into
    :func:`repro.core.campaign.cache_key`, guarantees it -- the same
    role ``PREANALYSIS_VERSION`` plays for the pre-analysis pass.
    """
    from repro.uarch.regfile_model import REGFILE_REGISTRY

    scheduler = SCHEDULER_REGISTRY[config.scheduler]
    regfile = REGFILE_REGISTRY[config.regfile]
    return (
        f"sched:{scheduler.name}@{scheduler.version}"
        f"+regfile:{regfile.name}@{regfile.version}"
    )
