"""Registered physical-register-file port models.

The paper sizes the register file generously (Table 3: enough read
ports for every issue slot's two operands), so the seed simulator
never stalled on register ports.  :data:`REGFILE_REGISTRY` makes the
port model a strategy selected by ``MachineConfig.regfile``:

* ``unlimited`` -- the paper's model: ``2 x issue_width`` read ports
  per cluster, never a structural hazard (a no-op at issue time);
* ``ports_limited`` -- a reduced-read-port file in the spirit of Los
  (arXiv:2502.00147): each cluster has ``regfile_read_ports`` read
  ports per cycle; a selected instruction whose operand reads exceed
  the remaining budget is denied issue that cycle and charged to
  :data:`~repro.uarch.stats.StallCause.REGFILE_PORT`.  Fewer ports
  shrink the register file's word lines and bitlines, so the matching
  delay model shows the clock gain that the IPC loss buys.

The per-cycle port budget is a branch of the generated issue loop
(:func:`repro.uarch.compile.generate_source`) and of the reference
model; it only *denies* issue slots, so every model inherits the
accounting invariants checked by ``SimStats.validate``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.uarch.pipeline import PipelineSimulator


class RegfileStrategy:
    """Base class: one register-file read-port model."""

    #: Registry key; also the value ``MachineConfig.regfile`` takes.
    name = ""
    #: Bumped on any timing-behaviour change (cache-key component).
    version = 1

    def __init__(self, sim: "PipelineSimulator"):
        """Bind to one simulator (models read its config and trace)."""


class UnlimitedRegfile(RegfileStrategy):
    """The paper's fully-ported file: never a structural hazard."""

    name = "unlimited"


class PortsLimitedRegfile(RegfileStrategy):
    """Reduced read ports with issue-time port-conflict stalls.

    Each cluster owns ``config.regfile_read_ports`` read ports per
    cycle.  Operand read counts are precomputed per instruction from
    the trace (``srcs`` lists actually-read architectural registers),
    and the budget is claimed only when an instruction really issues,
    so a denied candidate costs nothing.
    """

    name = "ports_limited"
    version = 1

    def __init__(self, sim: "PipelineSimulator"):
        read_ports = sim.config.regfile_read_ports
        #: Read-port demand per instruction (at most 2 in this ISA).
        self.reads = [len(inst.srcs) for inst in sim.insts]
        widest = max(self.reads, default=0)
        if widest > read_ports:
            raise ValueError(
                f"an instruction reads {widest} registers but the "
                f"ports_limited file has only {read_ports} read "
                f"ports per cluster; it could never issue"
            )


#: All registered register-file models, keyed by name.
REGFILE_REGISTRY: dict[str, type[RegfileStrategy]] = {
    UnlimitedRegfile.name: UnlimitedRegfile,
    PortsLimitedRegfile.name: PortsLimitedRegfile,
}


def build_regfile(sim: "PipelineSimulator") -> RegfileStrategy:
    """Instantiate the register-file model a simulator's config names.

    Raises:
        ValueError: if the config names an unregistered model.
    """
    name = sim.config.regfile
    try:
        model_class = REGFILE_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown regfile strategy {name!r}; registered: "
            f"{sorted(REGFILE_REGISTRY)}"
        ) from None
    return model_class(sim)
