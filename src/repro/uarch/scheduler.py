"""Which configs the frozen reference model covers.

Load-delay tracking (``MachineConfig.load_delay_tracking``) and the
read-port budget (``MachineConfig.regfile_read_ports``) are each a
branch of the generated cycle loop
(:func:`repro.uarch.compile.generate_source`) and, in plain form, of
the frozen reference model (:mod:`repro.uarch.pipeline_reference`),
which the equivalence suite pins the generated code to.
"""

from __future__ import annotations

from repro.uarch.config import MachineConfig


def supports_reference(config: MachineConfig) -> bool:
    """True when the frozen reference model covers ``config``.

    The reference carries plain forms of load-delay tracking and the
    read-port budget, so it covers every valid config.
    """
    return True
