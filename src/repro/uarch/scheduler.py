"""Which configs the frozen reference model covers.

Each scheduler and register-file strategy (``MachineConfig.scheduler``
and ``.regfile``, named in :data:`~repro.uarch.config.SCHEDULER_NAMES`
and :data:`~repro.uarch.config.REGFILE_NAMES`) is a branch of the
generated cycle loop (:func:`repro.uarch.compile.generate_source`) and,
in plain form, of the frozen reference model
(:mod:`repro.uarch.pipeline_reference`), which the equivalence suite
pins the generated code to.
"""

from __future__ import annotations

from repro.uarch.config import REGFILE_NAMES, SCHEDULER_NAMES, MachineConfig


def supports_reference(config: MachineConfig) -> bool:
    """True when the frozen reference model covers ``config``.

    The reference carries plain forms of every scheduler and
    register-file strategy, so it covers every valid config.
    """
    return (config.scheduler in SCHEDULER_NAMES
            and config.regfile in REGFILE_NAMES)
