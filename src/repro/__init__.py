"""Reproduction of "Complexity-Effective Superscalar Processors".

Palacharla, Jouppi, and Smith; ISCA 1997.

The package has two halves, mirroring the paper:

``repro.technology``, ``repro.circuits``, ``repro.delay``
    Analytic delay models for the pipeline structures whose delay grows
    with issue width and window size (register rename, window wakeup,
    selection, operand bypass, and the dependence-based design's
    reservation table), calibrated against the paper's published Hspice
    data for 0.8 um, 0.35 um, and 0.18 um CMOS.

``repro.isa``, ``repro.workloads``, ``repro.uarch``, ``repro.core``
    A cycle-level out-of-order timing simulator (the paper used a
    modified SimpleScalar) with a conventional issue window, the
    proposed dependence-based FIFO microarchitecture, and the clustered
    variants of Section 5.6, plus workload kernels modeled on the
    SPEC'95 integer benchmarks the paper evaluated.

Typical entry points::

    from repro.technology import TECH_018
    from repro.delay import WakeupDelayModel

    model = WakeupDelayModel(TECH_018)
    picoseconds = model.total(issue_width=8, window_size=64)

    from repro.core.campaign import run_campaign
    from repro.core.experiments import figure_configs
    result, profile = run_campaign(figure_configs("fig13"), name="fig13")
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
