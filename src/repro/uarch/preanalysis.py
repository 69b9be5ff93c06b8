"""The compiled runner's per-trace arrays: the trace's own columns.

The cycle loop in :mod:`repro.uarch.compile` reads flat arrays
indexed by dynamic sequence number -- producer links, op-class flags,
memory words, destination kinds, branch facts.  Every trace source
emits those arrays as it builds the trace
(:class:`~repro.isa.trace.Trace`), so there is no pass left to run:
:func:`preanalyze` hands back the trace, whose columns are the arrays.
This module's source is part of
:func:`repro.core.campaign.model_fingerprint`.
"""

from __future__ import annotations

from repro.isa.trace import Trace


def preanalyze(trace: Trace) -> Trace:
    """The arrays the compiled runner reads: the trace's columns."""
    return trace
