"""Shared machine fixtures for the test suite.

One place that lists which machine shapes the suites run against,
backed by the canonical registry in :mod:`repro.core.machines` -- the
same registry :mod:`repro.verify.sampler` fuzzes over, so a shape
added there is automatically picked up by the property tests, the
strategy-conformance harness, and the fuzzer.

Keys are the registry's canonical shape names ("baseline",
"dependence", "clustered", "clustered_windows", "exec_steer",
"random", "modulo", "least_loaded", "load_tracking",
"ports_limited"); values are zero-argument factories returning a
fresh :class:`~repro.uarch.config.MachineConfig`.
"""

from repro.core.machines import MACHINE_REGISTRY
from repro.uarch.scheduler import supports_reference

#: Every registered shape (all ten): the full-coverage sweep used by
#: the strategy-conformance harness.
ALL_MACHINES = dict(MACHINE_REGISTRY)

#: The shapes the frozen reference model covers (all of them, now that
#: it carries plain forms of every strategy hook): the
#: compiled-vs-reference equivalence sweep runs exactly these --
#: derived from the same predicate the fuzzer once used, so the two
#: can never disagree about what the reference models.
REFERENCE_MACHINES = {
    name: factory
    for name, factory in MACHINE_REGISTRY.items()
    if supports_reference(factory())
}


def subset(*names: str) -> dict:
    """A name -> factory dict for the given canonical shape names."""
    missing = [name for name in names if name not in MACHINE_REGISTRY]
    if missing:
        raise KeyError(
            f"unknown machine shapes {missing}; "
            f"registry has {sorted(MACHINE_REGISTRY)}"
        )
    return {name: MACHINE_REGISTRY[name] for name in names}


#: The four structurally distinct shapes (window, FIFO, clustered
#: FIFO, random-steered) used by the randomised property tests.
CORE_MACHINES = subset("baseline", "dependence", "clustered", "random")

#: The six shapes with distinct steering behaviour, used by the
#: pipeline invariant audits.
STEERED_MACHINES = subset(
    "baseline",
    "dependence",
    "clustered",
    "clustered_windows",
    "exec_steer",
    "random",
)
