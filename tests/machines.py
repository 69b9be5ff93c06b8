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

#: Every registered shape (all ten): the full-coverage sweep used by
#: the strategy-conformance harness and the compiled-vs-reference
#: equivalence matrix (the frozen reference models every shape).
ALL_MACHINES = dict(MACHINE_REGISTRY)


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
