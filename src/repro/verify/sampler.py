"""Constrained-random sampling of machine configs and workloads.

Machine sampling starts from the canonical shape registry
(:data:`repro.core.machines.MACHINE_REGISTRY` -- the same source the
test suites use) and perturbs the free parameters each shape exposes:
buffer geometry, pipeline widths, in-flight limit, wakeup/select
depth, inter-cluster bypass latency, selection policy, and the random
steering seed.  Every sample is a *valid* :class:`MachineConfig` by
construction (``MachineConfig.__post_init__`` would reject anything
else loudly).

Workload sampling alternates between the new assembly-program
generator (:mod:`repro.verify.generator`), which enables the
architectural oracle, and :class:`~repro.workloads.synthetic.
SyntheticConfig` streams -- either free-form (:func:`sample_synthetic`)
or drawn from the registered ``zoo_*`` scenarios
(:func:`sample_zoo`), which stress timing-only behaviour with
op-class mixes no real program reaches.
"""

from __future__ import annotations

import dataclasses
import random

from repro.core.machines import MACHINE_REGISTRY
from repro.uarch.config import MachineConfig, SelectionPolicy
from repro.verify.generator import ProgramGenConfig
from repro.workloads import SyntheticConfig

#: Shape names whose machines steer through real FIFOs -- the subset
#: the planted-bug self-test restricts itself to.
FIFO_SHAPES = ("dependence", "clustered")

#: Per-shape geometry parameters the sampler may perturb.
_SHAPE_GEOMETRY = {
    "baseline": {"window_size": (4, 16, 32, 64)},
    "dependence": {"fifo_count": (2, 4, 8), "fifo_depth": (2, 4, 8)},
    "clustered": {
        "fifos_per_cluster": (2, 4),
        "fifo_depth": (4, 8),
        "inter_cluster_bypass_cycles": (1, 2, 3),
    },
    "clustered_windows": {
        "window_size": (8, 16, 32),
        "inter_cluster_bypass_cycles": (1, 2, 3),
    },
    "exec_steer": {"inter_cluster_bypass_cycles": (1, 2, 3)},
    "random": {
        "window_size": (8, 16, 32),
        "inter_cluster_bypass_cycles": (1, 2, 3),
    },
    "modulo": {
        "window_size": (8, 16, 32),
        "inter_cluster_bypass_cycles": (1, 2, 3),
    },
    "least_loaded": {
        "window_size": (8, 16, 32),
        "inter_cluster_bypass_cycles": (1, 2, 3),
    },
    "load_tracking": {
        "window_size": (16, 32, 64),
        "regfile_read_ports": (0, 2, 4),
    },
    "ports_limited": {
        "read_ports": (2, 3, 4, 6),
        "window_size": (16, 32, 64),
        "load_delay_tracking": (False, True),
    },
}


def sample_machine(
    rng: random.Random,
    fifo_only: bool = False,
    only_shapes: tuple[str, ...] | None = None,
) -> tuple[str, MachineConfig]:
    """Draw one (shape name, machine config) pair.

    Args:
        rng: Seeded source of randomness (the only entropy used).
        fifo_only: Restrict to :data:`FIFO_SHAPES` (for the planted
            steering-bug self-test, which mutates FIFO steering).
        only_shapes: Restrict to these registry shapes (the planted
            port-arbiter self-test samples only ``ports_limited``).
    """
    if only_shapes:
        shapes: tuple[str, ...] = only_shapes
    elif fifo_only:
        shapes = FIFO_SHAPES
    else:
        shapes = tuple(sorted(MACHINE_REGISTRY))
    shape = shapes[rng.randrange(len(shapes))]
    kwargs = {
        name: values[rng.randrange(len(values))]
        for name, values in _SHAPE_GEOMETRY[shape].items()
    }
    # Common MachineConfig knobs every factory forwards as overrides.
    kwargs["fetch_width"] = rng.choice((2, 4, 8))
    kwargs["dispatch_width"] = rng.choice((2, 4, 8))
    kwargs["issue_width"] = rng.choice((2, 4, 8))
    kwargs["retire_width"] = rng.choice((4, 8, 16))
    kwargs["max_in_flight"] = rng.choice((32, 64, 128))
    kwargs["wakeup_select_stages"] = rng.choice((1, 2))
    kwargs["selection"] = rng.choice(tuple(SelectionPolicy))
    kwargs["steering_seed"] = rng.randrange(1, 1 << 16)
    # An in-flight limit below the buffer capacity is rejected by
    # MachineConfig (the buffers could never fill); probe the drawn
    # geometry and clamp the limit up without consuming extra entropy.
    probe_kwargs = dict(kwargs)
    del probe_kwargs["max_in_flight"]
    probe = MACHINE_REGISTRY[shape](**probe_kwargs)
    kwargs["max_in_flight"] = max(kwargs["max_in_flight"], probe.total_capacity)
    return shape, MACHINE_REGISTRY[shape](**kwargs)


def sample_program(rng: random.Random) -> ProgramGenConfig:
    """Draw one assembly-program generator configuration."""
    return ProgramGenConfig(
        seed=rng.randrange(1 << 30),
        blocks=rng.randrange(1, 5),
        block_size=rng.randrange(4, 17),
        loop_iterations=rng.randrange(2, 7),
        memory_words=rng.choice((4, 8, 12, 16)),
        store_fraction=rng.choice((0.1, 0.2, 0.3)),
        load_fraction=rng.choice((0.1, 0.2, 0.3)),
        # The six fractions must sum to <= 1.0 even at their maxima
        # (0.3 + 0.3 + 0.2 + 0.08 + 0.06 + 0.05 = 0.99).
        branch_fraction=rng.choice((0.05, 0.1, 0.2)),
        muldiv_fraction=rng.choice((0.0, 0.08)),
        fp_fraction=rng.choice((0.0, 0.06)),
        call_fraction=rng.choice((0.0, 0.05)),
        outer_loop=rng.random() < 0.7,
    )


def sample_synthetic(rng: random.Random, length: int) -> SyntheticConfig:
    """Draw one synthetic-trace configuration (timing-only cases)."""
    return SyntheticConfig(
        length=length,
        seed=rng.randrange(1, 1 << 30),
        load_fraction=rng.choice((0.1, 0.25, 0.35)),
        store_fraction=rng.choice((0.05, 0.15)),
        branch_fraction=rng.choice((0.05, 0.15, 0.3)),
        branch_taken_probability=rng.choice((0.3, 0.6, 0.9)),
        mean_dependence_distance=rng.choice((2.0, 4.0, 8.0)),
    )


def sample_zoo(rng: random.Random,
               length: int) -> tuple[str, SyntheticConfig]:
    """Draw one registered ``zoo_*`` scenario, reseeded per case.

    Returns ``(zoo name, generator config)`` where the config is the
    scenario's registered parameters with this case's length and a
    fresh seed -- so the fuzzer explores the scenario's *axis
    position* (its mix/entropy/footprint), not a single fixed trace.
    """
    from repro.workloads.zoo import ZOO_NAMES, zoo_config

    name = ZOO_NAMES[rng.randrange(len(ZOO_NAMES))]
    return name, dataclasses.replace(
        zoo_config(name, length=length), seed=rng.randrange(1, 1 << 30)
    )
