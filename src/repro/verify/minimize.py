"""Delta-debugging minimizer for fuzz failures.

Given a failing (program, machine config) pair and a predicate that
re-checks it, this module shrinks both halves:

* **Program**: classic ddmin over the *instruction lines* of the
  assembly source.  Directives, labels, and ``halt`` are pinned --
  any subset of the remaining lines still assembles -- so the search
  space is exactly the removable instructions.
* **Config**: greedy per-field simplification toward the baseline
  defaults (fewer width, shallower buffers, one cluster where the
  steering policy permits), accepting a change only when the failure
  persists.

The result is written as a standalone pytest reproducer under
``tests/repros/`` that re-runs the original checks and fails while
the underlying bug exists.
"""

from __future__ import annotations

import dataclasses
import enum
from pathlib import Path
from typing import Callable

from repro.isa.assembler import assemble
from repro.uarch.config import MachineConfig

#: A predicate deciding whether a (source, config) case still fails.
#: It must return False (not raise) for cases that no longer assemble
#: or run -- the minimizer probes aggressively.
FailurePredicate = Callable[[str, MachineConfig], bool]


def _is_removable(line: str) -> bool:
    """True for instruction lines ddmin may delete.

    Labels, section directives, ``.word`` data, and the terminating
    ``halt`` stay pinned so every candidate subset still assembles
    and terminates.
    """
    stripped = line.strip()
    if not stripped or stripped.endswith(":") or stripped.startswith("."):
        return False
    return stripped != "halt"


def ddmin_lines(source: str, still_fails: Callable[[str], bool]) -> str:
    """Minimize the removable lines of ``source`` under ``still_fails``.

    Standard ddmin: try removing chunks of removable lines, halving
    the chunk size until it reaches one line and no single removal
    reproduces the failure.  ``still_fails`` receives candidate full
    sources (pinned lines always included, original order preserved).
    """
    lines = source.splitlines()
    removable = [i for i, line in enumerate(lines) if _is_removable(line)]

    def build(kept: set[int]) -> str:
        return "\n".join(
            line for i, line in enumerate(lines)
            if i in kept or not _is_removable(line)
        ) + "\n"

    kept = set(removable)
    chunk = max(1, len(kept) // 2)
    while chunk >= 1:
        progress = False
        order = [i for i in removable if i in kept]
        for start in range(0, len(order), chunk):
            candidate = kept - set(order[start:start + chunk])
            if candidate != kept and still_fails(build(candidate)):
                kept = candidate
                progress = True
        if not progress:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return build(kept)


#: Candidate simplified values per MachineConfig field, tried in
#: order; the first that keeps the failure alive wins.
_CONFIG_SHRINKS = {
    "fetch_width": (1, 2, 4),
    "dispatch_width": (1, 2, 4),
    "issue_width": (1, 2, 4),
    "retire_width": (2, 4, 8),
    "max_in_flight": (8, 16, 32),
    "wakeup_select_stages": (1,),
    "inter_cluster_bypass_cycles": (1,),
    "front_end_stages": (0, 1),
    "load_delay_tracking": (False,),
    "regfile_read_ports": (0,),
}


def shrink_config(
    source: str, config: MachineConfig, still_fails: FailurePredicate
) -> MachineConfig:
    """Greedy per-field simplification of a failing machine config."""
    for field, candidates in _CONFIG_SHRINKS.items():
        for value in candidates:
            if getattr(config, field) == value:
                break
            try:
                candidate = dataclasses.replace(config, **{field: value})
            except ValueError:
                continue
            if still_fails(source, candidate):
                config = candidate
                break
    # A single cluster is simpler than two, when the policy allows it.
    if len(config.clusters) == 2:
        try:
            candidate = dataclasses.replace(config, clusters=config.clusters[:1])
            if still_fails(source, candidate):
                config = candidate
        except ValueError:
            pass
    return config


def minimize_case(
    source: str, config: MachineConfig, still_fails: FailurePredicate
) -> tuple[str, MachineConfig]:
    """Shrink program first (the big win), then the machine config."""
    small = ddmin_lines(source, lambda text: still_fails(text, config))
    return small, shrink_config(small, config, still_fails)


def instruction_count(source: str) -> int:
    """Assembled instruction count of a source text."""
    return len(assemble(source).instructions)


# ----------------------------------------------------------------------
# reproducer emission
# ----------------------------------------------------------------------


def _value_source(value) -> str:
    """Python constructor source for a config field value."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{f.name}={_value_source(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, tuple):
        inner = ", ".join(_value_source(item) for item in value)
        return f"({inner},)" if inner else "()"
    return repr(value)


def config_source(config: MachineConfig) -> str:
    """Eval-able constructor source for a machine config."""
    return _value_source(config)


_REPRO_TEMPLATE = '''\
"""Minimized fuzz reproducer (auto-generated -- do not edit).

Case seed {seed} (case {case_id}): {summary}

Replay the original (unminimized) case with:
    PYTHONPATH=src python -m repro fuzz --case-seed {seed}{extra_flags}
"""

from repro.uarch.config import (
    CacheConfig,
    ClusterConfig,
    MachineConfig,
    PredictorConfig,
    SelectionPolicy,
    SteeringPolicy,
)
from repro.verify.fuzzer import check_source_on_config

SOURCE = """\\
{source}"""

CONFIG = {config}


def test_reproducer():
    failures = check_source_on_config(SOURCE, CONFIG)
    assert not failures, "\\n".join(failures)
'''


def write_reproducer(
    directory: str | Path,
    case_id: int,
    seed: int,
    summary: str,
    source: str,
    config: MachineConfig,
    fifo_only: bool = False,
) -> Path:
    """Emit a standalone pytest file for a minimized failure.

    The test *fails while the bug exists* (it re-runs the differential
    checks and asserts they pass), so fixing the bug turns it into a
    permanent regression guard.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"test_case_{seed}_{case_id}.py"
    path.write_text(
        _REPRO_TEMPLATE.format(
            seed=seed,
            case_id=case_id,
            summary=summary,
            source=source,
            config=config_source(config),
            extra_flags=" --fifo-only" if fifo_only else "",
        ),
        encoding="utf-8",
    )
    return path
