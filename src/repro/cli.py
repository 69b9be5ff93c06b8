"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``delay``      -- print the Table 2 delay summary (and Table 4);
  ``--machine`` prints a per-structure critical-path breakdown for
  any registered machine shape.
* ``frontier``   -- the complexity-effectiveness frontier: window
  sizes and every registered shape swept over the campaign pool
  (cached), with BIPS at one or all technology nodes.
* ``machines``   -- list the simulated machine configurations.
* ``workloads``  -- list (and optionally profile) the benchmark suite.
* ``simulate``   -- run one machine over one workload and validate
  the stats; ``-v`` adds the per-cause cycle attribution and the
  metrics snapshot, ``--json`` writes the metrics JSON.
* ``trace``      -- emit a Chrome/Perfetto event trace.
* ``timeline``   -- render a text pipeline timeline.
* ``campaign``   -- run a figure grid (fig13 / fig15 / fig17) on the
  parallel campaign engine (worker pool, on-disk result cache,
  per-cell timeout/retry); fig15 adds the Section 5.5 speedups.
* ``asm``        -- assemble, run, and optionally simulate a program.
* ``compile``    -- compile, run, and optionally simulate a Mini
  program.
* ``fuzz``       -- differential fuzzing: sampled machines and
  programs cross-checked against the architectural oracle, the
  reference pipeline, and the compiled pipeline (``--selftest``
  plants a steering bug, a port-arbiter bug, and a compiler
  constant-folding bug to prove the harness works).
* ``serve``      -- design-space-as-a-service: a long-running asyncio
  HTTP/JSON server over the campaign cache (frontier / cell / delay /
  machines / healthz / metrics endpoints, coalesced misses, bounded
  simulation queue; ``--warm`` pre-fills the cache first).
* ``ledger``     -- inspect the run ledger: the append-only JSONL
  history every simulate/campaign/frontier/fuzz invocation appends to
  (list/show/diff/gc).
* ``bench``      -- the perf-regression gate: the committed
  ``BENCH_*.json`` records vs their floors (re-measuring nothing) and
  the ledger's trailing window (``--check`` exits nonzero on a
  finding).

``campaign``/``frontier``/``fuzz`` accept ``--progress`` for a live
single-line telemetry readout (cells done, hit rate, inst/s, ETA) fed
by per-cell heartbeats from the engine.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis import profile_trace
from repro.core import experiments, machines, speedup
from repro.core.experiments import (
    DEFAULT_CACHE_DIR,
    DEFAULT_INSTRUCTIONS,
    SECTION55_MACHINES,
)
from repro.core.machines import MACHINE_REGISTRY
from repro.delay.reservation import ReservationTableDelayModel
from repro.delay.summary import overall_delays
from repro.isa import assemble, run_to_trace
from repro.report import bar_chart, text_table
from repro.technology import TECH_018, TECHNOLOGIES, technology_by_feature_size
from repro.uarch.pipeline import SIMULATE_MODES
from repro.uarch.pipeline import simulate as run_simulation
from repro.workloads import (
    WORKLOAD_NAMES,
    WORKLOAD_REGISTRY,
    ZOO_NAMES,
    SyntheticConfig,
    get_trace,
    register_external_trace,
    synthetic_trace,
    workload_names,
)


def _progress_meter(enabled: bool, total: int | None, unit: str):
    """A live ProgressMeter on stderr, or None when not requested."""
    if not enabled:
        return None
    from repro.obs.progress import ProgressMeter

    return ProgressMeter(total=total, stream=sys.stderr, unit=unit)


def _write_metrics(path: str | None, profile, what: str) -> None:
    """Write ``profile`` as JSON to the ``--metrics`` path, if given."""
    if not path:
        return
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(profile.to_dict(), handle, indent=1, sort_keys=True)
    print(f"  {what} metrics written to {path}")


def _record_ledger(kind: str, *, profile=None, config_hash: str = "",
                   extra: dict | None = None, **scalars) -> None:
    """Append this invocation to the run ledger.

    The ledger is advisory history: a failure to record (read-only
    checkout, weird filesystem) is reported on stderr but never fails
    the run that produced the real results.
    """
    from repro.obs import ledger as ledger_mod

    try:
        if profile is not None:
            entry = ledger_mod.record_profile(
                kind, profile, config_hash=config_hash, extra=extra
            )
        else:
            entry = ledger_mod.record_run(
                kind, config_hash=config_hash, extra=extra, **scalars
            )
        print(f"  ledger: recorded {kind} run {entry.run_id[:12]}")
    except Exception as error:  # pragma: no cover - environment-specific
        print(f"  ledger: not recorded ({error})", file=sys.stderr)


def _cmd_delay(args) -> int:
    techs = (
        [technology_by_feature_size(args.tech)] if args.tech else list(TECHNOLOGIES)
    )
    if args.machine:
        from repro.delay.critical_path import critical_path

        config = MACHINE_REGISTRY[args.machine]()
        for tech in techs:
            print(critical_path(config, tech).format_report())
        return 0
    rows = []
    for tech in techs:
        for point in ((4, 32), (8, 64)):
            summary = overall_delays(tech, *point)
            rows.append(
                [
                    tech.name,
                    f"{point[0]}-way/{point[1]}",
                    round(summary.rename_ps, 1),
                    round(summary.window_logic_ps, 1),
                    round(summary.bypass_ps, 1),
                    round(summary.critical_path_ps, 1),
                ]
            )
    print(text_table(
        ["tech", "design", "rename", "wakeup+select", "bypass", "critical"], rows
    ))
    print("\nreservation table (dependence-based wakeup):")
    for tech in techs:
        model = ReservationTableDelayModel(tech)
        print(f"  {tech.name}: 4-way/80 regs {model.total(4, 80):7.1f} ps, "
              f"8-way/128 regs {model.total(8, 128):7.1f} ps")
    return 0


def _cmd_machines(_args) -> int:
    for name, factory in MACHINE_REGISTRY.items():
        config = factory()
        organisation = " + ".join(
            (f"{c.fifo_count}x{c.fifo_depth} FIFOs" if c.uses_fifos
             else f"{c.window_size}-entry window")
            for c in config.clusters
        )
        print(f"  {name:20s} {config.name:30s} {organisation}, "
              f"{config.total_fu_count} FUs, steering={config.steering.value}")
    return 0


def _cmd_workloads(args) -> int:
    names = workload_names(None if args.kind == "all" else args.kind)
    for name in names:
        workload = WORKLOAD_REGISTRY[name]
        trace = get_trace(name, args.instructions)
        if args.profile:
            print(f"{name} [{workload.kind}] -- {workload.description}")
            print(profile_trace(trace).format_report())
            print()
        else:
            print(f"  {name:20s} {workload.kind:9s} {len(trace)} insts, "
                  f"{100 * trace.branch_fraction():.1f}% branches, "
                  f"{100 * trace.load_fraction():.1f}% loads")
    return 0


def _cmd_simulate(args) -> int:
    import time

    from repro.core.campaign import cache_key
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profiling import record_simulation_metrics

    config = MACHINE_REGISTRY[args.machine]()
    if args.trace_file:
        if args.workload:
            print("repro simulate: error: give a workload name or "
                  "--trace-file, not both", file=sys.stderr)
            return 2
        try:
            workload = register_external_trace(
                args.trace_file, replace=True
            ).name
        except (OSError, ValueError) as error:
            print(f"repro simulate: error: {error}", file=sys.stderr)
            return 2
    elif args.workload:
        workload = args.workload
    else:
        print("repro simulate: error: a workload name (see 'repro "
              "workloads') or --trace-file is required", file=sys.stderr)
        return 2
    trace = _workload_trace("simulate", workload, args.instructions)
    if trace is None:
        return 2
    start = time.perf_counter()
    stats = run_simulation(config, trace, mode=args.mode)
    seconds = time.perf_counter() - start
    stats.validate()
    print(stats.summary())
    registry = MetricsRegistry()
    record_simulation_metrics(registry, stats, seconds,
                              machine=args.machine, workload=workload)
    extra = {
        "machine": args.machine,
        "workload": workload,
        "mode": args.mode,
    }
    if args.trace_file:
        extra["trace_file"] = args.trace_file
    if args.mode == "compiled":
        from repro.obs.profiling import record_compile_metrics
        from repro.uarch.compile import compile_cache_stats

        extra["compile"] = compile_cache_stats()
        record_compile_metrics(registry)
    _record_ledger(
        "simulate",
        wall_seconds=seconds,
        instructions_per_second=(stats.committed / seconds
                                 if seconds > 0 else 0.0),
        config_hash=cache_key(config, workload, args.instructions),
        snapshot=registry.snapshot(),
        extra=extra,
    )
    if args.verbose:
        print(f"  fetched {stats.fetched}, mispredicts {stats.mispredicts}, "
              f"store forwards {stats.store_forwards}")
        if stats.dispatch_stalls:
            stalls = ", ".join(
                f"{k.value}={v}"
                for k, v in sorted(stats.dispatch_stalls.items())
            )
            print(f"  dispatch stalls: {stalls}")
        histogram = {
            f"{k} issued": v for k, v in sorted(stats.issue_histogram.items())
        }
        print(bar_chart(histogram, unit=" cycles"))
        rows = [
            [cause, cycles, f"{100 * fraction:5.1f}%"]
            for cause, cycles, fraction in stats.stall_breakdown()
        ]
        print("\nper-cause cycle attribution (sums to total cycles):")
        print(text_table(["cause", "cycles", "share"], rows))
        attributed = stats.active_cycles + sum(stats.stall_cycles.values())
        print(f"  attributed {attributed} of {stats.cycles} cycles")
        # The same registry + formatting the campaign reports use, so
        # a single run and a thousand-cell campaign read identically.
        from repro.obs.metrics import format_snapshot

        print("\nmetrics snapshot:")
        print(format_snapshot(registry.snapshot()))
    if args.json:
        from repro.obs import write_metrics_json

        write_metrics_json(args.json, stats)
        print(f"  metrics written to {args.json}")
    return 0


def _workload_trace(command: str, workload: str, instructions: int):
    """A registered workload's trace, or a fresh ``synthetic`` one.

    Any other name prints the error every single-cell command shares
    and returns None; the command then exits 2.
    """
    if workload == "synthetic":
        return synthetic_trace(SyntheticConfig(length=instructions))
    if workload in WORKLOAD_REGISTRY:
        return get_trace(workload, instructions)
    known = ", ".join(workload_names() + ("synthetic",))
    print(f"repro {command}: error: unknown workload {workload!r} "
          f"(known: {known})", file=sys.stderr)
    return None


def _cmd_trace(args) -> int:
    from repro.obs import EventTracer, write_chrome_trace
    from repro.uarch.pipeline import PipelineSimulator

    trace = _workload_trace("trace", args.workload, args.instructions)
    if trace is None:
        return 2
    config = MACHINE_REGISTRY[args.machine]()
    capacity = (
        args.capacity if args.capacity is not None
        else EventTracer.DEFAULT_CAPACITY
    )
    try:
        tracer = EventTracer(capacity=capacity)
    except ValueError as error:
        print(f"repro trace: error: {error}", file=sys.stderr)
        return 2
    simulator = PipelineSimulator(config, trace, tracer=tracer)
    stats = simulator.run()
    stats.validate()
    payload = write_chrome_trace(args.out, tracer.events, stats=stats)
    print(f"wrote {len(payload['traceEvents'])} trace events to "
          f"{args.out} (open in Perfetto or chrome://tracing)")
    if tracer.dropped:
        print(f"  note: ring buffer evicted {tracer.dropped} of "
              f"{tracer.emitted} events (raise --capacity to keep more)")
    print(stats.summary())
    return 0


def _cmd_timeline(args) -> int:
    from repro.obs import EventTracer
    from repro.report.timeline import render_timeline
    from repro.uarch.pipeline import PipelineSimulator

    trace = _workload_trace("timeline", args.workload, args.instructions)
    if trace is None:
        return 2
    config = MACHINE_REGISTRY[args.machine]()
    simulator = PipelineSimulator(config, trace, tracer=EventTracer())
    simulator.run()
    print(render_timeline(simulator, first=args.start, count=args.count))
    print(simulator.stats.summary())
    return 0


def _cmd_frontier(args) -> int:
    from repro.core.campaign import ResultCache
    from repro.core.frontier import (
        DEFAULT_WINDOW_SIZES,
        design_space_frontier,
        format_frontier,
    )
    from repro.core.machines import machine_registry

    if args.tech == "all":
        techs = list(TECHNOLOGIES)
    else:
        techs = [technology_by_feature_size(float(args.tech))]
    # Window-size sweep plus every registered shape; distinct configs
    # are simulated once regardless of how many technologies they are
    # clocked at.
    grid = {
        f"window-{window_size}": machines.baseline_8way(window_size=window_size)
        for window_size in DEFAULT_WINDOW_SIZES
    }
    grid.update(machine_registry())
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    meter = _progress_meter(args.progress, None, "cells")
    try:
        points, profile = design_space_frontier(
            techs=techs,
            machines=grid,
            max_instructions=args.instructions,
            jobs=args.jobs,
            cache=cache,
            heartbeat=meter.post if meter else None,
        )
    finally:
        if meter:
            meter.close()
    print(format_frontier(points))
    from repro.report import frontier_chart

    print("\nBIPS frontier:")
    print(frontier_chart(points))
    print("\ncampaign profile:")
    print(profile.format_report())
    from repro.core.campaign import grid_fingerprint

    _record_ledger(
        "frontier",
        profile=profile,
        config_hash=grid_fingerprint(grid, WORKLOAD_NAMES,
                                     args.instructions),
        extra={"tech": args.tech, "points": len(points),
               "jobs": args.jobs},
    )
    _write_metrics(args.metrics, profile, "campaign")
    return 0


def _cmd_campaign(args) -> int:
    from repro.core.campaign import (
        ResultCache,
        grid_fingerprint,
        run_campaign,
    )
    from repro.core.results_io import save_result

    try:
        configs = experiments.figure_configs(args.which)
    except KeyError as error:
        print(f"repro campaign: error: {error}", file=sys.stderr)
        return 2
    workloads = {
        "paper": WORKLOAD_NAMES,
        "zoo": ZOO_NAMES,
        "all": workload_names(),
    }[args.workloads]
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
    progress = None
    if args.verbose:
        progress = lambda line: print(f"  {line}", file=sys.stderr)  # noqa: E731
    meter = _progress_meter(args.progress,
                            len(configs) * len(workloads), "cells")
    try:
        result, profile = run_campaign(
            configs,
            workloads=workloads,
            max_instructions=args.instructions,
            name=args.which,
            jobs=args.jobs,
            cache=cache,
            timeout=args.timeout,
            retries=args.retries,
            progress=progress,
            heartbeat=meter.post if meter else None,
        )
    finally:
        if meter:
            meter.close()
    print(result.format_table())
    if args.which == "fig15":
        print("\nSection 5.5 clock-adjusted speedup:")
        print(speedup.clock_adjusted_speedup(
            result, *SECTION55_MACHINES, TECH_018).format_table())
    if args.which == "fig17":
        print("\ninter-cluster bypass frequency:")
        print(result.format_table("bypass"))
    print("\ncampaign profile:")
    print(profile.format_report())
    _record_ledger(
        "campaign",
        profile=profile,
        config_hash=grid_fingerprint(configs, workloads,
                                     args.instructions),
        extra={"figure": args.which, "jobs": args.jobs,
               "workloads": args.workloads},
    )
    if args.out:
        save_result(result, args.out)
        print(f"  result written to {args.out}")
    _write_metrics(args.metrics, profile, "campaign")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.core.machines import machine_registry
    from repro.service.app import DesignSpaceService

    # SIGTERM stops the server the way Ctrl-C does, so the finally
    # below kills the worker pool instead of orphaning its processes.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        service = DesignSpaceService(
            cache_dir=args.cache_dir,
            jobs=args.jobs,
            queue_depth=args.queue_depth,
            request_timeout=args.timeout,
            instructions=args.instructions,
        )
    except ValueError as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        return 2
    if args.warm:
        from repro.core.campaign import ResultCache, run_campaign

        if args.warm == "registry":
            configs = machine_registry()
        else:
            configs = experiments.figure_configs(args.warm)
        meter = _progress_meter(args.progress,
                                len(configs) * len(WORKLOAD_NAMES), "cells")
        print(f"warming {args.warm} grid "
              f"({len(configs)} machines x {len(WORKLOAD_NAMES)} workloads, "
              f"n={args.instructions}) into {args.cache_dir} ...")
        try:
            _, profile = run_campaign(
                configs,
                max_instructions=args.instructions,
                name=f"warm-{args.warm}",
                jobs=args.jobs,
                cache=ResultCache(args.cache_dir),
                heartbeat=meter.post if meter else None,
            )
        finally:
            if meter:
                meter.close()
        print(f"  cache warm: {profile.cache_hits} hits, "
              f"{profile.simulated_cells} simulated")
    print(f"serving the design space on http://{args.host}:{args.port} "
          f"(jobs={args.jobs}, queue depth {args.queue_depth}); Ctrl-C stops")
    try:
        asyncio.run(service.serve(args.host, args.port))
    except KeyboardInterrupt:
        print("\n  shutting down")
    finally:
        service.close()
    return 0


def _cmd_fuzz(args) -> int:
    from repro.verify.fuzzer import DEFAULT_REPRO_DIR, run_fuzz
    from repro.verify.selftest import (
        run_compile_selftest,
        run_port_selftest,
        run_selftest,
    )

    if args.selftest:
        import tempfile

        repro_dir = args.repro_dir or tempfile.mkdtemp(prefix="repro-selftest-")
        exit_code = 0
        for label, runner in (
            ("steering", run_selftest),
            ("port-arbiter", run_port_selftest),
            ("compiler", run_compile_selftest),
        ):
            result = runner(
                cases=args.cases, seed=args.seed, repro_dir=repro_dir
            )
            print(f"planted {label}-bug self-test:")
            print(result.report.profile.format_report())
            if not result.detected:
                print(f"  FAILED: planted {label} bug was not detected",
                      file=sys.stderr)
                exit_code = 1
                continue
            print(f"  detected the planted {label} bug; minimized "
                  f"reproducer: {result.reproducer} "
                  f"({result.minimized_instructions} instructions)")
        return exit_code

    progress = None
    if args.verbose:
        progress = lambda line: print(f"  {line}", file=sys.stderr)  # noqa: E731
    total = 1 if args.case_seed is not None else args.cases
    meter = _progress_meter(args.progress, total, "cases")
    try:
        report = run_fuzz(
            cases=args.cases,
            seed=args.seed,
            jobs=args.jobs,
            time_budget=args.time_budget,
            repro_dir=args.repro_dir or DEFAULT_REPRO_DIR,
            first_case=args.first_case,
            case_seed=args.case_seed,
            fifo_only=args.fifo_only,
            minimize=not args.no_minimize,
            progress=progress,
            heartbeat=meter.post if meter else None,
        )
    finally:
        if meter:
            meter.close()
    print("fuzz campaign:")
    print(report.profile.format_report())
    _record_ledger(
        "fuzz",
        wall_seconds=report.profile.wall_seconds,
        snapshot=report.profile.snapshot(),
        extra={
            "seed": args.seed,
            "cases": report.profile.cases,
            "cases_per_second": report.profile.cases_per_second,
            "failures": report.profile.failures,
            "skipped": report.profile.skipped,
        },
    )
    for failure in report.failures:
        print(f"  case {failure.case_id} (seed {failure.case_seed}, "
              f"{failure.shape}/{failure.kind}):")
        for line in failure.failures[:3]:
            print(f"    {line}")
        if failure.reproducer:
            print(f"    minimized reproducer: {failure.reproducer} "
                  f"({failure.minimized_instructions} instructions)")
    _write_metrics(args.metrics, report.profile, "fuzz")
    return 0 if report.ok else 1


def _cmd_ledger(args) -> int:
    import json

    from repro.obs.ledger import Ledger, diff_entries

    ledger = Ledger(args.ledger_dir)
    if args.action == "list":
        entries = ledger.entries(kind=args.kind, limit=args.limit)
        if not entries:
            print("  (ledger empty)")
            return 0
        print(text_table(
            ["run", "kind", "git", "wall s", "inst/s", "cache"],
            [entry.summary_row() for entry in entries],
        ))
        return 0
    if args.action == "show":
        entry = ledger.find(args.run_id)
        if entry is None:
            print(f"repro ledger: no entry matching {args.run_id!r}",
                  file=sys.stderr)
            return 2
        print(json.dumps(entry.to_dict(), indent=2, sort_keys=True,
                         ensure_ascii=False))
        return 0
    if args.action == "diff":
        old = ledger.find(args.run_id)
        new = ledger.find(args.other)
        for wanted, found in ((args.run_id, old), (args.other, new)):
            if found is None:
                print(f"repro ledger: no entry matching {wanted!r}",
                      file=sys.stderr)
                return 2
        print(text_table(
            ["field", old.run_id[:12], new.run_id[:12], "delta"],
            [list(row) for row in diff_entries(old, new)],
        ))
        return 0
    removed = ledger.gc(args.keep)  # action == "gc"
    print(f"  removed {removed} entries, kept newest {args.keep}")
    return 0


def _cmd_bench(args) -> int:
    from repro.obs.ledger import Ledger
    from repro.obs.regression import (
        DEFAULT_THRESHOLD,
        DEFAULT_WINDOW,
        check_all,
        format_findings,
    )

    try:
        findings = check_all(
            bench_dir=args.bench_dir,
            ledger=Ledger(args.ledger_dir),
            threshold=(args.threshold if args.threshold is not None
                       else DEFAULT_THRESHOLD),
            window=(args.window if args.window is not None
                    else DEFAULT_WINDOW),
        )
    except ValueError as error:
        print(f"repro bench: error: {error}", file=sys.stderr)
        return 2
    print("bench regression gate:")
    print(format_findings(findings))
    if findings and args.check:
        return 1
    return 0


def _cmd_compile(args) -> int:
    from repro.lang import compile_source, compile_to_assembly

    with open(args.file, "r", encoding="utf-8") as handle:
        source = handle.read()
    if args.listing:
        print(compile_to_assembly(source))
    program = compile_source(source)
    from repro.isa import Emulator

    emulator = Emulator(program)
    trace = emulator.run(max_instructions=args.instructions)
    trace.name = args.file
    print(f"compiled {len(program)} instructions; "
          f"main returned {emulator.int_regs[2]} "
          f"({'halted' if emulator.halted else 'capped'})")
    if args.simulate:
        stats = run_simulation(MACHINE_REGISTRY[args.simulate](), trace)
        print(stats.summary())
    return 0


def _cmd_asm(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        source = handle.read()
    program = assemble(source)
    if args.listing:
        print(program.disassemble())
    trace = run_to_trace(program, max_instructions=args.instructions,
                         name=args.file)
    print(f"executed {len(trace)} instructions "
          f"({'halted' if trace.halted else 'capped'})")
    print(profile_trace(trace).format_report())
    if args.simulate:
        stats = run_simulation(MACHINE_REGISTRY[args.simulate](), trace)
        print(stats.summary())
    return 0


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``.

    A value below ``low`` is a usage error (exit 2), like any other
    malformed argument.
    """
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value

    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = "int"
    return parse


_at_least_0 = _int_at_least(0)
_at_least_1 = _int_at_least(1)


#: Help for the workload argument of the single-cell commands.
_WORKLOAD_HELP = ("a registered workload name (see 'repro workloads') "
                  "or 'synthetic'")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Complexity-Effective Superscalar "
                    "Processors' (ISCA 1997)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    delay = commands.add_parser("delay", help="print the Table 2 delay summary")
    delay.add_argument("--tech", type=float, default=None,
                       help="feature size in um (0.8, 0.35, 0.18); default all")
    delay.add_argument("--machine", choices=sorted(MACHINE_REGISTRY),
                       default=None,
                       help="print the per-structure critical-path "
                            "breakdown for one machine instead")
    delay.set_defaults(func=_cmd_delay)

    machine_list = commands.add_parser("machines", help="list machine configs")
    machine_list.set_defaults(func=_cmd_machines)

    workloads = commands.add_parser(
        "workloads", help="list the registered workloads"
    )
    workloads.add_argument("--profile", action="store_true",
                           help="print full trace characterisation")
    workloads.add_argument("--kind",
                           choices=("kernel", "synthetic", "external", "all"),
                           default="all",
                           help="only list workloads of this kind "
                                "(default all)")
    workloads.add_argument("-n", "--instructions", type=_at_least_1,
                           default=5_000)
    workloads.set_defaults(func=_cmd_workloads)

    simulate = commands.add_parser("simulate", help="run one machine on one workload")
    simulate.add_argument("machine", choices=sorted(MACHINE_REGISTRY))
    simulate.add_argument("workload", nargs="?", default=None,
                          help=_WORKLOAD_HELP)
    simulate.add_argument("--trace-file", default=None, metavar="PATH",
                          help="simulate an external JSONL trace file "
                               "(repro-trace format) instead of a "
                               "registered workload")
    simulate.add_argument("-n", "--instructions", type=_at_least_1,
                          default=DEFAULT_INSTRUCTIONS,
                          help=f"dynamic instructions "
                               f"(default {DEFAULT_INSTRUCTIONS})")
    simulate.add_argument("--mode", choices=SIMULATE_MODES,
                          default="compiled",
                          help="simulator model: the frozen reference, or "
                               "the per-config compiled pipeline (default; "
                               "every machine shape compiles)")
    simulate.add_argument("-v", "--verbose", action="store_true",
                          help="also print stalls, the issue histogram, "
                               "per-cause cycle attribution and the "
                               "metrics snapshot")
    simulate.add_argument("--json", default=None, metavar="PATH",
                          help="also write machine-readable metrics JSON")
    simulate.set_defaults(func=_cmd_simulate)

    trace_cmd = commands.add_parser(
        "trace", help="emit a Chrome/Perfetto pipeline event trace"
    )
    trace_cmd.add_argument("workload", help=_WORKLOAD_HELP)
    trace_cmd.add_argument("--machine", choices=sorted(MACHINE_REGISTRY),
                           default="baseline")
    trace_cmd.add_argument("-n", "--instructions", type=_at_least_1,
                           default=5_000)
    trace_cmd.add_argument("--out", default="trace.json",
                           help="output path (default trace.json)")
    trace_cmd.add_argument("--capacity", type=int, default=None,
                           help="tracer ring-buffer capacity "
                                "(default 1M events)")
    trace_cmd.set_defaults(func=_cmd_trace)

    campaign = commands.add_parser(
        "campaign",
        help="run a figure grid on the parallel campaign engine "
             "(fig15 adds the Section 5.5 speedups)",
    )
    campaign.add_argument("which", choices=("fig13", "fig15", "fig17"))
    campaign.add_argument("--workloads", choices=("paper", "zoo", "all"),
                          default="paper",
                          help="workload set to sweep: the paper suite "
                               "(default), the synthetic zoo_* scenarios, "
                               "or every registered workload")
    campaign.add_argument("-n", "--instructions", type=_at_least_1,
                          default=DEFAULT_INSTRUCTIONS,
                          help=f"dynamic instructions per cell "
                               f"(default {DEFAULT_INSTRUCTIONS})")
    campaign.add_argument("-j", "--jobs", type=_at_least_1, default=1,
                          help="worker processes (default 1 = serial)")
    campaign.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                          help="result cache directory "
                               f"(default {DEFAULT_CACHE_DIR})")
    campaign.add_argument("--no-cache", action="store_true",
                          help="simulate every cell, read/write no cache")
    campaign.add_argument("--timeout", type=float, default=None,
                          help="per-cell seconds before retry "
                               "(default: no timeout)")
    campaign.add_argument("--retries", type=_at_least_0, default=1,
                          help="resubmissions per failed/timed-out cell "
                               "before serial fallback (default 1)")
    campaign.add_argument("--out", default=None, metavar="PATH",
                          help="also write the result JSON (results_io)")
    campaign.add_argument("--metrics", default=None, metavar="PATH",
                          help="also write campaign profile JSON")
    campaign.add_argument("-v", "--verbose", action="store_true",
                          help="per-cell progress on stderr")
    campaign.add_argument("--progress", action="store_true",
                          help="live telemetry line on stderr (cells, "
                               "hit rate, inst/s, ETA)")
    campaign.set_defaults(func=_cmd_campaign)

    timeline = commands.add_parser("timeline", help="render a pipeline timeline")
    timeline.add_argument("machine", choices=sorted(MACHINE_REGISTRY))
    timeline.add_argument("workload", help=_WORKLOAD_HELP)
    timeline.add_argument("-n", "--instructions", type=_at_least_1,
                          default=2_000)
    timeline.add_argument("--start", type=int, default=0,
                          help="first dynamic instruction to show")
    timeline.add_argument("--count", type=int, default=24)
    timeline.set_defaults(func=_cmd_timeline)

    frontier = commands.add_parser(
        "frontier", help="the complexity-effectiveness frontier"
    )
    frontier.add_argument("-n", "--instructions", type=_at_least_1,
                          default=DEFAULT_INSTRUCTIONS,
                          help="dynamic instructions per cell "
                               f"(default {DEFAULT_INSTRUCTIONS})")
    frontier.add_argument("--tech", choices=("0.8", "0.35", "0.18", "all"),
                          default="0.18",
                          help="technology node(s) to clock the sweep at "
                               "(default 0.18)")
    frontier.add_argument("-j", "--jobs", type=_at_least_1, default=1,
                          help="worker processes (default 1 = serial)")
    frontier.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                          help="result cache directory "
                               f"(default {DEFAULT_CACHE_DIR})")
    frontier.add_argument("--no-cache", action="store_true",
                          help="simulate every cell, read/write no cache")
    frontier.add_argument("--metrics", default=None, metavar="PATH",
                          help="also write campaign profile JSON")
    frontier.add_argument("--progress", action="store_true",
                          help="live telemetry line on stderr")
    frontier.set_defaults(func=_cmd_frontier)

    serve = commands.add_parser(
        "serve", help="serve the design space over HTTP (asyncio)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port (default 8787)")
    serve.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help="campaign result cache backing the hot path "
                            f"(default {DEFAULT_CACHE_DIR})")
    serve.add_argument("-j", "--jobs", type=_at_least_1, default=1,
                       help="simulation worker processes (default 1)")
    serve.add_argument("--warm", default=None,
                       choices=("fig13", "fig15", "fig17", "registry"),
                       help="pre-warm the cache with a figure grid or the "
                            "full machine registry before binding")
    serve.add_argument("-n", "--instructions", type=_at_least_1,
                       default=DEFAULT_INSTRUCTIONS,
                       help=f"default per-cell instruction budget "
                            f"(default {DEFAULT_INSTRUCTIONS})")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="max concurrently in-flight simulations before "
                            "misses are shed with 503 (default 8)")
    serve.add_argument("--timeout", type=float, default=120.0,
                       help="per-request seconds before an uncached cell "
                            "answers 504 (default 120)")
    serve.add_argument("--progress", action="store_true",
                       help="live telemetry line on stderr while warming")
    serve.set_defaults(func=_cmd_serve)

    asm = commands.add_parser("asm", help="assemble and run a program")
    asm.add_argument("file")
    asm.add_argument("-n", "--instructions", type=_at_least_1, default=100_000)
    asm.add_argument("--listing", action="store_true", help="print disassembly")
    asm.add_argument("--simulate", choices=sorted(MACHINE_REGISTRY),
                     default=None,
                     help="also run the trace through a machine")
    asm.set_defaults(func=_cmd_asm)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzzing: emulator vs oracle, "
             "compiled vs reference",
    )
    fuzz.add_argument("--cases", type=_at_least_1, default=200,
                      help="fuzz cases to run (default 200)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (default 0)")
    fuzz.add_argument("-j", "--jobs", type=_at_least_1, default=1,
                      help="worker processes (default 1 = serial)")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      help="wall-clock cap in seconds; remaining cases "
                           "are skipped (default: none)")
    fuzz.add_argument("--first-case", type=int, default=0,
                      help="first case id (shifts the sampled range)")
    fuzz.add_argument("--case-seed", type=int, default=None,
                      help="replay exactly one case by its derived seed "
                           "(what a reproducer header records)")
    fuzz.add_argument("--fifo-only", action="store_true",
                      help="sample only FIFO-steered machine shapes")
    fuzz.add_argument("--repro-dir", default=None,
                      help="directory for minimized reproducers (default "
                           "tests/repros; a temp dir under --selftest)")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="report failures without shrinking them")
    fuzz.add_argument("--metrics", default=None, metavar="PATH",
                      help="also write the FuzzProfile JSON")
    fuzz.add_argument("--selftest", action="store_true",
                      help="plant a steering bug, a port-arbiter bug, and "
                           "a compiler constant-folding bug and assert the "
                           "fuzzer detects and minimizes all three")
    fuzz.add_argument("-v", "--verbose", action="store_true",
                      help="per-case progress on stderr")
    fuzz.add_argument("--progress", action="store_true",
                      help="live telemetry line on stderr")
    fuzz.set_defaults(func=_cmd_fuzz)

    ledger_cmd = commands.add_parser(
        "ledger", help="inspect the append-only run ledger"
    )
    ledger_cmd.add_argument("--ledger-dir", default=None, metavar="DIR",
                            help="ledger directory (default "
                                 "$REPRO_LEDGER_DIR or .repro/ledger)")
    ledger_sub = ledger_cmd.add_subparsers(dest="action", required=True)
    ledger_list = ledger_sub.add_parser("list", help="newest entries")
    ledger_list.add_argument("--kind", default=None,
                             help="filter by run kind (simulate, campaign, "
                                  "frontier, fuzz)")
    ledger_list.add_argument("--limit", type=_at_least_1, default=20,
                             help="newest entries to show (default 20)")
    ledger_show = ledger_sub.add_parser("show", help="one entry as JSON")
    ledger_show.add_argument("run_id", help="run id (or unique prefix)")
    ledger_diff = ledger_sub.add_parser("diff", help="compare two entries")
    ledger_diff.add_argument("run_id", help="older run id (or prefix)")
    ledger_diff.add_argument("other", help="newer run id (or prefix)")
    ledger_gc = ledger_sub.add_parser("gc", help="compact old entries")
    ledger_gc.add_argument("--keep", type=_at_least_0, default=100,
                           help="newest entries to keep (default 100)")
    ledger_cmd.set_defaults(func=_cmd_ledger)

    bench = commands.add_parser(
        "bench",
        help="perf-regression gate: the committed BENCH_*.json records "
             "vs their floors, and the ledger trailing window",
        description="Check the committed BENCH_*.json records against "
                    "their recorded floors, and the run ledger's newest "
                    "entries against its trailing window.  Nothing is "
                    "re-measured: the records are rewritten only by the "
                    "benchmarks/ suite.  A missing or unreadable record "
                    "is a finding.",
    )
    bench.add_argument("--check", action="store_true",
                       help="exit nonzero when any finding is reported")
    bench.add_argument("--threshold", type=float, default=None,
                       help="max tolerated relative drop vs the trailing "
                            "mean, in (0, 1] (default 0.5)")
    bench.add_argument("--window", type=int, default=None,
                       help="trailing ledger entries per kind (default 5)")
    bench.add_argument("--bench-dir", default=".", metavar="DIR",
                       help="directory holding BENCH_*.json (default .)")
    bench.add_argument("--ledger-dir", default=None, metavar="DIR",
                       help="ledger directory (default $REPRO_LEDGER_DIR "
                            "or .repro/ledger)")
    bench.set_defaults(func=_cmd_bench)

    compile_cmd = commands.add_parser(
        "compile", help="compile and run a Mini program"
    )
    compile_cmd.add_argument("file")
    compile_cmd.add_argument("-n", "--instructions", type=_at_least_1,
                             default=300_000)
    compile_cmd.add_argument("--listing", action="store_true",
                             help="print generated assembly")
    compile_cmd.add_argument("--simulate", choices=sorted(MACHINE_REGISTRY),
                             default=None)
    compile_cmd.set_defaults(func=_cmd_compile)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes standard output early (``repro ... | head``)
    ends the command quietly with exit code 1: the rest of the output
    goes to ``os.devnull``, so the interpreter's final flush cannot
    raise again (the recipe of the :mod:`signal` documentation).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
