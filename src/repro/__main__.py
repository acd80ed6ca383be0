"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``    — show the benchmark analogs and their characters
* ``run``     — simulate one benchmark under one configuration
* ``sweep``   — IPC-vs-IQ-size curves (Figure 3 style) for one benchmark
* ``disasm``  — print a benchmark kernel's assembly listing
* ``trace``   — structured event trace: pipeline diagram, Chrome
  ``trace_event`` JSON, or JSONL (docs/observability.md)
* ``segments`` — segment-occupancy heatmap from the metrics sampler
* ``validate`` — differential-oracle fuzzing campaign (docs/validation.md)
* ``surrogate`` — analytical-IPC surrogate validation report: predicted
  vs simulated IPC over the reference grid (docs/models.md)

Every simulation command accepts the same common flags — ``--jobs N``
(worker fan-out where the command has independent cells; see
docs/fabric.md), ``--no-cache`` (skip the on-disk result cache),
``--progress SECONDS`` (heartbeat on stderr), and ``--json
PATH`` (machine-readable artifact alongside the rendered report) — via
shared argparse parent parsers, and routes simulations through
:func:`repro.api.run`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.harness import ascii_series_plot, configs
from repro.workloads import WORKLOADS


def _common_parent() -> argparse.ArgumentParser:
    """Flags every simulation command accepts uniformly."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("common options")
    group.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="concurrent workers for independent cells "
                            "(default: serial)")
    group.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk result cache")
    group.add_argument("--progress", type=float, default=0.0,
                       metavar="SECONDS",
                       help="print a heartbeat to stderr every N seconds")
    group.add_argument("--json", default="", metavar="PATH",
                       help="also write machine-readable data to this file")
    return parent


def _config_parent() -> argparse.ArgumentParser:
    """Processor-configuration flags shared by run/trace/segments."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("configuration options")
    group.add_argument("--iq", default="segmented",
                       choices=list(configs.DESIGNS))
    group.add_argument("--size", type=int, default=512)
    group.add_argument("--segment-size", type=int, default=32)
    group.add_argument("--chains", default="128",
                       help="chain wires, or 'unlimited'")
    group.add_argument("--variant", default="comb",
                       choices=["base", "hmp", "lrp", "comb"])
    group.add_argument("--instructions", type=int, default=None,
                       help="instruction budget override")
    group.add_argument("--no-skip", action="store_true",
                       help="disable event-driven cycle skipping (results "
                            "are bit-identical either way; this forces the "
                            "plain one-step-per-cycle loop)")
    return parent


def _parse_chains(value: str):
    return None if value in ("unlimited", "none") else int(value)


def _params_from_args(args) -> "ProcessorParams":
    if args.iq == "ideal":
        params = configs.ideal(args.size)
    elif args.iq == "segmented":
        params = configs.segmented(args.size, _parse_chains(args.chains),
                                   args.variant,
                                   segment_size=args.segment_size)
    elif args.iq == "prescheduled":
        params = configs.prescheduled(max(1, (args.size - 32) // 12))
    elif args.iq == "distance":
        params = configs.distance(max(1, (args.size - 32) // 12))
    elif args.iq == "fifo":
        params = configs.fifo(args.size, depth=args.segment_size)
    else:  # delay_tracking
        params = configs.delay_tracking(args.size)
    if getattr(args, "no_skip", False):
        params = params.replace(event_driven=False)
    return params


def _make_cache(args):
    """On-disk result cache unless ``--no-cache`` was given."""
    if getattr(args, "no_cache", False):
        return None
    from repro.harness.cache import ResultCache
    return ResultCache()


def _jobs(args, default: int = 1) -> int:
    return default if args.jobs is None else args.jobs


def _execution(args, default_jobs: int = 1, journal=None):
    """An :class:`ExecutionConfig` from the shared CLI flags."""
    from repro.fabric import ExecutionConfig
    return ExecutionConfig(jobs=_jobs(args, default_jobs),
                           cache=_make_cache(args), journal=journal)


def _write_json(path: str, data) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True, default=str)
    print(f"\nraw data written to {path}", file=sys.stderr)


def _heartbeat(tick) -> None:
    """Progress line for long runs (``--progress N``)."""
    print(f"  [{tick.elapsed_seconds:6.1f}s] cycle {tick.cycle:>9,}  "
          f"committed {tick.committed:>9,}  "
          f"{tick.kcycles_per_sec:6.1f} kcycles/s", file=sys.stderr)


def cmd_list(_args) -> int:
    width = max(len(name) for name in WORKLOADS)
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        group = "FP " if spec.is_fp else "INT"
        print(f"{name:<{width}}  [{group}]  ~{spec.default_instructions:>6} "
              f"insts  {spec.description}")
    return 0


def cmd_run(args) -> int:
    from repro import api

    params = _params_from_args(args)
    if args.check_invariants:
        params = params.replace(check_invariants=True)
    from repro.fabric import ExecutionConfig
    result = api.run(params, args.workload,
                     config_label=args.iq,
                     max_instructions=args.instructions,
                     execution=ExecutionConfig(cache=_make_cache(args)),
                     progress=_heartbeat if args.progress else None,
                     progress_interval=args.progress or 5.0)
    print(result)
    stats = result.stats
    print(f"  branch accuracy : {100 * result.branch_accuracy:.1f}%")
    loads = stats.get("lsq.loads", 0)
    if loads:
        delayed = stats.get("l1d.delayed_hits", 0)
        misses = stats.get("l1d.misses", 0)
        print(f"  loads           : {loads:.0f} "
              f"({misses:.0f} misses, {delayed:.0f} delayed hits)")
    if args.iq == "segmented":
        print(f"  chains          : avg {result.chains_avg:.1f}, "
              f"peak {result.chains_peak:.0f}")
        print(f"  promotions      : {stats.get('iq.promotions', 0):.0f} "
              f"(+{stats.get('iq.pushdowns', 0):.0f} pushdowns)")
        print(f"  deadlock events : "
              f"{stats.get('iq.deadlock_recoveries', 0):.0f}")
    if args.stats:
        for key in sorted(stats):
            print(f"  {key:<40} {stats[key]:.3f}")
    if args.json:
        _write_json(args.json, dataclasses.asdict(result))
    return 0


def cmd_sweep(args) -> int:
    from repro.harness.sweep import Sweep

    sizes = [int(s) for s in args.sizes.split(",")]
    factories = [
        ("ideal", configs.ideal),
        ("segmented-128ch",
         lambda size: configs.segmented(size, 128, "comb")),
        ("segmented-64ch",
         lambda size: configs.segmented(size, 64, "comb"))]
    sweep = Sweep([args.workload], max_instructions=args.instructions)
    for label, factory in factories:
        for size in sizes:
            sweep.add_config(f"{label}@{size}", factory(size))
    grid = sweep.run(execution=_execution(args,
                                          journal=args.journal or None))
    series = {label: {} for label, _ in factories}
    for config_label, result in grid.results[args.workload].items():
        label, size = config_label.rsplit("@", 1)
        series[label][int(size)] = result.ipc
        print(f"  {label} @{size}: IPC={result.ipc:.3f}", file=sys.stderr)
    print(ascii_series_plot(series,
                            title=f"IPC vs IQ size — {args.workload}"))
    if args.json:
        _write_json(args.json, series)
    return 0


def cmd_disasm(args) -> int:
    program = WORKLOADS[args.workload].build(1)
    print(program.disassemble())
    return 0


def cmd_trace(args) -> int:
    from repro import api
    from repro.harness.trace import (render_pipeline_trace, segment_heatmap,
                                     stage_latency_summary)
    from repro.obs import (MetricsCollector, RingBufferTracer, chrome_trace,
                           dump_jsonl)

    params = _params_from_args(args)
    tracer = RingBufferTracer()
    collector = MetricsCollector(args.interval)
    budget = args.instructions if args.instructions is not None else 2000
    result = api.run(params, args.workload, config_label=args.iq,
                     max_instructions=budget,
                     trace=tracer, metrics=collector,
                     progress=_heartbeat if args.progress else None,
                     progress_interval=args.progress or 5.0)
    events = tracer.events
    report = collector.to_dict()
    if args.format == "ascii":
        print(render_pipeline_trace(events, start_seq=args.start,
                                    count=args.count))
        print()
        print(stage_latency_summary(events))
        samples = collector.segment_samples()
        if samples:
            print(f"\nsegment occupancy — {args.workload} "
                  f"(IPC {result.ipc:.2f})")
            print(segment_heatmap(samples, params.iq.segment_size))
    else:
        out = args.out or ("trace.jsonl" if args.format == "jsonl"
                           else "trace.json")
        if args.format == "jsonl":
            with open(out, "w") as handle:
                handle.write(dump_jsonl(events))
        else:
            with open(out, "w") as handle:
                json.dump(chrome_trace(events, metrics=report), handle)
        print(f"{len(events)} events over {result.cycles} cycles "
              f"(IPC {result.ipc:.2f}) written to {out}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(chrome_trace(events, metrics=report), handle)
        print(f"\nchrome trace written to {args.json}", file=sys.stderr)
    return 0


def cmd_segments(args) -> int:
    from repro import api
    from repro.harness.trace import segment_heatmap
    from repro.obs import MetricsCollector

    params = configs.segmented(args.size, _parse_chains(args.chains),
                               args.variant)
    collector = MetricsCollector(args.interval)
    result = api.run(params, args.workload, config_label="segmented",
                     max_instructions=args.instructions, metrics=collector,
                     progress=_heartbeat if args.progress else None,
                     progress_interval=args.progress or 5.0)
    print(f"segment occupancy over time — {args.workload} "
          f"(IPC {result.ipc:.2f})\n")
    print(segment_heatmap(collector.segment_samples(),
                          params.iq.segment_size))
    if args.json:
        _write_json(args.json, collector.to_dict())
    return 0


def cmd_reproduce(args) -> int:
    from repro.harness.experiments import EXPERIMENTS, save_data

    experiment = EXPERIMENTS[args.experiment]
    workloads = (args.workloads.split(",") if args.workloads else None)
    report, data = experiment.run(
        workloads=workloads, budget_factor=args.budget,
        execution=_execution(args),
        progress=lambda label: print(f"  running {label}...",
                                     file=sys.stderr))
    print(report)
    if args.json:
        save_data(data, args.json)
        print(f"\nraw data written to {args.json}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    from repro.common.errors import ConfigurationError
    from repro.validation import FuzzProfile, run_campaign, validation_models

    profile = FuzzProfile(
        length=args.length, loop_iterations=args.iterations,
        chain_bias=args.chain_bias, miss_bias=args.miss_bias)
    try:
        profile.validate()
    except ConfigurationError as exc:
        raise SystemExit(f"bad fuzz profile: {exc}")
    models = validation_models()
    if args.models:
        wanted = args.models.split(",")
        unknown = [name for name in wanted if name not in models]
        if unknown:
            raise SystemExit(f"unknown model(s) {','.join(unknown)}; "
                             f"known: {','.join(models)}")
        models = {name: models[name] for name in wanted}
    report = run_campaign(
        seed=args.seed, num_programs=args.programs, profile=profile,
        models=models, check_invariants=not args.no_invariants,
        shrink=not args.no_shrink, jobs=_jobs(args),
        progress=(lambda line: print(f"  {line}", file=sys.stderr))
        if args.verbose else None)
    print(report.summary())
    if args.json:
        _write_json(args.json, {"ok": report.ok,
                                "summary": report.summary()})
    return 0


def cmd_surrogate(args) -> int:
    """Score the analytical surrogate against full-detail simulation."""
    from repro.harness.surrogate import (default_grid, render_report,
                                         validation_report)
    if args.workloads:
        workloads = args.workloads.split(",")
    elif args.quick:
        workloads = ["gcc", "swim"]
    else:
        workloads = sorted(WORKLOADS)
    budget = args.instructions
    if budget is None:
        budget = 8_000 if args.quick else 20_000
    report = validation_report(
        workloads, default_grid(), max_instructions=budget,
        execution=_execution(args),
        progress=(lambda line: print(f"  {line}...", file=sys.stderr))
        if args.progress else None)
    print(render_report(report))
    if args.json:
        _write_json(args.json, report)
    return 0 if report["within_bound"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Segmented dependence-chain IQ reproduction "
                    "(Raasch/Binkert/Reinhardt, ISCA 2002)")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parent()
    config = _config_parent()

    sub.add_parser("list", help="list benchmark analogs")

    run_parser = sub.add_parser("run", help="simulate one benchmark",
                                parents=[common, config])
    run_parser.add_argument("workload", choices=sorted(WORKLOADS))
    run_parser.add_argument("--stats", action="store_true",
                            help="dump every statistic")
    run_parser.add_argument("--check-invariants", action="store_true",
                            help="run per-cycle pipeline invariant checks")

    sweep_parser = sub.add_parser("sweep", help="IQ size sweep",
                                  parents=[common])
    sweep_parser.add_argument("workload", choices=sorted(WORKLOADS))
    sweep_parser.add_argument("--sizes", default="32,64,128,256,512")
    sweep_parser.add_argument("--instructions", type=int, default=None)
    sweep_parser.add_argument("--journal", default="", metavar="PATH",
                              help="record cell states in a JSONL journal "
                                   "so a killed sweep resumes without "
                                   "re-running finished cells (needs the "
                                   "cache; see docs/fabric.md)")

    disasm_parser = sub.add_parser("disasm", help="print kernel assembly")
    disasm_parser.add_argument("workload", choices=sorted(WORKLOADS))

    trace_parser = sub.add_parser(
        "trace", help="structured event trace (ascii / chrome / jsonl)",
        parents=[common, config])
    trace_parser.add_argument("workload", choices=sorted(WORKLOADS))
    trace_parser.add_argument("--format", default="ascii",
                              choices=["ascii", "chrome", "jsonl"],
                              help="ascii pipeline diagram, Chrome "
                                   "trace_event JSON, or JSONL stream")
    trace_parser.add_argument("--out", default="",
                              help="output file for chrome/jsonl formats "
                                   "(default trace.json / trace.jsonl)")
    trace_parser.add_argument("--start", type=int, default=200,
                              help="first dynamic seq to display (ascii)")
    trace_parser.add_argument("--count", type=int, default=32,
                              help="instructions to display (ascii)")
    trace_parser.add_argument("--interval", type=int, default=100,
                              help="metrics sampling interval (cycles)")

    segments_parser = sub.add_parser(
        "segments", help="segment-occupancy heatmap (segmented IQ)",
        parents=[common])
    segments_parser.add_argument("workload", choices=sorted(WORKLOADS))
    segments_parser.add_argument("--size", type=int, default=512)
    segments_parser.add_argument("--chains", default="128")
    segments_parser.add_argument("--variant", default="comb",
                                 choices=["base", "hmp", "lrp", "comb"])
    segments_parser.add_argument("--interval", type=int, default=50)
    segments_parser.add_argument("--instructions", type=int, default=None)

    reproduce_parser = sub.add_parser(
        "reproduce", help="regenerate a paper table/figure",
        parents=[common])
    reproduce_parser.add_argument(
        "experiment", choices=["table2", "figure2", "figure3", "headline"])
    reproduce_parser.add_argument(
        "--workloads", default="",
        help="comma-separated benchmark subset (default: all eight)")
    reproduce_parser.add_argument("--budget", type=float, default=1.0,
                                  help="instruction-budget multiplier")

    validate_parser = sub.add_parser(
        "validate",
        help="differential-oracle fuzzing across every IQ model",
        parents=[common])
    validate_parser.add_argument("--seed", type=int, default=0)
    validate_parser.add_argument("--programs", type=int, default=50,
                                 help="number of random programs to fuzz")
    validate_parser.add_argument("--models", default="",
                                 help="comma-separated model subset "
                                      "(default: every IQ design)")
    validate_parser.add_argument("--length", type=int, default=40,
                                 help="loop-body units per program")
    validate_parser.add_argument("--iterations", type=int, default=3,
                                 help="outer-loop iterations per program")
    validate_parser.add_argument("--chain-bias", type=float, default=0.5,
                                 help="dependence-chain depth bias [0,1]")
    validate_parser.add_argument("--miss-bias", type=float, default=0.25,
                                 help="fraction of memory ops aimed at the "
                                      "L1-missing region")
    validate_parser.add_argument("--no-invariants", action="store_true",
                                 help="skip per-cycle invariant checks")
    validate_parser.add_argument("--no-shrink", action="store_true",
                                 help="report failures without shrinking")
    validate_parser.add_argument("--verbose", action="store_true",
                                 help="print each check as it runs")

    surrogate_parser = sub.add_parser(
        "surrogate",
        help="validate the analytical IPC surrogate against simulation",
        parents=[common])
    surrogate_parser.add_argument("--workloads", default="",
                                  help="comma-separated workload subset "
                                       "(default: all; --quick: gcc,swim)")
    surrogate_parser.add_argument("--instructions", type=int, default=None,
                                  help="per-cell instruction budget "
                                       "(default: 20000; --quick: 8000)")
    surrogate_parser.add_argument("--quick", action="store_true",
                                  help="small grid / budgets "
                                       "(CI smoke mode)")

    args = parser.parse_args(argv)
    handler = {"list": cmd_list, "run": cmd_run,
               "sweep": cmd_sweep, "disasm": cmd_disasm, "trace": cmd_trace,
               "segments": cmd_segments, "reproduce": cmd_reproduce,
               "validate": cmd_validate, "surrogate": cmd_surrogate,
               }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
