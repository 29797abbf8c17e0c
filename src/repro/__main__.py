"""Command-line entry point: ``python -m repro <command>`` (or ``repro``).

Quick access to the headline experiments without writing any code:

    python -m repro validate     # Fig. 7 validation (nine chips)
    python -m repro fig5         # the paper's running example
    python -m repro rhythmic     # Fig. 9a exploration
    python -m repro edgaze       # Fig. 9b exploration
    python -m repro mixed        # Fig. 11 mixed-signal comparison
    python -m repro threelayer   # Sony IMX400-style burst stack
    python -m repro survey       # Fig. 1 / Fig. 3 trend data
    python -m repro chip "JSSC'21-II"   # one validation chip in detail

Plus the serialized-scenario workflow of the session API:

    python -m repro run spec.json            # execute a scenario spec
    python -m repro sweep spec.json --param frame_rate \\
        --values 15,30,60,120                # sweep an option over a spec
    python -m repro explore space.json       # multi-axis Pareto exploration
    python -m repro robust study.json        # Monte Carlo / corners / etc.
    python -m repro usecases                 # names `run` specs can reference
    python -m repro cache info               # inspect the persistent cache
    python -m repro cache clear              # wipe the persistent cache
    python -m repro serve --port 8642        # long-lived simulation daemon
    python -m repro dispatch --port 8642     # distributed coordinator
    python -m repro worker --connect http://127.0.0.1:8642  # join it

Setting ``REPRO_CACHE_DIR`` makes every command above read and write a
persistent result cache, so repeated invocations over the same specs
start warm.

Every command accepts ``--json`` (before or after the subcommand) to
emit machine-readable output instead of tables.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import units


def _emit_json(payload) -> int:
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _wants_json(args) -> bool:
    return getattr(args, "json", False)


def _cmd_validate(args) -> int:
    from repro.validation import run_validation
    summary = run_validation()
    if _wants_json(args):
        return _emit_json({
            "mape": summary.mean_absolute_percentage_error,
            "pearson": summary.pearson_correlation,
            "chips": [
                {
                    "name": result.chip.name,
                    "estimated_energy_per_pixel":
                        result.estimated_energy_per_pixel,
                    "reported_energy_per_pixel":
                        result.reported_energy_per_pixel,
                    "error": result.absolute_percentage_error,
                }
                for result in summary.results
            ],
        })
    print(summary.to_table())
    return 0


def _cmd_fig5(args) -> int:
    from repro.analysis import identify_bottlenecks
    from repro.usecases.fig5 import run_fig5
    report = run_fig5(frame_rate=args.fps)
    if _wants_json(args):
        return _emit_json(report.to_dict())
    print(report.to_table())
    print("\nbottlenecks:")
    for bottleneck in identify_bottlenecks(report):
        print(" ", bottleneck.describe())
    return 0


def _run_config_grid(args, space, usecase) -> int:
    """Shared body of the rhythmic/edgaze exploration commands.

    The grid runs through the exploration engine — one cached, parallel
    ``run_many`` batch — instead of a sequential loop per configuration.
    """
    from repro.explore import explore
    # The table prints full per-point reports, which only the object
    # path materializes — keep the vector engine out of this command.
    result = explore(space, usecase, objectives=("energy_per_frame",),
                     annotate=False, engine="object")
    labeled = [(f"{point.params['placement']} "
                f"({point.params['cis_node']}nm)", point)
               for point in result.points]
    if _wants_json(args):
        return _emit_json([
            {"label": label, **point.report.to_dict()} if point.feasible
            else {"label": label, "failure": point.failure}
            for label, point in labeled])
    for label, point in labeled:
        if not point.feasible:
            print(f"{label:18s} infeasible: {point.failure}")
            continue
        report = point.report
        print(f"{label:18s} "
              f"{units.format_energy(report.total_energy)}/frame "
              f"({units.format_power(report.total_power)})")
    return 0


def _cmd_rhythmic(args) -> int:
    from repro.usecases import rhythmic_space
    return _run_config_grid(args, rhythmic_space(), "rhythmic")


def _cmd_edgaze(args) -> int:
    from repro.usecases import edgaze_space
    return _run_config_grid(args, edgaze_space(), "edgaze")


def _cmd_mixed(args) -> int:
    from repro.analysis import compare_reports
    from repro.usecases import UseCaseConfig, run_edgaze, run_edgaze_mixed
    deltas = []
    for node in (130, 65):
        digital = run_edgaze(UseCaseConfig("2D-In", node))
        mixed = run_edgaze_mixed(node)
        deltas.append((node, compare_reports(digital, mixed)))
    if _wants_json(args):
        return _emit_json([
            {
                "cis_node": node,
                "baseline": delta.baseline_name,
                "candidate": delta.candidate_name,
                "baseline_total": delta.baseline_total,
                "candidate_total": delta.candidate_total,
                "savings_fraction": delta.savings_fraction,
                "by_category": {category.value: value for category, value
                                in delta.by_category.items()},
            }
            for node, delta in deltas
        ])
    for _, delta in deltas:
        print(delta.describe())
        print()
    return 0


def _cmd_threelayer(args) -> int:
    from repro.usecases.threelayer import run_three_layer
    report = run_three_layer(burst_fps=args.fps)
    if _wants_json(args):
        payload = report.to_dict()
        payload["by_layer"] = report.by_layer()
        return _emit_json(payload)
    print(report.to_table())
    print("\nper-layer energy:")
    for layer, energy in report.by_layer().items():
        print(f"  {layer:10s} {units.format_energy(energy)}")
    return 0


def _cmd_chip(args) -> int:
    from repro.validation import chip_by_name, run_chip
    try:
        chip = chip_by_name(args.name)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 1
    result = run_chip(chip)
    if _wants_json(args):
        return _emit_json({
            "name": chip.name,
            "description": chip.description,
            "reference": chip.reference,
            "process_node": chip.process_node,
            "num_pixels": chip.num_pixels,
            "frame_rate": chip.frame_rate,
            "estimated_energy_per_pixel": result.estimated_energy_per_pixel,
            "reported_energy_per_pixel": result.reported_energy_per_pixel,
            "error": result.absolute_percentage_error,
            "breakdown_per_pixel": result.breakdown_per_pixel(),
            "breakdown_errors": result.breakdown_errors(),
        })
    print(f"{chip.name} — {chip.description}")
    print(f"  {chip.reference}")
    print(f"  {chip.process_node}, {chip.num_pixels} px @ "
          f"{chip.frame_rate:g} FPS")
    print(f"  {result.describe()}")
    for category, energy in sorted(result.breakdown_per_pixel().items()):
        print(f"    {category:8s} {energy / units.pJ:10.3f} pJ/px")
    errors = result.breakdown_errors()
    if errors:
        print("  per-component errors vs published breakdown:")
        for category, error in sorted(errors.items()):
            print(f"    {category:8s} {100 * error:5.1f}%")
    return 0


def _cmd_survey(args) -> int:
    from repro.survey import (cis_node_trend, node_gap_by_year,
                              percentages_by_year)
    rows = percentages_by_year()
    slope, _ = cis_node_trend()
    if _wants_json(args):
        return _emit_json({
            "fig1_percentages_by_year": rows,
            "fig3_node_halving_years": -1 / slope,
            "fig3_node_gap_by_year": node_gap_by_year(),
        })
    print("Fig. 1 — computational share of CIS papers:")
    for row in rows[::4]:
        share = row["computational"] + row["stacked_computational"]
        print(f"  {row['year']}: {share:5.1f}% "
              f"(stacked {row['stacked_computational']:.1f}%)")
    print(f"\nFig. 3 — CIS node halving period: {-1 / slope:.1f} years")
    for row in node_gap_by_year()[-3:]:
        print(f"  {row['year']}: CIS ~{row['cis_node_nm']:.0f} nm vs "
              f"IRDS {row['irds_node_nm']:.0f} nm "
              f"({row['gap_ratio']:.1f}x behind)")
    return 0


def _cmd_usecases(args) -> int:
    from repro.api import available_usecases
    names = available_usecases()
    if _wants_json(args):
        return _emit_json(names)
    for name in names:
        print(name)
    return 0


def _cmd_run(args) -> int:
    """Execute one serialized scenario spec end to end."""
    from repro.api import Simulator, load_scenario
    from repro.exceptions import CamJError
    try:
        design, options = load_scenario(args.spec)
    except (OSError, CamJError) as error:
        print(f"cannot load spec {args.spec}: {error}", file=sys.stderr)
        return 1
    # Context-managed so an interrupt mid-run still reclaims any pool
    # workers instead of stranding them.
    with Simulator(options) as simulator:
        result = simulator.run(design)
    if _wants_json(args):
        _emit_json(result.to_dict())
        return 0 if result.ok else 1
    if not result.ok:
        print(f"{design.name}: {result.error_type}: {result.failure}",
              file=sys.stderr)
        return 1
    print(result.report.to_table())
    print(f"\ndesign hash  {result.design_hash}")
    return 0


def _cmd_sweep(args) -> int:
    """Sweep one simulation option over a serialized scenario spec."""
    from repro.api import Simulator, load_scenario
    from repro.exceptions import CamJError, ConfigurationError
    try:
        design, options = load_scenario(args.spec)
    except (OSError, CamJError) as error:
        print(f"cannot load spec {args.spec}: {error}", file=sys.stderr)
        return 1
    try:
        values = [float(raw) for raw in args.values.split(",") if raw]
    except ValueError:
        print(f"--values must be comma-separated numbers, "
              f"got {args.values!r}", file=sys.stderr)
        return 1
    if not values:
        print("--values must name at least one value", file=sys.stderr)
        return 1
    if args.param == "exposure_slots":
        if any(value != int(value) for value in values):
            print("--values for exposure_slots must be whole numbers, "
                  f"got {args.values!r}", file=sys.stderr)
            return 1
        values = [int(value) for value in values]
    try:
        items = [(design, options.replace(**{args.param: value}))
                 for value in values]
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 1
    with Simulator() as simulator:
        results = simulator.run_many(items)
    if _wants_json(args):
        return _emit_json({
            "design": design.name,
            "design_hash": design.content_hash,
            "param": args.param,
            "points": [{"value": value, **result.to_dict()}
                       for value, result in zip(values, results)],
        })
    print(f"sweep of {args.param} over {design.name}:")
    for value, result in zip(values, results):
        if result.ok:
            print(f"  {value:>10g}  "
                  f"{units.format_energy(result.report.total_energy)}/frame "
                  f"({units.format_power(result.report.total_power)})")
        else:
            print(f"  {value:>10g}  infeasible: {result.failure}")
    return 0


def _cmd_explore(args) -> int:
    """Run a design-space exploration spec through the engine."""
    import dataclasses

    from repro.exceptions import CamJError
    from repro.explore import load_exploration_spec
    try:
        spec = load_exploration_spec(args.spec)
    except (OSError, CamJError) as error:
        print(f"cannot load spec {args.spec}: {error}", file=sys.stderr)
        return 1
    if args.engine:
        spec = dataclasses.replace(spec, engine=args.engine)
    try:
        result = spec.run()
    except CamJError as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.output:
        result.save(args.output)
    if _wants_json(args):
        _emit_json(result.to_dict())
    else:
        print(result.to_table())
    # A spec whose every point is infeasible signals failure, like `run`.
    return 0 if result.feasible_points else 1


def _cmd_robust(args) -> int:
    """Run a robustness study spec (Monte Carlo, corners, ...)."""
    import dataclasses
    import json as json_mod

    from repro.exceptions import CamJError
    from repro.robust import load_robust_spec

    try:
        spec = load_robust_spec(args.spec)
    except (OSError, CamJError) as error:
        print(f"cannot load spec {args.spec}: {error}", file=sys.stderr)
        return 1
    overrides = {}
    if args.samples is not None:
        overrides["samples"] = args.samples
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    try:
        document = spec.run_document()
    except CamJError as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json_mod.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if _wants_json(args):
        _emit_json(document)
    elif spec.kind == "explore":
        from repro.explore import ExplorationResult
        print(ExplorationResult.from_dict(document["result"]).to_table())
    else:
        from repro.robust import RobustResult
        print(RobustResult.from_dict(document).summary())
    if spec.kind == "explore":
        return 0 if any(point["feasible"]
                        for point in document["result"]["points"]) else 1
    accounting = document.get("accounting", {})
    return 0 if accounting.get("ok", 0) > 0 else 1


def _cmd_cache(args) -> int:
    """Inspect or clear the persistent (disk-tier) result cache."""
    import os

    from repro.api.diskcache import CACHE_DIR_ENV, DiskResultCache

    directory = args.dir if args.dir else os.environ.get(CACHE_DIR_ENV)
    if not directory:
        print(f"no cache directory: pass --dir or set {CACHE_DIR_ENV}",
              file=sys.stderr)
        return 1
    if not os.path.isdir(directory):
        # Inspection must not create directories as a side effect (a
        # typo'd --dir would otherwise litter the filesystem).
        print(f"cache directory {directory} does not exist",
              file=sys.stderr)
        return 1
    try:
        cache = DiskResultCache(directory)
    except OSError as error:
        print(f"cannot open cache directory {directory}: {error}",
              file=sys.stderr)
        return 1
    if args.action == "clear":
        removed = cache.clear()
        if _wants_json(args):
            return _emit_json({"directory": str(cache.directory),
                               "removed": removed})
        print(f"removed {removed} cached result(s) from {cache.directory}")
        return 0
    info = cache.info()
    if _wants_json(args):
        return _emit_json({
            "directory": info.directory,
            "entries": info.entries,
            "total_bytes": info.total_bytes,
            "max_bytes": info.max_bytes,
        })
    print(f"cache directory  {info.directory}")
    print(f"entries          {info.entries}")
    print(f"size             {info.total_bytes} bytes "
          f"(bound {info.max_bytes})")
    return 0


def _cmd_serve(args) -> int:
    """Run the long-lived simulation service daemon."""
    from repro.serve import ServeApp
    app = ServeApp(host=args.host, port=args.port, workers=args.workers,
                   chunk_size=args.chunk_size, cache_dir=args.cache_dir,
                   max_workers=args.max_workers, executor=args.executor,
                   journal_dir=args.journal,
                   dispatch=getattr(args, "dispatch", False),
                   lease_ttl_s=getattr(args, "lease_ttl", None),
                   heartbeat_s=getattr(args, "heartbeat", None))
    app.run(ready_file=args.ready_file, announce=not _wants_json(args))
    return 0


def _cmd_dispatch(args) -> int:
    """Run a dispatch coordinator: ``serve --dispatch`` in one word."""
    args.dispatch = True
    return _cmd_serve(args)


def _cmd_worker(args) -> int:
    """Attach a pull-based worker process to a dispatch coordinator."""
    from repro.exec.worker import run_supervised, run_worker
    if args.respawn:
        child_argv = ["--connect", args.connect,
                      "--batch-size", str(args.batch_size)]
        if args.cache_dir:
            child_argv += ["--cache-dir", args.cache_dir]
        return run_supervised(child_argv,
                              announce=not _wants_json(args))
    summary = run_worker(args.connect, batch_size=args.batch_size,
                         cache_dir=args.cache_dir,
                         announce=not _wants_json(args))
    if _wants_json(args):
        return _emit_json(summary)
    print(f"repro worker: done — {summary['completed']} task(s) "
          f"completed in {summary['batches']} batch(es) over "
          f"{summary['elapsed_s']:g}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand's unset flag from clobbering a --json
    # given before the subcommand.
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit machine-readable JSON instead of tables")
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CamJ reproduction: CIS energy modeling experiments")
    parser.add_argument("--json", action="store_true", default=False,
                        help="emit machine-readable JSON instead of tables")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="Fig. 7 nine-chip validation",
                   parents=[common])
    fig5 = sub.add_parser("fig5", help="the paper's running example",
                          parents=[common])
    fig5.add_argument("--fps", type=float, default=30.0)
    sub.add_parser("rhythmic", help="Fig. 9a exploration", parents=[common])
    sub.add_parser("edgaze", help="Fig. 9b exploration", parents=[common])
    sub.add_parser("mixed", help="Fig. 11 mixed-signal comparison",
                   parents=[common])
    three = sub.add_parser("threelayer", help="IMX400-style burst stack",
                           parents=[common])
    three.add_argument("--fps", type=float, default=960.0)
    sub.add_parser("survey", help="Fig. 1 / Fig. 3 trend data",
                   parents=[common])
    chip = sub.add_parser("chip", help="one validation chip in detail",
                          parents=[common])
    chip.add_argument("name", help="Table 2 chip name, e.g. JSSC'21-II")
    sub.add_parser("usecases", help="registered builders spec files can use",
                   parents=[common])
    run = sub.add_parser("run", help="execute a serialized scenario spec",
                         parents=[common])
    run.add_argument("spec", help="path to a scenario spec JSON file")
    sweep = sub.add_parser(
        "sweep", help="sweep a simulation option over a scenario spec",
        parents=[common])
    sweep.add_argument("spec", help="path to a scenario spec JSON file")
    sweep.add_argument("--param", default="frame_rate",
                       choices=("frame_rate", "exposure_slots"),
                       help="which SimOptions field to sweep")
    sweep.add_argument("--values", required=True,
                       help="comma-separated values, e.g. 15,30,60,120")
    explore = sub.add_parser(
        "explore",
        help="run a multi-axis Pareto exploration spec (repro.explore)",
        parents=[common])
    explore.add_argument("spec", help="path to an exploration spec JSON "
                                      "file (repro.explore-spec/1)")
    explore.add_argument("-o", "--output", default=None,
                         help="also write the full repro.explore/1 result "
                              "JSON to this path")
    explore.add_argument("--engine", default=None,
                         choices=("auto", "vector", "object"),
                         help="evaluation engine: auto routes eligible "
                              "groups through the vectorized fast path, "
                              "vector requires it, object forces the "
                              "per-point path (default: the spec's "
                              "engine, normally auto)")
    robust = sub.add_parser(
        "robust",
        help="run a statistical robustness study spec (repro.robust)",
        parents=[common])
    robust.add_argument("spec", help="path to a robustness spec JSON "
                                     "file (repro.robust-spec/1)")
    robust.add_argument("-o", "--output", default=None,
                        help="also write the full repro.robust/1 "
                             "document to this path")
    robust.add_argument("--samples", type=int, default=None,
                        help="override the spec's ensemble size")
    robust.add_argument("--seed", type=int, default=None,
                        help="override the spec's sampling seed")
    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache",
        parents=[common])
    cache.add_argument("action", choices=("info", "clear"),
                       help="what to do with the cache directory")
    cache.add_argument("--dir", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR)")
    def _add_serve_flags(target: argparse.ArgumentParser) -> None:
        target.add_argument("--host", default="127.0.0.1",
                            help="bind address (default: 127.0.0.1)")
        target.add_argument("--port", type=int, default=8642,
                            help="bind port; 0 picks an ephemeral one "
                                 "(default: 8642)")
        target.add_argument("--workers", type=int, default=2,
                            help="concurrent job slots (default: 2)")
        target.add_argument("--chunk-size", type=int, default=8,
                            help="explore points per progress/cancellation "
                                 "chunk (default: 8)")
        target.add_argument("--cache-dir", default=None,
                            help="persistent result-cache directory "
                                 "(default: $REPRO_CACHE_DIR)")
        target.add_argument("--max-workers", type=int, default=None,
                            help="width of the shared session's simulation "
                                 "pool (default: 1 thread on GIL builds, "
                                 "where more threads only contend for the "
                                 "lock; max(2, CPUs) for process pools and "
                                 "free-threaded builds)")
        target.add_argument("--ready-file", default=None,
                            help="write the bound address here as JSON once "
                                 "listening (ephemeral-port rendezvous)")
        target.add_argument("--executor", default="thread",
                            choices=("inline", "thread", "process"),
                            help="shared session executor; 'process' "
                                 "isolates simulations in pool workers "
                                 "(survives worker crashes); ignored "
                                 "under --dispatch (default: thread)")
        target.add_argument("--journal", default=None,
                            help="durable job-journal directory; submitted "
                                 "jobs survive daemon crashes and are "
                                 "recovered on restart (default: off)")
        target.add_argument("--lease-ttl", type=float, default=None,
                            help="dispatch lease deadline in seconds "
                                 "(default: $REPRO_LEASE_TTL_S, then 15)")
        target.add_argument("--heartbeat", type=float, default=None,
                            help="dispatch worker heartbeat interval in "
                                 "seconds (default: $REPRO_HEARTBEAT_S, "
                                 "then a third of the lease TTL)")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived simulation service daemon (HTTP/JSON)",
        parents=[common])
    _add_serve_flags(serve)
    serve.add_argument("--dispatch", action="store_true", default=False,
                       help="coordinate remote `repro worker` processes: "
                            "the shared session executes through a "
                            "lease-based work queue served under "
                            "/dispatch")
    dispatch = sub.add_parser(
        "dispatch",
        help="run a distributed-execution coordinator "
             "(serve --dispatch)",
        parents=[common])
    _add_serve_flags(dispatch)
    worker = sub.add_parser(
        "worker",
        help="attach a pull-based worker process to a dispatch "
             "coordinator",
        parents=[common])
    worker.add_argument("--connect", required=True, metavar="URL",
                        help="coordinator base URL, e.g. "
                             "http://127.0.0.1:8642")
    worker.add_argument("--batch-size", type=int, default=32,
                        help="tasks leased per claim (default: 32)")
    worker.add_argument("--cache-dir", default=None,
                        help="shared result-cache directory; point every "
                             "worker and the coordinator at the same one "
                             "(default: $REPRO_CACHE_DIR)")
    worker.add_argument("--respawn", action="store_true", default=False,
                        help="supervise: restart the worker child "
                             "whenever it exits abnormally")
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "chip": _cmd_chip,
    "fig5": _cmd_fig5,
    "rhythmic": _cmd_rhythmic,
    "edgaze": _cmd_edgaze,
    "mixed": _cmd_mixed,
    "threelayer": _cmd_threelayer,
    "survey": _cmd_survey,
    "usecases": _cmd_usecases,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "explore": _cmd_explore,
    "robust": _cmd_robust,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "dispatch": _cmd_dispatch,
    "worker": _cmd_worker,
}


class _sigterm_as_interrupt:
    """Deliver SIGTERM as KeyboardInterrupt for the command's duration.

    One-shot commands then unwind through their ``with Simulator()`` /
    ``finally: close()`` blocks on termination, so pool worker
    processes are reclaimed instead of lingering as zombies.  The
    previous handler is restored on exit; no-op off the main thread
    (or where signals are unavailable).  The ``serve`` daemon installs
    its own loop-level handlers instead.
    """

    def __enter__(self):
        import signal
        import threading
        self._previous = None
        if threading.current_thread() is not threading.main_thread():
            return self
        def _raise_interrupt(signum, frame):
            raise KeyboardInterrupt

        try:
            self._previous = signal.signal(signal.SIGTERM, _raise_interrupt)
        except (ValueError, OSError, AttributeError):
            self._previous = None
        return self

    def __exit__(self, *exc_info):
        import signal
        if self._previous is not None:
            try:
                signal.signal(signal.SIGTERM, self._previous)
            except (ValueError, OSError):
                pass
        return False


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # serve/dispatch install loop-level signal handlers; worker
        # installs its own graceful-stop handlers.
        if args.command in ("serve", "dispatch", "worker"):
            return _COMMANDS[args.command](args)
        with _sigterm_as_interrupt():
            return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        # Interrupted (Ctrl-C or SIGTERM): sessions were closed on the
        # way out; report the conventional 128+SIGINT code.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
