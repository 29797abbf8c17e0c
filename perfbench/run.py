"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 55 \\
        --trace 0

Runs the named workload (see workloads.py and README.md) for
``--seconds`` seconds of timed operations, checks every operation's
outputs outside the timed region, prints a digest of the simulated
outputs, the Fig. 7 validation figures, one human-readable line per
metric, and as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`).
``--trace 1`` alternates untraced and span-traced operations and
reports the per-layer metrics (:data:`PER_LAYER`), each the median over
the traced operations of that operation's total, plus the tracing
overhead; the spans of the first traced operation are written as
Chrome trace-event JSON under ``perfbench/out/``.

The program is imported from ``src/`` next to this directory and
nowhere else: without it the benchmark exits non-zero.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Neither module imports the program at import time.
from spans import Tracer, chrome_trace, layer_totals  # noqa: E402
from workloads import PASS_NAMES, WORKLOADS, percentile  # noqa: E402

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_SERVE_SPREADS = ("submit_rtt_ms", "queue_wait_ms", "service_ms.run",
                  "service_ms.explore", "notify_ms", "result_rtt_ms")

#: (name, unit) of every per-layer metric, printed with ``--trace 1``.
PER_LAYER = (
    ("explore.vector.busy_s", "s"),
    ("explore.vector.points", "count"),
    ("explore.vector.groups", "count"),
    ("explore.vector.share", "ratio"),
    ("gc.pause_s", "s"),
    ("gc.collections_gen2", "count"),
    ("explore.engine.self_s", "s"),
    ("explore.space.enumerate_s", "s"),
    ("api.registry.build_s", "s"),
    ("api.registry.builds", "count"),
    ("api.simulator.cache_probe_s", "s"),
    ("api.simulator.cache_offer_s", "s"),
    ("api.simulator.cache_hit_share", "ratio"),
    ("explore.engine.pareto_frontier_s", "s"),
    ("explore.engine.pareto_ranks_s", "s"),
    ("explore.engine.frontier_size", "count"),
    ("explore.engine.rank_depth", "count"),
    ("explore.engine.document_s", "s"),
    ("explore.engine.document_bytes", "bytes"),
    ("api.spec.decode_s", "s"),
    ("robust.perturb_s", "s"),
    ("robust.perturbs", "count"),
    ("api.serialize.design_decode_s", "s"),
    ("api.serialize.design_decodes", "count"),
    ("robust.reduce_s", "s"),
    ("explore.metrics.extract_s", "s"),
    ("api.simulator.run_many_s", "s"),
    ("api.simulator.jobs", "count"),
) + tuple((f"sim.pass_runs.{name}", "count") for name in PASS_NAMES) + (
    ("sim.pass_reuse_share", "ratio"),
    ("sim.simulator.busy_s", "s"),
    ("exec.workers_used", "count"),
    ("exec.retries", "count"),
    ("exec.timeouts", "count"),
    ("exec.pool_rebuilds", "count"),
    ("exec.quarantined", "count"),
) + tuple((f"serve.{name}.{level}", "ms") for name in _SERVE_SPREADS
          for level in ("p50", "p95")) + (
    ("serve.result_bytes", "bytes"),
    ("serve.cache_hit_share", "ratio"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_share", "ratio"),
)

#: Fig. 7 nine-chip figures as this repository reproduces them.
FIG7_MAPE_PERCENT = "4.43"
FIG7_PEARSON = "0.99999995"

#: Extra fresh-process set-ups per run; set-up time is their median
#: together with the run's own.
SETUP_PROBES = 2


def _import_program():
    """Import ``repro`` from ``src/`` beside the benchmark, or exit."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]  # no ambient executor, cache dir or faults
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
    import repro.explore  # noqa: F401
    import repro.robust  # noqa: F401
    import repro.serve.client  # noqa: F401


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_probes(args):
    """Set-up seconds of ``SETUP_PROBES`` fresh benchmark processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr[-2000:]}")
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return samples


def _measure(workload, seconds, tracer):
    """Timed operations for about ``seconds`` of measured time.

    With a tracer, operations alternate untraced and traced (a serve
    workload switches to a span-traced daemon at half time instead),
    and at least one of each runs.
    """
    ops = []
    problems = []
    measured = 0.0
    # A workload behind a daemon traces by restarting the daemon traced.
    behind_daemon = hasattr(workload, "restart")
    index = 0
    while True:
        traced_ops = sum(1 for op in ops if op["traced"])
        # Stop when less than half an operation's time remains, so a
        # run measures ``seconds`` on average.
        done = ops and measured + ops[-1]["wall_s"] / 2 >= seconds
        if tracer is None:
            traced = False
            finished = done
        elif behind_daemon:
            if workload.tracer is None and ops and measured >= seconds / 2:
                workload.tracer = tracer
                workload.restart(OUT / f"spans-{os.getpid()}.json")
            traced = workload.tracer is not None
            finished = done and traced_ops >= 1
        else:
            traced = index % 2 == 1
            finished = done and index >= 2
        if finished:
            break
        gc.collect()
        tracer_on = traced and not behind_daemon
        if traced:
            tracer.run = index
        if tracer_on:
            tracer.install()
        window_start = time.monotonic_ns()
        started = time.perf_counter()
        try:
            record = workload.op(index)
        finally:
            wall = time.perf_counter() - started
            if tracer_on:
                tracer.uninstall()
        record.setdefault("wall_s", wall)
        record.setdefault("latencies_ms", [wall * 1e3])
        record["window"] = getattr(workload, "round_windows", {}).get(
            index, (window_start, time.monotonic_ns()))
        record["traced"] = traced
        problems.extend(f"{workload.name} op {index}: {problem}" for problem
                        in workload.check(index, record.pop("output")))
        measured += record["wall_s"]
        ops.append(record)
        index += 1
    return ops, problems


def _span_layers(spans, wall_s, window):
    """Per-layer numbers of one operation from its spans."""
    totals = layer_totals(spans, window)

    def self_s(name):
        return totals["self_ns"].get(name, 0) / 1e9

    def calls(name):
        return totals["calls"].get(name, 0)

    def attrs(name):
        return totals["attrs"].get(name, [])

    batches = attrs("api.simulator.run_many")
    passes = [item for item in attrs("sim.simulator") if "pass" in item]
    vector_busy = self_s("explore.vector")
    layers = {
        "explore.vector.busy_s": vector_busy,
        "explore.vector.points": sum(item["points"]
                                     for item in attrs("explore.vector")),
        "explore.vector.groups": calls("explore.vector"),
        "explore.vector.share": vector_busy / wall_s,
        "gc.pause_s": self_s("gc"),
        "gc.collections_gen2": sum(1 for item in attrs("gc")
                                   if item["generation"] == 2),
        "explore.engine.self_s": self_s("explore.engine"),
        "explore.space.enumerate_s": self_s("explore.space"),
        "api.registry.build_s": self_s("api.registry"),
        "api.registry.builds": calls("api.registry"),
        "api.simulator.cache_probe_s": self_s("api.simulator.cache_probe"),
        "api.simulator.cache_offer_s": self_s("api.simulator.cache_offer"),
        "explore.engine.pareto_frontier_s":
            self_s("explore.engine.pareto_frontier"),
        "explore.engine.pareto_ranks_s":
            self_s("explore.engine.pareto_ranks"),
        "explore.engine.frontier_size": max(
            (item["size"] for item in
             attrs("explore.engine.pareto_frontier")), default=0),
        "explore.engine.rank_depth": max(
            (item["depth"] for item in
             attrs("explore.engine.pareto_ranks")), default=0),
        "explore.engine.document_s": self_s("explore.engine.document"),
        "explore.engine.document_bytes": sum(
            item.get("bytes", 0) for item in
            attrs("explore.engine.document")),
        "api.spec.decode_s": self_s("api.spec.decode"),
        "robust.perturb_s": self_s("robust.perturb"),
        "robust.perturbs": calls("robust.perturb"),
        "api.serialize.design_decode_s":
            self_s("api.serialize.design_decode"),
        "api.serialize.design_decodes": calls("api.serialize.design_decode"),
        "robust.reduce_s": self_s("robust.reduce"),
        "explore.metrics.extract_s": self_s("explore.metrics.extract"),
        "api.simulator.run_many_s": self_s("api.simulator.run_many"),
        "api.simulator.jobs": sum(item.get("jobs", 0) for item in batches),
        "sim.pass_reuse_share": (sum(item["reused"] for item in passes)
                                 / len(passes) if passes else 0.0),
        "sim.simulator.busy_s": self_s("sim.simulator"),
        "exec.workers_used": max((item.get("workers_used", 0)
                                  for item in batches), default=0),
        "trace.uncovered_s": wall_s - totals["covered_ns"] / 1e9,
    }
    for counter in ("retries", "timeouts", "pool_rebuilds", "quarantined"):
        layers[f"exec.{counter}"] = sum(item.get(counter, 0)
                                        for item in batches)
    return layers


def _op_spans(workload, tracer, ops, index):
    """Spans of operation ``index``: this process's, then the daemon's."""
    low, high = ops[index]["window"]
    return ([span for span in tracer.spans if span[6] == index],
            [span for span in getattr(workload, "spans", ())
             if low <= span[2] < high])


def _layer_metrics(workload, ops, tracer):
    """Median per-layer numbers over the traced operations."""
    per_op = []
    for index, op in enumerate(ops):
        if not op["traced"]:
            continue
        own, daemon = _op_spans(workload, tracer, ops, index)
        spans = own + daemon
        layers = dict.fromkeys((name for name, _ in PER_LAYER), 0)
        layers.update(_span_layers(spans, op["wall_s"], op["window"]))
        layers.update(op["layers"])
        per_op.append(layers)

    def cost(op):
        return statistics.median(op["latencies_ms"])

    traced = [cost(op) for op in ops if op["traced"]]
    untraced = [cost(op) for op in ops if not op["traced"]]
    metrics = {name: statistics.median(layers[name] for layers in per_op)
               for name, _ in PER_LAYER if name != "trace.overhead_share"}
    metrics["trace.overhead_share"] = (statistics.median(traced)
                                       / statistics.median(untraced) - 1.0)
    return metrics


def _write_trace(workload, ops, tracer, seed):
    """Chrome trace-event JSON of the first traced operation."""
    index = next(i for i, op in enumerate(ops) if op["traced"])
    low = ops[index]["window"][0]
    own, daemon = _op_spans(workload, tracer, ops, index)
    events = chrome_trace(own, origin_ns=low)
    if daemon:
        events += chrome_trace(daemon, pid=0, origin_ns=low)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "traceEvents": events, "displayTimeUnit": "ms",
        "otherData": {"workload": workload.name, "seed": seed,
                      "operation": index,
                      "missing_targets": tracer.missing}}))
    return path


def _end_to_end(ops, setup_samples, peak_rss_mb):
    """End-to-end metrics and the sample count behind each."""
    busy = sum(op["wall_s"] for op in ops)
    latencies = [value for op in ops for value in op["latencies_ms"]]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "points_per_s": sum(op["points"] for op in ops) / busy,
        "jobs_per_s": sum(op["jobs"] for op in ops) / busy,
        "job_p50_ms": percentile(latencies, 0.5),
        "job_p95_ms": percentile(latencies, 0.95),
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {"setup_s": len(setup_samples), "points_per_s": len(ops),
              "jobs_per_s": len(ops), "job_p50_ms": len(latencies),
              "job_p95_ms": len(latencies), "peak_rss_mb": 1}
    return metrics, counts


def _validation():
    from repro.validation.harness import run_validation
    summary = run_validation()
    mape = f"{100 * summary.mean_absolute_percentage_error:.2f}"
    pearson = f"{summary.pearson_correlation:.8f}"
    print(f"fig7 nine-chip MAPE {mape}% (reproduced {FIG7_MAPE_PERCENT}%), "
          f"Pearson {pearson} (reproduced {FIG7_PEARSON})")
    if (mape, pearson) != (FIG7_MAPE_PERCENT, FIG7_PEARSON):
        return [f"Fig. 7 figures moved: MAPE {mape}%, Pearson {pearson}"]
    return []


def main(argv=None):
    args = _parse(argv)
    # SIGTERM unwinds like an exception, so a serve daemon is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    _import_program()
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = Tracer() if args.trace else None
        ops, problems = _measure(workload, args.seconds, tracer)
        peak_rss_mb = (workload.peak_rss_mb() if hasattr(
            workload, "peak_rss_mb") else resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        workload.close()
    problems += _validation()
    print(f"digest {args.workload} seed={args.seed} "
          f"sha256={workload.digest}")
    attempted = sum(op["jobs"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    if args.trace:
        metrics = _layer_metrics(workload, ops, tracer)
        units = dict(PER_LAYER)
        counts = dict.fromkeys(metrics, sum(op["traced"] for op in ops))
        print(f"trace {_write_trace(workload, ops, tracer, args.seed)}")
        for target in tracer.missing:
            print(f"trace target missing: {target}", file=sys.stderr)
    else:
        metrics, counts = _end_to_end(
            ops, [setup_s] + _setup_probes(args), peak_rss_mb)
        units = dict(END_TO_END)
    print(f"{args.workload}: {len(ops)} operations, {attempted} jobs, "
          f"failed_share {failed / attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} "
              f"(n={counts[name]})")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if not problems and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
