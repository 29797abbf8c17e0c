"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/suite.py --workloads all --seeds 1-10 \\
        [--seconds 55] [--trace 0] [--save out.json] [--compare old.json]

Runs ``run.py`` once per (workload, seed), one process at a time, and
prints per workload and metric the median, the quartile spread
(``(q3 - q1) / median`` from ``statistics.quantiles(values, n=4)``) and
the metric's bound from ``BENCHMARK.json``; a spread at or above a
third of the bound is flagged.  ``--compare`` checks a saved earlier
set: medians must not be worse by more than the bound, and the
simulated-output digests and Fig. 7 lines must be identical.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def _run(workload, seed, seconds, trace):
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = process.stdout.splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{process.returncode}: {process.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["digest"] = next(line for line in lines
                            if line.startswith("digest "))
    result["fig7"] = next(line for line in lines if line.startswith("fig7 "))
    return result


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"]
              for metric in config["end_to_end"]}
    units = {metric["name"]: metric["unit"]
             for metric in config["end_to_end"] + config["per_layer"]}
    workloads = ([w["name"] for w in config["workloads"]]
                 if args.workloads == "all" else args.workloads.split(","))
    seconds = args.seconds or config["run_seconds"]
    runs = {}
    for workload in workloads:
        for seed in _seeds(args.seeds):
            result = _run(workload, seed, seconds, args.trace)
            runs.setdefault(workload, {})[str(seed)] = result
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['digest'].split()[-1]}", flush=True)
    ok = True
    summary = {}
    for workload, by_seed in runs.items():
        results = list(by_seed.values())
        ok &= all(result["correct"] for result in results)
        print(f"\n{workload} ({len(results)} runs)")
        for name in results[0]["metrics"]:
            values = [result["metrics"][name]["value"] for result in results]
            median, spread = _spread(values) if len(values) > 1 \
                else (values[0], 0.0)
            summary.setdefault(workload, {})[name] = median
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3 \
                    and name != "setup_s":
                flag = "  <-- spread >= bound/3"
                ok = False
            print(f"  {name:36s} median {median:12.6g} {units[name]:6s} "
                  f"spread {spread:6.3f}  bound {bound}{flag}")
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(
            {"runs": runs, "medians": summary}, indent=1))
    if args.compare:
        earlier = json.loads(pathlib.Path(args.compare).read_text())
        better = {m["name"]: m["better"] for m in config["end_to_end"]}
        for workload, medians in summary.items():
            for name, median in medians.items():
                before = earlier["medians"].get(workload, {}).get(name)
                if before is None or name not in bounds:
                    continue
                change = (median - before) / before
                worse = change if better[name] == "lower" else -change
                status = "worse than bound" if worse > bounds[name] else "ok"
                ok &= status == "ok"
                print(f"{workload} {name}: {before:.6g} -> {median:.6g} "
                      f"({change:+.1%}) {status}")
            for seed, result in runs[workload].items():
                old = earlier["runs"].get(workload, {}).get(seed)
                if old is not None and (old["digest"], old["fig7"]) != (
                        result["digest"], result["fig7"]):
                    ok = False
                    print(f"{workload} seed {seed}: digest or Fig. 7 "
                          f"differs from the earlier set")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
