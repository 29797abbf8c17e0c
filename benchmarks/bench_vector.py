"""Vectorized-exploration benchmark: the points/sec headline number.

Drives a 10k-point Ed-Gaze grid (4 placements x 2 CIS nodes x 1250
frame rates) through the structure-of-arrays vector engine and records
exploration throughput against two baselines:

* the object path measured here, on a subsample of the same grid
  (``speedup_vs_object_measured``, asserted >= 10x outside smoke);
* the committed cold baseline from the repo-root ``BENCH_explore.json``
  (``speedup_vs_committed_baseline`` — the 50x target).

Cold passes run against fresh sessions with warmed imports and take the
best of five, because a points/sec headline should measure the engine,
not the host's scheduling noise.  The object/vector equivalence that
makes the comparison meaningful is asserted here too: both engines must
produce JSON-identical documents on the subsample.

``REPRO_BENCH_SMOKE=1`` shrinks the grid to 16 points and drops the
speedup assertion; the engine-counter and equivalence assertions hold
in both modes.
"""

import json
import pathlib
import time

from repro.api import Simulator
from repro.explore import choice, explore, linspace, product

#: The three objectives the Sec. 6 exploration trades off.
_OBJECTIVES = ("energy_per_frame", "power_density", "latency")

#: The committed object-path cold baseline this bench compares against.
_BASELINE_PATH = pathlib.Path(__file__).parent.parent / "BENCH_explore.json"

_COLD_ROUNDS = 5


def _space(smoke: bool):
    nodes = [65] if smoke else [130, 65]
    # Every Ed-Gaze design fits its digital pipeline below ~509 FPS, so
    # the whole frame-rate axis stays feasible and every point lands in
    # a same-design vector group.
    rates = linspace("options.frame_rate", 15.0, 480.0,
                     4 if smoke else 1250)
    return product(
        choice("placement", ["2D-In", "2D-Off", "3D-In", "3D-In-STT"]),
        choice("cis_node", nodes), rates)


def _subsample_space(smoke: bool):
    """A small same-shape grid for the measured object baseline."""
    nodes = [65] if smoke else [130, 65]
    rates = linspace("options.frame_rate", 15.0, 480.0,
                     4 if smoke else 25)
    return product(
        choice("placement", ["2D-In", "2D-Off", "3D-In", "3D-In-STT"]),
        choice("cis_node", nodes), rates)


def _cold_explore(space, engine):
    simulator = Simulator()
    started = time.perf_counter()
    result = explore(space, "edgaze", objectives=_OBJECTIVES,
                     simulator=simulator, engine=engine)
    return result, time.perf_counter() - started


def _committed_baseline():
    try:
        payload = json.loads(_BASELINE_PATH.read_text())
        return float(payload["points_per_s_cold"])
    except (OSError, KeyError, TypeError, ValueError):
        return None


def test_vector_throughput(benchmark, write_result, write_bench_json,
                           bench_smoke):
    space = _space(bench_smoke)
    points = len(space)

    # Warm imports and usecase builders so the cold passes time the
    # engine, not one-time module setup (the committed baseline was
    # likewise measured in a warm process).
    explore(_subsample_space(True), "edgaze", objectives=_OBJECTIVES)

    cold_runs = []
    vector = None
    for _ in range(_COLD_ROUNDS):
        vector, wall_s = _cold_explore(space, "auto")
        cold_runs.append(wall_s)
    cold_best = min(cold_runs)
    vector_rate = points / cold_best if cold_best else float("inf")

    # Every point must have taken the vector path — a silent fallback
    # would benchmark the wrong engine.
    assert vector.engines == {"vectorized": points, "fallback": 0}
    assert len(vector.feasible_points) == points

    # Measured object baseline on a subsample of the same shape.
    sample = _subsample_space(bench_smoke)
    object_result, object_s = _cold_explore(sample, "object")
    object_rate = len(sample) / object_s if object_s else float("inf")
    speedup_measured = vector_rate / object_rate if object_rate else 0.0

    # The speedup claim rests on equivalence: on the subsample, the two
    # engines must serialize identically (engines tally aside).
    vector_sample, _ = _cold_explore(sample, "vector")
    document_object = object_result.to_dict()
    document_vector = vector_sample.to_dict()
    document_object.pop("engines")
    document_vector.pop("engines")
    assert document_vector == document_object

    baseline_rate = _committed_baseline()
    speedup_committed = (vector_rate / baseline_rate
                         if baseline_rate else None)

    # The benchmarked quantity: a cold vectorized exploration.
    benchmark.pedantic(_cold_explore, args=(space, "auto"), rounds=2,
                       iterations=1)

    lines = ["Vectorized exploration — Ed-Gaze grid, SoA fast path",
             f"{'points':<28} {points}",
             f"{'objectives':<28} {len(_OBJECTIVES)}",
             f"{'cold wall-clock (best)':<28} {cold_best * 1e3:8.2f} ms  "
             f"({vector_rate:.1f} points/s)",
             f"{'cold runs':<28} "
             + ", ".join(f"{run * 1e3:.1f} ms" for run in cold_runs),
             f"{'object subsample':<28} {len(sample)} points  "
             f"({object_rate:.1f} points/s)",
             f"{'speedup vs object':<28} {speedup_measured:8.1f}x"]
    if speedup_committed is not None:
        lines.append(f"{'speedup vs committed':<28} "
                     f"{speedup_committed:8.1f}x  "
                     f"(baseline {baseline_rate:.1f} points/s)")
    write_result("vector", "\n".join(lines))

    benchmark.extra_info["points_per_s_vector"] = round(vector_rate, 1)
    benchmark.extra_info["points_per_s_object"] = round(object_rate, 1)
    benchmark.extra_info["speedup_vs_object"] = round(speedup_measured, 1)

    write_bench_json("vector", {
        "points": points,
        "objectives": list(_OBJECTIVES),
        "engines": dict(vector.engines),
        "cold_wall_s_best": cold_best,
        "cold_wall_s_runs": cold_runs,
        "points_per_s_vector": vector_rate,
        "object_sample_points": len(sample),
        "object_wall_s": object_s,
        "points_per_s_object": object_rate,
        "speedup_vs_object_measured": speedup_measured,
        "committed_baseline_points_per_s": baseline_rate,
        "speedup_vs_committed_baseline": speedup_committed,
        "equivalence_points_checked": len(sample),
        "equivalence_identical": True,
    })

    if not bench_smoke:  # smoke jobs never fail on wall-clock noise
        assert speedup_measured >= 10.0
