"""Batch-API benchmark: ``Simulator.run_many`` vs a sequential loop.

Runs the Fig. 9a rhythmic configuration grid through the session API's
parallel batch path and through a plain sequential loop over the legacy
``simulate()`` wrapper, comparing wall-clock and asserting the results
are identical.  Guards the batch path against regressions: dedup and
caching must keep ``run_many`` competitive with the hand-rolled loop
even on a single core, and a warm cache must make repeat batches
near-free.
"""

import time

from repro import simulate, units
from repro.api import Simulator
from repro.usecases import build_rhythmic, rhythmic_configs

#: A single-core box gains nothing from thread fan-out; the guard only
#: rejects pathological overhead in the batch machinery itself.  Kept
#: deliberately loose (plus a constant startup allowance below) because
#: both sides are millisecond-scale and shared CI runners are noisy.
_MAX_ACCEPTABLE_SLOWDOWN = 5.0
#: Constant allowance for thread-pool startup on tiny workloads.
_STARTUP_SLACK_S = 0.25


def _designs():
    return [build_rhythmic(config) for config in rhythmic_configs()]


def _run_sequential(designs):
    return [simulate(*design, frame_rate=30.0) for design in designs]


def _run_batched_cold(designs):
    # A fresh session per round: pedantic must measure the cold batch
    # path, not cache lookups against a session reused across rounds.
    # Two workers, explicitly: the default width is 1 under a GIL.
    return Simulator(max_workers=2).run_many(designs)


def test_batch_api_matches_and_keeps_pace(benchmark, write_result,
                                          write_bench_json, bench_smoke):
    designs = _designs()

    started = time.perf_counter()
    sequential = _run_sequential(designs)
    sequential_s = time.perf_counter() - started

    cold = Simulator(max_workers=2)
    started = time.perf_counter()
    batched = cold.run_many(designs)
    batch_cold_s = time.perf_counter() - started
    stats = cold.last_batch_stats

    started = time.perf_counter()
    warm = cold.run_many(designs)
    batch_warm_s = time.perf_counter() - started
    warm_stats = cold.last_batch_stats

    # The benchmarked quantity: a cold batch through the session API.
    benchmark.pedantic(_run_batched_cold, args=(designs,),
                       rounds=3, iterations=1)

    # Identical scenarios, identical energies, input order preserved.
    assert [r.design_name for r in batched] == [d.name for d in designs]
    assert all(result.ok for result in batched)
    for direct, result in zip(sequential, batched):
        assert result.report.total_energy == direct.total_energy
    assert all(result.cached for result in warm)

    speedup = sequential_s / batch_cold_s if batch_cold_s else float("inf")
    warm_speedup = sequential_s / batch_warm_s if batch_warm_s \
        else float("inf")

    lines = ["Batch API — Simulator.run_many vs sequential loop "
             "(Fig. 9a rhythmic grid)",
             f"{'configs':<28} {len(designs)}",
             f"{'sequential wall-clock':<28} {sequential_s * 1e3:8.2f} ms",
             f"{'run_many cold wall-clock':<28} {batch_cold_s * 1e3:8.2f} ms"
             f"  ({speedup:.2f}x vs sequential)",
             f"{'run_many warm wall-clock':<28} {batch_warm_s * 1e3:8.2f} ms"
             f"  ({warm_speedup:.2f}x vs sequential, all cache hits)",
             f"{'pool width':<28} {stats.max_workers}",
             "",
             f"{'config':<18} {'total/frame':>12}"]
    for design, result in zip(designs, batched):
        lines.append(
            f"{design.name:<18} "
            f"{units.format_energy(result.report.total_energy):>12}")
    write_result("batch_api", "\n".join(lines))

    benchmark.extra_info["speedup_cold"] = round(speedup, 2)
    benchmark.extra_info["speedup_warm"] = round(warm_speedup, 2)
    benchmark.extra_info["max_workers"] = stats.max_workers

    cache_info = cold.cache_info()
    write_bench_json("batch_api", {
        "configs": len(designs),
        "sequential_wall_s": sequential_s,
        "run_many_cold_wall_s": batch_cold_s,
        "run_many_warm_wall_s": batch_warm_s,
        "speedup_cold": speedup,
        "speedup_warm": warm_speedup,
        "max_workers": stats.max_workers,
        "workers_used_cold": stats.workers_used,
        "workers_used_warm": warm_stats.workers_used,
        "cache_hits": cache_info.hits,
        "cache_misses": cache_info.misses,
        "cache_size": cache_info.size,
    })

    # Regression guards: the batch machinery must not dominate the work.
    # Cache effectiveness is asserted structurally (every warm result is
    # a hit and no pool is spun up for it) rather than by comparing two
    # millisecond-scale timings, which is flaky on shared CI runners.
    if not bench_smoke:  # smoke jobs never fail on wall-clock noise
        assert batch_cold_s < _MAX_ACCEPTABLE_SLOWDOWN * sequential_s \
            + _STARTUP_SLACK_S
    assert stats.max_workers >= 2
    assert warm_stats.cache_hits == len(designs)
    assert warm_stats.workers_used == 0  # warm batch never touches a pool
