"""The in-process executor backends: ``inline``, ``thread``, ``process``.

These wrap what :meth:`repro.api.Simulator.run_many` used to hard-code:
the thread-pool drain loops with per-task deadlines, and the windowed,
self-healing process-pool runner with crash quarantine.  ``inline`` is
the degenerate backend — sequential execution in the calling thread
with the same retry semantics — useful for debugging, deterministic
profiling, and as the coordinator's degraded mode when no distributed
worker ever connects.

All three produce bit-identical results for the same batch; only the
parallelism (and therefore the wall clock and ``workers_used``) differs.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as futures_wait
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.api.design import Design
from repro.api.result import SimOptions, SimResult
from repro.exceptions import ExecutionTimeoutError, WorkerCrashError
from repro.exec.base import (UNCACHED, SimulationExecutor,
                             cacheable_result)
from repro.resilience.policy import QUARANTINE_THRESHOLD, classify


class InlineExecutor(SimulationExecutor):
    """Sequential execution in the calling thread.

    Same cache, retry, and backoff behavior as the thread backend —
    just without a pool, so results are bit-identical while execution
    order is the batch's key order and ``workers_used`` is exactly 1.
    """

    name = "inline"

    def run_pending(self, session, pending, max_workers, worker_ids,
                    counters) -> Dict[Any, SimResult]:
        policy = session._retry
        outcomes: Dict[Any, SimResult] = {}
        for key, (design, resolved) in pending.items():
            worker_ids.add(threading.get_ident())
            attempt = 0
            while True:
                result = session._run_resolved(design, resolved,
                                               probe_disk=False,
                                               attempt=attempt)
                if result.ok or result.cached:
                    break
                if attempt + 1 >= policy.max_attempts \
                        or not policy.retryable(classify(result.error)):
                    break
                counters.add("retries")
                time.sleep(policy.backoff_s(attempt, key))
                attempt += 1
            outcomes[key] = result
        return outcomes


class ThreadExecutor(SimulationExecutor):
    """Drain the batch on the session's persistent thread pool.

    The batch becomes a queue of per-key futures drained by at most
    ``max_workers`` loops on the pool, not one pool task per job.
    Simulation is pure Python, so under a GIL extra threads only
    contend for it: an unset ``max_workers`` means one loop there
    (:meth:`default_width`), the old multi-worker width on
    free-threaded builds.
    """

    name = "thread"

    def default_width(self) -> int:
        if getattr(sys, "_is_gil_enabled", lambda: True)():
            return 1
        return super().default_width()

    def pool_width_floor(self, session) -> int:
        return session._thread_pool_width or 0

    def run_pending(self, session, pending, max_workers, worker_ids,
                    counters) -> Dict[Any, SimResult]:
        policy = session._retry

        def job(key: Any, design: Design,
                resolved: SimOptions) -> SimResult:
            worker_ids.add(threading.get_ident())
            attempt = 0
            while True:
                # The batch already disk-probed this key; see
                # Simulator._run_resolved.
                result = session._run_resolved(design, resolved,
                                               probe_disk=False,
                                               attempt=attempt)
                if result.ok or result.cached:
                    return result
                if attempt + 1 >= policy.max_attempts \
                        or not policy.retryable(classify(result.error)):
                    return result
                counters.add("retries")
                time.sleep(policy.backoff_s(attempt, key))
                attempt += 1

        futures = {key: Future() for key in pending}
        queue = deque(futures.items())
        started: Dict[Any, float] = {}
        #: Bumped when a wedged pool is retired and when the harvest
        #: ends: stale loops stop taking work once their task returns.
        generation = [0]

        def drain(mine: int) -> None:
            while generation[0] == mine:
                try:
                    key, future = queue.popleft()
                except IndexError:
                    return
                if not future.set_running_or_notify_cancel():
                    continue
                started[key] = time.monotonic()
                try:
                    future.set_result(job(key, *pending[key]))
                except BaseException as error:
                    future.set_exception(error)

        def abandon(loop: Future) -> None:
            # The session closed with cancel_pending before this loop
            # ran: cancel the queued tasks, as the pool would have.
            if loop.cancelled():
                for _, future in queue.copy():
                    future.cancel()

        def launch():
            with session._pools_lock:
                pool = session._acquire_pool("thread", max_workers)
                for _ in range(min(max_workers, len(queue))):
                    pool.submit(drain, generation[0]) \
                        .add_done_callback(abandon)
            return pool

        # A running thread cannot be interrupted, so a task's deadline
        # (from the moment it starts, retries included) is enforced at
        # harvest: a late task is reported as a typed timeout, its pool
        # is retired so the rest of the queue drains on a fresh one,
        # and the stray thread finishes in the background (its result
        # is dropped here).
        pool = launch()
        outcomes: Dict[Any, SimResult] = {}
        try:
            for key, future in futures.items():
                if policy.timeout_s is None:
                    outcomes[key] = future.result()
                    continue
                while True:
                    begun = started.get(key)
                    wait_s = policy.timeout_s if begun is None \
                        else begun + policy.timeout_s - time.monotonic()
                    try:
                        outcomes[key] = future.result(
                            timeout=max(wait_s, 0.0))
                    except FuturesTimeoutError:
                        if begun is None:
                            continue  # queued: its deadline has not begun
                        counters.add("timeouts")
                        design, resolved = pending[key]
                        design_hash = key[0] if key[0] is not UNCACHED \
                            else None
                        outcomes[key] = SimResult(
                            design_name=design.name, options=resolved,
                            design_hash=design_hash,
                            error=ExecutionTimeoutError(
                                f"task {design.name!r} exceeded the "
                                f"{policy.timeout_s:g}s deadline"),
                            elapsed_s=policy.timeout_s)
                        counters.add("pool_rebuilds")
                        generation[0] += 1
                        session._retire_pool("thread", pool)
                        if queue:
                            pool = launch()
                    break
        finally:
            # An interrupted harvest (Ctrl-C) leaves nobody to collect
            # the rest of the queue: stop the loops instead.
            generation[0] += 1
        return outcomes


class ProcessExecutor(SimulationExecutor):
    """Fan cache-missing jobs out as serialized payloads.

    Workers live as long as the session: the pool initializer runs
    once per worker process (not per batch), and every batch after
    the first reuses the already-warm workers.

    Submission is *windowed* — at most ``max_workers`` tasks are in
    flight — which is what makes worker deaths survivable: when a
    dead worker poisons the executor (``BrokenProcessPool``), the
    suspect set is exactly the in-flight window.  The pool is
    rebuilt, the suspects are re-queued, and a task implicated in
    :data:`~repro.resilience.policy.QUARANTINE_THRESHOLD` pool
    deaths is failed with a typed
    :class:`~repro.exceptions.WorkerCrashError` result instead of
    sinking the whole batch.  Transient failures re-queue under the
    retry policy's backoff; a per-attempt deadline expiry retires
    the pool (reclaiming the hung slot; the stuck worker process is
    abandoned and exits with its task).
    """

    name = "process"
    requires_serializable = True

    def pool_width_floor(self, session) -> int:
        return session._process_pool_width or 0

    def run_pending(self, session, pending, max_workers, worker_ids,
                    counters) -> Dict[Any, SimResult]:
        policy = session._retry
        outcomes: Dict[Any, SimResult] = {}
        if session._cache_enabled:
            with session._lock:
                session._cache_misses += len(pending)

        #: Work queue entries are (key, design, options, attempt).
        ready = deque((key, design, resolved, 0)
                      for key, (design, resolved) in pending.items())
        #: Backoff parking lot: (ready_at, key, design, options, attempt).
        delayed: List[Tuple] = []
        #: Pool deaths each key has been implicated in.
        crashes: Dict[Any, int] = {}
        #: future -> (key, design, options, attempt, started_at).
        in_flight: Dict[Any, Tuple] = {}
        #: Heal rounds that neither settled nor implicated anything —
        #: a pool that cannot even start is not healable by rebuilding.
        barren_rebuilds = 0

        def settle(entry, pid, result) -> None:
            key, design, resolved, attempt = entry[:4]
            worker_ids.add(pid)
            result = replace(result, design_hash=key[0])
            if not result.ok and policy.retryable(classify(result.error)) \
                    and attempt + 1 < policy.max_attempts:
                counters.add("retries")
                delayed.append((
                    time.monotonic() + policy.backoff_s(attempt, key),
                    key, design, resolved, attempt + 1))
                return
            if session._cache_enabled and cacheable_result(result):
                session._store(key, result)
            outcomes[key] = result

        while ready or delayed or in_flight:
            _promote_due(delayed, ready)
            broken: Optional[BaseException] = None

            # Fill the in-flight window from the ready queue.  A crash
            # suspect (implicated in a previous pool death) reruns
            # *alone* in the window: if it kills its worker again the
            # blast radius is just itself, so innocent neighbours are
            # never implicated twice into quarantine by riding along.
            try:
                with session._pools_lock:
                    pool = session._acquire_pool("process", max_workers)
                    solo = any(crashes.get(entry[0])
                               for entry in in_flight.values())
                    while ready and not solo \
                            and len(in_flight) < max_workers:
                        key, design, resolved, attempt = ready[0]
                        if crashes.get(key):
                            if in_flight:
                                break  # wait for the window to drain
                            solo = True
                        future = pool.submit(
                            _subprocess_job, design.to_dict(), resolved,
                            attempt, key[0])
                        ready.popleft()
                        in_flight[future] = (key, design, resolved,
                                             attempt, time.monotonic())
            except BrokenExecutor as error:
                broken = error

            if broken is None and not in_flight:
                # Everything left is waiting out a backoff delay.
                if delayed:
                    time.sleep(max(
                        min(entry[0] for entry in delayed)
                        - time.monotonic(), 0.0))
                continue

            if broken is None:
                # Wake on the first completion — or in time to promote
                # delayed work / expire the nearest per-attempt deadline.
                wait_s = 0.05 if delayed else None
                if policy.timeout_s is not None:
                    slack = max(
                        min(entry[4] for entry in in_flight.values())
                        + policy.timeout_s - time.monotonic(), 0.0)
                    wait_s = slack if wait_s is None \
                        else min(wait_s, slack)
                done, _ = futures_wait(set(in_flight), timeout=wait_s,
                                       return_when=FIRST_COMPLETED)
                for future in done:
                    entry = in_flight.pop(future)
                    try:
                        pid, result = future.result()
                    except BrokenExecutor as error:
                        broken = error
                        # This future's task was in flight when the
                        # worker died: it is a suspect like the rest.
                        in_flight[future] = entry
                        break
                    settle(entry, pid, result)
                    barren_rebuilds = 0
                if broken is None and done:
                    continue
                if broken is None and policy.timeout_s is not None:
                    expired = self._expire_attempts(
                        session, in_flight, pool, policy, counters,
                        ready, outcomes)
                    if expired:
                        continue
                if broken is None:
                    continue

            # --- heal a broken pool -----------------------------------
            # Every in-flight future is either already failed with
            # BrokenProcessPool or carries a result computed before the
            # death; drain both kinds, then rebuild.
            suspects = []
            for future in list(in_flight):
                entry = in_flight.pop(future)
                try:
                    pid, result = future.result(timeout=1.0)
                except (BrokenExecutor, FuturesTimeoutError, OSError):
                    suspects.append(entry)
                    continue
                settle(entry, pid, result)
                barren_rebuilds = 0
            counters.add("pool_rebuilds")
            stale = session._process_pool
            if stale is not None:
                session._retire_pool("process", stale)
            if suspects:
                barren_rebuilds = 0
            else:
                barren_rebuilds += 1
                if barren_rebuilds > 3:
                    # Rebuilding is not helping (workers die before
                    # taking any work): surface the infrastructure
                    # failure instead of spinning forever.
                    raise broken
            for entry in suspects:
                key, design, resolved, attempt = entry[:4]
                count = crashes.get(key, 0) + 1
                crashes[key] = count
                if count >= QUARANTINE_THRESHOLD:
                    counters.add("quarantined")
                    outcomes[key] = SimResult(
                        design_name=design.name, options=resolved,
                        design_hash=key[0],
                        error=WorkerCrashError(
                            f"design {design.name!r} was in flight for "
                            f"{count} worker-process deaths and is "
                            f"quarantined"))
                else:
                    # Re-queue on the healed pool.  The bumped attempt
                    # number also tells the fault injector this is a
                    # retry, so kill_rate faults (first attempt only by
                    # default) let recovery be measured.
                    ready.append((key, design, resolved, attempt + 1))
        return outcomes

    def _expire_attempts(self, session, in_flight, pool, policy,
                         counters, ready, outcomes) -> bool:
        """Time out in-flight attempts past the per-attempt deadline.

        Process mode cannot interrupt a busy worker either — but it can
        retire the whole pool, which reclaims the hung slot for the
        rebuilt pool while the abandoned worker process dies with its
        task.  Non-expired in-flight futures stay harvestable: a pool
        shutdown without cancellation lets running tasks finish.
        """
        now = time.monotonic()
        expired = [future for future, entry in in_flight.items()
                   if now - entry[4] >= policy.timeout_s]
        if not expired:
            return False
        for future in expired:
            key, design, resolved, attempt = in_flight.pop(future)[:4]
            future.cancel()
            counters.add("timeouts")
            if policy.retry_timeouts and attempt + 1 < policy.max_attempts:
                counters.add("retries")
                ready.append((key, design, resolved, attempt + 1))
            else:
                outcomes[key] = SimResult(
                    design_name=design.name, options=resolved,
                    design_hash=key[0],
                    error=ExecutionTimeoutError(
                        f"task {design.name!r} exceeded the "
                        f"{policy.timeout_s:g}s per-attempt deadline"),
                    elapsed_s=policy.timeout_s)
        counters.add("pool_rebuilds")
        session._retire_pool("process", pool)
        return True


def _promote_due(delayed: List[Tuple], ready: deque) -> None:
    """Move backoff entries whose delay has elapsed onto the ready queue."""
    now = time.monotonic()
    due = [entry for entry in delayed if entry[0] <= now]
    if not due:
        return
    delayed[:] = [entry for entry in delayed if entry[0] > now]
    due.sort(key=lambda entry: entry[0])
    for _, key, design, resolved, attempt in due:
        ready.append((key, design, resolved, attempt))


def _init_worker() -> None:
    """Process-pool initializer: warm each worker exactly once.

    Runs when a worker process starts — not per batch — and the state it
    creates (imported engine modules, populated caches) persists for the
    session's lifetime, which is what makes pool reuse pay off in
    ``executor="process"`` mode.

    Fork-started workers also inherit the parent's signal plumbing.
    Under an asyncio host (the serve daemon), that includes the event
    loop's wakeup fd — a socketpair *shared* with the parent — so a
    SIGTERM delivered to a worker (e.g. by the executor terminating
    siblings while healing a crashed pool) would echo into the parent's
    loop and be handled as the daemon's own shutdown signal.  Detach
    the wakeup fd and restore default dispositions so signals aimed at
    a worker stay in that worker.
    """
    import signal

    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass
    import repro.api.design  # noqa: F401  (pulls in the whole engine)
    import repro.sim.simulator  # noqa: F401


def _subprocess_job(payload: Dict[str, Any], options: SimOptions,
                    attempt: int = 0,
                    design_hash: Optional[str] = None
                    ) -> Tuple[int, SimResult]:
    """Worker body of the process executor: rebuild, simulate, return.

    The design travels as its serialized payload (always picklable),
    so worker processes never depend on pickling user-built objects.
    ``attempt`` reaches the fault injector (inherited via the
    environment), which is how retried tasks stop being re-killed;
    ``design_hash`` travels alongside so the injector keys its
    decisions on the same content identity in every executor mode
    instead of degrading to the (possibly shared) design name.
    """
    from repro.api.simulator import Simulator

    design = Design.from_dict(payload)
    key = (design_hash, options) if design_hash is not None else None
    result = Simulator(cache=False)._execute(design, options, key,
                                             attempt=attempt)
    return os.getpid(), result
