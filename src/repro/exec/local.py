"""The local executor backends: ``inline``, ``thread``, ``process``.

``inline`` is the degenerate backend — sequential execution in the
calling thread — useful for debugging, deterministic profiling, and
as the coordinator's degraded mode when no distributed worker ever
connects.  ``thread`` drains a batch on the session's persistent thread
pool with per-task deadlines.  Both run each job through the session's
one attempt loop (:meth:`repro.api.Simulator._run_attempts`).

``process`` is the lease mechanism of :mod:`repro.exec.distributed`
with a local transport: the session's :class:`LocalFleet` of worker
processes, each a :class:`~repro.exec.worker.DispatchWorker` speaking
over a ``multiprocessing`` pipe, claims from a session-private
:class:`~repro.exec.queue.WorkQueue`.  Strikes, solo suspects and
quarantine live only in the queue; a killed local worker is just a
lost lease, and the fleet respawns it.

All three produce bit-identical results for the same batch; only the
parallelism (and therefore the wall clock and ``workers_used``) differs.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any, Dict, List, Optional

from repro.api.design import Design
from repro.api.result import SimOptions, SimResult
from repro.exceptions import WorkerCrashError
from repro.exec.base import UNCACHED, SimulationExecutor
from repro.exec.distributed import LeaseExecutor, timeout_result
from repro.exec.queue import DEFAULT_LEASE_TTL_S, WorkQueue


class InlineExecutor(SimulationExecutor):
    """Sequential execution in the calling thread.

    Same cache, retry, and backoff behavior as the thread backend —
    just without a pool, so results are bit-identical while execution
    order is the batch's key order and ``workers_used`` is exactly 1.
    """

    name = "inline"

    def run_pending(self, session, pending, max_workers, worker_ids,
                    counters) -> Dict[Any, SimResult]:
        outcomes: Dict[Any, SimResult] = {}
        worker_ids.add(threading.get_ident())
        for key, (design, resolved) in pending.items():
            # The batch already disk-probed this key; see
            # Simulator._run_resolved.
            outcomes[key], retries = session._run_attempts(
                design, resolved, probe_disk=False)
            if retries:
                counters.add("retries", retries)
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

        def job(design: Design, resolved: SimOptions) -> SimResult:
            worker_ids.add(threading.get_ident())
            # The batch already disk-probed this key; see
            # Simulator._run_resolved.
            result, retries = session._run_attempts(design, resolved,
                                                    probe_disk=False)
            if retries:
                counters.add("retries", retries)
            return result

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
                    future.set_result(job(*pending[key]))
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
                pool = session._acquire_pool(max_workers)
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
                        outcomes[key] = timeout_result(
                            *pending[key],
                            None if key[0] is UNCACHED else key[0],
                            policy.timeout_s)
                        counters.add("pool_rebuilds")
                        generation[0] += 1
                        session._retire_pool(pool)
                        if queue:
                            pool = launch()
                    break
        finally:
            # An interrupted harvest (Ctrl-C) leaves nobody to collect
            # the rest of the queue: stop the loops instead.
            generation[0] += 1
        return outcomes


class ProcessExecutor(LeaseExecutor):
    """Run batches on the session's :class:`LocalFleet`.

    Designs travel as serialized payloads, so workers never depend on
    pickling user-built objects.  Local workers claim one task at a
    time, so at most ``max_workers`` tasks are in flight.  An idle
    wake-up respawns lost workers and enforces the retry policy's
    deadline, which runs from the claim and covers the worker's local
    retries: the overrun task fails typed (or re-queues, when the
    policy retries timeouts) and its worker is killed and replaced.
    """

    name = "process"

    def pool_width_floor(self, session) -> int:
        return session._fleet.width if session._fleet is not None else 0

    def _queue(self, session, max_workers: int) -> WorkQueue:
        return session._local_fleet(max_workers).queue

    def run_pending(self, session, pending, max_workers, worker_ids,
                    counters) -> Dict[Any, SimResult]:
        outcomes = super().run_pending(session, pending, max_workers,
                                       worker_ids, counters)
        # Deaths behind this batch's last outcomes are its rebuilds too.
        counters.add("pool_rebuilds", session._fleet.heal())
        return outcomes

    def _tend(self, session, queue, unresolved, by_id, pending,
              max_workers, worker_ids, counters):
        fleet = session._local_fleet(max_workers)
        respawned = fleet.heal()
        counters.add("pool_rebuilds", respawned)
        policy = session._retry
        overdue = []
        if policy.timeout_s is not None:
            overdue = queue.expire_deadlines(
                policy.timeout_s, unresolved,
                policy.max_attempts if policy.retry_timeouts else 1)
        for _, worker_id, requeued in overdue:
            fleet.replace(worker_id)
            counters.add("timeouts")
            counters.add("retries", int(requeued))
            counters.add("pool_rebuilds")
        return {} if respawned or overdue else None


#: How long the session holds an idle worker's empty claim open.
CLAIM_WAIT_S = 0.5

#: Respawns in a row of workers that died holding no lease, with no
#: task completed, after which the fleet gives up instead of spinning.
BARREN_RESPAWN_LIMIT = 3


class _LocalWorker:
    """One worker process and the session's end of its pipe."""

    def __init__(self, process, connection) -> None:
        self.process = process
        self.connection = connection
        self.worker_id: Optional[str] = None
        self.dismissed = False
        self.struck = 0  # leases its death struck
        self.lost = False


class LocalFleet:
    """The ``process`` backend's worker processes and their work queue.

    Each worker runs a :class:`~repro.exec.worker.DispatchWorker` on a
    :class:`~repro.exec.worker.PipeClient`, with the session's retry
    policy and disk tier, started by the default ``multiprocessing``
    method (so fork-started workers inherit the fault injector).  One
    session thread per worker serves its pipe against :attr:`queue`;
    when the pipe closes the worker's leases are struck at once and
    :meth:`heal` respawns it.  The queue outlives :meth:`shutdown`, so a
    batch in flight resumes on a regrown fleet.
    """

    def __init__(self, retry, cache_dir, cache_max_bytes) -> None:
        # Loaded here, not at import: forked workers inherit them.
        import multiprocessing.connection  # noqa: F401
        import repro.exec.worker  # noqa: F401

        self.queue = WorkQueue(DEFAULT_LEASE_TTL_S,
                               DEFAULT_LEASE_TTL_S / 3.0)
        self._settings = (retry, cache_dir, cache_max_bytes)
        self._lock = threading.Lock()
        self._workers: List[_LocalWorker] = []
        self._barren = 0

    @property
    def width(self) -> int:
        return len(self._workers)

    def pids(self) -> List[int]:
        with self._lock:
            return [worker.process.pid for worker in self._workers]

    def grow(self, width: int) -> None:
        with self._lock:
            while len(self._workers) < width:
                self._workers.append(self._spawn())

    def heal(self) -> int:
        """Respawn every lost worker; returns how many."""
        with self._lock:
            lost = [index for index, worker in enumerate(self._workers)
                    if worker.lost]
            for index in lost:
                if self._workers[index].struck:
                    self._barren = 0
                elif self._barren == BARREN_RESPAWN_LIMIT:
                    self._barren = 0
                    raise WorkerCrashError(
                        "local worker processes keep dying before "
                        "taking any work")
                else:
                    self._barren += 1
                self._workers[index] = self._spawn()
            return len(lost)

    def replace(self, worker_id: str) -> None:
        """Kill the worker registered as ``worker_id``; start another."""
        with self._lock:
            for index, worker in enumerate(self._workers):
                if worker.worker_id == worker_id:
                    worker.process.kill()
                    self._workers[index] = self._spawn()

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        """Dismiss every worker after its current task, like a pool
        shutdown; ``cancel_futures`` kills them mid-task instead."""
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.dismissed = True
            if cancel_futures:
                worker.process.kill()
        if wait:  # else idle workers leave at their next claim
            self.queue.wake_claimers()
            for worker in workers:
                worker.process.join()

    def _spawn(self) -> _LocalWorker:
        import multiprocessing

        session_end, worker_end = multiprocessing.Pipe()
        # A forked worker inherits the session's ends of its own pipe
        # and its siblings'; it closes them so that the session's death
        # reaches every worker as EOF.
        session_ends = [session_end] + [
            worker.connection for worker in self._workers
            if not worker.connection.closed]
        process = multiprocessing.Process(
            target=_worker_main,
            args=(worker_end, session_ends, self._settings),
            name="repro-worker", daemon=True)
        process.start()
        worker_end.close()  # EOF here once the worker is gone
        worker = _LocalWorker(process, session_end)
        threading.Thread(target=self._serve, args=(worker,),
                         name="repro-fleet-pipe", daemon=True).start()
        return worker

    def _serve(self, worker: _LocalWorker) -> None:
        """Answer one worker's protocol calls until it is gone."""
        from multiprocessing.connection import wait

        queue, connection = self.queue, worker.connection
        try:
            while connection in wait(
                    [connection, worker.process.sentinel]):
                action, body = connection.recv()
                worker_id = body.get("worker_id")
                try:
                    if action == "claim":
                        reply = {"tasks": None if worker.dismissed
                                 else queue.claim(worker_id,
                                                  body["max_tasks"],
                                                  wait_s=CLAIM_WAIT_S)}
                    elif action == "complete":
                        reply = queue.complete(worker_id, body["results"])
                        if reply["accepted"]:
                            self._barren = 0
                    elif action == "heartbeat":
                        reply = queue.heartbeat(worker_id,
                                                body["task_ids"])
                    elif action == "register":
                        reply = queue.register_worker(body)
                        worker.worker_id = reply["worker_id"]
                    else:
                        reply = queue.deregister_worker(worker_id)
                    connection.send((True, reply))
                except KeyError:
                    connection.send((False, worker_id))
        except (EOFError, OSError):
            pass  # the worker died mid-exchange
        finally:
            connection.close()
            # Under the fleet lock, so a heal that follows the outcomes
            # this strike produces always finds the worker lost.
            with self._lock:
                if worker.worker_id is not None:
                    worker.struck = queue.lose_worker(worker.worker_id)
                worker.lost = True


def _worker_main(connection, session_ends, settings) -> None:
    """Entry point of one local worker process.

    Fork-started workers inherit the parent's signal plumbing.  Under
    an asyncio host (the serve daemon), that includes the event loop's
    wakeup fd — a socketpair *shared* with the parent — so a signal
    delivered to a worker would echo into the parent's loop and be
    handled as the daemon's own shutdown signal.  Detach the wakeup fd
    and restore default dispositions so signals aimed at a worker stay
    in that worker.
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
    for session_end in session_ends:
        session_end.close()
    from repro.api.simulator import Simulator
    from repro.exec.worker import DispatchWorker, PipeClient

    retry, cache_dir, cache_max_bytes = settings
    simulator = Simulator(executor="inline", cache=cache_dir is not None,
                          cache_dir=cache_dir,
                          cache_max_bytes=cache_max_bytes, retry=retry)
    try:
        DispatchWorker(PipeClient(connection), simulator, batch_size=1,
                       announce=False).run()
    except EOFError:
        pass  # the session is gone
