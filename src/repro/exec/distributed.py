"""Lease executors: batches harvested from a lease-based work queue.

:class:`LeaseExecutor` turns one ``run_many`` batch into tasks on a
:class:`~repro.exec.queue.WorkQueue`, then harvests outcomes as workers
claim, execute, and complete them — the one fault-tolerance mechanism
behind two backends.  :class:`DistributedExecutor` shares its queue
with the serve daemon's dispatch HTTP endpoints, which ``repro worker``
processes call (one instance serves the daemon's concurrent batches);
:class:`~repro.exec.local.ProcessExecutor` hands a session-private
queue to the session's own worker processes over pipes.

Robustness model (see :mod:`repro.exec.queue` for the lease protocol):

* lease expiries surface here as re-dispatches the executor counts in
  ``BatchStats.lease_expiries``; a task quarantined after
  :data:`~repro.resilience.policy.QUARANTINE_THRESHOLD` expiries comes
  back as a typed :class:`~repro.exceptions.WorkerCrashError` result —
  a poison task fails loudly instead of cycling forever;
* the ``distributed`` coordinator **degrades to local execution**
  rather than hang: if no worker ever connects within the fallback
  window, or every registered worker has gone silent with no leases
  left to wait out, the still-pending tasks are withdrawn from the
  queue and run through the ordinary thread backend in-process;
* completed results are stored to the session's *memory* cache tier
  only — the worker already wrote the shared disk tier, and writing it
  again from the coordinator would double the I/O on every point.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.api.result import SimResult
from repro.exceptions import ExecutionTimeoutError, WorkerCrashError
from repro.exec.base import SimulationExecutor
from repro.exec.queue import WorkQueue

#: How long the harvest loop sleeps between progress checks.  Wakeups
#: also arrive via the queue's condition on every completion, so this
#: bounds only the latency of lease-expiry sweeps.
POLL_S = 0.05


def timeout_result(design, options, design_hash: Optional[str],
                   timeout_s: float) -> SimResult:
    """The typed result of a task that overran its deadline."""
    return SimResult(design_name=design.name, options=options,
                     design_hash=design_hash,
                     error=ExecutionTimeoutError(
                         f"task {design.name!r} exceeded the "
                         f"{timeout_s:g}s deadline"),
                     elapsed_s=timeout_s)


class LeaseExecutor(SimulationExecutor):
    """Enqueue, collect, settle; subclasses pick the queue
    (:meth:`_queue`) and act on idle wake-ups (:meth:`_tend`)."""

    requires_serializable = True
    poll_s = POLL_S

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._batch_seq = 0

    def _queue(self, session, max_workers: int) -> WorkQueue:
        raise NotImplementedError

    def _tend(self, session, queue: WorkQueue, unresolved: List[str],
              by_id: Dict[str, Any], pending, max_workers: int,
              worker_ids: set, counters) -> Optional[Dict[str, SimResult]]:
        """Act on an idle wake-up: ``None`` if nothing changed, else
        ``{task_id: result}`` for tasks resolved outside the queue."""
        return None

    def run_pending(self, session, pending, max_workers, worker_ids,
                    counters) -> Dict[Any, SimResult]:
        queue = self._queue(session, max_workers)
        with self._lock:
            batch = self._batch_seq
            self._batch_seq += 1

        by_id: Dict[str, Any] = {}
        tasks = []
        for index, (key, (design, resolved)) in enumerate(pending.items()):
            task_id = f"b{batch}-{index}"
            by_id[task_id] = key
            tasks.append({"task_id": task_id,
                          "design": design.to_dict(),
                          "options": resolved.to_dict(),
                          "design_hash": key[0],
                          "attempt": 0})
        queue.enqueue(tasks)

        outcomes: Dict[Any, SimResult] = {}
        unresolved = set(by_id)
        try:
            while unresolved:
                expired = queue.expire_leases()
                if expired:
                    counters.add("lease_expiries", expired)
                harvested = queue.collect(list(unresolved))
                for task_id, outcome in harvested.items():
                    key = by_id[task_id]
                    outcomes[key] = self._settle(session, key, pending[key],
                                                 outcome, worker_ids,
                                                 counters)
                    unresolved.discard(task_id)
                if harvested or expired:
                    continue  # more may already be ready — do not sleep
                local = self._tend(session, queue, list(unresolved),
                                   by_id, pending, max_workers, worker_ids,
                                   counters)
                if local is not None:
                    for task_id, result in local.items():
                        outcomes[by_id[task_id]] = result
                        unresolved.discard(task_id)
                    continue
                queue.wait_progress(self.poll_s)
        finally:
            # An interrupted batch must not leave work for the next one.
            queue.withdraw(list(unresolved))
        return outcomes

    def _settle(self, session, key, job, outcome, worker_ids,
                counters) -> SimResult:
        design, resolved = job
        state = outcome["state"]
        if state == "done":
            worker_ids.add(outcome["worker"])
            if outcome.get("retries"):
                counters.add("retries", outcome["retries"])
            result = replace(SimResult.from_dict(outcome["result"]),
                             design_hash=key[0])
        elif state == "timeout":
            result = timeout_result(design, resolved, key[0],
                                    outcome["timeout_s"])
        else:
            counters.add("quarantined")
            result = SimResult(
                design_name=design.name, options=resolved,
                design_hash=key[0],
                error=WorkerCrashError(
                    f"design {design.name!r} lost {outcome['strikes']} "
                    f"lease(s) to dead workers and is quarantined"))
        session._record_remote(key, result)
        return result


class DistributedExecutor(LeaseExecutor):
    """Execute batches through a lease-based remote work queue.

    Not name-registered: it needs its :class:`WorkQueue`, so sessions
    receive it as an instance — ``Simulator(executor=
    DistributedExecutor(queue))`` — which is exactly what
    ``repro serve --dispatch`` builds.

    ``fallback_after_s`` is the patience for the *first* worker to
    connect before batches degrade to local execution (default: one
    lease TTL).  Once any worker has registered, fallback instead
    triggers when no live worker remains and no outstanding lease is
    left to wait out.
    """

    name = "distributed"

    def __init__(self, queue: WorkQueue, *,
                 fallback_after_s: Optional[float] = None,
                 poll_s: float = POLL_S) -> None:
        from repro.exec.local import ThreadExecutor

        super().__init__()
        self.queue = queue
        if fallback_after_s is None:
            fallback_after_s = queue.lease_ttl_s
        self.fallback_after_s = float(fallback_after_s)
        self.poll_s = float(poll_s)
        self._local = ThreadExecutor()
        self._no_worker_deadline: Optional[float] = None

    def describe(self) -> Dict[str, Any]:
        doc = super().describe()
        doc["dispatch"] = self.queue.describe()
        return doc

    def _queue(self, session, max_workers: int) -> WorkQueue:
        with self._lock:
            if self._no_worker_deadline is None:
                self._no_worker_deadline = (time.monotonic()
                                            + self.fallback_after_s)
        return self.queue

    def _tend(self, session, queue, unresolved, by_id, pending,
              max_workers, worker_ids, counters):
        if not self._should_fall_back():
            return None
        reclaimed = [doc["task_id"] for doc in queue.withdraw(unresolved)]
        if not reclaimed:
            return None
        local = self._local.run_pending(
            session, {by_id[task_id]: pending[by_id[task_id]]
                      for task_id in reclaimed},
            max_workers, worker_ids, counters)
        return {task_id: local[by_id[task_id]] for task_id in reclaimed}

    def _should_fall_back(self) -> bool:
        """Whether still-pending tasks should run locally instead.

        Never-connected: past the fallback window with zero
        registrations, every batch runs locally until a worker shows
        up.  Stranded: the fleet went silent (no live heartbeats) and
        no lease is left whose expiry could change that — waiting any
        longer cannot make progress, so the coordinator finishes the
        work itself.  Either way ``run_many`` cannot hang.
        """
        now = time.monotonic()
        if not self.queue.ever_registered:
            return now >= (self._no_worker_deadline or now)
        return (self.queue.live_workers(now) == 0
                and self.queue.outstanding_leases() == 0)
