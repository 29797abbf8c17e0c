"""The coordinator-side lease-based work queue of the ``distributed``
executor.

One :class:`WorkQueue` sits between the :class:`~repro.exec.distributed.
DistributedExecutor` (which enqueues task batches and harvests their
outcomes) and the HTTP dispatch endpoints (which ``repro worker``
processes call to register, claim, heartbeat, complete, and deregister).
It is a plain lock-protected in-memory structure: every method is fast
and non-blocking, safe to call from asyncio request handlers and from
executor threads alike.

Fault tolerance is the design center:

* every claimed task is held under a **lease** (task id + worker id +
  deadline); workers renew their leases by heartbeating;
* a lease that reaches its deadline without renewal — the worker was
  SIGKILLed, partitioned, or hung — **expires**: the task re-enters the
  queue with a strike against its identity and a bumped attempt number
  (so deterministic ``kill_rate`` fault injection does not re-kill the
  retry), and the worker is marked lost;
* a task whose lease expires :data:`~repro.resilience.policy.
  QUARANTINE_THRESHOLD` times is *quarantined* — failed with a terminal
  outcome instead of cycling through workers forever.  Re-dispatched
  crash suspects are flagged ``solo`` and never ride in a batch with
  innocent tasks;
* a worker known dead at once (the ``process`` backend sees its pipe
  close) is :meth:`~WorkQueue.lose_worker`-ed: its leases take the same
  strike without waiting out the TTL;
* graceful deregistration (worker SIGTERM) releases held leases back to
  the front of the queue with **no** strike — an orderly goodbye is not
  evidence against the task.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.resilience.policy import QUARANTINE_THRESHOLD

#: Environment knobs of the lease protocol (coordinator side; the
#: values are echoed to workers at registration so both sides agree).
LEASE_TTL_ENV = "REPRO_LEASE_TTL_S"
HEARTBEAT_ENV = "REPRO_HEARTBEAT_S"

#: Default lease deadline.  Generous next to per-task runtimes (most
#: simulations are sub-second) because expiry is the *crash* detector,
#: not the scheduler: a false expiry double-executes a task.
DEFAULT_LEASE_TTL_S = 15.0


def _env_float(name: str, default: Optional[float]) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be a number, got {raw!r}") from None


class _Worker:
    """Coordinator-side record of one registered worker."""

    __slots__ = ("worker_id", "meta", "registered_at", "last_heartbeat",
                 "leased", "completed", "expired", "active")

    def __init__(self, worker_id: str, meta: Dict[str, Any],
                 now: float) -> None:
        self.worker_id = worker_id
        self.meta = meta
        self.registered_at = now
        self.last_heartbeat = now
        self.leased = 0
        self.completed = 0
        self.expired = 0
        self.active = True


class _Task:
    """One enqueued task and its strike/attempt accounting."""

    __slots__ = ("task_id", "spec", "attempt", "strikes", "solo")

    def __init__(self, task_id: str, spec: Dict[str, Any],
                 attempt: int = 0) -> None:
        self.task_id = task_id
        self.spec = spec
        self.attempt = attempt
        self.strikes = 0
        self.solo = False

    def wire(self) -> Dict[str, Any]:
        """The claim-response document a worker executes from."""
        return {"task_id": self.task_id, "attempt": self.attempt,
                **self.spec}


class WorkQueue:
    """Lease-based task queue shared by the executor and the dispatch
    endpoints.

    ``lease_ttl_s``/``heartbeat_s`` default to the ``REPRO_LEASE_TTL_S``
    and ``REPRO_HEARTBEAT_S`` environment variables, then to
    :data:`DEFAULT_LEASE_TTL_S` and a third of the lease TTL — three
    missed heartbeats kill a lease.
    """

    def __init__(self, lease_ttl_s: Optional[float] = None,
                 heartbeat_s: Optional[float] = None) -> None:
        if lease_ttl_s is None:
            lease_ttl_s = _env_float(LEASE_TTL_ENV, DEFAULT_LEASE_TTL_S)
        if heartbeat_s is None:
            heartbeat_s = _env_float(HEARTBEAT_ENV, None)
        if heartbeat_s is None:
            heartbeat_s = lease_ttl_s / 3.0
        if not 0 < lease_ttl_s < math.inf:  # NaN fails every comparison
            raise ConfigurationError(
                f"lease TTL must be positive and finite, got {lease_ttl_s}")
        if not 0 < heartbeat_s <= lease_ttl_s:
            raise ConfigurationError(
                f"heartbeat interval must be in (0, lease_ttl_s], "
                f"got {heartbeat_s}")
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_s = float(heartbeat_s)
        self._lock = threading.Lock()
        #: Signalled whenever a task reaches a terminal outcome or a
        #: worker (de)registers — what the executor's harvest loop and
        #: its no-worker fallback check wait on.
        self._progress = threading.Condition(self._lock)
        #: Signalled whenever a task becomes claimable — what a blocking
        #: claim (``wait_s``) waits on.
        self._work = threading.Condition(self._lock)
        self._pending: deque = deque()  # task_ids awaiting a claim
        self._tasks: Dict[str, _Task] = {}
        #: task_id -> (worker_id, lease deadline, claimed at), monotonic.
        self._leases: Dict[str, Any] = {}
        #: task_id -> terminal outcome document (collected once).
        self._outcomes: Dict[str, Dict[str, Any]] = {}
        self._workers: Dict[str, _Worker] = {}
        self._worker_seq = 0
        self._ever_registered = False
        self._enqueued_total = 0
        self._completed_total = 0
        self._expired_total = 0
        self._quarantined_total = 0

    # --- executor side ----------------------------------------------------

    def enqueue(self, tasks: List[Dict[str, Any]]) -> None:
        """Add executor task specs (each must carry a unique ``task_id``)."""
        with self._lock:
            for spec in tasks:
                spec = dict(spec)
                task_id = spec.pop("task_id")
                attempt = int(spec.pop("attempt", 0))
                if task_id in self._tasks:
                    raise ConfigurationError(
                        f"task {task_id!r} is already queued")
                self._tasks[task_id] = _Task(task_id, spec, attempt)
                self._pending.append(task_id)
                self._enqueued_total += 1
            self._work.notify_all()

    def collect(self, task_ids) -> Dict[str, Dict[str, Any]]:
        """Pop and return the terminal outcomes available for ``task_ids``.

        Each outcome is ``{"state": "done", "worker": id, "result":
        <SimResult dict>}``, ``{"state": "expired", "strikes": n,
        "attempt": k}`` for a quarantined task, or ``{"state":
        "timeout", "timeout_s": t, ...}`` for a deadline overrun.
        """
        harvested: Dict[str, Dict[str, Any]] = {}
        wanted = set(task_ids)
        with self._lock:
            # Scan whichever side is smaller: a 10k-task batch polls
            # this often, and walking all 10k unresolved ids per wake
            # (instead of the few outcomes actually ready) would make
            # the harvest loop quadratic in batch size.
            if len(self._outcomes) < len(wanted):
                ready = [task_id for task_id in self._outcomes
                         if task_id in wanted]
            else:
                ready = [task_id for task_id in wanted
                         if task_id in self._outcomes]
            for task_id in ready:
                harvested[task_id] = self._outcomes.pop(task_id)
        return harvested

    def withdraw(self, task_ids) -> List[Dict[str, Any]]:
        """Reclaim still-pending tasks for local execution (fallback).

        Only tasks nobody holds a lease on are withdrawn; a leased task
        may still complete remotely (or expire and become withdrawable
        later).  Returns the wire documents of the withdrawn tasks.
        """
        withdrawn: List[Dict[str, Any]] = []
        with self._lock:
            wanted = {task_id for task_id in task_ids
                      if task_id in self._tasks
                      and task_id not in self._leases
                      and task_id not in self._outcomes}
            if not wanted:
                return withdrawn
            kept = deque()
            for task_id in self._pending:
                if task_id in wanted:
                    withdrawn.append(self._tasks.pop(task_id).wire())
                else:
                    kept.append(task_id)
            self._pending = kept
        return withdrawn

    def expire_leases(self, now: Optional[float] = None) -> int:
        """Strike every lease past its deadline; returns how many.

        The owning workers are marked lost — their heartbeats evidently
        stopped.
        """
        now = time.monotonic() if now is None else now
        return self._strike(lambda lease: lease[1] <= now)

    def lose_worker(self, worker_id: str) -> int:
        """Strike the leases of a worker known dead; returns how many.

        The ``process`` backend calls this the moment a local worker's
        pipe closes, instead of waiting out the lease TTL.
        """
        return self._strike(lambda lease: lease[0] == worker_id)

    def _strike(self, lost) -> int:
        """Reclaim every lease for which ``lost(lease)`` with a strike.

        A strike marks the owning worker lost and bumps the task's
        attempt; under :data:`QUARANTINE_THRESHOLD` strikes the task
        re-enters the queue front as a ``solo`` suspect, at the
        threshold it is failed terminally.
        """
        with self._lock:
            stale = [task_id for task_id, lease in self._leases.items()
                     if lost(lease)]
            for task_id in stale:
                worker_id = self._leases.pop(task_id)[0]
                self._expired_total += 1
                worker = self._workers.get(worker_id)
                if worker is not None:
                    worker.expired += 1
                    worker.active = False
                task = self._tasks[task_id]
                task.strikes += 1
                task.attempt += 1
                if task.strikes >= QUARANTINE_THRESHOLD:
                    del self._tasks[task_id]
                    self._quarantined_total += 1
                    self._outcomes[task_id] = {
                        "state": "expired", "strikes": task.strikes,
                        "attempt": task.attempt, "worker": worker_id}
                else:
                    task.solo = True
                    self._pending.appendleft(task_id)
            if stale:
                self._progress.notify_all()
                self._work.notify_all()
        return len(stale)

    def expire_deadlines(self, timeout_s: float, task_ids,
                         max_attempts: int = 1
                         ) -> List[Tuple[str, str, bool]]:
        """Reclaim ``task_ids`` leases claimed over ``timeout_s`` ago.

        An overrun is not the worker's fault, so no strike is taken: a
        task whose next attempt stays under ``max_attempts`` re-enters
        the queue front, the rest end ``{"state": "timeout"}``.
        Returns ``(task_id, worker_id, requeued)`` per reclaimed lease.
        """
        now = time.monotonic()
        wanted = set(task_ids)
        reclaimed: List[Tuple[str, str, bool]] = []
        with self._lock:
            overdue = [task_id for task_id, lease in self._leases.items()
                       if now - lease[2] >= timeout_s and task_id in wanted]
            for task_id in overdue:
                worker_id = self._leases.pop(task_id)[0]
                task = self._tasks[task_id]
                requeued = task.attempt + 1 < max_attempts
                if requeued:
                    task.attempt += 1
                    self._pending.appendleft(task_id)
                else:
                    del self._tasks[task_id]
                    self._outcomes[task_id] = {
                        "state": "timeout", "timeout_s": timeout_s,
                        "attempt": task.attempt, "worker": worker_id}
                reclaimed.append((task_id, worker_id, requeued))
            if reclaimed:
                self._progress.notify_all()
                self._work.notify_all()
        return reclaimed

    def wake_claimers(self) -> None:
        """Return every blocking :meth:`claim` now."""
        with self._lock:
            self._work.notify_all()

    def wait_progress(self, timeout: float) -> None:
        """Block until something terminal happens (or ``timeout``)."""
        with self._progress:
            self._progress.wait(timeout)

    # --- worker side (called by the dispatch HTTP endpoints) --------------

    def register_worker(self, meta: Optional[Dict[str, Any]] = None
                        ) -> Dict[str, Any]:
        """Admit a worker; returns its id and the lease protocol terms."""
        now = time.monotonic()
        with self._lock:
            self._worker_seq += 1
            worker_id = f"w{self._worker_seq}"
            self._workers[worker_id] = _Worker(worker_id, meta or {}, now)
            self._ever_registered = True
            self._progress.notify_all()
        return {"worker_id": worker_id,
                "lease_ttl_s": self.lease_ttl_s,
                "heartbeat_s": self.heartbeat_s}

    def deregister_worker(self, worker_id: str) -> Dict[str, Any]:
        """Graceful goodbye: release held leases strike-free."""
        released = 0
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                raise KeyError(worker_id)
            worker.active = False
            held = [task_id for task_id, lease in self._leases.items()
                    if lease[0] == worker_id]
            for task_id in held:
                del self._leases[task_id]
                self._pending.appendleft(task_id)
                released += 1
            if held:
                self._progress.notify_all()
                self._work.notify_all()
        return {"worker_id": worker_id, "released": released}

    def heartbeat(self, worker_id: str,
                  task_ids: Optional[List[str]] = None) -> Dict[str, Any]:
        """Renew the worker's liveness and its leases' deadlines."""
        now = time.monotonic()
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None or not worker.active:
                raise KeyError(worker_id)
            worker.last_heartbeat = now
            renewed = 0
            for task_id in (task_ids or []):
                lease = self._leases.get(task_id)
                if lease is not None and lease[0] == worker_id:
                    self._leases[task_id] = (worker_id,
                                             now + self.lease_ttl_s,
                                             lease[2])
                    renewed += 1
        return {"worker_id": worker_id, "renewed": renewed}

    def claim(self, worker_id: str, max_tasks: int = 1,
              wait_s: float = 0.0) -> List[Dict[str, Any]]:
        """Lease up to ``max_tasks`` pending tasks to the worker.

        A ``solo`` suspect (a task already implicated in a lease
        expiry) is claimed strictly alone: it never shares a batch, so
        a repeat crash cannot strike the innocent tasks around it.
        With ``wait_s`` an empty queue is waited on for up to that long
        before the (possibly empty) claim returns.
        """
        claimed: List[Dict[str, Any]] = []
        with self._lock:
            if not self._pending and wait_s > 0:
                self._work.wait(wait_s)
            now = time.monotonic()
            worker = self._workers.get(worker_id)
            if worker is None or not worker.active:
                raise KeyError(worker_id)
            worker.last_heartbeat = now
            while self._pending and len(claimed) < max(max_tasks, 1):
                task = self._tasks[self._pending[0]]
                if task.solo and claimed:
                    break  # suspects travel alone; stop the batch here
                self._pending.popleft()
                self._leases[task.task_id] = (worker_id,
                                              now + self.lease_ttl_s, now)
                worker.leased += 1
                claimed.append(task.wire())
                if task.solo:
                    break
        return claimed

    def complete(self, worker_id: str,
                 results: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Accept finished results for leases the worker still holds.

        Results for leases the worker lost (expired and re-dispatched,
        or released at deregistration) are dropped: exactly one outcome
        per task reaches the executor, whichever execution reported
        under a valid lease first.  An item's optional ``retries`` (the
        worker's local transient re-runs) rides along in the outcome.
        """
        accepted = 0
        stale = 0
        now = time.monotonic()
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                raise KeyError(worker_id)
            worker.last_heartbeat = now
            for item in results:
                task_id = item["task_id"]
                lease = self._leases.get(task_id)
                if lease is None or lease[0] != worker_id:
                    stale += 1
                    continue
                del self._leases[task_id]
                del self._tasks[task_id]
                worker.completed += 1
                self._completed_total += 1
                outcome = {"state": "done", "worker": worker_id,
                           "result": item["result"]}
                if item.get("retries"):
                    outcome["retries"] = int(item["retries"])
                self._outcomes[task_id] = outcome
                accepted += 1
            if accepted:
                self._progress.notify_all()
        return {"worker_id": worker_id, "accepted": accepted,
                "stale": stale}

    # --- introspection ----------------------------------------------------

    @property
    def ever_registered(self) -> bool:
        """Whether any worker has ever connected to this queue."""
        with self._lock:
            return self._ever_registered

    def live_workers(self, now: Optional[float] = None) -> int:
        """Workers still considered alive (heartbeat within one TTL)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            return sum(1 for worker in self._workers.values()
                       if worker.active
                       and now - worker.last_heartbeat <= self.lease_ttl_s)

    def outstanding_leases(self) -> int:
        with self._lock:
            return len(self._leases)

    def describe(self) -> Dict[str, Any]:
        """The ``/stats`` dispatch document: queue and worker liveness."""
        now = time.monotonic()
        with self._lock:
            workers = [{
                "id": worker.worker_id,
                "pid": worker.meta.get("pid"),
                "alive": worker.active and (now - worker.last_heartbeat
                                            <= self.lease_ttl_s),
                "active": worker.active,
                "last_heartbeat_age_s": round(
                    now - worker.last_heartbeat, 3),
                "leased": worker.leased,
                "completed": worker.completed,
                "expired": worker.expired,
            } for worker in self._workers.values()]
            return {
                "lease_ttl_s": self.lease_ttl_s,
                "heartbeat_s": self.heartbeat_s,
                "queue_depth": len(self._pending),
                "leases_outstanding": len(self._leases),
                "enqueued_total": self._enqueued_total,
                "completed_total": self._completed_total,
                "expired_total": self._expired_total,
                "quarantined_total": self._quarantined_total,
                "workers": workers,
            }
