"""Shared fixtures: the paper's Fig. 5 example system, reusable per test."""

from __future__ import annotations

import pytest

from repro.usecases.fig5 import (
    FIG5_MAPPING,
    build_fig5_stages,
    build_fig5_system,
)

__all__ = ["FIG5_MAPPING", "build_fig5_stages", "build_fig5_system"]


@pytest.fixture(autouse=True)
def _no_ambient_disk_cache(monkeypatch):
    """Insulate every test from an operator's ``REPRO_CACHE_DIR``.

    A populated personal cache directory would turn cold-path
    assertions (miss counters, ``cached`` flags) into disk hits; tests
    that exercise the env-var behavior set it explicitly.
    """
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    """Insulate every test from an operator's chaos/resilience env.

    A shell still exporting ``REPRO_FAULTS`` (or retry/timeout tuning)
    from a chaos-testing session would inject deterministic worker
    kills — or reshape retry budgets — inside unrelated unit tests.
    Scrub the variables and reset the cached fault injector so only
    tests that set them explicitly see them.
    """
    from repro.resilience.faults import reset_injector

    for variable in ("REPRO_FAULTS", "REPRO_RETRY_MAX_ATTEMPTS",
                     "REPRO_RETRY_BASE_DELAY_S", "REPRO_TASK_TIMEOUT_S",
                     "REPRO_EXECUTOR", "REPRO_LEASE_TTL_S",
                     "REPRO_HEARTBEAT_S"):
        monkeypatch.delenv(variable, raising=False)
    reset_injector()
    yield
    reset_injector()


class _InProcessDispatchClient:
    """The lease protocol straight onto a work queue, for a worker
    thread sharing the coordinator's process."""

    idle_poll_s = (0.001, 0.01)

    def __init__(self, queue):
        self.queue = queue

    def register(self, meta):
        return self.queue.register_worker(meta)

    def claim(self, worker_id, max_tasks):
        return self.queue.claim(worker_id, max_tasks)

    def heartbeat(self, worker_id, task_ids):
        self.queue.heartbeat(worker_id, task_ids)

    def complete(self, worker_id, results):
        return self.queue.complete(worker_id, results)["accepted"]

    def deregister(self, worker_id):
        self.queue.deregister_worker(worker_id)


@pytest.fixture
def backend_session():
    """Factory of sessions on a named executor backend.

    ``"distributed"`` sessions get a fresh work queue served by one
    in-process :class:`~repro.exec.worker.DispatchWorker` thread whose
    simulator uses the session's retry policy.  Everything opened is
    closed (and the worker stopped) at teardown.
    """
    import threading

    from repro.api import Simulator
    from repro.exec.distributed import DistributedExecutor
    from repro.exec.queue import WorkQueue
    from repro.exec.worker import DispatchWorker

    opened = []

    def make(backend, **kwargs):
        if backend != "distributed":
            session = Simulator(executor=backend, **kwargs)
            opened.append((session, None, None))
            return session
        queue = WorkQueue(lease_ttl_s=30.0)
        worker = DispatchWorker(
            _InProcessDispatchClient(queue),
            Simulator(executor="inline", cache=False,
                      retry=kwargs.get("retry")),
            announce=False)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        session = Simulator(executor=DistributedExecutor(queue), **kwargs)
        opened.append((session, worker, thread))
        return session

    yield make
    for session, worker, thread in opened:
        session.close()
        if worker is not None:
            worker.stop()
            thread.join(timeout=30.0)


@pytest.fixture
def fig5_stages():
    return build_fig5_stages()


@pytest.fixture
def fig5_system():
    return build_fig5_system()


@pytest.fixture
def fig5_mapping():
    return dict(FIG5_MAPPING)
