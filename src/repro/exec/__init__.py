"""Pluggable execution backends for :meth:`repro.api.Simulator.run_many`.

``inline`` and ``thread`` run in the calling process.  ``process`` and
``distributed`` share one fault-tolerance mechanism, a lease-based work
queue (:mod:`repro.exec.queue`) harvested by
:class:`~repro.exec.distributed.LeaseExecutor`, and differ only in the
transport: ``process`` workers are the session's own local processes
on ``multiprocessing`` pipes, ``distributed`` workers are ``repro
worker`` processes on HTTP.  All four produce bit-identical results.
"""

from repro.exec.base import (EXECUTOR_ENV, UNCACHED, SimulationExecutor,
                             cacheable_result)
from repro.exec.local import InlineExecutor, ProcessExecutor, ThreadExecutor
from repro.exec.registry import (DEFAULT_EXECUTOR, available_executors,
                                 create_executor, register_executor,
                                 resolve_executor)

register_executor("inline", InlineExecutor)
register_executor("thread", ThreadExecutor)
register_executor("process", ProcessExecutor)

__all__ = [
    "DEFAULT_EXECUTOR",
    "EXECUTOR_ENV",
    "InlineExecutor",
    "ProcessExecutor",
    "SimulationExecutor",
    "ThreadExecutor",
    "UNCACHED",
    "available_executors",
    "cacheable_result",
    "create_executor",
    "register_executor",
    "resolve_executor",
]
