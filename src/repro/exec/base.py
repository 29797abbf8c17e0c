"""The executor abstraction behind :meth:`repro.api.Simulator.run_many`.

A :class:`SimulationExecutor` is the strategy object that takes one
batch's cache-missing jobs and turns them into results: inline in the
calling thread, fanned across a thread or process pool, or sharded to
remote worker processes over the dispatch work queue.  The
:class:`~repro.api.Simulator` session owns everything an executor
needs — the result cache, the retry policy, the persistent pools — and
passes itself into :meth:`SimulationExecutor.run_pending`, so executor
instances themselves stay stateless per batch and one instance may be
shared across sessions (the serve daemon's distributed executor is).

Backends are looked up by name through :mod:`repro.exec.registry`;
``Simulator(executor="thread")`` and friends resolve there, and the
``REPRO_EXECUTOR`` environment variable picks the default backend for
sessions that do not name one.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.resilience.policy import FailureClass, classify

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.result import SimResult

#: Environment variable naming the default executor backend for
#: sessions constructed without an explicit ``executor=`` argument.
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: Sentinel first element of batch keys for unserializable designs:
#: such jobs still fan out to workers but bypass dedup and the cache.
UNCACHED = object()


def cacheable_result(result: "SimResult") -> bool:
    """Whether a result is a property of its ``(design, options)`` key.

    Reports and permanent failures are; transient, timeout, and
    worker-crash outcomes describe one unlucky execution, and caching
    them would turn a recoverable hiccup into a sticky failure that
    every retry would then hit.
    """
    return result.ok or classify(result.error) is FailureClass.PERMANENT


class SimulationExecutor(ABC):
    """Strategy interface for executing one batch's unique pending jobs.

    ``run_pending(session, pending, max_workers, worker_ids, counters)``
    receives the calling :class:`~repro.api.Simulator` session, the
    ``{key: (design, options)}`` jobs that missed the cache, the batch's
    worker budget, a set to record the distinct workers used (thread
    idents, process pids, or remote worker ids — only the cardinality is
    observed), and the batch's mutable resilience counters.  It must
    return ``{key: SimResult}`` for every pending key; retry policy,
    quarantine, and cache stores are the executor's responsibility
    (helpers on the session do the heavy lifting).
    """

    #: Registry name of the backend (also what ``pool_info()`` reports).
    name: str = "?"

    #: Backends that ship serialized payloads to other processes cannot
    #: run designs whose parts do not serialize; ``run_many`` executes
    #: those inline in the calling thread instead of handing them over.
    requires_serializable: bool = False

    @abstractmethod
    def run_pending(self, session, pending: Dict[Any, Tuple],
                    max_workers: int, worker_ids: set,
                    counters) -> Dict[Any, "SimResult"]:
        """Execute every pending job; return ``{key: SimResult}``."""

    def default_width(self) -> int:
        """Worker budget of a batch when the session sets no
        ``max_workers`` (capped at the batch's pending job count)."""
        return max(2, os.cpu_count() or 1)

    def pool_width_floor(self, session) -> int:
        """Lower bound on the batch's worker budget (pool reuse).

        Pool-backed executors return the width of the session pool they
        already grew so a narrow follow-up batch keeps reporting (and
        reusing) the wide pool instead of shrinking it.
        """
        return 0

    def describe(self) -> Dict[str, Any]:
        """Introspection document for dashboards (``/stats``)."""
        return {"backend": self.name,
                "requires_serializable": self.requires_serializable}

    def close(self, session) -> None:
        """Release executor-owned resources (session pools are not ours)."""
