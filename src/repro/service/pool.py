"""Persistent warm-worker pool (the service's execution layer).

:func:`repro.runner.run_tasks` spins its pool up per campaign and tears
it down after; a serving layer cannot afford that. :class:`WarmPool`
keeps the runner's shared-nothing workers resident across requests,
supervised by the same :class:`repro.runner.core._Supervisor` that runs
campaigns, so deaths, deadlines and retries mean the same thing here:

* every fresh worker runs a **warm-up task** before it takes requests,
  precompiling the svec bases, the Lyapunov coefficient tensors and
  (optionally) the exact closed-loop mode matrices of named benchmark
  cases — the per-process ``lru_cache``\\ s that dominate cold-request
  latency;
* a dispatcher thread feeds submissions to the supervisor, which
  enforces **per-request deadlines**: the worker is terminated, a
  fresh (re-warmed) worker replaces it, and the request retries under
  the :class:`repro.runner.RetryPolicy` until its attempts are
  exhausted;
* a worker that **dies mid-request** (segfault, ``os._exit``, chaos
  kill) has its request retried on a fresh warm worker, with every
  attempt's worker pid recorded in the outcome's provenance.

Futures resolve to a :class:`PoolOutcome` — ``(result, attempts,
workers)`` — so callers (the certification service) can attach
execution provenance without the pool knowing anything about
certificates.
"""

from __future__ import annotations

import itertools
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..runner import RetryPolicy, Task
from ..runner.core import (
    _POLL_INTERVAL,
    _Job,
    _resolve_retry,
    _Supervisor,
    resolve_jobs,
)

__all__ = ["WarmPool", "PoolOutcome", "PoolDeadlineError", "WarmupTask"]


class PoolDeadlineError(TimeoutError):
    """A request exceeded its deadline on every allowed attempt."""


@dataclass
class PoolOutcome:
    """What a pool future resolves to: the task result + provenance."""

    result: object
    attempts: int
    workers: list = field(default_factory=list)


class WarmupTask(Task):
    """Pre-populate a worker's per-process caches before it serves.

    ``sizes`` runs :func:`repro.sdp.prewarm_solver` per size — svec
    basis tensors, the Lyapunov coefficient tensor of a stable probe
    matrix, and the batched screen's first-call LAPACK dispatch;
    ``cases`` warms the exact closed-loop mode matrices of named
    benchmark cases (:func:`repro.runner.tasks._exact_mode_matrix`),
    the cost that dominates cold exact validation.
    """

    def __init__(self, sizes=(), cases=()):
        self.sizes = list(sizes)
        self.cases = list(cases)

    def run(self):
        import os

        from ..sdp import prewarm_solver

        for n in self.sizes:
            prewarm_solver(n)
        if self.cases:
            from ..engine import MODES
            from ..runner.tasks import _exact_mode_matrix

            for case_name in self.cases:
                for mode in MODES:
                    _exact_mode_matrix(case_name, mode)
        return os.getpid()


class _Request(_Job):
    __slots__ = ("future",)

    def __init__(self, task, index, deadline):
        super().__init__(task, index, deadline)
        self.future: Future = Future()


class WarmPool:
    """A persistent pool of pre-warmed worker processes.

    ``jobs=None`` resolves via :func:`repro.runner.resolve_jobs`
    (honouring ``REPRO_JOBS``); ``retry`` defaults to one retry so a
    single worker death never surfaces to the caller. ``warm_sizes`` /
    ``warm_cases`` configure the :class:`WarmupTask` each fresh worker
    runs before serving. The pool starts lazily on first
    :meth:`submit` and must be :meth:`close`\\ d (or used as a context
    manager).
    """

    def __init__(
        self,
        jobs: int | None = None,
        retry: RetryPolicy | int | None = 1,
        warm_sizes=(),
        warm_cases=(),
    ):
        self.jobs = resolve_jobs(jobs)
        self.policy = _resolve_retry(retry)
        self.warm_sizes = tuple(warm_sizes)
        self.warm_cases = tuple(warm_cases)
        warmup = (
            WarmupTask(self.warm_sizes, self.warm_cases)
            if self.warm_sizes or self.warm_cases else None
        )
        self._supervisor = _Supervisor(self, self.policy, warmup, keep=True)
        self._inbox: queue.Queue = queue.Queue()
        self._shutdown = threading.Event()
        # Guards the closed-check + put in submit against close(): a
        # request is either refused or queued before shutdown is set.
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._numbers = itertools.count()
        self.tasks_done = 0
        self.inline_fallbacks = 0

    # -- public API ----------------------------------------------------

    def submit(self, task: Task, deadline: float | None = None):
        """Queue ``task``; returns a future resolving to a
        :class:`PoolOutcome` (or raising on exhausted retries)."""
        request = _Request(task, next(self._numbers), deadline)
        with self._lock:
            if self._shutdown.is_set():
                raise RuntimeError("pool is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="warm-pool-dispatcher",
                    daemon=True,
                )
                self._thread.start()
            self._inbox.put(request)
        return request.future

    @property
    def worker_deaths(self) -> int:
        return self._supervisor.deaths

    @property
    def deadline_kills(self) -> int:
        return self._supervisor.deadline_kills

    @property
    def respawns(self) -> int:
        return self._supervisor.respawns

    def counters(self) -> dict:
        return {
            "jobs": self.jobs,
            "tasks_done": self.tasks_done,
            "worker_deaths": self.worker_deaths,
            "deadline_kills": self.deadline_kills,
            "respawns": self.respawns,
            "inline_fallbacks": self.inline_fallbacks,
        }

    def close(self) -> None:
        with self._lock:
            self._shutdown.set()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=30.0)

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- dispatcher ----------------------------------------------------

    def _loop(self) -> None:
        supervisor = self._supervisor
        try:
            supervisor.start(self.jobs)
            waited = True
            while True:
                self._drain_inbox(block=not waited)
                # Shutdown is read before the inbox: every request put
                # before shutdown was set is seen here.
                if (
                    self._shutdown.is_set()
                    and supervisor.idle
                    and self._inbox.empty()
                ):
                    break
                supervisor.keep = not self._shutdown.is_set()
                waited = supervisor.step()
        finally:
            supervisor.stop()
            # Anything still queued resolves inline so no future is ever
            # left dangling.
            self._drain_inbox()
            supervisor.step()

    def _drain_inbox(self, block: bool = False) -> None:
        try:
            timeout = _POLL_INTERVAL if block else None
            while True:
                self._supervisor.submit(
                    self._inbox.get(block=block, timeout=timeout)
                )
                block = False  # only the first get may wait
        except queue.Empty:
            pass

    # -- supervisor callbacks ------------------------------------------

    def on_result(self, request: _Request, result, worker) -> None:
        self.tasks_done += 1
        request.future.set_result(
            PoolOutcome(result, request.attempts, request.pids)
        )

    def on_error(self, request: _Request, error: dict, worker) -> None:
        request.future.set_exception(
            RuntimeError(error.get("exc", "task error"))
        )

    def on_timeout(self, request: _Request, elapsed: float, worker) -> None:
        request.future.set_exception(
            PoolDeadlineError(
                f"deadline exceeded ({elapsed:.3g}s"
                f" > {request.deadline:.3g}s)"
                f" after {request.attempts} attempt(s)"
            )
        )

    def run_here(self, request: _Request, status: str) -> None:
        """Last-resort in-thread execution (no usable worker)."""
        self.inline_fallbacks += 1
        request.attempts += 1
        request.pids.append(None)
        try:
            result = request.task.run()
        except Exception as exc:
            request.future.set_exception(exc)
            return
        self.on_result(request, result, None)
