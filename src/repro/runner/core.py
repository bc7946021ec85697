"""Process-pool execution of independent experiment tasks.

The experiment grids (Table I / Table II / Figure 3 / the piecewise
sweep) are embarrassingly parallel: hundreds of independent
``(case, mode, method, backend)`` synthesis+validation tasks. This
module fans them out over a small pool of shared-nothing worker
processes while keeping the *observable* behaviour identical to a
serial run:

* **Deterministic ordering** — results are keyed by submission index
  and returned in submission order, regardless of completion order, so
  parallel output renders byte-identically to serial (modulo measured
  wall times, which are stochastic either way).
* **Per-task deadlines** — a task that exceeds ``task_deadline``
  seconds has its worker terminated and (once retries are exhausted)
  its :meth:`Task.on_timeout` result recorded; a hung ``eq-smt`` call
  no longer serializes the whole sweep. (Deadlines are only enforceable
  in pooled mode — an in-process task cannot be killed.)
* **Retries with backoff** — *transient* failures (a worker that died
  without reporting, a deadline kill, a broken pipe, or a task raising
  :class:`TransientTaskError`) are retried up to
  :attr:`RetryPolicy.retries` times with exponential backoff plus
  deterministic jitter (hashed from the submission index and attempt
  number, so reruns back off identically). *Permanent* failures —
  ordinary domain exceptions out of :meth:`Task.run` — are recorded
  once, with a structured ``{"exc", "transient"}`` error record, and
  never retried. Attempt counts flow into the timing artifact and the
  :class:`CampaignStats` summary.
* **Durability** — pass ``journal=`` (a
  :class:`repro.runner.journal.Journal`) and every completed outcome is
  fsync'd to an append-only JSONL file keyed by task fingerprint;
  already-journaled tasks are *replayed* without executing, which is
  how ``--resume`` turns a killed campaign into a gap re-run.
* **Graceful degradation** — ``jobs=1``, an unavailable
  ``multiprocessing`` context, or a failed worker spawn all fall back
  to plain in-process execution; a worker that dies mid-task with no
  retries left gets its task re-run in-process.
* **Shared-nothing protocol** — tasks are small picklable specs
  (:mod:`repro.runner.tasks`) that resolve benchmark cases *by name*
  and rebuild matrices locally in the worker. Workers are persistent,
  so per-process caches (the balanced-truncation ladder) are built at
  most once per worker — and, under the preferred ``fork`` start
  method, inherited from the parent for free.

One supervisor, :class:`_Supervisor`, owns the worker processes for
both :func:`run_tasks` (one campaign, driven synchronously) and the
service's :class:`repro.service.WarmPool` (a resident pool, driven from
its dispatcher thread).
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_ready

from .timing import TaskTiming, TimingCollector

__all__ = [
    "Task",
    "TransientTaskError",
    "RetryPolicy",
    "CampaignStats",
    "run_tasks",
    "resolve_jobs",
]

#: Seconds between scheduler polls while waiting on busy workers.
_POLL_INTERVAL = 0.05


class TransientTaskError(RuntimeError):
    """A task failure worth retrying (flaky backend, lost resource).

    Raise (or subclass) this from :meth:`Task.run` to mark the failure
    transient: the runner re-attempts the task under the active
    :class:`RetryPolicy` instead of recording the error immediately.
    Any other exception is classified *permanent* and recorded once.
    """


class Task:
    """Base class for runner tasks.

    Subclasses must be picklable (defined at module level, plain
    attributes) and implement :meth:`run`. The failure hooks translate
    runner-level events into domain results so a sweep always yields a
    full, ordered result list.
    """

    def run(self):
        """Execute the task and return its result (runs in a worker)."""
        raise NotImplementedError

    def key(self) -> dict | None:
        """Identifying fields for timing records, e.g. ``{"case": ...}``."""
        return None

    def fingerprint_spec(self) -> tuple[str, dict]:
        """``(kind, fields)`` identifying this task for the journal.

        The default — class name plus every public instance attribute —
        is correct for plain task specs; override to drop volatile
        fields (e.g. measured wall times riding along inside a
        candidate) that would spuriously change the fingerprint between
        runs. Underscore-prefixed attributes are always excluded: they
        hold runtime bookkeeping (the memoized ``_fingerprint`` digest
        itself, lazily attached caches) that must not feed back into
        the content address.
        """
        fields = {
            k: v for k, v in vars(self).items() if not k.startswith("_")
        }
        return type(self).__name__, fields

    def on_attempt(self, attempt: int) -> None:
        """Called with the 1-based attempt number before each dispatch."""

    def corrupt_journal_record(self) -> bool:
        """Chaos hook: ``True`` makes the runner tear this task's journal
        record (see :mod:`repro.runner.chaos`)."""
        return False

    def on_timeout(self, elapsed: float):
        """Result recorded when the runner kills the task at its deadline."""
        return None

    def on_error(self, message: str):
        """Result recorded when the task raises (or its worker crashes)."""
        return None

    def timing_detail(self, result) -> dict:
        """Extra per-task timing fields extracted from a successful result."""
        return {}


@dataclass(frozen=True)
class RetryPolicy:
    """How transient failures are retried.

    ``retries`` is the number of *extra* attempts after the first;
    backoff before attempt ``k+1`` is ``backoff * 2**(k-1)`` capped at
    ``max_backoff``, scaled by ``1 + jitter`` where the jitter in
    ``[0, 1)`` is hashed deterministically from ``(token, attempt)`` —
    identical reruns back off identically, but neighbouring tasks
    desynchronize.
    """

    retries: int = 0
    backoff: float = 0.05
    max_backoff: float = 2.0

    def allows(self, attempts: int) -> bool:
        """May a task that failed ``attempts`` times be tried again?"""
        return attempts <= self.retries

    def delay(self, attempt: int, token) -> float:
        """Backoff after failed attempt number ``attempt`` (1-based)."""
        base = min(self.backoff * (2 ** max(0, attempt - 1)), self.max_backoff)
        digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + jitter)


def _resolve_retry(retry) -> RetryPolicy:
    if retry is None:
        return RetryPolicy()
    if isinstance(retry, RetryPolicy):
        return retry
    return RetryPolicy(retries=int(retry))


@dataclass
class CampaignStats:
    """Per-campaign counters for the summary line (and the CLI).

    ``executed`` counts tasks that actually ran this run; ``replayed``
    counts journal hits; ``retried_tasks``/``retry_attempts`` track
    *policy* retries — a task that raised a transient error and was
    re-attempted. ``requeued_tasks``/``requeue_attempts`` count tasks
    re-dispatched because the *infrastructure* failed under them — a
    worker death or a deadline kill — reported apart from the retry
    counters. ``degraded`` counts tasks whose result records a
    backend/validator fallback; ``journal_errors`` counts outcomes that
    could not be journaled (the campaign continues regardless).
    """

    total: int = 0
    executed: int = 0
    replayed: int = 0
    retried_tasks: int = 0
    retry_attempts: int = 0
    requeued_tasks: int = 0
    requeue_attempts: int = 0
    degraded: int = 0
    errors: int = 0
    timeouts: int = 0
    journal_errors: int = 0

    def summary(self) -> str:
        parts = [
            f"{self.total} tasks",
            f"{self.executed} run",
            f"{self.replayed} replayed",
            f"{self.retried_tasks} retried (+{self.retry_attempts} attempts)",
            f"{self.degraded} degraded",
            f"{self.errors} errors",
        ]
        if self.requeued_tasks:
            parts.insert(
                4,
                f"{self.requeued_tasks} requeued "
                f"(+{self.requeue_attempts} attempts)",
            )
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.journal_errors:
            parts.append(f"{self.journal_errors} journal write failures")
        return "campaign: " + ", ".join(parts)

    def counters(self) -> dict:
        """Plain-dict snapshot for the timing artifact."""
        return {
            "total": self.total,
            "executed": self.executed,
            "replayed": self.replayed,
            "retried_tasks": self.retried_tasks,
            "retry_attempts": self.retry_attempts,
            "requeued_tasks": self.requeued_tasks,
            "requeue_attempts": self.requeue_attempts,
            "degraded": self.degraded,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "journal_errors": self.journal_errors,
        }


def resolve_jobs(jobs: int | None) -> int:
    """``None`` means every *available* CPU; below 1 is clamped to 1.

    Precedence: an explicit ``jobs`` argument (the ``--jobs`` CLI flag)
    wins; with ``jobs=None`` a ``REPRO_JOBS`` environment variable, if
    set to a parseable integer, sizes the pool instead (malformed
    values are ignored); otherwise every available CPU is used. The
    env override lets the service layer and the experiment drivers
    size their pools consistently without plumbing a flag through
    every entry point.

    Prefers ``os.sched_getaffinity`` over ``os.cpu_count`` so a
    container or cgroup that pins the process to a CPU subset (typical
    CI) gets a pool sized to what it may actually use, not to the host.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                jobs = None
    if jobs is None:
        try:
            jobs = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # non-Linux platforms
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def run_tasks(
    tasks,
    jobs: int | None = 1,
    task_deadline: float | None = None,
    collect: TimingCollector | None = None,
    journal=None,
    retry: RetryPolicy | int | None = None,
    stats: CampaignStats | None = None,
) -> list:
    """Run every task and return their results in submission order.

    ``jobs=None`` uses all available CPUs, ``jobs=1`` runs in-process
    (no pool, no deadline enforcement). ``collect`` receives one
    :class:`~repro.runner.timing.TaskTiming` per task. ``journal`` (a
    :class:`repro.runner.journal.Journal`) replays already-recorded
    tasks and persists fresh outcomes; ``retry`` (a
    :class:`RetryPolicy`, or an int shorthand for the retry count)
    re-attempts transient failures; ``stats`` accumulates the campaign
    summary counters.
    """
    tasks = list(tasks)
    if stats is None:
        stats = CampaignStats()
    stats.total += len(tasks)
    if not tasks:
        return []
    run = _Run(tasks, collect, journal, _resolve_retry(retry), stats)
    todo = run.replay(task_deadline)
    jobs = min(resolve_jobs(jobs), len(todo))
    if jobs == 1:
        for job in todo:
            _run_local(job, run)
    elif jobs > 1:
        supervisor = _Supervisor(run, run.policy)
        for job in todo:
            supervisor.submit(job)
        supervisor.run(jobs)
    return run.results


class _Job:
    """One task under supervision, with its attempt bookkeeping.

    ``index`` is the submission index (it also seeds the retry jitter);
    ``wall_s`` accumulates across attempts, each timed from dispatch to
    reply; ``pids`` lists the worker of every pooled attempt;
    ``requeues`` counts the attempts a worker death or deadline kill
    caused, as opposed to the task's own transient errors.
    """

    __slots__ = (
        "task", "index", "deadline", "warmup", "attempts", "requeues",
        "wall_s", "pids",
    )

    def __init__(self, task, index=0, deadline=None, warmup=False):
        self.task = task
        self.index = index
        self.deadline = deadline
        self.warmup = warmup
        self.attempts = 0
        self.requeues = 0
        self.wall_s = 0.0
        self.pids: list = []

    def announce(self, attempt: int) -> None:
        """Tell the task which attempt it is about to make."""
        try:
            self.task.on_attempt(attempt)
        except Exception:
            pass


class _Run:
    """A campaign's bookkeeping: result slots, stats, timing, journal.

    It is the :class:`_Supervisor`'s client for :func:`run_tasks`.
    """

    def __init__(self, tasks, collect, journal, policy, stats):
        self.tasks = tasks
        self.results = [None] * len(tasks)
        self.collect = collect
        self.journal = journal
        self.policy = policy
        self.stats = stats
        self.fingerprints: list[str | None] = [None] * len(tasks)

    # -- journal replay ------------------------------------------------

    def replay(self, deadline) -> list[_Job]:
        """Fill journal hits in; return the jobs still to run."""
        todo = []
        for index, task in enumerate(self.tasks):
            entry = None
            if self.journal is not None:
                fingerprint = self.journal.fingerprint(task)
                self.fingerprints[index] = fingerprint
                entry = self.journal.get(fingerprint)
            if entry is None:
                todo.append(_Job(task, index, deadline))
                continue
            self.results[index] = entry.result
            self.stats.replayed += 1
            self._emit_timing(
                task, "replayed", 0.0, "journal", entry.result,
                attempts=0, error=entry.error,
            )
        return todo

    # -- supervisor callbacks ------------------------------------------

    def on_result(self, job, result, worker):
        self.finish(job, "ok", worker, result)

    def on_error(self, job, error, worker):
        self.finish(
            job, "error", worker,
            job.task.on_error(error.get("exc", "task error")), error=error,
        )

    def on_timeout(self, job, elapsed, worker):
        self.finish(
            job, "timeout", worker, job.task.on_timeout(elapsed),
            error={
                "exc": (
                    f"deadline exceeded ({elapsed:.3g}s"
                    f" > {job.deadline:.3g}s)"
                ),
                "transient": True,
            },
        )

    def run_here(self, job, status):
        _run_local(job, self, status)

    # -- completion ----------------------------------------------------

    def finish(self, job, status, worker, result, error=None):
        """Record a final outcome: result slot, stats, timing, journal."""
        task = job.task
        self.results[job.index] = result
        attempts = job.attempts
        self.stats.executed += 1
        requeues = min(job.requeues, max(0, attempts - 1))
        retries = max(0, attempts - 1 - requeues)
        if retries:
            self.stats.retried_tasks += 1
            self.stats.retry_attempts += retries
        if requeues:
            self.stats.requeued_tasks += 1
            self.stats.requeue_attempts += requeues
        if status == "error":
            self.stats.errors += 1
        elif status == "timeout":
            self.stats.timeouts += 1
        detail = self._emit_timing(
            task, status, job.wall_s, worker, result,
            attempts=attempts, error=error, requeues=requeues,
        )
        if detail.get("degraded"):
            self.stats.degraded += 1
        if self.journal is not None:
            self._journal_write(
                job.index, task, status, result, attempts, error
            )

    def _emit_timing(
        self, task, status, wall, worker, result, attempts, error,
        requeues=0,
    ) -> dict:
        detail: dict = {}
        if status in ("ok", "fallback", "replayed"):
            try:
                detail = task.timing_detail(result) or {}
            except Exception:
                detail = {}
        if self.collect is not None:
            self.collect.record(
                TaskTiming(
                    key=task.key(), status=status, wall_s=wall,
                    worker=str(worker), detail=detail,
                    attempts=attempts, error=error, requeues=requeues,
                )
            )
        return detail

    def _journal_write(self, index, task, status, result, attempts, error):
        fingerprint = self.fingerprints[index]
        if fingerprint is None:
            fingerprint = self.journal.fingerprint(task)
            self.fingerprints[index] = fingerprint
        kind = type(task).__name__
        try:
            if task.corrupt_journal_record():
                self.journal.record_corrupt(fingerprint, kind)
            else:
                self.journal.record(
                    fingerprint, kind, status, result,
                    attempts=attempts, error=error,
                )
        except Exception:
            # A journaling failure must not take down the campaign; the
            # task simply re-runs on the next resume.
            self.stats.journal_errors += 1


def _exc_message(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_local(job, run: _Run, status: str = "ok"):
    """Run one job in-process (the ``jobs=1`` path and the last resort).

    ``status="ok"`` honours the retry policy, one counted attempt per
    try. ``status="fallback"`` follows a worker death with no retries
    left: one more try here, not counted as an attempt.
    """
    task = job.task
    while True:
        if status == "ok":
            job.attempts += 1
            job.announce(job.attempts)
        start = time.perf_counter()
        error = None
        try:
            result = task.run()
        except Exception as exc:
            job.wall_s += time.perf_counter() - start
            transient = isinstance(exc, TransientTaskError)
            if (
                transient and status == "ok"
                and run.policy.allows(job.attempts)
            ):
                time.sleep(run.policy.delay(job.attempts, job.index))
                continue
            result = task.on_error(_exc_message(exc))
            error = {"exc": _exc_message(exc), "transient": transient}
        else:
            job.wall_s += time.perf_counter() - start
        run.finish(job, "error" if error else status, "local", result, error)
        return result


# ----------------------------------------------------------------------
# The worker supervisor
# ----------------------------------------------------------------------

def _worker_loop(connection):
    """Persistent worker: receive ``(index, task)``, send back
    ``(index, status, payload)``; ``None`` shuts the worker down. Errors
    are reported structurally (message + transient classification), not
    by killing the worker."""
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, task = message
        try:
            payload = (index, "ok", task.run())
        except BaseException as exc:  # report, don't kill the worker
            payload = (
                index,
                "error",
                {
                    "exc": _exc_message(exc),
                    "transient": isinstance(exc, TransientTaskError),
                },
            )
        try:
            connection.send(payload)
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:  # unpicklable result: report, carry on
            try:
                connection.send(
                    (
                        index,
                        "error",
                        {"exc": _exc_message(exc), "transient": False},
                    )
                )
            except Exception:
                break
    try:
        connection.close()
    except OSError:
        pass


def _worker_main(loop, connection, parent_end):
    """Worker entry point. The forked child inherits the supervisor's
    end of its own pipe; closing it lets the child see EOF, and exit,
    when the supervisor dies (even by SIGKILL)."""
    parent_end.close()
    loop(connection)


class _Worker:
    __slots__ = ("process", "connection", "job", "started")

    def __init__(self, process, connection):
        self.process = process
        self.connection = connection
        self.job: _Job | None = None  # the in-flight job
        self.started = 0.0

    def stop(self) -> None:
        try:
            if self.process.is_alive():
                self.connection.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        try:
            self.connection.close()
        except OSError:
            pass


class _Supervisor:
    """Supervises a pool of shared-nothing worker processes.

    The one place that spawns workers, dispatches jobs, waits on their
    pipes and decides what a failure means:

    * a reply settles the job, or retries it after a transient error
      while the :class:`RetryPolicy` allows;
    * a worker death — its pipe at EOF or its process gone, whichever
      is seen first — requeues the job on a fresh worker, or, with the
      retries spent, runs it in this process as a ``fallback``;
    * a job past its deadline has its worker killed and is requeued the
      same way, or, with the retries spent, settles as a timeout;
    * every retry and requeue first waits out the policy's backoff;
    * a fresh worker runs ``warmup`` (a task, if given) before any job;
    * with no worker left, jobs run in this process.

    Outcomes go to ``client``: ``on_result(job, result, pid)``,
    ``on_error(job, error, pid)``, ``on_timeout(job, elapsed, pid)`` and
    ``run_here(job, status)``, the in-process run (``status`` is
    ``"ok"``, or ``"fallback"`` after a death). With ``keep`` set the
    pool is kept at full size while idle; otherwise a lost worker is
    only replaced while work remains.
    """

    def __init__(self, client, policy: RetryPolicy, warmup=None, keep=False):
        self.client = client
        self.policy = policy
        self.warmup = warmup
        self.keep = keep
        try:
            self.context = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork: spawn still works,
            self.context = multiprocessing.get_context()  # caches warm/worker
        self.workers: list[_Worker] = []
        self.pending: deque[_Job] = deque()
        self.delayed: list[tuple[float, int, _Job]] = []  # (due, seq, job)
        self._seq = itertools.count()
        self.deaths = 0
        self.deadline_kills = 0
        self.respawns = 0

    def start(self, jobs: int) -> None:
        for _ in range(jobs):
            if not self._spawn():
                break

    def submit(self, job: _Job) -> None:
        self.pending.append(job)

    @property
    def idle(self) -> bool:
        """No job queued, backing off or in flight (warm-ups aside)."""
        return not (
            self.pending
            or self.delayed
            or any(w.job and not w.job.warmup for w in self.workers)
        )

    def run(self, jobs: int) -> None:
        """Start ``jobs`` workers, drive every submitted job to its
        outcome, then stop them."""
        try:
            self.start(jobs)
            while not self.idle:
                self.step()
        finally:
            self.stop()

    def stop(self) -> None:
        for worker in self.workers:
            worker.stop()
        self.workers = []

    def step(self, timeout: float = _POLL_INTERVAL) -> bool:
        """Dispatch, then wait up to ``timeout`` for replies, deaths and
        deadlines. ``False`` when there was nothing to wait for."""
        now = time.monotonic()
        if not self.workers:
            # No usable pool: run whatever remains in this process.
            self._promote(float("inf"))
            while self.pending:
                self.client.run_here(self.pending.popleft(), "ok")
            return False
        self._promote(now)
        self._dispatch()
        busy = [w for w in self.workers if w.job is not None]
        if not busy:
            if not self.delayed:
                return False
            due = min(entry[0] for entry in self.delayed)
            time.sleep(min(timeout, max(0.0, due - now)))
            return True
        ready = _wait_ready([w.connection for w in busy], timeout=timeout)
        now = time.monotonic()
        for worker in busy:
            if worker.connection in ready or not worker.process.is_alive():
                self._collect(worker, now)
            elif (
                worker.job.deadline is not None
                and now - worker.started > worker.job.deadline
            ):
                self._kill(worker, now)
        return True

    # -- internals -----------------------------------------------------

    def _spawn(self) -> bool:
        """Start one worker (looking ``_worker_loop`` up now, so a
        patched loop takes effect); ``False`` if it cannot start."""
        try:
            parent_end, child_end = self.context.Pipe(duplex=True)
            process = self.context.Process(
                target=_worker_main,
                args=(_worker_loop, child_end, parent_end),
                daemon=True,
            )
            process.start()
        except (OSError, ValueError):
            return False
        child_end.close()
        worker = _Worker(process, parent_end)
        self.workers.append(worker)
        if self.warmup is not None:
            try:
                parent_end.send((0, self.warmup))
            except Exception:
                pass  # warm-up is best-effort
            else:
                worker.job = _Job(self.warmup, warmup=True)
                worker.started = time.monotonic()
        return True

    def _promote(self, now: float) -> None:
        """Move jobs whose backoff has elapsed onto the pending queue."""
        if not self.delayed:
            return
        due = sorted(entry for entry in self.delayed if entry[0] <= now)
        if due:
            self.delayed = [entry for entry in self.delayed if entry[0] > now]
            self.pending.extend(job for _due, _seq, job in due)

    def _dispatch(self) -> None:
        for worker in self.workers:
            if worker.job is not None or not self.pending:
                continue
            job = self.pending.popleft()
            job.announce(job.attempts + 1)
            try:
                worker.connection.send((job.index, job.task))
            except Exception:
                # Unpicklable task or torn pipe: run it here instead.
                self.client.run_here(job, "ok")
                continue
            job.attempts += 1
            job.pids.append(worker.process.pid)
            worker.job = job
            worker.started = time.monotonic()

    def _retry(self, job: _Job, requeue: bool = False) -> bool:
        """Schedule another attempt after the backoff, if allowed.

        ``requeue`` marks an infrastructure failure (death, deadline
        kill) rather than the task's own transient error.
        """
        if not self.policy.allows(job.attempts):
            return False
        job.requeues += requeue
        due = time.monotonic() + self.policy.delay(job.attempts, job.index)
        self.delayed.append((due, next(self._seq), job))
        return True

    def _collect(self, worker: _Worker, now: float) -> None:
        """Take the worker's reply; no reply means the worker died."""
        job, worker.job = worker.job, None
        job.wall_s += now - worker.started
        pid = worker.process.pid
        reply = None
        try:
            if worker.connection.poll():
                reply = worker.connection.recv()
        except (EOFError, OSError):
            pass
        if reply is None:
            self.deaths += 1
            retried = job.warmup or self._retry(job, requeue=True)
            self._replace(worker)
            if not retried:
                self.client.run_here(job, "fallback")
            return
        if not worker.process.is_alive():  # replied, then exited
            self._replace(worker)
        if job.warmup:
            return
        _index, status, payload = reply
        if status == "ok":
            self.client.on_result(job, payload, pid)
        elif not (payload.get("transient") and self._retry(job)):
            self.client.on_error(job, payload, pid)

    def _kill(self, worker: _Worker, now: float) -> None:
        """Terminate a worker whose job outran its deadline."""
        job, worker.job = worker.job, None
        elapsed = now - worker.started
        job.wall_s += elapsed
        worker.process.terminate()
        worker.process.join(timeout=5.0)
        self.deadline_kills += 1
        retried = self._retry(job, requeue=True)
        self._replace(worker)
        if not retried:
            self.client.on_timeout(job, elapsed, worker.process.pid)

    def _replace(self, worker: _Worker) -> None:
        """Swap a lost worker for a fresh one, while one is wanted."""
        self.workers.remove(worker)
        worker.stop()
        if (self.keep or self.pending or self.delayed) and self._spawn():
            self.respawns += 1
