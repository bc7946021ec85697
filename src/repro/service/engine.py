"""The generic campaign engine (refactored out of the experiment drivers).

Every experiment driver used to thread the same six runner knobs —
``jobs``, ``task_deadline``, ``timing``, ``journal``, ``retry``,
``stats`` — through its signature and forward them verbatim to
:func:`repro.runner.run_tasks`. :class:`CampaignEngine` bundles those
knobs into one reusable object: the drivers become thin clients that
build their task grids and call :meth:`CampaignEngine.run`, and the
certification service reuses the *same* engine for its request
execution, so service campaigns inherit journaling, retries, deadlines
and timing collection for free.

``run`` forwards to :func:`repro.runner.run_tasks` with exactly the
arguments the drivers used to pass, so an engine-routed campaign
renders byte-identically to the pre-engine code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runner import CampaignStats, run_tasks

__all__ = ["CampaignEngine"]


@dataclass
class CampaignEngine:
    """Shared execution context for task campaigns.

    Parameters mirror :func:`repro.runner.run_tasks`: ``jobs`` sizes
    the worker pool (``None`` = all available CPUs, honouring the
    ``REPRO_JOBS`` env override; ``1`` = in-process), ``task_deadline``
    is the per-task wall-clock kill (pooled mode only), ``timing`` an
    optional :class:`repro.runner.TimingCollector`, ``journal`` a
    :class:`repro.runner.Journal` for crash-safe resume, ``retry`` a
    :class:`repro.runner.RetryPolicy` (or int shorthand), and ``stats``
    accumulates the campaign summary counters across every ``run``
    call that shares this engine.
    """

    jobs: int | None = 1
    task_deadline: float | None = None
    timing: object | None = None
    journal: object | None = None
    retry: object | None = None
    stats: CampaignStats = field(default_factory=CampaignStats)

    @classmethod
    def ensure(
        cls,
        engine: "CampaignEngine | None",
        jobs: int | None = 1,
        task_deadline: float | None = None,
        timing=None,
        journal=None,
        retry=None,
        stats=None,
    ) -> "CampaignEngine":
        """``engine`` if given, else one built from the legacy kwargs.

        This is the drivers' compatibility shim: their historical
        ``jobs``/``timing``/``journal``/... parameters keep working,
        while callers holding a :class:`CampaignEngine` pass it
        directly and the legacy knobs are ignored.
        """
        if engine is not None:
            return engine
        built = cls(
            jobs=jobs, task_deadline=task_deadline, timing=timing,
            journal=journal, retry=retry,
        )
        if stats is not None:
            built.stats = stats
        return built

    def run(self, tasks) -> list:
        """Run ``tasks`` under this engine's context, in submission order."""
        return run_tasks(
            tasks,
            jobs=self.jobs,
            task_deadline=self.task_deadline,
            collect=self.timing,
            journal=self.journal,
            retry=self.retry,
            stats=self.stats,
        )
