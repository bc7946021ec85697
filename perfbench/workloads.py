"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, then
runs identical *rounds* of work until the measuring window is spent.
A round returns one :class:`Item` per task, search, campaign or
request, carrying the item's reference key and its observed verdict
record, plus the round's latency samples. Seeds change only the order
of work (and, for ``certify-stream``, the request stream), never the
set of inputs, so every seed costs the same and the verdicts are
checkable against one recorded reference.

Program names are imported inside the methods, at call time, so a
traced run sees the wrapped entry points (see ``spans.py``).
"""

from __future__ import annotations

import bisect
import os
import queue
import random
import time
from dataclasses import dataclass

from repro.runner import Task

__all__ = ["WORKLOADS", "Item", "DECIDED"]

#: Verdicts that count as decided.
DECIDED = ("proved", "refuted", "infeasible")


@dataclass
class Item:
    key: str
    observed: dict
    verdict: str  # proved | refuted | infeasible | undecided | failed


def _shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


def _cases_ordered(groups, rng):
    """Concatenate groups (largest case first), each shuffled by ``rng``:
    the seed reorders work without moving the long tasks to the tail."""
    return [task for group in groups for task in _shuffled(group, rng)]


# ----------------------------------------------------------------------
# Rounds and warm pools
# ----------------------------------------------------------------------

class _Rounds:
    """Workloads whose rounds run one after another: :meth:`rounds`
    yields ``(items, latencies)`` per round while ``more()`` holds."""

    def rounds(self, more, counters):
        index = 0
        while index == 0 or more():
            yield self.round(index, counters)
            index += 1


class _WarmProbe(Task):
    """Keeps a warm worker busy briefly, so the next probe lands on the
    other worker and set-up ends with every worker warmed."""

    def run(self):
        time.sleep(0.2)
        return os.getpid()


def _warm_pool(jobs, **options):
    from repro.service import WarmPool

    pool = WarmPool(jobs=jobs, **options)
    futures = [pool.submit(_WarmProbe()) for _ in range(jobs)]
    for future in futures:
        future.result()
    return pool


#: Inputs of the streamed workloads, built in set-up before the pool
#: forks, so the workers inherit them and a task carries only its key.
_INPUTS: dict = {}


class _Streamed:
    """A fixed list of tasks run round after round on a two-worker
    :class:`WarmPool`, closed loop with two outstanding.

    Rounds are pipelined: the next round's first task goes out as soon
    as a worker frees up, so both workers stay busy for the whole window
    and the rounds' wall times (each from the previous round's
    completion to its own) add up to it. A single-threaded workload
    would measure whichever of the host's CPUs it ran on, and their
    speeds differ and drift. The seed fixes the task order, the same in
    every round.
    """

    jobs = 2
    outstanding = 2

    def _start(self, seed, tasks):
        """``tasks`` are ``(key, Task)``; order them and warm the pool."""
        self.tasks = _shuffled(tasks, random.Random(f"{seed}/order"))
        self.pool = _warm_pool(self.jobs)

    def rounds(self, more, counters):
        """Yield ``(items, latencies)`` per round, in round order, when
        its last task completes; start another round while ``more()``."""
        completed: queue.SimpleQueue = queue.SimpleQueue()
        slots: list[list] = []  # per round: [key, future, submitted, finished]
        left: list[int] = []  # per round: tasks not yet finished
        in_flight = yielded = 0

        def on_done(round_index, slot):
            def callback(_future):
                slot[3] = time.perf_counter()
                completed.put(round_index)
            return callback

        def submissions():
            while not slots or more():
                slots.append([])
                left.append(len(self.tasks))
                for key, task in self.tasks:
                    yield len(slots) - 1, key, task

        def wait_one():
            nonlocal in_flight
            left[completed.get()] -= 1
            in_flight -= 1

        for round_index, key, task in submissions():
            while in_flight >= self.outstanding:
                wait_one()
                while yielded < len(slots) and left[yielded] == 0:
                    yield self._result(slots[yielded], counters)
                    yielded += 1
            submitted = time.perf_counter()
            future = self.pool.submit(task)
            slot = [key, future, submitted, None]
            slots[round_index].append(slot)
            in_flight += 1
            future.add_done_callback(on_done(round_index, slot))
        while yielded < len(slots):
            if left[yielded]:
                wait_one()
                continue
            yield self._result(slots[yielded], counters)
            yielded += 1

    def _result(self, round_slots, counters):
        items, latencies = [], []
        for key, future, submitted, finished in round_slots:
            latencies.append(finished - submitted)
            try:
                result = future.result().result
            except Exception as exc:  # environmental failure: count it
                items.append(Item(key, {"error": repr(exc)}, "failed"))
                continue
            items.append(self._item(key, result, counters))
        return items, latencies

    def close(self):
        self.pool.close()


# ----------------------------------------------------------------------
# ladder: Table I + rounding sweep + Table II through CampaignEngine
# ----------------------------------------------------------------------

class Ladder(_Rounds):
    """Table I, the rounding sweep and Table II as one journaled
    campaign on two runner workers."""

    name = "ladder"
    jobs = 2
    #: About 4 rounds of 470 tasks fit the window: 18 samples lie
    #: beyond p99.
    tail_percentile = 99
    profiles = {
        "full": {
            "cases": ("size10", "size10i", "size5", "size5i", "size3",
                      "size3i"),
            "table2": ("size5", "size3"),
        },
        "reduced": {"cases": ("size3",), "table2": ("size3",)},
    }
    #: Exact eq-smt at size10 takes ~23 s a task, longer than a whole
    #: round; its integer variant size10i (~2 s) keeps eq-smt at size 10.
    no_eq_smt = ("size10",)

    def setup(self, seed, profile, workdir):
        from repro.engine import MODES, case_by_name
        from repro.experiments.records import method_rows

        self.seed = seed
        self.workdir = workdir
        self.config = self.profiles[profile]
        self.cases = {
            name: case_by_name(name)
            for name in {*self.config["cases"], *self.config["table2"]}
        }
        self.modes = MODES
        self.rows = method_rows()
        self.rows_t2 = method_rows(include_eq_smt=False)

    def _table1_tasks(self, rng):
        from repro.runner import Table1Task

        groups = [
            [
                Table1Task(
                    case_name=name, size=self.cases[name].size, mode=mode,
                    method=key.method, backend=key.backend,
                    eq_smt_deadline=60.0, validator="sylvester", sigfigs=10,
                    keep_candidate=True,
                )
                for mode in self.modes
                for key in self.rows
                if not (key.method == "eq-smt" and name in self.no_eq_smt)
            ]
            for name in self.config["cases"]
        ]
        return _cases_ordered(groups, rng)

    def _table2_tasks(self, rng):
        from repro.runner import Table2Task

        groups = [
            [
                Table2Task(
                    case_name=name, size=self.cases[name].size, mode=mode,
                    method=key.method, backend=key.backend, sigfigs=10,
                    validator="sylvester",
                )
                for mode in self.modes
                for key in self.rows_t2
            ]
            for name in self.config["table2"]
        ]
        return _cases_ordered(groups, rng)

    def round(self, index, counters):
        from repro.experiments import rounding_sweep
        from repro.runner import Journal, TimingCollector
        from repro.service.engine import CampaignEngine

        rng = random.Random(f"{self.seed}/{index}")
        timing = TimingCollector()
        journal = Journal(self.workdir / f"ladder-journal-{index}.jsonl")
        engine = CampaignEngine(jobs=self.jobs, timing=timing, journal=journal)
        items = []
        campaign_s = 0.0
        try:
            t1_tasks = self._table1_tasks(rng)
            start = time.perf_counter()
            outcomes = engine.run(t1_tasks)
            records = [record for record, _candidate in outcomes]
            candidates = {
                (t.case_name, t.mode, t.method, t.backend): candidate
                for t, (_record, candidate) in zip(t1_tasks, outcomes)
                if candidate is not None
            }
            sweep = rounding_sweep(
                candidates, sigfig_levels=(10, 6, 4), base_records=records,
                engine=engine,
            )
            table2 = engine.run(self._table2_tasks(rng))
            campaign_s = time.perf_counter() - start
        finally:
            journal.close()
        for record in records:
            items.append(_table1_item("t1", record))
        for record in sweep:
            if record.sigfigs != 10:
                items.append(_table1_item("sweep", record))
        for record in table2:
            items.append(_table2_item(record))
        counters["runner.tasks"] += len(timing.timings)
        counters["runner.busy_s"] += sum(t.wall_s for t in timing.timings)
        counters["runner.capacity_s"] += self.jobs * campaign_s
        counters["runner.retries"] += (
            engine.stats.retry_attempts + engine.stats.requeue_attempts
        )
        # Latency of a task is the runner's wall time for it.
        return items, [t.wall_s for t in timing.timings]

    def close(self):
        pass


def _table1_item(prefix, record):
    key = "/".join(
        str(part) for part in (
            prefix, record.case, record.mode, record.method,
            record.backend or "-",
        )
    )
    if prefix == "sweep":
        key += f"/{record.sigfigs}sf"
    observed = {"status": record.synth_status, "valid": record.valid}
    if record.synth_status == "ok":
        verdict = {True: "proved", False: "refuted", None: "undecided"}[
            record.valid
        ]
    elif record.synth_status == "infeasible":
        verdict = "infeasible"
    elif record.synth_status == "timeout":
        verdict = "undecided"
    else:
        verdict = "failed"
    return Item(key, observed, verdict)


def _table2_item(record):
    key = "/".join(
        str(part) for part in (
            "t2", record.case, record.mode, record.method,
            record.backend or "-",
        )
    )
    verdict = {
        None: "proved",
        "candidate not validated": "refuted",
        "synthesis failed": "infeasible",
    }.get(record.skipped_reason, "failed")
    return Item(key, {"skip": record.skipped_reason}, verdict)


# ----------------------------------------------------------------------
# icp-search: Figure 3's search validators on two pool workers
# ----------------------------------------------------------------------

#: Per-face box budget of every search: the mode-0 positivity searches
#: close every face below it, ``size3/1/lmi/ipm/P`` keeps one face open.
ICP_MAX_BOXES = 2_000

#: ``(case, mode, method, backend, condition, validator)``. ``P`` is the
#: positivity check of the rounded candidate, ``dec`` the decrease
#: check on ``-(AᵀP + PA)``.
ICP_SEARCHES = (
    ("size3", 0, "lmi", "ipm", "P", "icp"),
    ("size3", 0, "lmi", "ipm", "P", "icp+det"),
    ("size3i", 0, "lmi", "ipm", "P", "icp"),
    ("size3", 1, "lmi", "ipm", "P", "icp"),
    ("size3", 0, "eq-num", None, "dec", "icp+det"),
    ("size3", 1, "eq-num", None, "dec", "icp"),
    ("size3i", 0, "eq-num", None, "dec", "icp"),
    ("size3i", 1, "eq-num", None, "dec", "icp+det"),
    ("size3", 0, "lmi-alpha", "shift", "dec", "icp"),
    ("size3", 1, "lmi-alpha", "shift", "dec", "icp+det"),
)
ICP_REDUCED = (0, 3, 4)


class _IcpRun(Task):
    """One search of :data:`ICP_SEARCHES` in a pool worker."""

    def __init__(self, search):
        self.search = search

    def run(self):
        from repro.validate import run_validator

        validator, matrix = _INPUTS[self.search]
        result = run_validator(validator, matrix, max_boxes=ICP_MAX_BOXES)
        return result.valid, result.extra["boxes"]


class IcpSearch(_Streamed):
    name = "icp-search"
    #: About 9 rounds of 10 searches fit the window: 18 samples lie
    #: beyond p80, fewer than 10 beyond p90.
    tail_percentile = 80

    def setup(self, seed, profile, workdir):
        from repro.engine import case_by_name
        from repro.exact import RationalMatrix
        from repro.lyapunov import synthesize
        from repro.validate import lie_derivative_exact

        chosen = (
            ICP_SEARCHES if profile == "full"
            else [ICP_SEARCHES[i] for i in ICP_REDUCED]
        )
        cases = {spec[0]: case_by_name(spec[0]) for spec in chosen}
        tasks = []
        for spec in chosen:
            case_name, mode, method, backend, condition, validator = spec
            a = cases[case_name].mode_matrix(mode)
            candidate = synthesize(method, a, backend=backend or "ipm")
            p = candidate.exact_p(10)
            if condition == "dec":
                exact_a = RationalMatrix.from_numpy(a)
                matrix = lie_derivative_exact(p, exact_a).scale(-1)
            else:
                matrix = p
            key = "/".join(
                str(part) for part in (
                    case_name, mode, method, backend or "-", condition,
                    validator,
                )
            )
            _INPUTS[key] = (validator, matrix)
            tasks.append((key, _IcpRun(key)))
        self._start(seed, tasks)

    def _item(self, key, result, counters):
        valid, boxes = result
        verdict = {True: "proved", False: "refuted", None: "undecided"}[valid]
        return Item(key, {"valid": valid, "boxes": boxes}, verdict)


# ----------------------------------------------------------------------
# piecewise: CEGIS grid and the paper's piecewise pipeline on two pool
# workers
# ----------------------------------------------------------------------

class _PiecewiseRun(Task):
    """One CEGIS cell or pipeline run in a pool worker, through a
    one-job :class:`CampaignEngine` (in the worker's own process)."""

    def __init__(self, kind, spec):
        self.kind = kind
        self.spec = spec

    def run(self):
        from repro.experiments import run_piecewise
        from repro.experiments.cegis import run_cegis
        from repro.runner import TimingCollector
        from repro.service.engine import CampaignEngine

        timing = TimingCollector()
        engine = CampaignEngine(jobs=1, timing=timing)
        start = time.perf_counter()
        if self.kind == "cegis":
            name, regime, synthesis = self.spec
            (record,) = run_cegis(
                case_names=(name,), grid=((regime, synthesis),),
                engine=engine,
            )
        else:
            name, encoding = self.spec
            (record,) = run_piecewise(
                case_names=(name,), encodings=(encoding,),
                max_iterations=6_000, engine=engine,
            )
        runner = {
            "runner.tasks": len(timing.timings),
            "runner.busy_s": sum(t.wall_s for t in timing.timings),
            "runner.capacity_s": time.perf_counter() - start,
            "runner.retries": (
                engine.stats.retry_attempts + engine.stats.requeue_attempts
            ),
        }
        return record, runner


class Piecewise(_Streamed):
    name = "piecewise"
    #: About 13 rounds of 5 tasks fit the window: 13 samples lie beyond
    #: p80, fewer than 10 beyond p90.
    tail_percentile = 80
    profiles = {
        "full": {
            "cegis": (
                ("size3", "nominal", "full"),
                ("size3", "attracting", "full"),
                ("size3", "attracting", "sampled"),
                ("size5", "attracting", "full"),
            ),
            "pipeline": (("size3", "continuous"),),
        },
        "reduced": {
            "cegis": (
                ("size3", "nominal", "full"),
                ("size3", "attracting", "full"),
            ),
            "pipeline": (("size3", "continuous"),),
        },
    }

    def setup(self, seed, profile, workdir):
        from repro.engine import case_by_name

        config = self.profiles[profile]
        for name, *_rest in (*config["cegis"], *config["pipeline"]):
            case = case_by_name(name)
            case.switched_system(case.reference())
        tasks = [
            (f"cegis/{'/'.join(spec)}", _PiecewiseRun("cegis", spec))
            for spec in config["cegis"]
        ] + [
            (f"pipeline/{'/'.join(spec)}", _PiecewiseRun("pipeline", spec))
            for spec in config["pipeline"]
        ]
        self._start(seed, tasks)

    def warm_up(self):
        """One untimed round: a worker's first CEGIS and pipeline runs
        fill its own caches and take up to half again as long."""
        futures = [self.pool.submit(task) for _key, task in self.tasks]
        for future in futures:
            future.result()

    def _item(self, key, result, counters):
        record, runner = result
        for name, value in runner.items():
            counters[name] += value
        if key.startswith("cegis/"):
            return _cegis_item(record)
        return _pipeline_item(record)


def _cegis_item(record):
    key = f"cegis/{record.case}/{record.regime}/{record.synthesis}"
    observed = {
        "status": record.status, "rounds": record.rounds,
        "cuts": record.cuts, "digest": record.digest,
    }
    verdict = {
        "validated": "proved", "infeasible": "infeasible",
        "stalled": "undecided", "exhausted": "undecided",
    }.get(record.status, "failed")
    return Item(key, observed, verdict)


def _pipeline_item(record):
    key = f"pipeline/{record.case}/{record.encoding}"
    observed = {
        "lmi_feasible": record.lmi_feasible,
        "proved_infeasible": record.proved_infeasible,
        "valid": record.validation_valid,
        "failed_conditions": list(record.failed_conditions),
    }
    if record.proved_infeasible:
        verdict = "infeasible"
    else:
        verdict = {True: "proved", False: "refuted", None: "undecided"}[
            record.validation_valid
        ]
    return Item(key, observed, verdict)


# ----------------------------------------------------------------------
# certify-stream: closed-loop requests to the certification service
# ----------------------------------------------------------------------

class CertifyStream(_Rounds):
    name = "certify-stream"
    jobs = 2
    outstanding = 2
    #: p90 falls among the cheap misses (a few ms, mostly IPC); p99 is
    #: the size-10 LMI misses, with 12 samples beyond it per round.
    tail_percentile = 99
    recipes = (("lmi", "ipm"), ("lmi-alpha", "shift"), ("eq-num", None))
    profiles = {
        "full": {
            "cases": ("size3", "size3i", "size5", "size5i", "size10",
                      "size10i"),
            "scales": (0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
            "requests": 1200,
        },
        "reduced": {
            "cases": ("size3", "size5"),
            "scales": (1.0, 2.0),
            "requests": 120,
        },
    }
    #: Zipf exponent of the request popularity.
    zipf_s = 1.1
    #: Distinct requests re-run uncached in-process after each run.
    recheck = 12

    def setup(self, seed, profile, workdir):
        import numpy as np

        from repro.engine import MODES, case_by_name
        from repro.service import CertificationService

        self.seed = seed
        self.config = self.profiles[profile]
        service = CertificationService()
        self.requests = []  # (key, CertifyTask)
        sizes = set()
        for name in self.config["cases"]:
            case = case_by_name(name)
            for mode in MODES:
                a = np.asarray(case.mode_matrix(mode), dtype=float)
                sizes.add(a.shape[0])
                for scale in self.config["scales"]:
                    for method, backend in self.recipes:
                        key = f"{name}/{mode}/x{scale:g}/{method}/{backend or '-'}"
                        task = service.request(
                            scale * a, method=method, backend=backend
                        )
                        self.requests.append((key, task))
        service.close()
        # The popularity order is fixed, so every seed asks for the same
        # mix of hot and cold requests; the seed draws the stream.
        rng = random.Random("ranks")
        self.rank_to_item = _shuffled(range(len(self.requests)), rng)
        weights = [
            1.0 / (rank + 1) ** self.zipf_s
            for rank in range(len(self.requests))
        ]
        total = sum(weights)
        self.cumulative = list(np.cumsum(weights) / total)
        self.pool = _warm_pool(self.jobs, warm_sizes=sorted(sizes))
        self.results: dict[int, dict] = {}
        self.hit_latency: list[float] = []
        self.miss_latency: list[float] = []

    def _draws(self, index):
        rng = random.Random(f"{self.seed}/{index}")
        draws = []
        for _ in range(self.config["requests"]):
            rank = bisect.bisect_left(self.cumulative, rng.random())
            draws.append(self.rank_to_item[min(rank, len(self.requests) - 1)])
        return draws

    def round(self, index, counters):
        from repro.service import CertificationService

        draws = self._draws(index)
        service = CertificationService(pool=self.pool)
        submitted = [0.0] * len(draws)
        finished = [0.0] * len(draws)
        hits = [False] * len(draws)
        futures = [None] * len(draws)
        # Callbacks stamp the finish time before reporting completion, so
        # the loop never reads a request as done before it is timed.
        completed: queue.SimpleQueue = queue.SimpleQueue()
        in_flight = 0

        def on_done(position):
            def callback(_future):
                finished[position] = time.perf_counter()
                completed.put(position)
            return callback

        for position, item in enumerate(draws):
            while in_flight >= self.outstanding:
                completed.get()
                in_flight -= 1
            hits_before = service.store.hits
            submitted[position] = time.perf_counter()
            future = service.submit(self.requests[item][1])
            hits[position] = service.store.hits > hits_before
            futures[position] = future
            in_flight += 1
            future.add_done_callback(on_done(position))
        for _ in range(in_flight):
            completed.get()
        items, latencies = [], []
        for position, item in enumerate(draws):
            key = self.requests[item][0]
            latency = finished[position] - submitted[position]
            latencies.append(latency)
            (self.hit_latency if hits[position] else self.miss_latency).append(
                latency
            )
            try:
                certificate = futures[position].result()
            except Exception as exc:  # environmental failure: count it
                items.append(Item(key, {"error": repr(exc)}, "failed"))
                continue
            observed = _certificate_observed(certificate)
            self.results[item] = observed
            items.append(Item(key, observed, _certificate_verdict(observed)))
        service_counters = service.counters()
        counters["service.requests"] += service_counters["requests"]
        counters["service.hits"] += service.store.hits
        counters["service.computations"] += service_counters["computations"]
        counters["service.dedup_hits"] += service_counters["dedup_hits"]
        service.store.close()
        return items, latencies

    def recheck_uncached(self):
        """Re-run a seeded sample of the computed requests in-process,
        uncached, and return the keys whose verdict differs."""
        rng = random.Random(f"{self.seed}/recheck")
        seen = sorted(self.results)
        sample = rng.sample(seen, min(self.recheck, len(seen)))
        mismatched = []
        for item in sample:
            key, task = self.requests[item]
            observed = _certificate_observed(task.run())
            if observed != self.results[item]:
                mismatched.append(key)
        return mismatched

    def all_uncached(self):
        """Every distinct request run in-process (reference recording)."""
        return {
            key: _certificate_observed(task.run())
            for key, task in self.requests
        }

    def close(self):
        self.pool.close()


def _certificate_observed(certificate) -> dict:
    return {"status": certificate.synth_status, "valid": certificate.valid}


def _certificate_verdict(observed) -> str:
    status = observed["status"]
    if status == "ok":
        return {True: "proved", False: "refuted", None: "undecided"}[
            observed["valid"]
        ]
    return {"infeasible": "infeasible", "timeout": "undecided"}.get(
        status, "failed"
    )


WORKLOADS = {
    cls.name: cls for cls in (Ladder, IcpSearch, Piecewise, CertifyStream)
}
