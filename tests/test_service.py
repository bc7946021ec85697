"""Tests for the certification service (repro.service).

Covers the three performance layers — the content-addressed
certificate store, single-flight dedup + same-shape batching, and the
persistent warm-worker pool — plus the campaign engine the experiment
drivers route through, the ``REPRO_JOBS`` override, and fingerprint
memoization. The dedup/batching tests are *differential*: every
accelerated path must reproduce the direct path's
:meth:`repro.service.Certificate.identity` bit for bit.
"""

import asyncio
import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    ChaosPolicy,
    ChaosTask,
    Journal,
    Task,
    resolve_jobs,
    run_tasks,
    task_fingerprint,
)
from repro.service import (
    AsyncCertificationService,
    CampaignEngine,
    Certificate,
    CertificationService,
    CertifyTask,
    CertificateStore,
    PoolDeadlineError,
    PoolOutcome,
    WarmPool,
    certify,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A small Hurwitz matrix certifiable in well under a millisecond via
#: the shift backend; the standard fast request for these tests.
STABLE = [[-1.0, 0.25], [0.0, -2.0]]
UNSTABLE = [[1.0, 0.0], [0.0, -1.0]]


def fast_request(service, a=STABLE, **kwargs):
    kwargs.setdefault("method", "lmi")
    kwargs.setdefault("backend", "shift")
    return service.request(a, **kwargs)


# ----------------------------------------------------------------------
# Module-level tasks (picklable for the pool tests)
# ----------------------------------------------------------------------

class HangTask(Task):
    def run(self):
        time.sleep(600)


class SleepTask(Task):
    def run(self):
        time.sleep(0.3)


def _running(pid) -> bool:
    """Alive and not a zombie (an orphan's exit may go unreaped)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# ----------------------------------------------------------------------
# Certificate store
# ----------------------------------------------------------------------

class TestCertificateStore:
    def test_memory_hit_miss_counters(self):
        store = CertificateStore()
        assert store.get("a") is None
        store.put("a", "cert-a")
        assert store.get("a") == "cert-a"
        assert store.counters()["memory_hits"] == 1
        assert store.counters()["misses"] == 1
        assert store.hit_rate == 0.5
        assert "a" in store and "b" not in store

    def test_lru_eviction_order(self):
        store = CertificateStore(capacity=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # refresh "a": "b" is now LRU
        store.put("c", 3)
        assert store.evictions == 1
        assert store.get("b") is None  # evicted
        assert store.get("a") == 1 and store.get("c") == 3

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CertificateStore(capacity=0)

    def test_disk_tier_round_trip(self, tmp_path):
        path = tmp_path / "certs.jsonl"
        cert = Certificate(
            fingerprint="f", method="lmi", backend="shift",
            validator="sylvester", sigfigs=6, n=2, synth_status="ok",
            p=np.eye(2), valid=True,
        )
        with CertificateStore(path) as store:
            store.put("f", cert)
        with CertificateStore(path) as fresh:
            got = fresh.get("f")
            assert fresh.disk_hits == 1
            assert got.identity() == cert.identity()
            # Promoted to memory: second read never touches disk.
            assert fresh.get("f").identity() == cert.identity()
            assert fresh.memory_hits == 1


# ----------------------------------------------------------------------
# Cache + single-flight dedup
# ----------------------------------------------------------------------

class TestCacheAndDedup:
    def test_repeat_request_hits_cache(self):
        with CertificationService(sigfigs=6) as svc:
            cold = svc.certify(STABLE, method="lmi", backend="shift")
            warm = svc.certify(STABLE, method="lmi", backend="shift")
        assert cold.identity() == warm.identity()
        assert svc.computations == 1
        assert svc.store.memory_hits == 1
        assert cold.synth_status == "ok" and cold.valid is True

    def test_deterministic_failure_is_cached(self):
        with CertificationService(sigfigs=6) as svc:
            first = svc.certify(UNSTABLE, method="lmi", backend="shift")
            second = svc.certify(UNSTABLE, method="lmi", backend="shift")
        assert first.synth_status == "infeasible"
        assert first.identity() == second.identity()
        assert svc.computations == 1

    def test_distinct_recipes_do_not_collide(self):
        with CertificationService(sigfigs=6) as svc:
            a = svc.certify(STABLE, method="lmi", backend="shift")
            b = svc.certify(STABLE, method="lmi", backend="proj")
        assert svc.computations == 2
        assert a.fingerprint != b.fingerprint

    def test_one_shot_convenience(self):
        cert = certify(STABLE, method="lmi", backend="shift")
        assert cert.synth_status == "ok" and cert.valid is True

    @settings(max_examples=5)
    @given(
        n_threads=st.integers(min_value=2, max_value=8),
        diag=st.tuples(
            st.floats(min_value=-4.0, max_value=-0.5),
            st.floats(min_value=-4.0, max_value=-0.5),
        ),
    )
    def test_concurrent_identical_requests_coalesce(self, n_threads, diag):
        """N concurrent identical certify calls: exactly one journal
        entry (one store write) and byte-identical certificates."""
        matrix = [[diag[0], 0.125], [0.0, diag[1]]]
        results: list = [None] * n_threads
        with CertificationService(sigfigs=6) as svc:
            barrier = threading.Barrier(n_threads)

            def hit(i):
                barrier.wait()
                results[i] = svc.certify(
                    matrix, method="lmi", backend="shift"
                )

            threads = [
                threading.Thread(target=hit, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert svc.store.writes == 1
        assert svc.requests == n_threads
        identities = {r.identity() for r in results}
        assert len(identities) == 1
        direct = CertifyTask(
            matrix, method="lmi", backend="shift", sigfigs=6
        ).run()
        assert identities == {direct.identity()}

    def test_concurrent_requests_one_journal_entry(self, tmp_path):
        path = tmp_path / "certs.jsonl"
        n_threads = 6
        with CertificationService(
            store=CertificateStore(path), sigfigs=6
        ) as svc:
            barrier = threading.Barrier(n_threads)
            results = [None] * n_threads

            def hit(i):
                barrier.wait()
                results[i] = svc.certify(
                    STABLE, method="lmi", backend="shift"
                )

            threads = [
                threading.Thread(target=hit, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        with Journal(path, resume=True) as journal:
            assert len(journal) == 1
            entry = journal.get(results[0].fingerprint)
            assert entry is not None and entry.status == "ok"
            assert entry.result.identity() == results[0].identity()


# ----------------------------------------------------------------------
# Same-shape batching
# ----------------------------------------------------------------------

class TestBatching:
    def _grid(self, service):
        requests = []
        for shift in (1.0, 1.5, 2.0):
            a = [[-shift, 0.25], [0.0, -2 * shift]]
            requests.append(fast_request(service, a))
        requests.append(fast_request(service, UNSTABLE))
        return requests

    def test_batched_screen_bit_identical_to_direct(self):
        with CertificationService(sigfigs=6) as svc:
            requests = self._grid(svc)
            direct = [
                CertifyTask(
                    r.a, method=r.method, backend=r.backend,
                    validator=r.validator, sigfigs=r.sigfigs,
                ).run()
                for r in requests
            ]
            batched = svc.certify_many(requests)
        assert [c.identity() for c in batched] == [
            c.identity() for c in direct
        ]
        assert svc.computations == len(requests)

    def test_batch_dedups_within_and_against_cache(self):
        with CertificationService(sigfigs=6) as svc:
            cached = svc.certify(STABLE, method="lmi", backend="shift")
            batch = svc.certify_many(
                [
                    fast_request(svc),  # cache hit
                    fast_request(svc, [[-3.0, 0.0], [1.0, -1.0]]),
                    fast_request(svc, [[-3.0, 0.0], [1.0, -1.0]]),  # dup
                ]
            )
        assert batch[0].identity() == cached.identity()
        assert batch[1].identity() == batch[2].identity()
        assert svc.computations == 2  # cold + one fresh; dup coalesced
        assert svc.dedup_hits == 1

    def test_batch_results_in_request_order(self):
        with CertificationService(sigfigs=6) as svc:
            requests = self._grid(svc)
            fingerprints = [task_fingerprint(r) for r in requests]
            batch = svc.certify_many(requests)
        assert [c.fingerprint for c in batch] == fingerprints


# ----------------------------------------------------------------------
# Warm-worker pool
# ----------------------------------------------------------------------

class TestWarmPool:
    def test_pooled_certify_with_provenance(self):
        with CertificationService(
            pool=WarmPool(jobs=2, warm_sizes=(2,)), sigfigs=6
        ) as svc:
            cert = svc.certify(STABLE, method="lmi", backend="shift")
            warm = svc.certify(STABLE, method="lmi", backend="shift")
        assert cert.valid is True
        assert cert.provenance["executor"] == "pool"
        assert cert.provenance["attempts"] == 1
        assert cert.provenance["workers"][0] != os.getpid()
        # The cache hit returns the stored certificate unchanged.
        assert warm.identity() == cert.identity()
        assert svc.pool.counters()["tasks_done"] >= 1

    def test_pool_matches_inline_identity(self):
        with CertificationService(sigfigs=6) as inline_svc:
            inline = inline_svc.certify(STABLE, method="lmi", backend="shift")
        with CertificationService(
            pool=WarmPool(jobs=1), sigfigs=6
        ) as pooled_svc:
            pooled = pooled_svc.certify(STABLE, method="lmi", backend="shift")
        assert pooled.identity() == inline.identity()

    def test_deadline_kills_hung_request(self):
        with WarmPool(jobs=1, retry=0) as pool:
            future = pool.submit(HangTask(), deadline=1.0)
            with pytest.raises(PoolDeadlineError):
                future.result(timeout=60)
            assert pool.deadline_kills == 1
        # The service never caches environmental failures.
        with CertificationService(
            pool=WarmPool(jobs=1, retry=0), sigfigs=6, task_deadline=1.0
        ) as svc:
            with pytest.raises(PoolDeadlineError):
                svc.certify(HangTask())
            assert svc.store.writes == 0

    def test_worker_death_mid_request_retried_on_fresh_worker(self):
        """The chaos worker-death fault: the request's first attempt
        dies mid-flight (after the kill delay); the service retries on
        a freshly warmed worker and records both attempts in the
        certificate's provenance — no lost or duplicated entries."""
        task = CertifyTask(
            STABLE, method="lmi", backend="shift", sigfigs=6
        )
        chaotic = ChaosTask(
            task, ChaosPolicy(kill_first_attempts=1, kill_after_s=0.05)
        )
        with CertificationService(
            pool=WarmPool(jobs=2, retry=2), sigfigs=6
        ) as svc:
            cert = svc.certify(chaotic)
            counters = svc.pool.counters()
        assert cert.synth_status == "ok" and cert.valid is True
        assert cert.provenance["attempts"] == 2
        workers = cert.provenance["workers"]
        assert len(workers) == 2 and workers[0] != workers[1]
        assert counters["worker_deaths"] >= 1
        assert counters["respawns"] >= 1
        assert svc.store.writes == 1  # exactly one certificate stored
        direct = CertifyTask(
            STABLE, method="lmi", backend="shift", sigfigs=6
        ).run()
        assert cert.identity() == direct.identity()

    def test_submit_racing_close_never_hangs(self):
        """A close() landing between submit's closed-check and its put
        must either refuse the request or still resolve it."""
        pool = WarmPool(jobs=1)
        real_put = pool._inbox.put

        def put_after_close(item, *args, **kwargs):
            closer = threading.Thread(target=pool.close)
            closer.start()
            closer.join(timeout=2.0)  # returns early only if unguarded
            real_put(item, *args, **kwargs)

        pool._inbox.put = put_after_close
        try:
            future = pool.submit(
                CertifyTask(STABLE, method="lmi", backend="shift", sigfigs=6)
            )
        except RuntimeError as exc:
            assert str(exc) == "pool is closed"
        else:
            assert future.result(timeout=30).attempts == 1
        finally:
            pool.close()
        with pytest.raises(RuntimeError, match="pool is closed"):
            pool.submit(HangTask())

    def test_idle_workers_exit_when_supervisor_is_killed(self):
        """A SIGKILLed supervisor leaves no worker behind: each worker
        sees its pipe close and exits."""
        script = (
            "from repro.service import WarmPool\n"
            "from tests.test_service import SleepTask\n"
            "pool = WarmPool(jobs=2)\n"
            "for f in [pool.submit(SleepTask()) for _ in range(2)]:\n"
            "    f.result(timeout=60)\n"
            "print(*[w.process.pid for w in pool._supervisor.workers],"
            " flush=True)\n"
            "import time; time.sleep(600)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}:{ROOT}"},
        )
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.kill()
            proc.wait()
        assert len(pids) == 2
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and any(map(_running, pids)):
            time.sleep(0.05)
        assert not any(map(_running, pids))

    def test_pool_outcome_shape(self):
        with WarmPool(jobs=1) as pool:
            outcome = pool.submit(
                CertifyTask(STABLE, method="lmi", backend="shift", sigfigs=6)
            ).result(timeout=120)
        assert isinstance(outcome, PoolOutcome)
        assert outcome.attempts == 1 and len(outcome.workers) == 1

    def test_prewarm_solver_hook(self):
        """The warm-up task runs the solver front-end's prewarm hook;
        its probe (A = -I, P = I) must screen as strictly feasible."""
        from repro.sdp import prewarm_solver
        from repro.service.pool import WarmupTask

        summary = prewarm_solver(3)
        assert summary["n"] == 3 and summary["svec_dim"] == 6
        floor, decay = summary["screen"]
        assert floor > 0 and decay > 0
        assert WarmupTask(sizes=(2,)).run() == os.getpid()


# ----------------------------------------------------------------------
# Async front
# ----------------------------------------------------------------------

class TestAsyncFront:
    def test_gather_with_backpressure(self):
        async def scenario():
            with CertificationService(sigfigs=6) as svc:
                front = AsyncCertificationService(svc, max_pending=2)
                requests = [
                    fast_request(svc, [[-s, 0.0], [0.0, -2.0]])
                    for s in (1.0, 1.5, 2.0, 1.0)  # one duplicate
                ]
                certs = await front.gather(requests)
                single = await front.certify(
                    STABLE, method="lmi", backend="shift"
                )
            return certs, single, svc.computations

        certs, single, computations = asyncio.run(scenario())
        assert [c.synth_status for c in certs] == ["ok"] * 4
        assert certs[0].identity() == certs[3].identity()
        assert computations == 4  # 3 distinct + the standalone
        assert single.valid is True

    def test_rejects_bad_backpressure(self):
        with pytest.raises(ValueError):
            AsyncCertificationService(object(), max_pending=0)


# ----------------------------------------------------------------------
# Campaign engine
# ----------------------------------------------------------------------

class EchoTask(Task):
    def __init__(self, value):
        self.value = value

    def run(self):
        return self.value


class TestCampaignEngine:
    def test_engine_matches_run_tasks(self):
        tasks = [EchoTask(i) for i in range(5)]
        engine = CampaignEngine(jobs=1)
        assert engine.run(tasks) == run_tasks(tasks, jobs=1)
        assert engine.stats.executed == 5

    def test_ensure_passthrough_and_build(self):
        engine = CampaignEngine(jobs=2)
        assert CampaignEngine.ensure(engine, jobs=7) is engine
        built = CampaignEngine.ensure(None, jobs=3, task_deadline=1.5)
        assert built.jobs == 3 and built.task_deadline == 1.5

    def test_drivers_accept_engine(self):
        from repro.experiments import MethodKey, run_table1

        engine = CampaignEngine(jobs=1)
        records, _ = run_table1(
            sizes=(3,), integer_sizes=(),
            methods=[MethodKey("lmi", "shift")],
            engine=engine,
        )
        assert len(records) == 2  # one case, two modes
        assert engine.stats.executed == 2


# ----------------------------------------------------------------------
# REPRO_JOBS + fingerprint memoization satellites
# ----------------------------------------------------------------------

class TestResolveJobsEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2
        assert resolve_jobs(0) == 1

    def test_malformed_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        expected = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1)
        )
        assert resolve_jobs(None) == expected

    def test_env_zero_clamps_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs(None) == 1


class TestFingerprintMemo:
    def test_fingerprint_cached_on_task(self):
        task = CertifyTask(STABLE, method="lmi", backend="shift")
        first = task_fingerprint(task)
        assert task._fingerprint == first
        assert task_fingerprint(task) is first

    def test_memo_does_not_change_fingerprint(self):
        plain = CertifyTask(STABLE, method="lmi", backend="shift")
        warmed = CertifyTask(STABLE, method="lmi", backend="shift")
        expected = task_fingerprint(warmed)  # memo now set on `warmed`
        assert task_fingerprint(plain) == expected
        assert task_fingerprint(warmed) == expected
