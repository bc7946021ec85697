"""Benchmark harness for the certification service.

Replays a 10³-request trace shaped like the Table I / Table II
workloads — the closed-loop mode matrices of the benchmark suite under
several decay-scaling levels, requested repeatedly with the skew of a
real certification stream — through one
:class:`repro.service.CertificationService`, twice:

* **cold**: empty content-addressed store; first occurrences pay full
  synthesis+validation, repeats within the trace already hit the cache;
* **warm**: the same trace replayed against the populated store — every
  request is a cache hit.

The headline pin is the warm-over-cold speedup of the full replay
(wall-clock), which must be at least 5x. ``REPRO_PERF_SOFT=1``
(shared/noisy CI runners) relaxes the 5x pin to a warning but still
hard-fails below 2.5x. Per-request p50/p99 latencies, throughput and
cache hit rates for both passes land in the ``service`` section of
``BENCH_experiments.json`` (schema ``repro-bench/2``), alongside the
fingerprint-memoization hot-loop numbers (a 10⁴-task campaign
fingerprints every task at least twice: journal lookup + record).
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from repro.engine import MODES, benchmark_suite
from repro.runner import task_fingerprint, write_section
from repro.service import CertificationService, CertifyTask

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_experiments.json"
)

N_REQUESTS = 1_000
PIN_SPEEDUP = 5.0
#: REPRO_PERF_SOFT floor: >2x regression from the pinned 5x baseline.
SOFT_FLOOR_SPEEDUP = 2.5

N_FINGERPRINT_TASKS = 10_000
#: The memoized fingerprint is one attribute read; recomputing the
#: salted SHA-256 over the tagged-JSON spec is orders of magnitude
#: slower. Pin a conservative floor.
FINGERPRINT_PIN_SPEEDUP = 5.0


def _trace() -> list[CertifyTask]:
    """The distinct request population + the skewed 10³-request trace.

    Six closed-loop mode matrices (sizes 3 and 5, both operating
    modes) under eight decay scalings = 48 distinct certification
    requests, replayed round-robin to ``N_REQUESTS`` — so the cold
    pass itself sees ~95% repeats, the shape of a fleet certifying a
    gain-schedule grid.
    """
    matrices = [
        np.asarray(case.mode_matrix(mode), dtype=float)
        for case in benchmark_suite(sizes=(3, 5), integer_sizes=(3,))
        for mode in MODES
    ]
    distinct = [
        CertifyTask(scale * a, method="lmi", backend="ipm", sigfigs=8)
        for a in matrices
        for scale in (1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.35)
    ]
    return [distinct[i % len(distinct)] for i in range(N_REQUESTS)]


def _replay(service: CertificationService, trace) -> dict:
    latencies = np.empty(len(trace))
    started = time.perf_counter()
    for i, request in enumerate(trace):
        t0 = time.perf_counter()
        certificate = service.certify(request)
        latencies[i] = time.perf_counter() - t0
        assert certificate.synth_status == "ok"
    wall = time.perf_counter() - started
    return {
        "requests": len(trace),
        "wall_s": wall,
        "throughput_rps": len(trace) / wall,
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
    }


def test_service_replay_speedup_pin(perf_pin):
    """The tentpole pin: warm replay >=5x faster than the cold pass."""
    trace = _trace()
    distinct = len({task_fingerprint(t) for t in trace})
    with CertificationService(sigfigs=8) as service:
        cold = _replay(service, trace)
        cold_counters = service.counters()
        warm = _replay(service, trace)
        warm_counters = service.counters()

    # Cold pass: every distinct request computed exactly once, repeats
    # served from the cache. Warm pass: pure cache hits.
    assert cold_counters["computations"] == distinct
    assert warm_counters["computations"] == distinct
    assert warm_counters["memory_hits"] == 2 * len(trace) - distinct
    cold["hit_rate"] = (len(trace) - distinct) / len(trace)
    warm["hit_rate"] = 1.0

    speedup = cold["wall_s"] / warm["wall_s"]
    perf_pin.check(
        "service replay", speedup, PIN_SPEEDUP, SOFT_FLOOR_SPEEDUP,
        detail=f" (warm {warm['wall_s']:.3f}s, cold {cold['wall_s']:.3f}s)",
    )

    data = write_section(
        BENCH_PATH,
        "service",
        {
            "config": {
                "requests": len(trace),
                "distinct": distinct,
                "method": "lmi",
                "backend": "ipm",
            },
            "pin_speedup": PIN_SPEEDUP,
            "soft_floor_speedup": SOFT_FLOOR_SPEEDUP,
            "soft_mode": perf_pin.soft,
            "warm_over_cold_speedup": speedup,
            "cold": cold,
            "warm": warm,
            "store": {
                k: warm_counters[k]
                for k in ("memory_hits", "misses", "writes", "evictions")
            },
            "fingerprint_memo": _fingerprint_bench(),
        },
    )
    assert data["schema"] == "repro-bench/2"
    on_disk = json.loads(BENCH_PATH.read_text())
    assert on_disk["service"]["warm_over_cold_speedup"] == pytest.approx(
        speedup
    )
    assert "experiments" in on_disk


def _fingerprint_bench() -> dict:
    """Fingerprint a 10⁴-task campaign's hot loop, cold vs memoized."""
    tasks = [
        CertifyTask(
            [[-1.0 - i / N_FINGERPRINT_TASKS, 0.25], [0.0, -2.0]],
            method="lmi", backend="shift",
        )
        for i in range(N_FINGERPRINT_TASKS)
    ]
    started = time.perf_counter()
    for task in tasks:
        task_fingerprint(task)
    cold_s = time.perf_counter() - started
    started = time.perf_counter()
    for task in tasks:
        task_fingerprint(task)
    memo_s = time.perf_counter() - started
    return {
        "tasks": N_FINGERPRINT_TASKS,
        "cold_s": cold_s,
        "memoized_s": memo_s,
        "speedup": cold_s / memo_s,
    }


def test_fingerprint_memoization_speedup():
    """The runner's hot loop fingerprints every task at least twice
    (journal lookup, then the result record); the memo makes every
    repeat a single attribute read."""
    result = _fingerprint_bench()
    assert result["speedup"] >= FINGERPRINT_PIN_SPEEDUP, (
        f"memoized fingerprinting only {result['speedup']:.1f}x faster "
        f"than recomputation (floor {FINGERPRINT_PIN_SPEEDUP:g}x)"
    )


def test_replay_certificates_match_direct_path():
    """Spot-check the replay returns exactly what direct tasks compute."""
    trace = _trace()[:4]
    direct = [
        CertifyTask(
            t.a, method=t.method, backend=t.backend,
            validator=t.validator, sigfigs=t.sigfigs,
        ).run()
        for t in trace
    ]
    with CertificationService(sigfigs=8) as service:
        served = [service.certify(t) for t in trace]
    assert [c.identity() for c in served] == [
        c.identity() for c in direct
    ]
