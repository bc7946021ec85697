"""One workload run in a fresh process; ``run.py`` starts it.

Sets up the workload, runs rounds until ``--seconds`` is spent, checks
every verdict against the recorded reference (outside the timed
region) and writes one result JSON to ``--result``. With ``--trace 1``
the layer wrappers are installed before set-up, so spans cover the
whole run, forked workers included.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict


def cpu_now() -> float:
    """CPU seconds of this process and every child, live or reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            stat = pathlib.Path(f"/proc/{child.pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def peak_rss_mb() -> float:
    """Largest resident-set high-water mark among this process and its
    children (live ones read from ``/proc``)."""
    peaks = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ]
    for child in multiprocessing.active_children():
        try:
            status = pathlib.Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peaks.append(int(line.split()[1]))
    return max(peaks) / 1024.0


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def env_info(root: pathlib.Path, seed: int, cpus: list[int]) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        dep = config["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except Exception:
        pass
    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(cpus),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": _commit(root),
        "seed": seed,
    }


def _commit(root: pathlib.Path) -> str:
    """The git commit when the checkout has one, else a digest of the
    package sources."""
    import hashlib
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _build_cases() -> None:
    from repro.engine import benchmark_suite

    for case in benchmark_suite(sizes=(3, 5, 10), integer_sizes=(3, 5, 10)):
        for mode in (0, 1):
            case.mode_matrix(mode)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--profile", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    root = pathlib.Path(__file__).resolve().parent.parent
    workdir = pathlib.Path(args.workdir)
    allowed_cpus = sorted(os.sched_getaffinity(0))

    import spans as layer_trace
    from workloads import DECIDED, WORKLOADS

    rec = None
    if args.trace:
        from repro.exact import kernel_cache_info

        dump_dir = workdir / "spans"
        dump_dir.mkdir(parents=True, exist_ok=True)
        rec = layer_trace.Recorder()
        layer_trace.install(rec, dump_dir)
        cache_before = kernel_cache_info()

    case_start = time.perf_counter()
    if rec is not None:
        with rec.span("engine.case_build"):
            _build_cases()
    else:
        _build_cases()
    case_build_s = time.perf_counter() - case_start
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.profile, workdir)
    setup_s = time.time() - args.launched
    result = {
        "workload": args.workload, "seed": args.seed,
        "profile": args.profile, "trace": args.trace, "setup_s": setup_s,
    }
    if args.setup_only:
        workload.close()
        pathlib.Path(args.result).write_text(json.dumps(result))
        return 0

    if hasattr(workload, "warm_up"):
        workload.warm_up()
    counters: dict[str, float] = defaultdict(float)
    items, latencies, walls, cpus = [], [], [], []
    window_start = time.perf_counter()

    def more() -> bool:
        """Whether another round still fits the window."""
        if args.record:
            return False
        spent = time.perf_counter() - window_start
        return not walls or spent + statistics.median(walls) <= args.seconds

    # A round's wall and CPU time run from the previous round's end (or
    # the window's start) to its own; the streamed workloads overlap
    # rounds, so their rounds' times add up to the window.
    cpu_mark, wall_mark = cpu_now(), window_start
    for round_items, round_latencies in workload.rounds(more, counters):
        wall_end, cpu_end = time.perf_counter(), cpu_now()
        wall = wall_end - wall_mark
        walls.append(wall)
        cpus.append(cpu_end - cpu_mark)
        items += round_items
        latencies += round_latencies
        cpu_mark, wall_mark = cpu_end, wall_end

    # Everything below is outside the timed region.
    if rec is not None:
        rec.enabled = False
    reference = json.loads(pathlib.Path(args.reference).read_text())
    expected = reference.get(args.workload, {})
    mismatches = []
    for item in items:
        if item.verdict == "failed":
            mismatches.append(f"{item.key}: failed {item.observed}")
        elif not args.record and expected.get(item.key) != item.observed:
            mismatches.append(
                f"{item.key}: got {item.observed}, "
                f"reference {expected.get(item.key)}"
            )
    failed = len(mismatches)
    if args.record:
        result["observed"] = {item.key: item.observed for item in items}
        if hasattr(workload, "all_uncached"):
            result["observed"].update(workload.all_uncached())
    elif hasattr(workload, "recheck_uncached"):
        for key in workload.recheck_uncached():
            mismatches.append(f"{key}: pool verdict differs from in-process")
            failed += 1
    peak = peak_rss_mb()
    workload.close()

    decided = sum(1 for item in items if item.verdict in DECIDED)
    result.update({
        "env": env_info(root, args.seed, allowed_cpus),
        "rounds": len(walls),
        "attempted": len(items),
        "failed": failed,
        "mismatches": mismatches[:20],
        "latency_samples": len(latencies),
        "tail_percentile": workload.tail_percentile,
        "round_walls_s": walls,
        "round_cpus_s": cpus,
        # Totals over the window divided by rounds, not medians: the
        # host's speed drifts over tens of seconds, and on the streamed
        # workloads a round's wall time depends on how its tasks
        # interleave with the next round's; the totals average both.
        "metrics": {
            "wall_s": sum(walls) / len(walls),
            "cpu_s": sum(cpus) / len(cpus),
            "latency_s.p50": percentile(latencies, 50),
            "latency_s.tail": percentile(
                latencies, workload.tail_percentile
            ),
            "throughput_per_s": len(items) / sum(walls),
            "decided_frac": decided / len(items),
            "peak_rss_mb": peak,
        },
    })
    if rec is not None:
        layer_trace.count_cache(rec, cache_before, kernel_cache_info())
        rec.dump(dump_dir / "client.json")
        dumps = layer_trace.load_dumps(dump_dir)
        capacity = counters["runner.capacity_s"]
        requests = counters["service.requests"]
        hit_lat = getattr(workload, "hit_latency", [])
        miss_lat = getattr(workload, "miss_latency", [])
        pool = getattr(workload, "pool", None)
        extra = {
            "engine.case_build_s": case_build_s,
            "runner.tasks": counters["runner.tasks"],
            "runner.busy_s": counters["runner.busy_s"],
            "runner.idle_frac": (
                1.0 - counters["runner.busy_s"] / capacity if capacity else 0.0
            ),
            "runner.retries": counters["runner.retries"],
            "service.requests": requests,
            "service.hit_frac": (
                counters["service.hits"] / requests if requests else 0.0
            ),
            "service.computations": counters["service.computations"],
            "service.dedup_hits": counters["service.dedup_hits"],
            "service.hit_latency_s.p50": percentile(hit_lat, 50),
            "service.miss_latency_s.p50": percentile(miss_lat, 50),
            "service.pool.respawns": (
                pool.counters()["respawns"] if pool is not None else 0
            ),
        }
        result["layers"] = layer_trace.layer_metrics(dumps, extra)
        result["entries"] = layer_trace.entry_calls(dumps)
    pathlib.Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
