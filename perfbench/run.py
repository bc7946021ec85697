"""Benchmark entry point: certification workloads, end to end and per layer.

One workload, the form ``BENCHMARK.json``'s command takes::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

prints a summary and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (every
``end_to_end`` metric of ``BENCHMARK.json``, or with ``--trace 1``
every ``per_layer`` metric). Every workload, untraced then traced, with
the tracing overhead::

    python3 perfbench/run.py --all --seed 1 --out results.json

Re-record the reference verdicts (only when a change is meant to
change a verdict)::

    python3 perfbench/run.py --record-reference

Each run starts fresh processes: two set-up-only probes (``setup_s`` is
the median of three set-ups) and the measuring process, all with
single-threaded BLAS. Scratch files live under ``.perfbench-work/`` in
the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
#: Fresh set-ups per untraced run (probes plus the measuring process).
SETUPS = 3
#: Wall-clock allowance for one invocation (it must end within 180 s).
BUDGET_S = 170.0


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    env = dict(os.environ)
    for name in ("REPRO_JOBS", "REPRO_SHARDS"):
        env.pop(name, None)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], workdir: pathlib.Path, timeout: float) -> dict:
    """Run ``child.py`` once; its result JSON, or raise ``RuntimeError``."""
    result = workdir / f"result-{time.monotonic_ns()}.json"
    command = [
        sys.executable, str(HERE / "child.py"), *args,
        "--workdir", str(workdir), "--result", str(result),
        "--launched", repr(time.time()),
    ]
    try:
        done = subprocess.run(
            command, env=_child_env(), timeout=max(timeout, 1.0),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"workload process timed out after {exc.timeout:.0f} s")
    if done.returncode != 0 or not result.exists():
        raise RuntimeError(
            f"workload process exited {done.returncode}:\n{done.stderr[-3000:]}"
        )
    return json.loads(result.read_text())


def run_workload(
    workload: str, seed: int, seconds: float, trace: int,
    profile: str = "full", reference: pathlib.Path = REFERENCE,
    record: bool = False,
) -> dict:
    """One workload in fresh processes; the measuring child's result
    with ``setup_s`` replaced by the median over the set-ups."""
    started = time.monotonic()
    workdir = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    base = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--profile", profile,
        "--reference", str(reference),
    ]
    try:
        setups = []
        if not trace and not record:
            for _ in range(SETUPS - 1):
                probe = _child(base + ["--setup-only"], workdir, 60.0)
                setups.append(probe["setup_s"])
        remaining = BUDGET_S - (time.monotonic() - started)
        result = _child(
            base + (["--record"] if record else []), workdir, remaining
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run uses it
        except OSError:
            pass
    setups.append(result["setup_s"])
    result["setups_s"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def summary_lines(result: dict, metrics: list[dict]) -> list[str]:
    """Human-readable lines: environment, metrics with units, samples."""
    env = result["env"]
    n = result["latency_samples"]
    tail = result["tail_percentile"]
    lines = [
        "env: " + " ".join(f"{k}={env[k]}" for k in env),
        f"{result['workload']}: {result['rounds']} rounds, "
        f"{result['attempted']} items, {result['failed']} failed "
        f"(failed_frac {result['failed'] / result['attempted']:.4g}); "
        f"latency percentiles over {n} samples; latency_s.tail is "
        f"p{tail}, {n * (100 - tail) // 100} samples beyond it",
    ]
    values = result.get("layers") if result["trace"] else result["metrics"]
    for metric in metrics:
        lines.append(
            f"  {metric['name']} = {_fmt(values[metric['name']])} "
            f"{metric['unit']}"
        )
    for mismatch in result["mismatches"]:
        lines.append(f"  MISMATCH {mismatch}")
    return lines


def result_line(result: dict, metrics: list[dict]) -> str:
    values = result.get("layers") if result["trace"] else result["metrics"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics
        },
    })


def _check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
            "checkout of the repository", file=sys.stderr,
        )
        sys.exit(2)


def main_one(args) -> int:
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, args.trace,
            args.profile, pathlib.Path(args.reference),
        )
    except RuntimeError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(result, indent=1))
    print("\n".join(summary_lines(result, metrics)))
    print(result_line(result, metrics))
    return 0 if result["failed"] == 0 else 1


def main_all(args) -> int:
    bench = spec()
    runs: dict[str, dict] = {}
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = {}
        for trace in (0, 1):
            try:
                result = run_workload(
                    workload, args.seed, args.seconds, trace, args.profile,
                    pathlib.Path(args.reference),
                )
            except RuntimeError as exc:
                print(f"perfbench: {workload}: {exc}", file=sys.stderr)
                status = 1
                continue
            metrics = bench["per_layer"] if trace else bench["end_to_end"]
            print("\n".join(summary_lines(result, metrics)), flush=True)
            runs[workload]["traced" if trace else "untraced"] = result
            if result["failed"]:
                status = 1
    from report import overhead_lines

    print("\n".join(overhead_lines(runs)))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(runs, indent=1))
    return status


def main_record(args) -> int:
    bench = spec()
    reference = {}
    for workload in (w["name"] for w in bench["workloads"]):
        result = run_workload(
            workload, 0, args.seconds, 0, "full", REFERENCE, record=True,
        )
        if result["failed"]:
            print(f"{workload}: failed items:", *result["mismatches"],
                  sep="\n  ", file=sys.stderr)
            return 1
        reference[workload] = dict(sorted(result["observed"].items()))
        print(f"{workload}: {len(reference[workload])} reference verdicts")
    digests = json.loads((ROOT / "results" / "cegis_digests.json").read_text())
    for cell, pinned in digests.items():
        observed = reference["piecewise"].get(f"cegis/{cell}")
        if observed is not None and observed != pinned:
            print(f"CEGIS cell {cell} differs from results/cegis_digests.json:"
                  f" {observed} != {pinned}", file=sys.stderr)
            return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Certification benchmark (see perfbench/README.md).",
    )
    parser.add_argument("--workload", help="run one workload")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record perfbench/reference.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "reduced"),
                        default="full",
                        help="'reduced' is the seconds-long test profile")
    parser.add_argument("--reference", default=str(REFERENCE))
    parser.add_argument("--out", help="also write the full result JSON here")
    args = parser.parse_args(argv)
    _check_checkout()
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    if args.record_reference:
        return main_record(args)
    if args.all:
        return main_all(args)
    if args.workload:
        return main_one(args)
    parser.error("give --workload NAME, --all or --record-reference")
    return 2


if __name__ == "__main__":
    sys.exit(main())
