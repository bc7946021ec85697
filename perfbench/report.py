"""Per-layer diff of two traced benchmark results, plus tracing overhead.

Usage::

    python3 perfbench/report.py BASE.json NEW.json

Each file is what ``run.py --all --out FILE`` writes (every workload,
untraced and traced) or what ``run.py --workload W --trace 1 --out
FILE`` writes (one traced workload). For every workload present in both
files the report lists each per-layer metric side by side with the
ratio NEW/BASE and the base it is taken over, then the end-to-end
metrics the same way, then the tracing overhead of each file
(traced − untraced ``wall_s``).
"""

from __future__ import annotations

import json
import pathlib
import sys


def load(path: str) -> dict[str, dict]:
    """``{workload: {"untraced": result, "traced": result}}``."""
    data = json.loads(pathlib.Path(path).read_text())
    if "workload" in data:  # one single-workload result
        kind = "traced" if data["trace"] else "untraced"
        return {data["workload"]: {kind: data}}
    return data


def _ratio(new: float, base: float) -> str:
    if base == 0:
        return "n/a (base 0)" if new else "= (both 0)"
    return f"{new / base:.3f}x of {base:.6g}"


def diff_lines(base: dict, new: dict) -> list[str]:
    lines = []
    for workload in base:
        if workload not in new:
            continue
        for kind, values_key in (("traced", "layers"), ("untraced", "metrics")):
            old_run, new_run = base[workload].get(kind), new[workload].get(kind)
            if not old_run or not new_run:
                continue
            title = "per-layer" if kind == "traced" else "end-to-end"
            lines.append(f"{workload} — {title}")
            lines.append(f"  {'metric':34s} {'base':>12s} {'new':>12s}  ratio")
            old_values, new_values = old_run[values_key], new_run[values_key]
            for name, old in old_values.items():
                if name not in new_values:
                    continue
                value = new_values[name]
                lines.append(
                    f"  {name:34s} {old:12.6g} {value:12.6g}  "
                    f"{_ratio(value, old)}"
                )
    return lines


def overhead_lines(runs: dict) -> list[str]:
    """Tracing overhead per workload: traced − untraced ``wall_s``."""
    lines = ["tracing overhead (traced - untraced wall_s per round):"]
    for workload, pair in runs.items():
        if "traced" not in pair or "untraced" not in pair:
            lines.append(f"  {workload}: needs both a traced and an untraced run")
            continue
        plain = pair["untraced"]["metrics"]["wall_s"]
        traced = pair["traced"]["metrics"]["wall_s"]
        lines.append(
            f"  {workload}: {traced - plain:+.4g} s "
            f"({(traced - plain) / plain:+.1%} of {plain:.4g} s)"
        )
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(args[0]), load(args[1])
    print("\n".join(diff_lines(base, new)))
    for label, runs in (("base", base), ("new", new)):
        print(f"[{label}] " + "\n".join(overhead_lines(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
