"""Layer spans for the traced benchmark run.

The traced run wraps each layer's public entry points from the outside:
every wrapper replaces the name *where its callers look it up* (callers
bind most entry points with ``from ..sdp import …``, so the defining
module alone is not enough). Nothing under ``src/`` is edited.

A span is ``(id, parent, name, start, end)``; a layer's self time is its
spans' durations minus the parts their child spans cover. Counts (boxes,
iterations, cuts, …) are read off each entry point's return value, where
the work happened. Spans stay in memory and are written out once per
process: the benchmark process at the end of the run, each forked
runner/pool worker when its worker loop returns (the wrappers are
installed before any pool starts, so workers inherit them).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pathlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = [
    "Recorder", "install", "WRAPPED", "layer_metrics", "load_dumps",
    "entry_calls",
]


class Recorder:
    """Spans and counters of one process (thread-safe appends)."""

    def __init__(self):
        self.enabled = True
        self._ids = itertools.count(1)
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked worker drops its parent's spans)."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += n

    def dump(self, path: pathlib.Path) -> None:
        payload = {
            "pid": os.getpid(),
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload))


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------

def _icp_result(rec, result):
    from repro.smt.icp import IcpStatus

    rec.count("smt.icp.boxes", result.boxes_explored)
    rec.count("smt.icp.splits", result.splits)
    if result.status in (IcpStatus.UNKNOWN, IcpStatus.DELTA_SAT):
        rec.count("smt.icp.undecided")


def _ellipsoid_result(rec, result):
    rec.count("sdp.ellipsoid.iterations", result.iterations)
    if result.proved_infeasible:
        rec.count("sdp.ellipsoid.infeasible_proofs")


def _ellipsoid_error(rec, exc):
    from repro.sdp import LmiInfeasibleError

    if isinstance(exc, LmiInfeasibleError):
        rec.count("sdp.ellipsoid.infeasible_proofs")


def _cegis_result(rec, outcome):
    rec.count("lyapunov.cegis.rounds", len(outcome.rounds))
    rec.count("lyapunov.cegis.cuts", outcome.cut_count)


#: ``(span name, defining "module:attr", extra lookup sites, result hook,
#: error hook, workload predicted to use it)``. A site ``mod:NAME[key]``
#: is a dict entry; ``mod:Class.method`` a class attribute.
WRAPPED = [
    ("lyapunov.synth", "repro.lyapunov.synthesis:synthesize",
     ["repro.lyapunov:synthesize", "repro.runner.tasks:synthesize"],
     None, None, "ladder"),
    ("lyapunov.eq_smt", "repro.lyapunov.synthesis:solve_lyapunov_exact",
     [], None, None, "ladder"),
    ("sdp.lmi", "repro.sdp.solve:solve_lyapunov_lmi",
     ["repro.sdp:solve_lyapunov_lmi",
      "repro.lyapunov.synthesis:solve_lyapunov_lmi"],
     lambda rec, r: rec.count("sdp.lmi.iterations", r.iterations), None,
     "certify-stream"),
    ("sdp.ellipsoid", "repro.sdp.generic:solve_lmi_ellipsoid",
     ["repro.sdp:solve_lmi_ellipsoid",
      "repro.lyapunov.cegis:solve_lmi_ellipsoid",
      "repro.lyapunov.piecewise:solve_lmi_ellipsoid"],
     _ellipsoid_result, _ellipsoid_error, "piecewise"),
    ("sdp.barrier", "repro.sdp.barrier:solve_lmi_barrier",
     ["repro.sdp:solve_lmi_barrier",
      "repro.lyapunov.cegis:solve_lmi_barrier",
      "repro.lyapunov.piecewise:solve_lmi_barrier"],
     lambda rec, r: rec.count("sdp.barrier.newton_steps", r.iterations),
     None, "piecewise"),
    ("lyapunov.cegis", "repro.lyapunov.cegis:cegis_piecewise",
     ["repro.lyapunov:cegis_piecewise"], _cegis_result, None, "piecewise"),
    ("lyapunov.piecewise", "repro.lyapunov.piecewise:synthesize_piecewise",
     ["repro.lyapunov:synthesize_piecewise",
      "repro.runner.tasks:synthesize_piecewise"], None, None, "piecewise"),
    ("smt.icp", "repro.smt.icp:IcpSolver.check", [], _icp_result, None,
     "icp-search"),
    ("smt.sphere", "repro.smt.encodings:check_positive_definite_icp",
     ["repro.smt:check_positive_definite_icp",
      "repro.validate.validators:check_positive_definite_icp",
      "repro.lyapunov.cegis:check_positive_definite_icp"],
     None, None, "icp-search"),
    ("validate", "repro.validate.pipeline:validate_candidate",
     ["repro.validate:validate_candidate",
      "repro.runner.tasks:validate_candidate"], None, None, "ladder"),
    ("validate", "repro.validate.validators:run_validator",
     ["repro.validate:run_validator",
      "repro.validate.pipeline:run_validator"], None, None, "icp-search"),
    ("validate.piecewise", "repro.validate.piecewise:validate_piecewise",
     ["repro.validate:validate_piecewise",
      "repro.runner.tasks:validate_piecewise"], None, None, "piecewise"),
    ("robust", "repro.robust.regions:synthesize_robust_level",
     ["repro.robust:synthesize_robust_level"], None, None, "ladder"),
    ("robust", "repro.robust.epsilon:epsilon_radius",
     ["repro.robust:epsilon_radius"], None, None, "ladder"),
    ("runner.journal", "repro.runner.journal:Journal.record", [], None, None,
     "ladder"),
    ("exact", "repro.validate.validators:VALIDATORS[sylvester]", [], None,
     None, "ladder"),
]


def _resolve(site: str):
    """``(container, key, is_dict)`` for a lookup site string."""
    module_name, _, attr = site.partition(":")
    container = importlib.import_module(module_name)
    if attr.endswith("]"):
        attr, _, key = attr[:-1].partition("[")
        return getattr(container, attr), key, True
    *path, key = attr.split(".")
    for part in path:
        container = getattr(container, part)
    return container, key, False


def _get(site: str):
    container, key, is_dict = _resolve(site)
    return container[key] if is_dict else getattr(container, key)


def _set(site: str, value) -> None:
    container, key, is_dict = _resolve(site)
    if is_dict:
        container[key] = value
    else:
        setattr(container, key, value)


def _wrap(rec: Recorder, name: str, origin: str, fn, on_result, on_error):
    entry = "entry:" + origin

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(entry)
        try:
            with rec.span(name):
                result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None and rec.enabled:
                on_error(rec, exc)
            raise
        if on_result is not None and rec.enabled:
            on_result(rec, result)
        return result

    return wrapper


def install(rec: Recorder, dump_dir: pathlib.Path) -> None:
    """Wrap every entry point in :data:`WRAPPED` and the runner's worker
    loop, for the rest of the process's life."""
    from repro.exact import kernel_cache_info
    from repro.runner import core

    for name, origin, sites, on_result, on_error, _workload in WRAPPED:
        wrapper = _wrap(rec, name, origin, _get(origin), on_result, on_error)
        for site in [origin, *sites]:
            _set(site, wrapper)

    worker_loop = core._worker_loop

    def traced_worker_loop(connection):
        rec.reset()
        before = kernel_cache_info()
        try:
            worker_loop(connection)
        finally:
            count_cache(rec, before, kernel_cache_info())
            rec.dump(dump_dir / f"worker-{os.getpid()}.json")

    core._worker_loop = traced_worker_loop


def count_cache(rec: Recorder, before: dict, after: dict) -> None:
    rec.count("exact.cache_hits", after["hits"] - before["hits"])
    rec.count("exact.cache_misses", after["misses"] - before["misses"])


def load_dumps(dump_dir: pathlib.Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(dump_dir.glob("*.json"))]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def _self_times(dumps: list[dict]):
    """Per-name ``(calls, self seconds)`` over every process's spans.

    ``calls`` counts outermost spans only, so a name wrapped at two
    nested entry points (``validate``) counts each call once.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for dump in dumps:
        spans = dump["spans"]
        names = {span[0]: span[2] for span in spans}
        child_time: dict[int, float] = defaultdict(float)
        for _id, parent, _name, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        for span_id, parent, name, start, end in spans:
            self_s[name] += (end - start) - child_time[span_id]
            if parent is None or names.get(parent) != name:
                calls[name] += 1
    return calls, self_s


def layer_metrics(dumps: list[dict], extra: dict) -> dict:
    """Every per-layer metric from span dumps plus workload counters.

    ``extra`` holds the numbers the workload measured itself (case
    build time, runner and service counters).
    """
    calls, self_s = _self_times(dumps)
    counts: dict[str, float] = defaultdict(float)
    for dump in dumps:
        for name, value in dump["counts"].items():
            counts[name] += value
    hits, misses = counts["exact.cache_hits"], counts["exact.cache_misses"]
    icp_self = self_s["smt.icp"]
    metrics = {
        "engine.case_build_s": extra["engine.case_build_s"],
        "exact.calls": calls["exact"],
        "exact.self_s": self_s["exact"],
        "exact.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "lyapunov.synth.calls": calls["lyapunov.synth"],
        "lyapunov.synth.self_s": self_s["lyapunov.synth"],
        "lyapunov.eq_smt.self_s": self_s["lyapunov.eq_smt"],
        "lyapunov.cegis.rounds": counts["lyapunov.cegis.rounds"],
        "lyapunov.cegis.cuts": counts["lyapunov.cegis.cuts"],
        "lyapunov.cegis.self_s": self_s["lyapunov.cegis"],
        "lyapunov.piecewise.self_s": self_s["lyapunov.piecewise"],
        "sdp.lmi.calls": calls["sdp.lmi"],
        "sdp.lmi.self_s": self_s["sdp.lmi"],
        "sdp.lmi.iterations": counts["sdp.lmi.iterations"],
        "sdp.ellipsoid.calls": calls["sdp.ellipsoid"],
        "sdp.ellipsoid.self_s": self_s["sdp.ellipsoid"],
        "sdp.ellipsoid.iterations": counts["sdp.ellipsoid.iterations"],
        "sdp.ellipsoid.infeasible_proofs":
            counts["sdp.ellipsoid.infeasible_proofs"],
        "sdp.barrier.calls": calls["sdp.barrier"],
        "sdp.barrier.self_s": self_s["sdp.barrier"],
        "sdp.barrier.newton_steps": counts["sdp.barrier.newton_steps"],
        "smt.icp.searches": calls["smt.icp"],
        "smt.icp.boxes": counts["smt.icp.boxes"],
        "smt.icp.splits": counts["smt.icp.splits"],
        "smt.icp.self_s": icp_self,
        "smt.icp.boxes_per_s":
            counts["smt.icp.boxes"] / icp_self if icp_self > 0 else 0.0,
        "smt.icp.undecided": counts["smt.icp.undecided"],
        "smt.sphere.self_s": self_s["smt.sphere"],
        "validate.calls": calls["validate"],
        "validate.self_s": self_s["validate"],
        "validate.piecewise.self_s": self_s["validate.piecewise"],
        "robust.calls": calls["robust"],
        "robust.self_s": self_s["robust"],
        "runner.journal.records": calls["runner.journal"],
        "runner.journal.self_s": self_s["runner.journal"],
    }
    for key, value in extra.items():
        metrics.setdefault(key, value)
    return metrics


def entry_calls(dumps: list[dict]) -> dict[str, float]:
    """Calls per wrapped entry point (``"module:attr"``), all processes."""
    calls: dict[str, float] = defaultdict(float)
    for dump in dumps:
        for name, value in dump["counts"].items():
            if name.startswith("entry:"):
                calls[name[len("entry:"):]] += value
    return dict(calls)
