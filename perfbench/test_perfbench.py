"""The benchmark's own tests, on the seconds-long reduced profile.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They check that every metric is emitted, pin which workload bypasses
which layer, make sure a wrong reference verdict fails the run, and
that the command refuses to run outside a checkout.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
#: Workloads that run outside the journaled runner.
NO_JOURNAL = ("icp-search", "piecewise", "certify-stream")


def _run(tmp_path, workload, trace, *extra, cwd=ROOT):
    out = tmp_path / f"{workload}-{trace}.json"
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--profile", "reduced", "--out", str(out), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done, out


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("perfbench")
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done, out = _run(tmp_path, workload, trace)
            assert done.returncode == 0, done.stdout + done.stderr
            runs[workload, trace] = (
                json.loads(done.stdout.strip().splitlines()[-1]),
                json.loads(out.read_text()),
            )
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_emits_every_metric(results, workload, trace):
    line, _full = results[workload, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(results):
    for workload in WORKLOADS:
        line, _full = results[workload, 0]
        for name, value in line["metrics"].items():
            assert value["value"] > 0, (workload, name)


def test_every_result_records_its_environment(results):
    for (workload, trace), (_line, full) in results.items():
        env = full["env"]
        for key in ("nproc", "cpu", "python", "numpy", "scipy", "blas",
                    "commit", "seed"):
            assert env[key] not in (None, ""), (workload, trace, key)
        assert env["seed"] == 3


def _layers(results, workload):
    return results[workload, 1][1]["layers"]


@pytest.mark.parametrize("workload", ("ladder", "certify-stream"))
def test_no_icp_search(results, workload):
    assert _layers(results, workload)["smt.icp.boxes"] == 0


@pytest.mark.parametrize(
    "workload", [w for w in WORKLOADS if w != "piecewise"]
)
def test_ellipsoid_only_on_piecewise(results, workload):
    assert _layers(results, workload)["sdp.ellipsoid.calls"] == 0


@pytest.mark.parametrize("workload", NO_JOURNAL)
def test_no_journal_outside_the_runner(results, workload):
    assert _layers(results, workload)["runner.journal.records"] == 0


def test_each_entry_point_is_used_where_predicted(results):
    for name, origin, _sites, _hook, _err, workload in spans.WRAPPED:
        entries = results[workload, 1][1]["entries"]
        assert entries.get(origin, 0) >= 1, (name, origin, workload)


def test_layers_see_the_work(results):
    icp = _layers(results, "icp-search")
    assert icp["smt.icp.undecided"] >= 1 and icp["smt.icp.boxes_per_s"] > 0
    piecewise = _layers(results, "piecewise")
    assert piecewise["sdp.ellipsoid.infeasible_proofs"] >= 1
    service = _layers(results, "certify-stream")
    assert 0 < service["service.hit_frac"] < 1
    assert service["service.computations"] >= 1
    assert _layers(results, "ladder")["runner.journal.records"] >= 1


def test_corrupted_reference_fails(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    key = "size3/0/eq-num/-/dec/icp+det"
    reference["icp-search"][key]["valid"] = False
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    done, _out = _run(tmp_path, "icp-search", 0, "--reference", str(bad))
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done, _out = _run(tmp_path, "ladder", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_report_diffs_and_overhead(results):
    runs = {
        w: {"untraced": results[w, 0][1], "traced": results[w, 1][1]}
        for w in WORKLOADS
    }
    lines = report.diff_lines(runs, runs)
    assert any("smt.icp.boxes" in line for line in lines)
    overhead = report.overhead_lines(runs)
    assert len(overhead) == 1 + len(WORKLOADS)
