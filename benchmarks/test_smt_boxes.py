"""Benchmark: batched ICP engine vs the scalar branch-and-prune.

Pins the perf claims of the vectorized refuter and records the
measured throughputs into the ``icp`` section of
``BENCH_experiments.json`` (schema ``repro-bench/2``):

1. raw classification throughput — one ``classify_boxes`` pass over a
   definiteness-shaped box population must clear 5x the scalar
   per-box ``_classify`` loop (measured ~150x);
2. end-to-end refutation — a budget-limited near-singular definiteness
   check, the workload where the frontier grows to thousands of boxes,
   must clear 3x wall-clock (measured ~25x at the 5k budget);
3. the small-frontier regime Figure 3 lives in — the size-3 closed
   loop's rounded LMI candidate, checked for positivity at a 2,000-box
   budget (chunks of a handful of boxes each) — must clear 5x
   (measured ~18x with the monomial-tensor evaluation, ~2.2x before).

Correctness is asserted before any timing: the batched verdicts (and
explored-box counts for the end-to-end runs) must equal the scalar
engine's bit-for-bit, so a fast-but-wrong engine can never win the
timing. ``REPRO_PERF_SOFT=1`` (shared/noisy CI runners) demotes a
missed pin to a warning but still hard-fails below half the pin.

Only searches of a few boxes are left unpinned: there both engines
finish in milliseconds and the batched engine merely replays the
scalar verdict.
"""

from __future__ import annotations

import json
import pathlib
import time
from fractions import Fraction

import numpy as np

from repro.exact import RationalMatrix
from repro.runner import write_section
from repro.smt import (
    Box,
    Interval,
    IcpSolver,
    Var,
    check_positive_definite_icp,
    classify_boxes,
    quadratic_form_term,
)
from repro.smt.icp import prepare_atoms

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_experiments.json"
)

#: Classification-throughput pin (measured ~150x on one core).
PIN_CLASSIFY = 5.0
#: End-to-end refutation pin (measured ~25x at the 5k budget).
PIN_END_TO_END = 3.0
#: Figure-3-shaped positivity pin (measured ~18x on one core).
PIN_SMALL_FRONTIER = 5.0
SMALL_FRONTIER_BUDGET = 2_000

POPULATION = 4096
DIMENSION = 6
REFUTE_BUDGET = 5_000


def _best_of(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _definiteness_population():
    """A quadratic-form atom and a deterministic box population shaped
    like the sub-boxes the definiteness face checks actually explore."""
    variables = [Var(f"x{i}") for i in range(DIMENSION)]
    rows = [
        [
            (i * 31 + j * 17) % 7 - 3 + (5 * DIMENSION if i == j else 0)
            for j in range(DIMENSION)
        ]
        for i in range(DIMENSION)
    ]
    form = quadratic_form_term(RationalMatrix(rows).symmetrize(), variables)
    atoms = [form <= 0]
    rng = np.random.default_rng(0)
    boxes = []
    for _ in range(POPULATION):
        centers = rng.uniform(-1.0, 1.0, size=DIMENSION)
        widths = rng.uniform(0.01, 0.5, size=DIMENSION)
        boxes.append(
            Box(
                {
                    v.name: Interval(float(c - w), float(c + w))
                    for v, c, w in zip(variables, centers, widths)
                }
            )
        )
    return atoms, boxes


def _near_singular_matrix(n=4, margin=Fraction(1, 100)):
    """A PD matrix shifted to within ``margin`` of singular: the ICP
    face check must refine deeply, growing the frontier to thousands
    of boxes — the regime the batched engine exists for."""
    rows = [
        [(i * 31 + j * 17) % 7 - 3 + (3 * n if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    m = RationalMatrix(rows).symmetrize()
    eigs = np.linalg.eigvalsh(m.to_numpy())
    shift = Fraction(f"{eigs.min():.6g}") - margin
    return (m - RationalMatrix.identity(n).scale(shift)).symmetrize()


def test_icp_backends_throughput_writes_bench(perf_pin):
    atoms, boxes = _definiteness_population()
    prepared = prepare_atoms(atoms)
    scalar_solver = IcpSolver(backend="scalar")

    # Warm-up pass doubles as the differential check: every batched
    # verdict must equal the scalar classification.
    batched_verdicts = classify_boxes(atoms, boxes)
    for box, verdict in zip(boxes, batched_verdicts):
        kind, _ = scalar_solver._classify(prepared, box)
        assert verdict == kind

    scalar_s = _best_of(
        lambda: [scalar_solver._classify(prepared, b) for b in boxes]
    )
    batched_s = _best_of(lambda: classify_boxes(atoms, boxes))
    classify_speedup = scalar_s / batched_s
    perf_pin.check("icp[classify]", classify_speedup, PIN_CLASSIFY)

    # End-to-end: budget-limited near-singular refutation, identical
    # verdict and explored-box count required before timing counts.
    matrix = _near_singular_matrix()
    scalar_outcome = check_positive_definite_icp(
        matrix, max_boxes=REFUTE_BUDGET, backend="scalar"
    )
    batched_outcome = check_positive_definite_icp(
        matrix, max_boxes=REFUTE_BUDGET, backend="batched"
    )
    assert batched_outcome.verdict == scalar_outcome.verdict
    assert batched_outcome.boxes_explored == scalar_outcome.boxes_explored
    e2e_scalar_s = _best_of(
        lambda: check_positive_definite_icp(
            matrix, max_boxes=REFUTE_BUDGET, backend="scalar"
        ),
        reps=1,
    )
    e2e_batched_s = _best_of(
        lambda: check_positive_definite_icp(
            matrix, max_boxes=REFUTE_BUDGET, backend="batched"
        ),
        reps=2,
    )
    e2e_speedup = e2e_scalar_s / e2e_batched_s
    perf_pin.check("icp[end-to-end]", e2e_speedup, PIN_END_TO_END)

    data = write_section(
        BENCH_PATH,
        "icp",
        {
            "classification": {
                "boxes": POPULATION,
                "dimension": DIMENSION,
                "scalar_s": scalar_s,
                "batched_s": batched_s,
                "scalar_boxes_per_s": POPULATION / scalar_s,
                "batched_boxes_per_s": POPULATION / batched_s,
                "speedup": classify_speedup,
            },
            "end_to_end": {
                "workload": "near-singular 4x4 definiteness refutation",
                "max_boxes": REFUTE_BUDGET,
                "boxes_explored": scalar_outcome.boxes_explored,
                "verdict": scalar_outcome.verdict,
                "scalar_s": e2e_scalar_s,
                "batched_s": e2e_batched_s,
                "speedup": e2e_speedup,
            },
            "pin_classify_speedup": PIN_CLASSIFY,
            "pin_end_to_end_speedup": PIN_END_TO_END,
            "soft_mode": perf_pin.soft,
        },
    )
    assert data["schema"] == "repro-bench/2"
    on_disk = json.loads(BENCH_PATH.read_text())
    assert on_disk["icp"]["classification"]["speedup"] >= 1.0
    assert "experiments" in on_disk


def test_small_frontier_positivity_speedup(perf_pin):
    """Figure 3's regime: positivity of the size-3 mode-0 LMI candidate
    rounded to 10 significant figures. Every face closes below the
    budget after ~1k boxes, explored a handful of boxes per chunk, so
    per-call overhead rather than box throughput decides the time."""
    from repro.engine import case_by_name
    from repro.lyapunov import synthesize

    a = case_by_name("size3").mode_matrix(0)
    p = synthesize("lmi", a, backend="ipm").exact_p(10)

    def run(backend):
        return check_positive_definite_icp(
            p, max_boxes=SMALL_FRONTIER_BUDGET, backend=backend
        )

    scalar_outcome = run("scalar")
    batched_outcome = run("batched")
    assert batched_outcome.verdict is scalar_outcome.verdict is True
    assert batched_outcome.boxes_explored == scalar_outcome.boxes_explored
    assert batched_outcome.faces_checked == scalar_outcome.faces_checked
    scalar_s = _best_of(lambda: run("scalar"), reps=1)
    batched_s = _best_of(lambda: run("batched"), reps=3)
    perf_pin.check(
        "icp[small-frontier]", scalar_s / batched_s, PIN_SMALL_FRONTIER
    )


def test_shape_tiny_search_replays_scalar():
    """A search of a few dozen boxes: both engines finish in
    milliseconds, so it is not timed, but the batched engine must
    still replay the scalar verdict and box count."""
    x, y = Var("x"), Var("y")
    atoms = [(x * x + y * y - 1) <= 0, (Fraction(1, 2) - x) <= 0]
    box = Box.cube(["x", "y"], -2.0, 2.0)
    scalar = IcpSolver(backend="scalar").check(atoms, box)
    batched = IcpSolver(backend="batched").check(atoms, box)
    assert batched.status is scalar.status
    assert batched.boxes_explored == scalar.boxes_explored
    assert scalar.boxes_explored < 100
