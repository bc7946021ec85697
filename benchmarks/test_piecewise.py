"""Benchmark harness for the Section VI-B.2 negative result.

Times the piecewise-quadratic LMI synthesis per encoding and pins the
paper's observation: candidates are produced (as tolerance/best-iterate
solutions), yet exact validation of the switching-surface condition
fails — plus the stronger diagnosis our ellipsoid method adds, a proof
that the case-study LMI systems are infeasible outright.

The headline pin is the tensorized-pipeline speedup: the hybrid solver
(compiled separation oracle + warm-started barrier polish) must run the
quick-config size-3 synthesis at least 5x faster than the seed
revision's per-block ellipsoid loop, per encoding, with the validation
verdicts unchanged. ``REPRO_PERF_SOFT=1`` (shared/noisy CI runners)
relaxes the 5x pin to a warning but still hard-fails below 2.5x — a
regression of more than 2x from the pinned baseline. Measured wall
times and phase breakdowns land in the ``piecewise`` section of
``BENCH_experiments.json`` (schema ``repro-bench/2``).
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from repro.engine import case_by_name
from repro.lyapunov import (
    ENCODINGS,
    PiecewiseCandidate,
    assemble_piecewise_lmi,
    solve_hybrid,
    synthesize_piecewise,
)
from repro.runner import write_section
from repro.sdp import solve_lmi_barrier, solve_lmi_ellipsoid
from repro.validate import validate_piecewise

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_experiments.json"
)

#: Seed-revision synthesis wall times (s) for the quick experiment
#: config — size3, max_iterations=6000 — measured with the per-block
#: Python separation oracle this PR replaced. The 5x pin is against
#: these numbers on the same config.
SEED_SYNTH_S = {"continuous": 9.088, "relaxed": 23.26}
PIN_SPEEDUP = 5.0
#: REPRO_PERF_SOFT floor: >2x regression from the pinned 5x baseline.
SOFT_FLOOR_SPEEDUP = 2.5


@pytest.fixture(scope="module")
def switched_size3():
    case = case_by_name("size3")
    return case.switched_system(case.reference())


def test_hybrid_pipeline_speedup_pin(switched_size3, perf_pin):
    """The tentpole pin: >=5x over the seed per-block oracle, both
    encodings, verdicts preserved, phases recorded in the artifact."""
    sections = {}
    for encoding in ENCODINGS:
        started = time.perf_counter()
        candidate = synthesize_piecewise(
            switched_size3, encoding=encoding, max_iterations=6_000
        )
        measured = time.perf_counter() - started
        speedup = SEED_SYNTH_S[encoding] / measured
        sections[encoding] = {
            "seed_synth_s": SEED_SYNTH_S[encoding],
            "synth_s": measured,
            "speedup": speedup,
            "iterations": candidate.iterations,
            "polish_iterations": candidate.info["polish_iterations"],
            "phases": dict(candidate.info["phases"]),
            "proved_infeasible": candidate.info["proved_infeasible"],
        }
        # The negative result is solver-independent: candidates still
        # come back as best iterates and still fail exact validation.
        assert not candidate.feasible, encoding
        report = validate_piecewise(
            candidate, switched_size3,
            conditions_scope="surface", max_boxes=4_000,
        )
        assert report.valid is not True, encoding
        sections[encoding]["validation_valid"] = report.valid

        perf_pin.check(
            f"piecewise[{encoding}]", speedup, PIN_SPEEDUP,
            SOFT_FLOOR_SPEEDUP,
            detail=f" ({measured:.2f}s against the seed "
            f"{SEED_SYNTH_S[encoding]:.2f}s)",
        )

    data = write_section(
        BENCH_PATH,
        "piecewise",
        {
            "config": {"case": "size3", "max_iterations": 6_000},
            "pin_speedup": PIN_SPEEDUP,
            "soft_floor_speedup": SOFT_FLOOR_SPEEDUP,
            "soft_mode": perf_pin.soft,
            "encodings": sections,
        },
    )
    assert data["schema"] == "repro-bench/2"
    on_disk = json.loads(BENCH_PATH.read_text())
    assert set(on_disk["piecewise"]["encodings"]) == set(ENCODINGS)
    assert "experiments" in on_disk


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_piecewise_synthesis(benchmark, switched_size3, encoding):
    candidate = benchmark.pedantic(
        synthesize_piecewise,
        args=(switched_size3,),
        kwargs={"encoding": encoding, "max_iterations": 4_000},
        rounds=1,
        iterations=1,
    )
    # A candidate always comes back (best iterate), like the paper's
    # numerical solvers.
    assert candidate.p[0].shape == candidate.p[1].shape


def test_piecewise_surface_validation(benchmark, switched_size3):
    candidate = synthesize_piecewise(
        switched_size3, encoding="continuous", max_iterations=4_000
    )
    report = benchmark.pedantic(
        validate_piecewise,
        args=(candidate, switched_size3),
        kwargs={"conditions_scope": "surface", "max_boxes": 4_000},
        rounds=1,
        iterations=1,
    )
    # The paper's result: the surface condition always fails validation.
    assert report.valid is False
    assert any(
        name.startswith("surface-nonincrease")
        for name in report.failed_conditions
    )


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_shape_validation_always_fails(switched_size3, encoding):
    """Both encodings, same outcome — matching the paper verbatim.

    The continuous encoding uses the barrier engine alone on the
    assembled system (fast, nontrivial best iterate); the relaxed one —
    whose 111-dimensional barrier centering is slow — uses the pipeline
    with a moderate ellipsoid budget, which also yields a nontrivial
    iterate. A near-zero candidate would make the surface difference
    vanish identically (trivially 'valid' but meaningless), so
    nontriviality is asserted first."""
    if encoding == "continuous":
        lmi = assemble_piecewise_lmi(switched_size3, encoding)
        barrier = solve_lmi_barrier(
            None, dimension=lmi.compiled.dimension, radius=50.0,
            target_margin=0.0, compiled=lmi.compiled,
        )
        candidate = PiecewiseCandidate(
            p=lmi.unpack(barrier.x), encoding=encoding,
            feasible=barrier.feasible, iterations=barrier.iterations,
            worst_violation=-barrier.t_star,
        )
    else:
        candidate = synthesize_piecewise(
            switched_size3, encoding=encoding, max_iterations=8_000
        )
    assert np.abs(candidate.p[0]).max() > 1e-6  # nontrivial candidate
    report = validate_piecewise(
        candidate, switched_size3, conditions_scope="surface", max_boxes=4_000
    )
    assert report.valid is not True


def test_shape_lmi_system_is_provably_infeasible(switched_size3):
    """Beyond the paper: with the nominal reference both modes own a
    locally stable equilibrium, so no global piecewise-quadratic
    certificate exists — the ellipsoid method proves it (and the hybrid
    pipeline preserves the proof: polish never runs on a proved-empty
    system)."""
    candidate = synthesize_piecewise(
        switched_size3, encoding="continuous", max_iterations=30_000
    )
    assert not candidate.feasible
    assert candidate.info["proved_infeasible"]


def _engine(solver, compiled):
    """One engine on the assembled system, with the pipeline's radius."""
    if solver == "hybrid":
        return solve_hybrid(
            compiled, initial_radius=50.0, max_iterations=4_000,
            target_margin=0.0,
        )
    if solver == "ellipsoid":
        return solve_lmi_ellipsoid(
            compiled.blocks, dimension=compiled.dimension,
            initial_radius=50.0, max_iterations=4_000,
            raise_on_infeasible=False, sweep_every=16, compiled=compiled,
        )
    return solve_lmi_barrier(
        None, dimension=compiled.dimension, radius=50.0,
        target_margin=0.0, compiled=compiled,
    )


@pytest.mark.parametrize("solver", ["hybrid", "ellipsoid", "barrier"])
def test_piecewise_engines(benchmark, switched_size3, solver):
    """Engine comparison on the same assembled S-procedure system. On
    this (infeasible) instance the certifying engines grind toward a
    flat negative optimum; the barrier's advantage shows on *feasible*
    instances (tests/test_sdp_barrier.py), while only the ellipsoid
    oracle (alone or as the hybrid burn-in) can prove emptiness."""
    lmi = assemble_piecewise_lmi(switched_size3, "continuous")
    result = benchmark.pedantic(
        _engine, args=(solver, lmi.compiled), rounds=1, iterations=1,
    )
    assert not result.feasible
