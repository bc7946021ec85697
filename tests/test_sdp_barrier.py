"""Tests for the log-barrier block-LMI engine (repro.sdp.barrier)."""

import numpy as np
import pytest

from repro.sdp import LmiBlock, solve_lmi_barrier, solve_lmi_ellipsoid, svec_basis


def diag_block(f0_diag, coeff_diags, margin=0.0, name=""):
    return LmiBlock(
        np.diag(np.asarray(f0_diag, dtype=float)),
        [np.diag(np.asarray(d, dtype=float)) for d in coeff_diags],
        margin=margin,
        name=name,
    )


class TestBarrier:
    def test_simple_interval(self):
        # x > 1/2 and x < 2: margin maximized at x = 5/4 with t = 3/4.
        blocks = [
            diag_block([-0.5], [[1]], name="lower"),
            diag_block([2.0], [[-1]], name="upper"),
        ]
        result = solve_lmi_barrier(blocks, dimension=1, target_margin=10.0)
        assert result.feasible
        assert 0.5 < result.x[0] < 2.0
        assert result.t_star == pytest.approx(0.75, abs=1e-3)

    def test_early_stop_at_target(self):
        blocks = [diag_block([-0.5], [[1]], name="lower")]
        result = solve_lmi_barrier(blocks, dimension=1, target_margin=0.01)
        assert result.feasible
        assert result.t_star > 0.01

    def test_infeasible_reports_negative_margin(self):
        blocks = [
            diag_block([-1.0], [[1]], name="x>=1"),
            diag_block([-1.0], [[-1]], name="x<=-1"),
        ]
        result = solve_lmi_barrier(blocks, dimension=1)
        assert not result.feasible
        assert result.t_star <= 0
        # The best margin of this system is -1 (at x = 0).
        assert result.t_star == pytest.approx(-1.0, abs=1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_lmi_barrier([], dimension=0)
        with pytest.raises(ValueError):
            solve_lmi_barrier([diag_block([1], [[1]])], dimension=2)
        with pytest.raises(ValueError):
            solve_lmi_barrier(None, dimension=1)  # no blocks, no compiled

    def test_compiled_only_matches_blocks_path(self):
        from repro.sdp import CompiledLmiSystem

        blocks = [
            diag_block([-0.5], [[1]], name="lower"),
            diag_block([2.0], [[-1]], name="upper"),
        ]
        compiled = CompiledLmiSystem(blocks, dimension=1)
        direct = solve_lmi_barrier(blocks, dimension=1)
        reused = solve_lmi_barrier(None, dimension=1, compiled=compiled)
        assert reused.t_star == direct.t_star
        assert np.array_equal(reused.x, direct.x)
        with pytest.raises(ValueError):
            solve_lmi_barrier(None, dimension=2, compiled=compiled)

    def test_lyapunov_block_system(self):
        """Same cross-check as the ellipsoid: find P > 0 with
        A^T P + P A < 0 via generic blocks."""
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        basis = svec_basis(2)
        blocks = [
            LmiBlock(np.zeros((2, 2)), [e.copy() for e in basis], name="P>0"),
            LmiBlock(
                np.zeros((2, 2)),
                [-(a.T @ e + e @ a) for e in basis],
                name="lyap",
            ),
            LmiBlock(5.0 * np.eye(2), [-e.copy() for e in basis], name="cap"),
        ]
        result = solve_lmi_barrier(blocks, dimension=len(basis), target_margin=0.05)
        assert result.feasible
        p = sum(x * e for x, e in zip(result.x, basis))
        assert np.linalg.eigvalsh(p).min() > 0
        assert np.linalg.eigvalsh(a.T @ p + p @ a).max() < 0

    def test_agrees_with_ellipsoid_verdicts(self):
        """Cross-engine consistency on feasible and infeasible systems."""
        feasible = [
            diag_block([-0.5, -0.5], [[1, 1]], name="lower"),
            diag_block([2, 2], [[-1, -1]], name="upper"),
        ]
        b = solve_lmi_barrier(feasible, dimension=1)
        e = solve_lmi_ellipsoid(feasible, dimension=1)
        assert b.feasible and e.feasible

        infeasible = [
            diag_block([-1], [[1]], name="lower"),
            diag_block([-1], [[-1]], name="upper"),
        ]
        b2 = solve_lmi_barrier(infeasible, dimension=1)
        e2 = solve_lmi_ellipsoid(
            infeasible, dimension=1, raise_on_infeasible=False
        )
        assert not b2.feasible
        assert e2.proved_infeasible

    def test_history_recorded(self):
        blocks = [diag_block([-0.5], [[1]])]
        result = solve_lmi_barrier(
            blocks, dimension=1, record_history=True, target_margin=1e9,
            max_outer=10,
        )
        assert len(result.history) >= 1


def barrier_on_assembled(system, encoding="continuous"):
    """The level-shift barrier alone on the assembled piecewise LMI."""
    from repro.lyapunov import assemble_piecewise_lmi

    lmi = assemble_piecewise_lmi(system, encoding)
    result = solve_lmi_barrier(
        None, dimension=lmi.compiled.dimension, radius=50.0,
        target_margin=0.0, compiled=lmi.compiled,
    )
    return lmi, result


class TestBarrierInPiecewise:
    def test_barrier_solver_option(self):
        from repro.engine import case_by_name

        case = case_by_name("size3")
        system = case.switched_system(case.reference())
        lmi, result = barrier_on_assembled(system)
        # The case-study system is genuinely infeasible (bistable), so
        # the barrier must report a non-feasible best iterate too.
        assert not result.feasible
        assert np.abs(lmi.unpack(result.x)[0]).max() > 0

    def test_barrier_finds_feasible_shared_equilibrium(self):
        from repro.systems import (
            AffineSystem, HalfSpace, PolyhedralRegion, PwaMode, PwaSystem,
        )

        mode0 = PwaMode(
            flow=AffineSystem([[-1.0, 0.0], [0.0, -2.0]], [0.0, 0.0]),
            region=PolyhedralRegion([HalfSpace((1, 0), 1)]),
        )
        mode1 = PwaMode(
            flow=AffineSystem([[-3.0, 0.0], [0.0, -1.0]], [0.0, 0.0]),
            region=PolyhedralRegion([HalfSpace((-1, 0), -1, strict=True)]),
        )
        system = PwaSystem([mode0, mode1])
        _, result = barrier_on_assembled(system)
        assert result.feasible
