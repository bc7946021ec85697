"""Differential tests for the batched ICP engine (repro.smt.boxes).

The batched engine's contract is *exact replay*: on every input it must
return the same status, the same witness point, the same witness box and
the same search statistics as the scalar branch-and-prune it vectorizes.
These tests enforce that bit-for-bit over hand-picked corner cases,
hypothesis-generated constraint systems, and the ground-truth fuzzer's
system generator, and check the batched polynomial kernel directly
against the scalar enclosure and the per-monomial deferral guard.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exact import RationalMatrix
from repro.smt import (
    Box,
    ICP_BACKENDS,
    IcpSolver,
    IcpStatus,
    Interval,
    Var,
    check_positive_definite_icp,
    classify_boxes,
    polynomial_of,
    quadratic_form_term,
    resolve_icp_backend,
)
from repro.smt.boxes import BoxArray, _eval_poly, compile_atoms
from repro.smt.icp import eval_poly_interval, prepare_atoms

x, y, z = Var("x"), Var("y"), Var("z")


def both(atoms, box, **solver_args):
    """Run scalar and batched solvers; assert identical results."""
    scalar = IcpSolver(backend="scalar", **solver_args).check(atoms, box)
    batched = IcpSolver(backend="batched", **solver_args).check(atoms, box)
    assert batched.status is scalar.status
    assert batched.witness == scalar.witness
    if scalar.witness_box is None:
        assert batched.witness_box is None
    else:
        assert batched.witness_box.intervals == scalar.witness_box.intervals
    assert batched.boxes_explored == scalar.boxes_explored
    assert batched.splits == scalar.splits
    return scalar


class TestBackendDispatch:
    def test_known_backends(self):
        assert ICP_BACKENDS == ("auto", "scalar", "batched")
        for backend in ("scalar", "batched"):
            assert resolve_icp_backend(backend) == backend

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            resolve_icp_backend("cuda")
        with pytest.raises(KeyError):
            IcpSolver(backend="cuda").check([(x) <= 0], Box.cube(["x"], 0, 1))

    def test_auto_prefers_batched_with_numpy(self):
        pytest.importorskip("numpy")
        assert resolve_icp_backend("auto") == "batched"


class TestCornerCases:
    """Pinned scalar/batched equality on shapes that stress the kernels."""

    def test_unsat_positive_poly(self):
        result = both(
            [(x * x + 1) <= 0], Box.cube(["x"], -10.0, 10.0)
        )
        assert result.status is IcpStatus.UNSAT

    def test_sat_with_witness(self):
        result = both(
            [(x * x - 1) <= 0, (Fraction(1, 2) - x) <= 0],
            Box.cube(["x"], -10.0, 10.0),
        )
        assert result.status is IcpStatus.SAT

    def test_delta_sat_sqrt2(self):
        result = both([(x * x - 2).eq(0)], Box.cube(["x"], 0.0, 2.0))
        assert result.status is IcpStatus.DELTA_SAT

    def test_budget_exhaustion(self):
        result = both(
            [(x * x - 2).eq(0)], Box.cube(["x"], 0.0, 2.0),
            delta=1e-30, max_boxes=5,
        )
        assert result.status is IcpStatus.UNKNOWN

    def test_budget_boundary_exactly_at_terminal(self):
        # Sweep the budget across the discovery point of the terminal so
        # both engines must agree on the UNKNOWN/DELTA_SAT boundary.
        for budget in range(1, 45):
            both(
                [(x * x - 2).eq(0)], Box.cube(["x"], 0.0, 2.0),
                max_boxes=budget,
            )

    def test_two_variables_circle(self):
        circle = (x * x + y * y - 1).eq(0)
        both(
            [circle, (Fraction(9, 10) - x) <= 0, (Fraction(9, 10) - y) <= 0],
            Box.cube(["x", "y"], -2.0, 2.0),
        )

    def test_strict_and_boundary(self):
        box = Box.cube(["x"], 0.0, 1.0)
        both([x < 0], box)
        both([x <= 0], box)

    def test_degenerate_interval_face(self):
        p = RationalMatrix([[1, 2], [2, 1]])
        form = quadratic_form_term(p, [x, y])
        box = Box({"x": Interval(1.0, 1.0), "y": Interval(-1.0, 1.0)})
        result = both([form <= 0], box)
        assert result.status is IcpStatus.SAT

    def test_half_infinite_box(self):
        box = Box({"x": Interval(0.0, float("inf"))})
        both([(x * x - 4) <= 0, (1 - x) <= 0], box)

    def test_huge_coefficients_defer_to_scalar(self):
        # 1e200-scale enclosures leave the guarded exactness band, so
        # the batched engine must defer those boxes to the scalar step
        # and still agree exactly.
        huge = Fraction(10) ** 200
        both(
            [(huge * x * x - huge) <= 0, (Fraction(1, 2) - x) <= 0],
            Box.cube(["x"], -2.0, 2.0),
        )

    def test_tiny_coefficients_defer_to_scalar(self):
        tiny = Fraction(1, 10**200)
        both(
            [(tiny * x * x - tiny) <= 0, (Fraction(1, 2) - x) <= 0],
            Box.cube(["x"], -2.0, 2.0),
        )

    def test_equality_contraction_paths(self):
        both(
            [(2 * x + 3 * y - 1).eq(0), (x - y) <= 0],
            Box.cube(["x", "y"], -4.0, 4.0),
        )

    def test_disequality_split(self):
        # NE atoms exercise the no-linear-plan path.
        both(
            [x.eq(0).negate(), x * x <= Fraction(1, 4)],
            Box.cube(["x"], -1.0, 1.0),
        )


@st.composite
def small_systems(draw):
    """A conjunction of low-degree polynomial atoms over a small box.

    Besides ``c*v`` and ``c*v**2`` terms the atoms carry cross terms
    (``x*y``), cubes and ``x*x*y`` products, so the monomial-tensor plan
    sees mixed factor depths (short monomials padded) and odd powers;
    an atom can also be constant-only or the empty polynomial.
    """
    n_vars = draw(st.integers(1, 3))
    variables = [x, y, z][:n_vars]
    coeff = st.integers(-3, 3)

    def poly():
        c0 = draw(coeff)
        if draw(st.integers(0, 7)) == 0:
            # Constant-only (c0 != 0) or empty (c0 == 0) polynomial.
            return variables[0] - variables[0] + c0
        terms = []
        for v in variables:
            c = draw(coeff)
            if c:
                terms.append(c * v)
            c2 = draw(coeff)
            if c2:
                terms.append(c2 * v * v)
        products = st.lists(
            st.integers(0, n_vars - 1), min_size=2, max_size=3
        )
        for factors in draw(st.lists(products, max_size=2)):
            c = draw(coeff)
            if c:
                term = c * variables[factors[0]]
                for f in factors[1:]:
                    term = term * variables[f]
                terms.append(term)
        base = variables[0] - variables[0]
        for t in terms:
            base = base + t
        return base + c0

    n_atoms = draw(st.integers(1, 3))
    atoms = []
    for _ in range(n_atoms):
        lhs = poly()
        relation = draw(st.sampled_from(["le", "lt", "eq"]))
        if relation == "le":
            atoms.append(lhs <= 0)
        elif relation == "lt":
            atoms.append(lhs < 0)
        else:
            atoms.append(lhs.eq(0))
    radius = draw(st.sampled_from([1.0, 2.0, 8.0]))
    box = Box.cube([v.name for v in variables], -radius, radius)
    return atoms, box


class TestHypothesisDifferential:
    @settings(max_examples=60, deadline=None)
    @given(small_systems())
    def test_batched_replays_scalar(self, system):
        atoms, box = system
        both(atoms, box, max_boxes=3000)

    @settings(max_examples=25, deadline=None)
    @given(small_systems(), st.integers(1, 40))
    def test_budget_equivalence(self, system, budget):
        atoms, box = system
        both(atoms, box, max_boxes=budget)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_definiteness_encoding_agrees(self, rows):
        matrix = RationalMatrix(rows).symmetrize()
        scalar = check_positive_definite_icp(
            matrix, max_boxes=20_000, backend="scalar"
        )
        batched = check_positive_definite_icp(
            matrix, max_boxes=20_000, backend="batched"
        )
        assert batched.verdict == scalar.verdict
        assert batched.counterexample == scalar.counterexample
        assert batched.faces_checked == scalar.faces_checked
        assert batched.boxes_explored == scalar.boxes_explored


def _band_unsafe(value):
    return not (value == 0.0 or 2.0**-500 <= abs(value) <= 2.0**500)


def _reference_flag(poly, box):
    """The exactness guard, replayed per monomial on scalar intervals:
    ``True`` iff some endpoint candidate product (powers included) or
    partial endpoint sum of ``eval_poly_interval`` leaves the band."""
    flagged = False

    def mul(a, b):
        nonlocal flagged
        flagged |= any(
            _band_unsafe(p * q) for p in (a.lo, a.hi) for q in (b.lo, b.hi)
        )
        return a * b

    total = Interval.point(0)
    for mono, coeff in poly.items():
        part = Interval.point(coeff)
        for var, exp in mono:
            power = box[var]
            for _ in range(exp - 1):
                power = mul(power, box[var])
            part = mul(part, power)
        flagged |= _band_unsafe(total.lo + part.lo)
        flagged |= _band_unsafe(total.hi + part.hi)
        total = total + part
    return flagged


_ENDPOINTS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 3.0, -2.5, 1e-3, -7.0,
     2.0**-300, -(2.0**-300), 2.0**300, -(2.0**300)]
)


@st.composite
def kernel_boxes(draw):
    """Boxes over ``x, y, z``: point boxes, signed-zero endpoints, boxes
    straddling zero, and endpoints whose powers leave the band."""
    box = {}
    for name in ("x", "y", "z"):
        a, b = draw(_ENDPOINTS), draw(_ENDPOINTS)
        if draw(st.booleans()):
            b = a  # point interval
        box[name] = Interval(min(a, b), max(a, b))
    return box


class TestEvalPolyKernel:
    """The batched ``_eval_poly`` against scalar ``eval_poly_interval``,
    float for float (signed zeros included), and its deferral flags
    against the per-monomial guard replay."""

    POLYS = [
        3 * x * y - 2 * x * x * y + 5 * z * z * z - 7 + x,
        x * y * z - y * y + Fraction(1, 3) * x,
        Fraction(2) ** -450 * x * y + Fraction(2) ** 450 * z,
        (x - x) + 4,
        x - x,
        -x * x * x + 2 * x * z - z,
    ]

    @staticmethod
    def _check(term, boxes):
        names = ["x", "y", "z"]
        prepared = prepare_atoms([term <= 0])
        (compiled,) = compile_atoms(prepared, names)
        poly = prepared[0].poly
        lo = np.array([[box[n].lo for n in names] for box in boxes])
        hi = np.array([[box[n].hi for n in names] for box in boxes])
        bad = np.zeros(len(boxes), dtype=bool)
        with np.errstate(all="ignore"):
            elo, ehi = _eval_poly(compiled.poly, lo, hi, {}, bad)
        for i, box in enumerate(boxes):
            flagged = _reference_flag(poly, Box(box))
            assert bool(bad[i]) == flagged
            if flagged:
                continue  # deferred: the scalar step recomputes the box
            expected = eval_poly_interval(poly, Box(box))
            assert float(elo[i]).hex() == expected.lo.hex()
            assert float(ehi[i]).hex() == expected.hi.hex()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(kernel_boxes(), min_size=1, max_size=12))
    def test_matches_scalar_enclosures(self, boxes):
        for term in self.POLYS:
            self._check(term, boxes)

    def test_signed_zero_and_point_boxes(self):
        boxes = [
            {"x": Interval(-0.0, 0.0), "y": Interval(-0.0, -0.0),
             "z": Interval(0.0, 0.0)},
            {"x": Interval(-0.0, 1.0), "y": Interval(-1.0, -0.0),
             "z": Interval(-0.0, 0.0)},
            {"x": Interval(0.5, 0.5), "y": Interval(-3.0, -3.0),
             "z": Interval(-0.75, -0.75)},
            {"x": Interval(-2.5, 3.0), "y": Interval(-1.0, 1.0),
             "z": Interval(-7.0, 0.5)},
        ]
        for term in self.POLYS:
            self._check(term, boxes)

    def test_out_of_band_bounds_are_flagged(self):
        big, tiny = 2.0**300, 2.0**-300
        boxes = [
            {"x": Interval(-big, big), "y": Interval(1.0, 2.0),
             "z": Interval(1.0, 2.0)},
            {"x": Interval(tiny, 1.0), "y": Interval(1.0, 2.0),
             "z": Interval(-tiny, tiny)},
            {"x": Interval(1.0, 2.0), "y": Interval(1.0, 2.0),
             "z": Interval(1.0, 2.0)},
        ]
        self._check(self.POLYS[0], boxes)
        self._check(self.POLYS[2], boxes)
        assert _reference_flag(
            polynomial_of(self.POLYS[0]), Box(boxes[0])
        )
        # In-band products whose partial sum overflows the band: only
        # the accumulation guard can flag these boxes.
        half = Fraction(2) ** 499
        point = {name: Interval(1.5, 1.5) for name in ("x", "y", "z")}
        self._check(half * x + half * y, [point, boxes[2]])
        assert _reference_flag(polynomial_of(half * x + half * y), Box(point))

    def test_out_of_band_coefficients_refuse_to_compile(self):
        for coeff in (Fraction(2) ** 600, Fraction(2) ** -600):
            prepared = prepare_atoms([(coeff * x * y + 1) <= 0])
            assert compile_atoms(prepared, ["x", "y"]) is None


class TestOracleSystems:
    """Scalar/batched equality on the ground-truth fuzzer's systems."""

    @pytest.mark.parametrize("kind", ["stable", "unstable", "integer"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fuzzer_matrices_agree(self, kind, seed):
        from repro.oracle import generate_system

        system = generate_system(kind, 3, seed)
        targets = [system.a.symmetrize()]
        if system.witness_p is not None:
            targets.append(system.witness_p)
        for matrix in targets:
            scalar = check_positive_definite_icp(
                matrix, max_boxes=4000, backend="scalar"
            )
            batched = check_positive_definite_icp(
                matrix, max_boxes=4000, backend="batched"
            )
            assert batched.verdict == scalar.verdict
            assert batched.counterexample == scalar.counterexample
            assert batched.boxes_explored == scalar.boxes_explored


class TestClassifyBoxes:
    def test_matches_scalar_classification(self):
        from repro.smt.icp import prepare_atoms

        atoms = [(x * x + y * y - 1) <= 0, (x + y) < 0]
        prepared = prepare_atoms(atoms)
        scalar_solver = IcpSolver(backend="scalar")
        boxes = [
            Box.cube(["x", "y"], -0.1, 0.1),        # satisfied
            Box.cube(["x", "y"], 2.0, 3.0),         # infeasible
            Box.cube(["x", "y"], -2.0, 2.0),        # undecided
            Box({"x": Interval(-0.2, -0.1), "y": Interval(-0.2, -0.1)}),
        ]
        verdicts = classify_boxes(atoms, boxes)
        scalar_names = {
            "infeasible": "infeasible",
            "satisfied": "satisfied",
            "undecided": "undecided",
        }
        for box, verdict in zip(boxes, verdicts):
            kind, _ = scalar_solver._classify(prepared, box)
            assert verdict == scalar_names[kind]

    def test_box_array_roundtrip(self):
        boxes = [
            Box({"b": Interval(0.0, 1.0), "a": Interval(-2.0, 3.0)}),
            Box({"b": Interval(-1.0, 1.0), "a": Interval(0.0, 0.5)}),
        ]
        arr = BoxArray.from_boxes(boxes)
        assert tuple(arr.names) == ("a", "b")
        assert len(arr) == 2
        back = arr.to_boxes()
        for original, restored in zip(boxes, back):
            for name in ("a", "b"):
                assert restored[name] == original[name]
