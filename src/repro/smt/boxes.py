"""Batched interval arithmetic and the frontier-at-a-time ICP engine.

The scalar solver in :mod:`repro.smt.icp` processes one box at a time
and pays exact-:class:`~fractions.Fraction` bookkeeping on every
interval operation (the conditional outward rounding in
:mod:`repro.smt.interval` keeps dyadic arithmetic tight by comparing
each float result against the exact rational). This module evaluates a
*population* of boxes per NumPy pass — bounds live in ``(B, V, 2)``
arrays (:class:`BoxArray`) — while reproducing every scalar enclosure
bit for bit, so the batched engine's verdicts, witnesses, witness
boxes and search statistics are identical to the scalar oracle's.

**How the outward-rounding guarantee survives vectorization.** The
scalar rule is *conditional*: a bound is nudged with ``nextafter`` only
when the float operation was inexact, and only toward the outside.
Recomputing the exact rationals per box would forfeit the batch win, so
the batched kernels recover the exactness test from error-free
transforms instead:

* additions use Knuth's TwoSum — ``err`` is exactly ``(a + b) -
  fl(a + b)``, so rounding down iff ``err < 0`` (up iff ``err > 0``)
  coincides with the scalar comparison against the exact sum;
* products use Dekker splitting (no FMA assumed) — same argument; the
  scalar keeps the endpoint candidate with the least (greatest) exact
  product, which, round-to-nearest being monotone, is the least
  (greatest) float product and among equal ones the least (greatest)
  error, so the bound steps outward iff a tied candidate's error
  points outward. Tied products can differ only in the sign of a
  zero, which never reaches an enclosure: a zero product is exact and
  every sum starts from ``+0.0``;
* the outward step is ``nextafter`` done as ``±1`` on the float's bit
  pattern, which agrees with ``nextafter`` on every finite nonzero
  float — the only results an inexact operation yields in a box that
  is not deferred;
* powers repeat the scalar's sequential multiply (including the
  even-power floor at zero).

**Monomial-tensor evaluation.** Each polynomial compiles once into a
plan: ``(M,)`` coefficient enclosures and a ``(depth, M)`` table of
factor columns into a per-call power table, short monomials
left-padded with a ``[1, 1]`` column (the running part is then still
the coefficient, and ``c * 1`` is exact, so padding changes no bit).
An evaluation fills the power table one exponent at a time, runs one
interval product per factor level over the whole ``(B, M)`` tensor
(four TwoProd candidates, one guard), then adds the ``M`` monomial
enclosures left to right as a stacked lo/hi TwoSum recurrence — the
scalar monomial order, so there is no einsum reassociation, which
would change rounding. A handful of NumPy calls per factor level
replaces a handful per monomial, which is what dominates on the small
chunks of a Figure-3-sized search.

The transforms are exact only away from overflow/underflow, so any box
that ever touches a magnitude outside ``[2^-500, 2^500]`` (or a
non-finite value) is flagged and *deferred*: it is re-processed from
scratch by the scalar per-box step (``IcpSolver._step``), which is
always correct. In practice no box in the paper's workloads defers.

**Search order.** A naive breadth-first frontier would diverge from the
scalar depth-first engine (different first witness, exponentially worse
on delta-sat instances). Instead the engine keeps a worklist of pending
boxes keyed by their *path* from the root (``'0'`` = low child, ``'1'``
= high child). Lexicographic path order is exactly DFS preorder, and
children of the chunk prepend in order, so the worklist stays sorted
for free. Each round classifies the ``chunk`` lex-least boxes in one
vectorized pass; terminals (SAT / DELTA_SAT) are tracked by lex-min
path and the worklist is pruned behind the best terminal. At the end
the engine returns the lex-least terminal — the one the scalar DFS
would have reached first — and reconstructs the scalar's
``boxes_explored``/``splits`` counters from the recorded paths, so
budget-exhaustion (UNKNOWN) verdicts also coincide.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Sequence

import numpy as np

from .icp import (
    Box,
    IcpResult,
    IcpSolver,
    IcpStatus,
    PreparedAtom,
    prepare_atoms,
)
from .interval import Interval
from .terms import Atom, Polynomial, Relation

__all__ = [
    "BoxArray",
    "batched_check",
    "classify_boxes",
    "compile_atoms",
]

#: Dekker splitter for doubles (2^27 + 1).
_SPLIT = 134217729.0
#: Magnitude guards: outside [2^-500, 2^500] the error-free transforms
#: may lose exactness (overflow of the splitting, subnormal products),
#: so such boxes are deferred to the scalar step.
_BIG = 2.0**500
_TINY = 2.0**-500
_CHUNK = 256
#: Outward direction of the rows of a stacked ``(lo, hi)`` array.
_OUTWARD = np.array([-1, 1])


# ----------------------------------------------------------------------
# Box populations
# ----------------------------------------------------------------------

class BoxArray:
    """A population of ``B`` boxes over ``V`` named variables.

    ``bounds`` has shape ``(B, V, 2)`` — ``bounds[b, v, 0]`` is the low
    endpoint of variable ``names[v]`` in box ``b``. Variables are
    stored in sorted name order so per-column argmax reproduces the
    scalar solver's sorted-name tie-break.
    """

    __slots__ = ("names", "bounds")

    def __init__(self, names: Sequence[str], bounds: np.ndarray):
        self.names = tuple(names)
        self.bounds = bounds

    @classmethod
    def from_boxes(cls, boxes: Sequence[Box]) -> "BoxArray":
        names = sorted(boxes[0].intervals)
        bounds = np.empty((len(boxes), len(names), 2), dtype=np.float64)
        for b, box in enumerate(boxes):
            for v, name in enumerate(names):
                iv = box[name]
                bounds[b, v, 0] = iv.lo
                bounds[b, v, 1] = iv.hi
        return cls(names, bounds)

    @property
    def lo(self) -> np.ndarray:
        return self.bounds[:, :, 0]

    @property
    def hi(self) -> np.ndarray:
        return self.bounds[:, :, 1]

    def __len__(self) -> int:
        return self.bounds.shape[0]

    def to_boxes(self) -> list[Box]:
        return [
            Box(
                {
                    name: Interval(
                        float(self.bounds[b, v, 0]), float(self.bounds[b, v, 1])
                    )
                    for v, name in enumerate(self.names)
                }
            )
            for b in range(len(self))
        ]


# ----------------------------------------------------------------------
# Error-free transforms and bit-identical interval kernels
# ----------------------------------------------------------------------

def _flag(bad: np.ndarray, x: np.ndarray, box_axis: int = 0) -> None:
    """OR into ``bad`` every box (indexed by axis ``box_axis`` of ``x``)
    with an entry outside the exactness-safe band: a nonzero magnitude
    below ``_TINY`` or above ``_BIG``, an infinity or a NaN (which the
    max reduction propagates)."""
    others = tuple(axis for axis in range(x.ndim) if axis != box_axis)
    mag = np.abs(x)
    bad |= ~(mag.max(axis=others, initial=0.0) <= _BIG)
    bad |= ((mag < _TINY) & (mag > 0.0)).any(axis=others)


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = a + b
    bv = s - a
    av = s - bv
    return s, (a - av) + (b - bv)


def _two_prod(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = a * b
    c = _SPLIT * a
    ahi = c - (c - a)
    alo = a - ahi
    c = _SPLIT * b
    bhi = c - (c - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _round_out(value: np.ndarray, move: np.ndarray) -> np.ndarray:
    """Step the ``lo`` row of stacked ``(lo, hi)`` values one float down
    and the ``hi`` row one float up where ``move`` is set — callers set
    it where the transform error points outward, the scalar
    ``_lo_of``/``_hi_of`` rule. The step is ``±1`` on the bit pattern
    (see the module docstring for why that equals ``nextafter`` here).
    """
    shape = (2,) + (1,) * (value.ndim - 1)
    step = _OUTWARD.reshape(shape) * (1 - 2 * np.signbit(value))
    return (value.view(np.int64) + step * move).view(np.float64)


def _iv_mul(x: np.ndarray, y: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """Interval product of stacked ``(2, B, ...)`` lo/hi operands: one
    TwoProd pass over the four endpoint candidates of
    ``Interval.__mul__``, one guard, and the scalar's exact-key min/max
    selection (see the module docstring)."""
    p, e = _two_prod(x[:, None], y[None, :])
    _flag(bad, p, box_axis=2)
    p = p.reshape((4,) + p.shape[2:])
    e = e.reshape(p.shape)
    lo = p.min(axis=0)
    hi = p.max(axis=0)
    down = ((p == lo) & (e < 0.0)).any(axis=0)
    up = ((p == hi) & (e > 0.0)).any(axis=0)
    return _round_out(np.stack((lo, hi)), np.stack((down, up)))


def _iv_pow(x: np.ndarray, exponent: int, bad: np.ndarray) -> np.ndarray:
    """``x ** exponent`` for stacked ``(2, B, K)`` lo/hi bounds
    (``exponent >= 1``), replaying ``Interval.__pow__``."""
    result = x
    for _ in range(exponent - 1):
        result = _iv_mul(result, x, bad)
    if exponent % 2 == 0:
        # Even powers are nonnegative; floor at zero exactly like the
        # scalar (`max(result.lo, 0.0)` keeps -0.0, so test `< 0.0`).
        straddle = (x[0] <= 0.0) & (0.0 <= x[1])
        result[0] = np.where(straddle & (result[0] < 0.0), 0.0, result[0])
    return result


# ----------------------------------------------------------------------
# Compilation: PreparedAtom -> index-based monomial plans
# ----------------------------------------------------------------------

class _CompiledPoly:
    """A polynomial's monomial-tensor plan, monomials in dict order.

    ``coeffs``: ``(2, 1, M)`` coefficient enclosures. ``groups``:
    ``(exponent, var_indices, columns)`` of the power table, one column
    per power used. ``factors``: ``(depth, M)`` power-table columns per
    monomial in factor order, left-padded with column ``width`` (the
    ``[1, 1]`` column). ``variables``: indices of the variables used.
    """

    __slots__ = ("coeffs", "groups", "factors", "width", "variables")

    def __init__(self, coeffs, monos):
        self.coeffs = coeffs
        needed = sorted({(exp, vi) for mono in monos for vi, exp in mono})
        column = {}
        self.groups = []
        for exp in sorted({exp for exp, _ in needed}):
            vis = [vi for e, vi in needed if e == exp]
            start = len(column)
            for vi in vis:
                column[vi, exp] = len(column)
            self.groups.append((exp, vis, slice(start, len(column))))
        self.width = len(column)
        depth = max((len(mono) for mono in monos), default=0)
        self.factors = np.full((depth, len(monos)), self.width, dtype=np.intp)
        for m, mono in enumerate(monos):
            for d, (vi, exp) in enumerate(mono, start=depth - len(mono)):
                self.factors[d, m] = column[vi, exp]
        self.variables = sorted({vi for _, vi in needed})


class _CompiledAtom:
    __slots__ = ("relation", "poly", "var_mask", "linear")

    def __init__(self, relation, poly, var_mask, linear):
        self.relation = relation
        self.poly = poly
        self.var_mask = var_mask
        self.linear = linear  # [(var_index, coeff_cpoly, rest_cpoly)]


def _safe_bound(x: float) -> bool:
    return x == 0.0 or _TINY <= abs(x) <= _BIG


def _compile_poly(poly: Polynomial, index: dict[str, int]):
    coeffs = np.empty((2, 1, len(poly)))
    monos = []
    for m, (mono, coeff) in enumerate(poly.items()):
        iv = Interval.point(coeff)
        if not (_safe_bound(iv.lo) and _safe_bound(iv.hi)):
            return None
        coeffs[:, 0, m] = iv.lo, iv.hi
        monos.append(tuple((index[var], exp) for var, exp in mono))
    return _CompiledPoly(coeffs, monos)


def compile_atoms(
    prepared: Sequence[PreparedAtom], names: Sequence[str]
) -> list[_CompiledAtom] | None:
    """Compile prepared atoms against a sorted variable order.

    Returns ``None`` when a constraint cannot be compiled (a
    coefficient outside the exactness-safe band, or a variable missing
    from the box) — the caller then falls back to the scalar engine.
    """
    index = {name: i for i, name in enumerate(names)}
    compiled = []
    try:
        for atom in prepared:
            poly = _compile_poly(atom.poly, index)
            if poly is None:
                return None
            mask = np.zeros(len(names), dtype=bool)
            mask[poly.variables] = True
            linear = []
            for variable, coeff_poly, rest_poly in atom.linear:
                cc = _compile_poly(coeff_poly, index)
                rr = _compile_poly(rest_poly, index)
                if cc is None or rr is None:
                    return None
                linear.append((index[variable], cc, rr))
            compiled.append(_CompiledAtom(atom.relation, poly, mask, linear))
    except KeyError:
        return None
    return compiled


def _eval_poly(cpoly: _CompiledPoly, lo, hi, powers, bad):
    """Batched enclosure of a compiled polynomial over ``(B, V)`` bounds:
    the scalar ``eval_poly_interval`` replayed as a monomial tensor (see
    the module docstring). ``powers`` caches ``(var_index, exp) -> (2,
    B)`` power bounds across evaluations over the same boxes."""
    n = lo.shape[0]
    table = np.empty((2, n, cpoly.width + 1))
    table[:, :, cpoly.width] = 1.0
    for exp, vis, cols in cpoly.groups:
        missing = [vi for vi in vis if (vi, exp) not in powers]
        if missing:
            block = _iv_pow(np.stack((lo[:, missing], hi[:, missing])), exp, bad)
            for j, vi in enumerate(missing):
                powers[vi, exp] = block[:, :, j]
        table[:, :, cols] = np.stack([powers[vi, exp] for vi in vis], axis=-1)
    parts = cpoly.coeffs
    for level in cpoly.factors:
        parts = _iv_mul(parts, table[:, :, level], bad)
    parts = np.broadcast_to(parts, (2, n, parts.shape[2])).transpose(2, 0, 1)
    sums = np.empty_like(parts)
    total = np.zeros((2, n))
    outward = _OUTWARD[:, None]
    for m, part in enumerate(parts):
        sums[m], err = _two_sum(total, part)
        total = _round_out(sums[m], err * outward > 0)
    _flag(bad, sums, box_axis=2)
    return total[0], total[1]


def _violated_mask(elo, ehi, relation):
    if relation is Relation.LE:
        return elo > 0.0
    if relation is Relation.LT:
        return elo >= 0.0
    if relation is Relation.EQ:
        return (elo > 0.0) | (ehi < 0.0)
    return (elo == 0.0) & (ehi == 0.0)


def _satisfied_mask(elo, ehi, relation):
    if relation is Relation.LE:
        return ehi <= 0.0
    if relation is Relation.LT:
        return ehi < 0.0
    if relation is Relation.EQ:
        return (elo == 0.0) & (ehi == 0.0)
    return (elo > 0.0) | (ehi < 0.0)


# ----------------------------------------------------------------------
# Chunk pipeline: contraction, classification, witness, split
# ----------------------------------------------------------------------

def _where_max(a, b):
    """Python ``max(a, b)`` semantics elementwise (first wins ties)."""
    return np.where(b > a, b, a)


def _where_min(a, b):
    return np.where(b < a, b, a)


def _div_up_arr(num, den):
    q = num / den
    q = np.where(np.isnan(q), np.inf, q)
    q = np.where(den == 0.0, np.inf, q)
    return np.where(np.isfinite(q), np.nextafter(q, np.inf), q)


def _div_down_arr(num, den):
    q = num / den
    q = np.where(np.isnan(q), -np.inf, q)
    q = np.where(den == 0.0, -np.inf, q)
    return np.where(np.isfinite(q), np.nextafter(q, -np.inf), q)


def _contract_chunk(solver, compiled, lo, hi, bad):
    """Vectorized HC4 contraction, mutating ``lo``/``hi`` in place.

    Runs every pass unconditionally: contraction is a deterministic
    function of the box, so re-running it on a box the scalar engine
    left alone (its early `no change` break) reproduces the same box.
    """
    n = lo.shape[0]
    empty = np.zeros(n, dtype=bool)
    for _ in range(solver.contraction_passes):
        for atom in compiled:
            is_eq = atom.relation is Relation.EQ
            for vi, coeff_poly, rest_poly in atom.linear:
                powers: dict = {}
                alo, ahi = _eval_poly(coeff_poly, lo, hi, powers, bad)
                blo, bhi = _eval_poly(rest_poly, lo, hi, powers, bad)
                known = ~((alo <= 0.0) & (0.0 <= ahi))
                if not known.any():
                    continue
                pos = alo > 0.0
                nblo = -blo
                nbhi = -bhi
                up_pos = _where_max(
                    _div_up_arr(nblo, alo), _div_up_arr(nblo, ahi)
                )
                lo_neg = _where_min(
                    _div_down_arr(nblo, alo), _div_down_arr(nblo, ahi)
                )
                if is_eq:
                    lo_pos = _where_min(
                        _div_down_arr(nbhi, alo), _div_down_arr(nbhi, ahi)
                    )
                    up_neg = _where_max(
                        _div_up_arr(nbhi, alo), _div_up_arr(nbhi, ahi)
                    )
                else:
                    lo_pos = np.full(n, -np.inf)
                    up_neg = np.full(n, np.inf)
                cand_lo = np.where(pos, lo_pos, lo_neg)
                cand_hi = np.where(pos, up_pos, up_neg)
                cand_empty = known & (cand_lo > cand_hi)
                x_lo = lo[:, vi]
                x_hi = hi[:, vi]
                # Interval.intersect: max(x.lo, c.lo), min(x.hi, c.hi)
                n_lo = np.where(cand_lo > x_lo, cand_lo, x_lo)
                n_hi = np.where(cand_hi < x_hi, cand_hi, x_hi)
                isect_empty = known & ~cand_empty & (n_lo > n_hi)
                empty |= cand_empty | isect_empty
                update = known & ~empty
                lo[:, vi] = np.where(update, n_lo, x_lo)
                hi[:, vi] = np.where(update, n_hi, x_hi)
                # Contracted endpoints are new multiplication operands;
                # re-check they stay inside the exactness band.
                _flag(bad, lo[:, vi])
                _flag(bad, hi[:, vi])
    return empty


def _classify_chunk(compiled, lo, hi, bad):
    n = lo.shape[0]
    powers: dict = {}
    infeasible = np.zeros(n, dtype=bool)
    undecided = []
    for atom in compiled:
        elo, ehi = _eval_poly(atom.poly, lo, hi, powers, bad)
        violated = _violated_mask(elo, ehi, atom.relation)
        satisfied = _satisfied_mask(elo, ehi, atom.relation)
        infeasible |= violated
        undecided.append(~violated & ~satisfied)
    return infeasible, undecided


def _midpoints(lo, hi):
    """Elementwise replica of ``Interval.midpoint``."""
    mid = 0.5 * (lo + hi)
    alt = 0.5 * lo + 0.5 * hi
    mid = np.where(np.isfinite(mid), mid, alt)
    lo_inf = lo == -np.inf
    hi_inf = hi == np.inf
    down = hi - 1.0
    up = lo + 1.0
    mid = np.where(lo_inf & ~hi_inf, np.where(down <= 0.0, down, 0.0), mid)
    mid = np.where(~lo_inf & hi_inf, np.where(up >= 0.0, up, 0.0), mid)
    mid = np.where(lo_inf & hi_inf, 0.0, mid)
    return mid


def _witness_chunk(
    solver, prepared, compiled, order, names, mids, lo, hi, skip, bad
):
    """Batched replica of ``_exact_witness``: screen the scalar's three
    candidate points with degenerate-interval enclosures; only points a
    screen cannot decide fall through to the exact rational check.

    All three candidates (midpoint, ``lo``, ``hi``) are screened in one
    stacked evaluation per atom; a candidate's guard flags reach ``bad``
    only when the candidate loop gets to that candidate, which is when
    a per-candidate evaluation would have raised them.
    """
    n = lo.shape[0]
    found = np.zeros(n, dtype=bool)
    witnesses: list[dict | None] = [None] * n
    if skip.all():
        return found, witnesses  # no candidate is ever eligible
    sorted_pos = [names.index(name) for name in order]
    candidates = (mids, lo, hi)
    pts_all = np.concatenate(candidates)
    bad_all = np.zeros(3 * n, dtype=bool)
    fails = np.zeros(3 * n, dtype=bool)
    unknown = np.zeros(3 * n, dtype=bool)
    powers: dict = {}
    for atom in compiled:
        elo, ehi = _eval_poly(atom.poly, pts_all, pts_all, powers, bad_all)
        violated = _violated_mask(elo, ehi, atom.relation)
        satisfied = _satisfied_mask(elo, ehi, atom.relation)
        fails |= violated
        unknown |= ~violated & ~satisfied
    bad_all = bad_all.reshape(3, n)
    fails = fails.reshape(3, n)
    unknown = unknown.reshape(3, n)
    for candidate, pts in enumerate(candidates):
        eligible = ~skip & ~found
        if candidate:
            eligible &= np.isfinite(pts).all(axis=1)
        if not eligible.any():
            continue
        bad |= bad_all[candidate]
        eligible &= ~bad
        certain = eligible & ~fails[candidate] & ~unknown[candidate]
        for i in np.nonzero(certain)[0]:
            found[i] = True
            witnesses[i] = {
                name: Fraction(float(pts[i, vi]))
                for name, vi in zip(order, sorted_pos)
            }
        maybe = eligible & ~fails[candidate] & unknown[candidate]
        for i in np.nonzero(maybe)[0]:
            point = {
                name: Fraction(float(pts[i, vi]))
                for name, vi in zip(order, sorted_pos)
            }
            if solver._satisfies_exactly(prepared, point):
                found[i] = True
                witnesses[i] = point
    return found, witnesses


def _make_box(order, names, lo_row, hi_row) -> Box:
    pos = {name: i for i, name in enumerate(names)}
    return Box(
        {
            name: Interval(float(lo_row[pos[name]]), float(hi_row[pos[name]]))
            for name in order
        }
    )


def _process_chunk(solver, prepared, compiled, order, names, lo, hi):
    """Run the scalar per-box step, vectorized, over one chunk.

    Returns one ``(kind, payload)`` outcome per box — ``"drop"``,
    ``("sat", (witness, box))``, ``("delta", box)`` or ``("split",
    (lo_low, hi_low, lo_high, hi_high))`` row arrays. Boxes whose
    arithmetic left the exactness band are recomputed with the scalar
    step on their original bounds.
    """
    n = lo.shape[0]
    orig_lo = lo.copy()
    orig_hi = hi.copy()
    bad = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        _flag(bad, lo)
        _flag(bad, hi)
        empty = _contract_chunk(solver, compiled, lo, hi, bad)
        infeasible, undecided = _classify_chunk(compiled, lo, hi, bad)
        dead = empty | infeasible
        mids = _midpoints(lo, hi)
        _flag(bad, mids)
        found, witnesses = _witness_chunk(
            solver, prepared, compiled, order, names, mids, lo, hi, dead, bad
        )
        widths = hi - lo
        max_width = widths.max(axis=1) if widths.shape[1] else np.zeros(n)
        is_delta = max_width <= solver.delta
        # Split variable: widest among variables of undecided
        # constraints (sorted-name argmax == the scalar tie-break).
        candidates = np.zeros_like(lo, dtype=bool)
        for atom, mask in zip(compiled, undecided):
            candidates |= mask[:, None] & atom.var_mask[None, :]
        no_candidate = ~candidates.any(axis=1)
        if no_candidate.any():
            candidates[no_candidate, :] = True
        masked = np.where(candidates, widths, -np.inf)
        split_vi = (
            masked.argmax(axis=1)
            if widths.shape[1]
            else np.zeros(n, dtype=int)
        )
    outcomes = []
    for i in range(n):
        if bad[i]:
            kind, payload = solver._step(
                prepared, _make_box(order, names, orig_lo[i], orig_hi[i])
            )
            if kind == "split":
                box, variable = payload
                low, high = box[variable].split()
                lo_low = np.array([box[nm].lo for nm in names])
                hi_low = np.array(
                    [
                        low.hi if nm == variable else box[nm].hi
                        for nm in names
                    ]
                )
                lo_high = np.array(
                    [
                        high.lo if nm == variable else box[nm].lo
                        for nm in names
                    ]
                )
                hi_high = np.array([box[nm].hi for nm in names])
                outcomes.append(("split", (lo_low, hi_low, lo_high, hi_high)))
            else:
                outcomes.append((kind, payload))
            continue
        if dead[i]:
            outcomes.append(("drop", None))
            continue
        if found[i]:
            outcomes.append(
                ("sat", (witnesses[i], _make_box(order, names, lo[i], hi[i])))
            )
            continue
        if is_delta[i]:
            outcomes.append(("delta", _make_box(order, names, lo[i], hi[i])))
            continue
        vi = int(split_vi[i])
        mid = mids[i, vi]
        hi_low = hi[i].copy()
        hi_low[vi] = mid
        lo_high = lo[i].copy()
        lo_high[vi] = mid
        outcomes.append(("split", (lo[i].copy(), hi_low, lo_high, hi[i].copy())))
    return outcomes


# ----------------------------------------------------------------------
# The chunked DFS-equivalent search
# ----------------------------------------------------------------------

def batched_check(
    solver: IcpSolver,
    prepared: list[PreparedAtom],
    box: Box,
    chunk: int = _CHUNK,
) -> IcpResult:
    """Decide a prepared conjunction with the batched frontier engine.

    Equivalence with the scalar DFS (see the module docstring): pending
    boxes are processed in lexicographic path order, every tree box
    preceding the surviving terminal is processed exactly once, and the
    scalar's budget rule is replayed from the recorded paths. Any
    verdict this function returns is the verdict — with the same
    witness, witness box and statistics — that ``_check_scalar`` would
    return.
    """
    order = list(box.intervals)
    names = sorted(order)
    compiled = compile_atoms(prepared, names)
    if compiled is None or not names:
        return solver._check_scalar(prepared, box)
    n_vars = len(names)
    paths: list[str] = [""]
    pend_lo = np.array([[box[name].lo for name in names]])
    pend_hi = np.array([[box[name].hi for name in names]])
    records: list[tuple[str, bool]] = []
    term_path: str | None = None
    term_kind = ""
    term_payload = None
    while paths:
        if term_path is not None:
            cut = bisect.bisect_left(paths, term_path)
            if cut == 0:
                break
            paths = paths[:cut]
            pend_lo = pend_lo[:cut]
            pend_hi = pend_hi[:cut]
        take = min(chunk, len(paths))
        chunk_paths = paths[:take]
        chunk_lo = pend_lo[:take].copy()
        chunk_hi = pend_hi[:take].copy()
        paths = paths[take:]
        pend_lo = pend_lo[take:]
        pend_hi = pend_hi[take:]
        outcomes = _process_chunk(
            solver, prepared, compiled, order, names, chunk_lo, chunk_hi
        )
        child_paths: list[str] = []
        child_lo: list[np.ndarray] = []
        child_hi: list[np.ndarray] = []
        for path, (kind, payload) in zip(chunk_paths, outcomes):
            if kind == "drop":
                records.append((path, False))
            elif kind in ("sat", "delta"):
                records.append((path, False))
                if term_path is None or path < term_path:
                    term_path, term_kind, term_payload = path, kind, payload
            else:
                records.append((path, True))
                lo_low, hi_low, lo_high, hi_high = payload
                child_paths.append(path + "0")
                child_lo.append(lo_low)
                child_hi.append(hi_low)
                child_paths.append(path + "1")
                child_lo.append(lo_high)
                child_hi.append(hi_high)
        if child_paths:
            paths = child_paths + paths
            pend_lo = np.vstack(
                [np.asarray(child_lo).reshape(-1, n_vars), pend_lo]
            )
            pend_hi = np.vstack(
                [np.asarray(child_hi).reshape(-1, n_vars), pend_hi]
            )
        # Budget early-out: once more boxes precede the frontier than
        # the budget allows (and no terminal precedes them), the scalar
        # engine would already have given up.
        if len(records) > solver.max_boxes and paths:
            frontier = paths[0]
            if term_path is None or term_path > frontier:
                below = sum(1 for p, _ in records if p < frontier)
                if below > solver.max_boxes:
                    return _unknown_result(solver, records)
    if term_path is not None:
        explored = sum(1 for p, _ in records if p <= term_path)
        if explored > solver.max_boxes:
            return _unknown_result(solver, records)
        solver._stats_boxes = explored
        solver._stats_splits = sum(
            1 for p, split in records if split and p < term_path
        )
        if term_kind == "sat":
            witness, witness_box = term_payload
            return solver._result(IcpStatus.SAT, witness, witness_box)
        return solver._result(IcpStatus.DELTA_SAT, None, term_payload)
    if len(records) > solver.max_boxes:
        return _unknown_result(solver, records)
    solver._stats_boxes = len(records)
    solver._stats_splits = sum(1 for _, split in records if split)
    return solver._result(IcpStatus.UNSAT, None, None)


def _unknown_result(solver: IcpSolver, records) -> IcpResult:
    ordered = sorted(records)
    solver._stats_boxes = solver.max_boxes + 1
    solver._stats_splits = sum(
        1 for _, split in ordered[: solver.max_boxes] if split
    )
    return solver._result(IcpStatus.UNKNOWN, None, None)


# ----------------------------------------------------------------------
# Population classification (benchmark / differential surface)
# ----------------------------------------------------------------------

def classify_boxes(atoms: Sequence[Atom], boxes: Sequence[Box]) -> list[str]:
    """Classify a population of boxes in one vectorized pass.

    Returns the scalar ``_classify`` verdict (``"infeasible"`` /
    ``"satisfied"`` / ``"undecided"``) per box; boxes outside the
    exactness band are classified by the scalar path. This is the
    surface the ICP throughput benchmark measures.
    """
    prepared = prepare_atoms(atoms)
    arr = BoxArray.from_boxes(boxes)
    compiled = compile_atoms(prepared, arr.names)
    solver = IcpSolver(backend="scalar")
    if compiled is None:
        return [
            solver._classify(prepared, box)[0] for box in boxes
        ]
    n = len(arr)
    lo = np.ascontiguousarray(arr.lo)
    hi = np.ascontiguousarray(arr.hi)
    bad = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        _flag(bad, lo)
        _flag(bad, hi)
        infeasible, undecided_masks = _classify_chunk(compiled, lo, hi, bad)
    undecided = np.zeros(n, dtype=bool)
    for mask in undecided_masks:
        undecided |= mask
    out = []
    for i in range(n):
        if bad[i]:
            out.append(solver._classify(prepared, boxes[i])[0])
        elif infeasible[i]:
            out.append("infeasible")
        elif undecided[i]:
            out.append("undecided")
        else:
            out.append("satisfied")
    return out
