"""Continuous-time linear state-space models (paper Section III-A).

``StateSpace`` is the ``(A, B, C)`` triple of Equation (1):

    x' = A x + B u,    y = C x.

It carries the numerical representation (numpy) used by synthesis and
simulation; :meth:`StateSpace.exact` converts losslessly to the rational
world when a proof is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exact import RationalMatrix

__all__ = ["StateSpace", "AffineSystem"]


@dataclass(frozen=True)
class StateSpace:
    """A linear system ``x' = A x + B u``, ``y = C x``."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"B has {b.shape[0]} rows, expected {a.shape[0]}")
        if c.shape[1] != a.shape[0]:
            raise ValueError(f"C has {c.shape[1]} columns, expected {a.shape[0]}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """State dimension ``n``."""
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        """Input dimension ``m``."""
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        """Output dimension ``p``."""
        return self.c.shape[0]

    # ------------------------------------------------------------------
    def poles(self) -> np.ndarray:
        """Eigenvalues of ``A`` (numeric)."""
        return np.linalg.eigvals(self.a)

    def spectral_abscissa(self) -> float:
        """``max Re(eig(A))`` — negative means stable."""
        return float(self.poles().real.max())

    def is_stable(self) -> bool:
        """Numerical Hurwitz check; use :meth:`exact` + Routh for a proof."""
        return self.spectral_abscissa() < 0

    def dc_gain(self) -> np.ndarray:
        """Steady-state gain ``-C A^{-1} B`` (A must be invertible)."""
        return -self.c @ np.linalg.solve(self.a, self.b)

    def equilibrium(self, u: np.ndarray) -> np.ndarray:
        """The state ``x`` with ``A x + B u = 0`` for a constant input."""
        u = np.asarray(u, dtype=float).reshape(self.n_inputs)
        return -np.linalg.solve(self.a, self.b @ u)

    def output(self, x: np.ndarray) -> np.ndarray:
        """``y = C x``."""
        return self.c @ np.asarray(x, dtype=float)

    def derivative(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``x' = A x + B u``."""
        return self.a @ np.asarray(x, dtype=float) + self.b @ np.asarray(
            u, dtype=float
        )

    # ------------------------------------------------------------------
    def exact(self) -> tuple[RationalMatrix, RationalMatrix, RationalMatrix]:
        """Lossless conversion of ``(A, B, C)`` to rational matrices."""
        return (
            RationalMatrix.from_numpy(self.a),
            RationalMatrix.from_numpy(self.b),
            RationalMatrix.from_numpy(self.c),
        )

    def rounded_to_integers(self) -> "StateSpace":
        """The paper's 'truncated' variant: entries rounded to integers."""
        return StateSpace(
            np.round(self.a), np.round(self.b), np.round(self.c)
        )

    def __repr__(self) -> str:
        return (
            f"StateSpace(n={self.n_states}, inputs={self.n_inputs}, "
            f"outputs={self.n_outputs})"
        )


@dataclass(frozen=True)
class AffineSystem:
    """An autonomous affine system ``w' = A w + b``."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if b.shape[0] != a.shape[0]:
            raise ValueError("b dimension mismatch")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dimension(self) -> int:
        """State dimension."""
        return self.a.shape[0]

    def derivative(self, w: np.ndarray) -> np.ndarray:
        """``w' = A w + b``."""
        return self.a @ np.asarray(w, dtype=float) + self.b

    def equilibrium(self) -> np.ndarray:
        """``-A^{-1} b`` (A must be invertible)."""
        return -np.linalg.solve(self.a, self.b)

    def is_stable(self) -> bool:
        """Numeric Hurwitz check of ``A``."""
        return float(np.linalg.eigvals(self.a).real.max()) < 0

    def exact(self) -> tuple[RationalMatrix, RationalMatrix]:
        """Lossless conversion to rational matrices."""
        return (
            RationalMatrix.from_numpy(self.a),
            RationalMatrix.from_numpy(self.b.reshape(-1, 1)),
        )

    def augmented_exact(self) -> RationalMatrix:
        """``Ā = [[A, b], [0, 0]]``, the flow on ``w̄ = (w, 1)``, exactly."""
        a, b = self.exact()
        return a.hstack(b).vstack(RationalMatrix.zeros(1, self.dimension + 1))
