"""Reference LMI assemblies for the differential tests.

:class:`PerBlockOracle` is the per-block separation oracle for the
ellipsoid differentials. :func:`repro.sdp.solve_lmi_ellipsoid` talks to
its oracle only through ``oracle(x, active)`` and ``gradient(i, v)``.
This object answers both with one eigendecomposition per block and no
batching, Cholesky screen or active-set shortcut. Passed as
``compiled=``, it lets a test drive the real solver loop and compare
the trajectory against the tensorized :class:`repro.sdp.CompiledLmiSystem`.

:func:`dense_lyap_basis_tensor` is the dense einsum assembly of the
``L(E_k)`` stack that :func:`repro.sdp.problems.lyap_basis_tensor`
builds sparsely.
"""

import numpy as np

from repro.sdp.svec import basis_tensor


def dense_lyap_basis_tensor(a, alpha):
    """``L(E_k) = A^T E_k + E_k A + alpha E_k`` over the svec basis, by
    dense einsum contraction."""
    basis = basis_tensor(a.shape[0])  # (m, n, n)
    return (
        np.einsum("ab,kbm->kam", a.T, basis)
        + np.einsum("kab,bm->kam", basis, a)
        + alpha * basis
    )


class PerBlockOracle:
    def __init__(self, blocks):
        self.blocks = list(blocks)

    def oracle(self, x, active=None):
        violations = np.full(len(self.blocks), -np.inf)
        vectors = {}
        for i, block in enumerate(self.blocks):
            if active is None or active[i]:
                violations[i], vectors[i] = block.violation(x)
        index = int(np.argmax(violations))
        return float(violations[index]), vectors[index], index, violations

    def gradient(self, index, vector):
        return np.array(
            [-vector @ c @ vector for c in self.blocks[index].coefficients]
        )
