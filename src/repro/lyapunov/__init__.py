"""Lyapunov-function synthesis: the paper's six single-mode methods and
the piecewise-quadratic switched-system attempt."""

from .cegis import (
    CegisOutcome,
    CegisRound,
    CegisWitness,
    CenteredLmi,
    CertificateCheck,
    CertificateVerification,
    PiecewiseCertificate,
    assemble_centered_lmi,
    cegis_piecewise,
    refute_certificate,
    seed_directions,
    snap_certificate,
    verify_certificate,
)
from .common import CommonLyapunovResult, synthesize_common
from .discrete import (
    solve_stein_numeric,
    synthesize_discrete,
    validate_discrete_candidate,
)
from .equation import (
    SynthesisTimeout,
    solve_lyapunov_exact,
    solve_lyapunov_numeric,
)
from .modal import modal_lyapunov
from .piecewise import (
    ENCODINGS,
    HybridSolve,
    PiecewiseCandidate,
    PiecewiseLmi,
    assemble_piecewise_lmi,
    solve_hybrid,
    synthesize_piecewise,
)
from .quadratic import LyapunovCandidate
from .settling import SettlingBound, settling_bound, verify_decay_rate_exact
from .synthesis import DEFAULT_NU, LMI_METHODS, METHODS, default_alpha, synthesize

__all__ = [
    "LyapunovCandidate",
    "METHODS",
    "LMI_METHODS",
    "DEFAULT_NU",
    "default_alpha",
    "synthesize",
    "SynthesisTimeout",
    "solve_lyapunov_exact",
    "solve_lyapunov_numeric",
    "modal_lyapunov",
    "PiecewiseCandidate",
    "synthesize_piecewise",
    "ENCODINGS",
    "PiecewiseLmi",
    "assemble_piecewise_lmi",
    "HybridSolve",
    "solve_hybrid",
    "CommonLyapunovResult",
    "synthesize_common",
    "solve_stein_numeric",
    "synthesize_discrete",
    "validate_discrete_candidate",
    "SettlingBound",
    "settling_bound",
    "verify_decay_rate_exact",
    "CenteredLmi",
    "assemble_centered_lmi",
    "seed_directions",
    "PiecewiseCertificate",
    "snap_certificate",
    "CertificateCheck",
    "CertificateVerification",
    "verify_certificate",
    "CegisWitness",
    "refute_certificate",
    "CegisRound",
    "CegisOutcome",
    "cegis_piecewise",
]
