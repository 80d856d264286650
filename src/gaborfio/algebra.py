"""Numerical verification of the structure theorems: composition of the
operator algebra, inverse closedness (Wiener property), and factorization of
generalized metaplectic operators into pseudodifferential times metaplectic.

Every verifier assembles the relevant dense operator, fits the decay profile
of its Gabor matrix over a supplied frame (from |K| alone) against the
expected canonical transformation and reports pass/fail against an exponent
threshold.  The default threshold is s = 2d + 1 = 3: the algebra theorems
need s > 2d = 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NotInClass, SingularOperator
from .gabor import GaborFrame
from .gabormatrix import DecayProfile, operator_decay_profile
from .operators import (MetaplecticWord, OperatorMatrix, SymbolGrid, adjoint,
                        compose, kn_quantize, kn_symbol_of, metaplectic)
from .phasegeom import CanonicalMap, compose_maps

__all__ = ["AlgebraReport", "verify_composition", "verify_inverse",
           "factorize_metaplectic", "DEFAULT_S_THRESHOLD"]

DEFAULT_S_THRESHOLD = 3.0
COND_MAX = 1e8


@dataclass(frozen=True)
class AlgebraReport:
    """Outcome of one structure-theorem verification."""

    operation: str
    s_fit: float
    C_fit: float
    passed: bool
    s_threshold: float
    chi_source: str
    profile: DecayProfile
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "operation": self.operation,
            "s_fit": self.s_fit,
            "C_fit": self.C_fit,
            "pass": self.passed,
            "s_threshold": self.s_threshold,
            "chi": self.chi_source,
            "r2": self.profile.r2,
            "bins": [{"dist": d, "envelope": e, "count": c}
                     for d, e, c in self.profile.bins],
            "diagnostics": {k: v for k, v in self.diagnostics.items()
                            if isinstance(v, (int, float, str, bool, list))},
        }
        return json.dumps(payload, indent=2)


def _report(operation, frame, T, chi, s_threshold, extra=None) -> AlgebraReport:
    prof = operator_decay_profile(T, frame, chi)
    return AlgebraReport(
        operation=operation, s_fit=prof.s_fit, C_fit=prof.C_fit,
        passed=bool(prof.s_fit >= s_threshold and np.isfinite(prof.C_fit)),
        s_threshold=s_threshold,
        chi_source=getattr(chi, "source", "matrix"),
        profile=prof, diagnostics=extra or {})


def verify_composition(T1: OperatorMatrix, T2: OperatorMatrix,
                       chi1: CanonicalMap, chi2: CanonicalMap,
                       frame: GaborFrame,
                       s_threshold: float = DEFAULT_S_THRESHOLD) -> AlgebraReport:
    """Check that T1 T2 concentrates along chi1 o chi2."""
    prod = compose(T1, T2)
    chi = compose_maps(chi1, chi2)
    s1 = operator_decay_profile(T1, frame, chi1).s_fit
    s2 = operator_decay_profile(T2, frame, chi2).s_fit
    return _report("compose", frame, prod, chi, s_threshold,
                   extra={"s_fit_factor1": s1, "s_fit_factor2": s2,
                          "s_fit_factors_min": min(s1, s2)})


def _refined_inverse(A: np.ndarray) -> np.ndarray:
    """A^{-1} by an LU solve against I, plus one step of iterative refinement."""
    I = np.eye(A.shape[0])
    X = np.linalg.solve(A, I.astype(complex))
    X += np.linalg.solve(A, I - A @ X)
    return X


def verify_inverse(T: OperatorMatrix, chi: CanonicalMap, frame: GaborFrame,
                   s_threshold: float = DEFAULT_S_THRESHOLD) -> AlgebraReport:
    """Invert T densely (LU + one refinement step) and check decay along chi^{-1}."""
    cond = np.linalg.cond(T.entries)
    if not np.isfinite(cond) or cond > COND_MAX:
        raise SingularOperator(f"condition number {cond:.3e} exceeds {COND_MAX:.1e}")
    Tinv = OperatorMatrix(_refined_inverse(T.entries), T.config)
    s_fwd = operator_decay_profile(T, frame, chi).s_fit
    rep = _report("invert", frame, Tinv, chi.inverse(), s_threshold,
                  extra={"condition_number": float(cond), "s_fit_forward": s_fwd})
    ratio = rep.s_fit / s_fwd if s_fwd else np.inf
    rep.diagnostics["s_fit_ratio"] = float(ratio)
    return rep


def factorize_metaplectic(T: OperatorMatrix, word: MetaplecticWord,
                          frame: GaborFrame,
                          s_threshold: float = DEFAULT_S_THRESHOLD,
                          ) -> tuple[SymbolGrid, AlgebraReport]:
    """Split T = sigma_1(x, D) mu(A) for the word's metaplectic unitary.

    P = T mu(A)^{-1} must be pseudodifferential, i.e. its Gabor matrix must
    concentrate along the identity; otherwise the word does not match T's
    canonical transformation and NotInClass is raised.  On success sigma_1
    is extracted exactly (the discrete quantization is exactly invertible)
    and the reconstruction  kn_quantize(sigma_1) mu(A)  is checked against T.
    The mirrored form T = mu(A) sigma_2(x, D) is extracted alongside.
    """
    mu, chi = metaplectic(word)
    mu_inv = adjoint(mu)                      # metaplectic unitaries: inverse = adjoint
    P = compose(T, mu_inv)
    prof = operator_decay_profile(P, frame, np.eye(2))
    if prof.s_fit < s_threshold:
        raise NotInClass(
            f"T mu(A)^-1 is not almost diagonal: s_fit = {prof.s_fit:.2f} "
            f"< {s_threshold}")
    sigma1 = kn_symbol_of(P)
    recon = compose(kn_quantize(sigma1), mu)
    rel_err = (np.linalg.norm(recon.entries - T.entries)
               / np.linalg.norm(T.entries))
    sigma2 = kn_symbol_of(compose(mu_inv, T))
    recon2 = compose(mu, kn_quantize(sigma2))
    rel_err2 = (np.linalg.norm(recon2.entries - T.entries)
                / np.linalg.norm(T.entries))
    report = AlgebraReport(
        operation="factorize", s_fit=prof.s_fit, C_fit=prof.C_fit,
        passed=bool(rel_err <= 1e-10 and prof.s_fit >= s_threshold),
        s_threshold=s_threshold, chi_source=chi.source, profile=prof,
        diagnostics={"reconstruction_rel_error": float(rel_err),
                     "mirrored_rel_error": float(rel_err2)})
    return sigma1, report
