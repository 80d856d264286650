"""Tame phases and canonical transformations (dimension d = 1).

A phase Phi(x, eta) is tame when its second derivatives are bounded and the
mixed derivative is bounded away from zero.  Solving

    y  = dPhi/deta (x, eta)
    xi = dPhi/dx   (x, eta)

for (x, xi) defines the canonical transformation chi(y, eta) = (x, xi), which
is symplectic.  In d = 1 the solve is a scalar Newton iteration in x with a
monotone residual (the mixed derivative has fixed sign), with a bracketing
bisection fallback.  The iteration runs over whole arrays of points at once;
each point leaves it when its own residual is small, so it takes exactly the
iterates a one-point loop would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ModelError, NondegeneracyViolation, SolveError

__all__ = [
    "TamePhase", "CanonicalMap", "SymplecticMatrix", "TameReport",
    "EquivalenceReport", "validate_tame", "canonical_map_of_phase",
    "phase_of_symplectic", "check_symplectic", "phase_chi_equivalence",
    "linear_map", "compose_maps", "tame_phase",
]

_FD_STEP = 1e-5          # central-difference step for Jacobians
_NEWTON_TOL = 1e-12
_NEWTON_MAXIT = 50
_BISECT_XTOL = 1e-14     # bracket width at which the bisection fallback stops
_SAMPLE_BOX = ((-4.0, 4.0), (-4.0, 4.0))   # (x, eta) box of the sampled checks


@dataclass(frozen=True)
class TamePhase:
    """A smooth real phase with derivative oracles and declared tameness bounds.

    ``hess(x, eta)`` returns the symmetric 2x2 matrix
    [[Phi_xx, Phi_xeta], [Phi_etax, Phi_etaeta]].  ``declared_C2`` bounds all
    second derivatives, ``declared_delta`` lower-bounds |Phi_xeta|; both are
    author claims, checked by sampling in :func:`validate_tame`.

    Every oracle broadcasts over numpy arrays: ``eval``, ``grad_x`` and
    ``grad_eta`` return values of the broadcast shape of ``x`` and ``eta``,
    and ``hess`` returns either a constant 2x2 matrix or an array of shape
    ``(2, 2) + shape``.  The solves, the sampling of the phase on a grid and
    the checks below call them once per array, never once per point.

    ``quad`` holds the coefficients (p, q, r) of a quadratic phase
    p x^2/2 + q x eta + r eta^2/2 (see :func:`_quadratic`), None otherwise.
    """

    eval: Callable[[float, float], float]
    grad_x: Callable[[float, float], float]
    grad_eta: Callable[[float, float], float]
    hess: Callable[[float, float], np.ndarray]
    declared_C2: float
    declared_delta: float
    name: str = ""
    quad: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class TameReport:
    C2_observed: float
    delta_observed: float
    passed: bool


@dataclass(frozen=True)
class EquivalenceReport:
    ratio_min: float
    ratio_max: float
    passed: bool


@dataclass(frozen=True)
class SymplecticMatrix:
    """A real 2x2 symplectic matrix (d = 1: blocks A, B, C, D are scalars)."""

    entries: np.ndarray

    J = np.array([[0.0, -1.0], [1.0, 0.0]])

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (2, 2):
            raise ModelError("symplectic matrix must be 2x2")
        if np.abs(m.T @ self.J @ m - self.J).max() > 1e-12:
            raise ModelError("matrix does not preserve the symplectic form")
        object.__setattr__(self, "entries", m)

    @property
    def A(self): return float(self.entries[0, 0])
    @property
    def B(self): return float(self.entries[0, 1])
    @property
    def C(self): return float(self.entries[1, 0])
    @property
    def D(self): return float(self.entries[1, 1])


@dataclass(frozen=True)
class CanonicalMap:
    """A map chi of the time-frequency plane with a Jacobian oracle.

    ``forward`` maps a pair (y, eta) to (x, xi).  It takes scalars or numpy
    arrays and works elementwise, returning a pair of the broadcast shape of
    its arguments; every map the library builds does.  For linear maps the
    matrix is stored and everything is exact; otherwise Jacobians fall back
    on central differences with step 1e-5.

    ``mod_L`` marks an integer matrix acting on the torus Z_L^2.  Such maps
    are inverted by the adjugate reduced mod L (their determinant is 1 mod L
    but generally not 1 over the reals, so the real inverse would be wrong).
    """

    forward: Callable[[float, float], tuple[float, float]]
    source: str = "explicit"
    matrix: np.ndarray | None = None
    mod_L: int | None = None
    _inverse_fn: Callable[[float, float], tuple[float, float]] | None = None

    def __call__(self, y: float, eta: float) -> tuple[float, float]:
        return self.forward(y, eta)

    def map_points(self, points: np.ndarray) -> np.ndarray:
        """Apply to an (N, 2) array of points."""
        pts = np.asarray(points, dtype=float)
        if self.matrix is not None:
            return pts @ self.matrix.T
        return np.column_stack(self.forward(pts[:, 0], pts[:, 1]))

    def jacobian(self, y, eta) -> np.ndarray:
        """Dchi at (y, eta); an array of shape ``shape + (2, 2)`` for arguments
        of broadcast shape ``shape``."""
        y, eta = _as_points(y, eta)
        if self.matrix is not None:
            return np.broadcast_to(self.matrix, y.shape + (2, 2)).copy()
        h = _FD_STEP
        fx1 = np.array(self.forward(y + h, eta)); fx0 = np.array(self.forward(y - h, eta))
        fe1 = np.array(self.forward(y, eta + h)); fe0 = np.array(self.forward(y, eta - h))
        D = np.stack([(fx1 - fx0) / (2 * h), (fe1 - fe0) / (2 * h)], axis=1)
        return np.moveaxis(D, (0, 1), (-2, -1))

    def inverse(self) -> "CanonicalMap":
        """Exact inverse for linear maps; the carried inverse otherwise.
        Raises ModelError for a map that carries neither."""
        if self.matrix is not None:
            m = self.matrix
            if self.mod_L is not None:
                adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
                inv = _mod_rep(adj, self.mod_L)
            else:
                inv = np.linalg.inv(m)
            return linear_map(inv, source=f"inverse({self.source})",
                              mod_L=self.mod_L)
        if self._inverse_fn is None:
            raise ModelError(f"map {self.source!r} carries neither a matrix nor an inverse")
        return CanonicalMap(self._inverse_fn, source=f"inverse({self.source})",
                            _inverse_fn=self.forward)


def _as_points(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two coordinates as float arrays of their common broadcast shape."""
    return np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def _mod_rep(m: np.ndarray, L: int) -> np.ndarray:
    """Symmetric mod-L representative of an integer matrix."""
    return (m + L // 2) % L - L // 2


def linear_map(matrix: np.ndarray, source: str = "linear",
               mod_L: int | None = None) -> CanonicalMap:
    m = np.asarray(matrix, dtype=float)
    return CanonicalMap(lambda y, eta: tuple(m @ (y, eta)), source=source,
                        matrix=m, mod_L=mod_L)


def compose_maps(chi1: CanonicalMap, chi2: CanonicalMap) -> CanonicalMap:
    """chi1 o chi2 (apply chi2 first), matching operator composition T1 T2.

    A non-linear product carries its inverse chi2^-1 o chi1^-1, built from the
    inverses of the factors."""
    if chi1.matrix is not None and chi2.matrix is not None:
        mod = chi1.mod_L if chi1.mod_L == chi2.mod_L else None
        prod = chi1.matrix @ chi2.matrix
        return linear_map(prod if mod is None else _mod_rep(prod, mod),
                          source=f"{chi1.source}*{chi2.source}", mod_L=mod)
    return CanonicalMap(lambda y, eta: chi1.forward(*chi2.forward(y, eta)),
                        source=f"{chi1.source}*{chi2.source}",
                        _inverse_fn=lambda x, xi: chi2.inverse().forward(
                            *chi1.inverse().forward(x, xi)))


def _sample_grid(box, n_samples) -> tuple[np.ndarray, np.ndarray]:
    """The points of an n x n grid over the box, x-major, as two flat arrays."""
    (x0, x1), (e0, e1) = box
    n = max(int(np.ceil(np.sqrt(n_samples))), 2)
    xs = np.linspace(x0, x1, n)
    es = np.linspace(e0, e1, n)
    return np.repeat(xs, n), np.tile(es, n)


def validate_tame(phi: TamePhase, n_samples: int = 400) -> TameReport:
    """Sample the Hessian over [-4, 4]^2 and compare with the declared bounds."""
    if n_samples < 100:
        raise ModelError("n_samples must be >= 100")
    H = np.asarray(phi.hess(*_sample_grid(_SAMPLE_BOX, n_samples)), dtype=float)
    # fmax/fmin skip NaN samples
    C2 = float(np.fmax.reduce(np.abs(H).ravel(), initial=0.0))
    delta = float(np.fmin.reduce(np.abs(H[0, 1]).ravel(), initial=np.inf))
    passed = (delta >= phi.declared_delta * (1 - 1e-6)
              and C2 <= phi.declared_C2 * (1 + 1e-6))
    return TameReport(C2_observed=C2, delta_observed=delta, passed=passed)


def _newton_1d(resid, slope, t: np.ndarray) -> np.ndarray:
    """Scalar Newton on every entry of the flat array t, in place.

    ``resid(t, i)`` and ``slope(t, i)`` give the residual and its derivative
    for the points i at the unknowns t.  A point leaves the iteration once
    |resid| < _NEWTON_TOL, so it takes the iterates a one-point loop takes.
    Returns the sorted indices of the points left unsolved: those that met
    a zero derivative or were still running after _NEWTON_MAXIT steps.
    """
    idx = np.arange(t.size)
    stalled = []
    for _ in range(_NEWTON_MAXIT):
        r = np.broadcast_to(resid(t[idx], idx), idx.shape)
        keep = ~(np.abs(r) < _NEWTON_TOL)       # NaN stays unsolved
        idx, r = idx[keep], r[keep]
        if not idx.size:
            break
        d = np.broadcast_to(slope(t[idx], idx), idx.shape)
        flat = d == 0.0
        stalled.append(idx[flat])
        idx, r, d = idx[~flat], r[~flat], d[~flat]
        t[idx] = t[idx] - r / d
    return np.sort(np.concatenate([idx, *stalled]))


def _bracket_root(resid, t: float) -> float | None:
    """Root of a monotone residual near t: a doubling bracket, then bisection
    down to _BISECT_XTOL (or adjacent floats).  None when no sign change
    turns up."""
    radius = max(1.0, abs(t))
    for _ in range(60):
        lo, hi = t - radius, t + radius
        r_lo, r_hi = resid(lo), resid(hi)
        if r_lo * r_hi < 0:
            break
        radius *= 2
    else:
        return None
    while hi - lo > _BISECT_XTOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        r_mid = resid(mid)
        if r_mid == 0:
            return mid
        if (r_mid < 0) == (r_lo < 0):
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    return lo if abs(r_lo) <= abs(r_hi) else hi


def _fresh(v, shape: tuple) -> np.ndarray:
    """v as a fresh float array of the given shape (a numpy scalar for ())."""
    return np.array(np.broadcast_to(v, shape), dtype=float)[()]


def _solve_monotone(resid, slope, t: np.ndarray, failure) -> None:
    """Solve resid(t, i) = 0 for every entry of the flat array t, in place.

    Newton (_newton_1d) from the given t; the residual is monotone in t, so
    each point Newton leaves unsolved is bracketed and bisected.  A point
    already within _NEWTON_TOL is kept; one whose bracket holds no root, or
    whose bisected residual is not below 1e-10, raises SolveError with the
    message failure(i).
    """
    for i in _newton_1d(resid, slope, t):
        r = lambda s: resid(s, i)
        if abs(r(t[i])) < _NEWTON_TOL:
            continue
        sol = _bracket_root(r, t[i])
        if sol is None or not abs(r(sol)) < 1e-10:
            raise SolveError(failure(i))
        t[i] = sol


def canonical_map_of_phase(phi: TamePhase) -> CanonicalMap:
    """The canonical transformation chi(y, eta) = (x, xi) induced by phi.

    Both directions take scalars or arrays of points."""

    def fwd(y, eta):
        # y = Phi_eta(x, eta) is monotone in x (|Phi_xeta| >= delta), from
        # x0 = y; then xi = Phi_x(x, eta)
        y, eta = _as_points(y, eta)
        yf, ef = y.ravel(), eta.ravel()
        x = yf.copy()
        _solve_monotone(lambda t, i: phi.grad_eta(t, ef[i]) - yf[i],
                        lambda t, i: phi.hess(t, ef[i])[1, 0], x,
                        lambda i: f"canonical-map solve stagnated at (y, eta)="
                                  f"({yf[i]}, {ef[i]}); check the derivative oracles")
        x = x.reshape(y.shape)
        return x[()], _fresh(phi.grad_x(x, eta), x.shape)

    def back(x, xi):
        # the roles swapped: xi = Phi_x(x, eta) is monotone in eta, from
        # eta0 = x; then y = Phi_eta(x, eta)
        x, xi = _as_points(x, xi)
        xf, xif = x.ravel(), xi.ravel()
        eta = xf.copy()
        _solve_monotone(lambda t, i: phi.grad_x(xf[i], t) - xif[i],
                        lambda t, i: phi.hess(xf[i], t)[0, 1], eta,
                        lambda i: "inverse canonical-map solve stagnated")
        eta = eta.reshape(x.shape)
        return _fresh(phi.grad_eta(x, eta), x.shape), eta[()]

    return CanonicalMap(fwd, source=f"from_phase({phi.name})", _inverse_fn=back)


def phase_of_symplectic(M: SymplecticMatrix) -> TamePhase:
    """The quadratic phase generating z -> M z:

        Phi(x, eta) = (C/A) x^2 / 2 + (1/A) x eta - (B/A) eta^2 / 2.

    Requires |A| >= 0.1 (condition B3); the Fourier-transform side A = 0 has
    no type-I phase and raises NondegeneracyViolation.
    """
    if abs(M.A) < 0.1:
        raise NondegeneracyViolation(
            f"|A block| = {abs(M.A):.3e} < 0.1: no type-I phase exists")
    return _quadratic(M.C / M.A, 1.0 / M.A, -M.B / M.A,
                      f"metaplectic({M.A:g},{M.B:g},{M.C:g},{M.D:g})")


def _quadratic(p: float, q: float, r: float, name: str) -> TamePhase:
    """Phi = p x^2/2 + q x eta + r eta^2/2, the phase of every linear
    canonical map with a nonzero A block: kn is (0, 1, 0), chirp:c is
    (c, 1, 0) and phase_of_symplectic(M) is (C/A, 1/A, -B/A)."""
    H = np.array([[p, q], [q, r]])
    return TamePhase(
        eval=lambda x, e: 0.5 * p * x * x + q * x * e + 0.5 * r * e * e,
        grad_x=lambda x, e: p * x + q * e,
        grad_eta=lambda x, e: q * x + r * e,
        hess=lambda x, e: H.copy(),
        declared_C2=float(np.abs(H).max()),
        declared_delta=abs(q),
        name=name, quad=(p, q, r))


def check_symplectic(chi: CanonicalMap, points) -> float:
    """max over points of the largest entry of |Dchi^T J Dchi - J|."""
    J = SymplecticMatrix.J
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    D = chi.jacobian(pts[:, 0], pts[:, 1])
    dev = np.abs(np.swapaxes(D, -1, -2) @ J @ D - J)
    return float(np.fmax.reduce(dev.ravel(), initial=0.0))


def phase_chi_equivalence(phi: TamePhase, n_quadruples: int = 1000,
                          rng: np.random.Generator | None = None) -> EquivalenceReport:
    """Sampled two-sided comparison

        |grad_x Phi(x',eta) - eta'| + |grad_eta Phi(x',eta) - x|
        ~ |chi_1(x,eta) - x'| + |chi_2(x,eta) - eta'|

    over random quadruples in [-4, 4]^4; the ratio of the two sides
    (regularized by 1e-9) must stay inside [1e-3, 1e3].
    """
    rng = rng or np.random.default_rng(0)
    chi = canonical_map_of_phase(phi)
    # one draw of shape (n, 4) is the same stream as n draws of size 4
    x, xp, eta, etap = rng.uniform(-4.0, 4.0, size=(n_quadruples, 4)).T
    lhs = np.abs(phi.grad_x(xp, eta) - etap) + np.abs(phi.grad_eta(xp, eta) - x)
    c1, c2 = chi.forward(x, eta)
    rhs = np.abs(c1 - xp) + np.abs(c2 - etap)
    ratios = (lhs + 1e-9) / (rhs + 1e-9)
    rmin, rmax = float(ratios.min()), float(ratios.max())
    return EquivalenceReport(ratio_min=rmin, ratio_max=rmax,
                             passed=1e-3 <= rmin and rmax <= 1e3)


# ---------------------------------------------------------------------------
# built-in phase catalog
# ---------------------------------------------------------------------------

def _sine_phase(eps: float, px: float, pe: float, name: str) -> TamePhase:
    """Phi = x eta + eps (px pe / 4 pi^2) sin(2 pi x / px) sin(2 pi eta / pe).

    The amplitude is scaled so the mixed second derivative is exactly
    1 + eps cos cos; with px = pe = 2 pi this is the plain sin(x) sin(eta)
    perturbation.  Choosing px = T and pe = L/T makes the phase smooth on
    the regime-B torus (no seam at the wrap boundary).
    """
    if not 0 <= eps < 1:
        raise ModelError(f"perturbation strength must lie in [0, 1), got {eps:g}")
    if not all(np.isfinite(p) and p != 0 for p in (px, pe)):
        raise ModelError(f"sine periods must be finite and nonzero, got {px:g}, {pe:g}")
    wx, we = 2 * np.pi / px, 2 * np.pi / pe
    A = eps / (wx * we)
    return TamePhase(
        eval=lambda x, e: x * e + A * np.sin(wx * x) * np.sin(we * e),
        grad_x=lambda x, e: e + A * wx * np.cos(wx * x) * np.sin(we * e),
        grad_eta=lambda x, e: x + A * we * np.sin(wx * x) * np.cos(we * e),
        hess=lambda x, e: np.array([
            [-A * wx * wx * np.sin(wx * x) * np.sin(we * e),
             1 + eps * np.cos(wx * x) * np.cos(we * e)],
            [1 + eps * np.cos(wx * x) * np.cos(we * e),
             -A * we * we * np.sin(wx * x) * np.sin(we * e)]]),
        declared_C2=1.0 + max(eps, eps * wx / we, eps * we / wx),
        declared_delta=1.0 - eps,
        name=name)


def tame_phase(spec: str) -> TamePhase:
    """Look up a phase by name: ``kn``, ``chirp:c``, ``metaplectic:a,b,c,d``,
    ``perturbed:eps``, or ``sine:eps:px:pe`` (perturbation with explicit
    periods, e.g. matched to a sampled-line grid).

    A name outside the catalog, a malformed or non-finite number, and a
    value outside a phase's range all raise ModelError.
    """
    head, _, arg = spec.partition(":")

    def numbers(parts):
        try:
            vals = [float(t) for t in parts]
        except ValueError:
            raise ModelError(f"bad number in phase {spec!r}") from None
        if not all(np.isfinite(vals)):
            raise ModelError(f"non-finite number in phase {spec!r}")
        return vals

    if head == "kn":
        if arg:
            raise ModelError(f"phase kn takes no argument, got {spec!r}")
        return _quadratic(0.0, 1.0, 0.0, "kn")
    if head == "chirp":
        c, = numbers([arg])
        return _quadratic(c, 1.0, 0.0, f"chirp:{c:g}")
    if head == "perturbed":
        eps, = numbers([arg])
        return _sine_phase(eps, 2 * np.pi, 2 * np.pi, f"perturbed:{eps:g}")
    if head == "sine":
        parts = arg.split(":")
        if len(parts) > 3:
            raise ModelError(f"sine phase takes at most eps:px:pe, got {spec!r}")
        eps, px, pe = numbers(parts) + [2 * np.pi] * (3 - len(parts))
        return _sine_phase(eps, px, pe, f"sine:{eps:g}:{px:g}:{pe:g}")
    if head == "metaplectic":
        entries = arg.split(",")
        if len(entries) != 4:
            raise ModelError(f"{spec!r} needs four entries a,b,c,d")
        return phase_of_symplectic(SymplecticMatrix(np.array(numbers(entries)).reshape(2, 2)))
    raise ModelError(f"unknown phase spec {spec!r}")
