"""Concrete operators as dense L x L matrices.

Quantization conventions (regime A, index units):

* Kohn-Nirenberg:   (T f)[n] = L^{-1/2} sum_m e^{2 pi i n m / L} sigma[n, m] (F f)[m],
  so sigma = 1 gives exactly the identity.
* FIO type I:       (T f)[n] = L^{-1/2} sum_m e^{2 pi i Phi[n, m]} sigma[n, m] (F f)[m],
  with the discrete phase Phi[n, m] in "turns" (the exponent of e^{2 pi i .}).
* FIO type II is normalized as the adjoint counterpart of type I: with
  tau[a, b] read in (frequency, time) order inside the kernel,

      (T f)[n] = L^{-1} sum_{n', m} e^{-2 pi i (Phi[n', m] - n m / L)} tau[m, n'] f[n'],

  which realizes the adjoint relation fio_type2(Phi, tau) = fio_type1(Phi, rho)^*
  with tau[n, m] = conj(rho[m, n]) entrywise.

Regime-A phases are integer quadratic forms (alpha n^2 + 2 beta n m + gamma m^2) / (2L);
L even makes them L-periodic, and beta a unit mod L makes the FIO with flat
symbol unitary.  Regime-B phases sample a tame phase on the grid (x_n, xi_m)
with a half-turn correction m/2 coming from the x-grid offset -T/2.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import ModelError, UnitError
from .phasegeom import CanonicalMap, TamePhase, canonical_map_of_phase, linear_map
from .tfcore import ModelConfig, Signal, dft_matrix, wrap_half

__all__ = [
    "SymbolGrid", "OperatorMatrix", "DiscretePhase", "MetaplecticWord", "GENERATORS",
    "kn_quantize", "kn_symbol_of", "fio_type1", "fio_type2", "metaplectic",
    "adjoint", "compose", "type1_symbol_of",
    "kn_phase", "quadratic_phase", "discrete_phase_from_tame",
    "symbol_ones", "symbol_multiplier", "random_smooth_symbol",
    "identity_operator", "chirp_operator", "dft_operator", "dilation_operator",
    "multiplier_operator",
]


@dataclass(frozen=True)
class SymbolGrid:
    """A symbol sampled on the (time, frequency) grid: values[n, m]."""

    values: np.ndarray
    config: ModelConfig

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        L = self.config.L
        if v.shape != (L, L):
            raise ModelError(f"symbol shape {v.shape} != ({L}, {L})")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense operator kernel acting on signals, with a provenance tag."""

    entries: np.ndarray
    config: ModelConfig
    tag: str = "explicit"

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        L = self.config.L
        if e.shape != (L, L):
            raise ModelError(f"operator shape {e.shape} != ({L}, {L})")
        object.__setattr__(self, "entries", e)

    def apply(self, f: Signal) -> Signal:
        if f.config.L != self.config.L:
            raise ModelError("operator/signal length mismatch")
        return Signal(self.entries @ f.values, self.config)

    def norm2(self) -> float:
        """Spectral norm (dense SVD)."""
        return float(np.linalg.norm(self.entries, 2))


@dataclass(frozen=True)
class DiscretePhase:
    """A sampled phase Phi[n, m], in turns, with optional provenance.

    For regime-A quadratic phases the coefficients (alpha, beta, gamma) of
    (alpha n^2 + 2 beta n m + gamma m^2)/(2L) are kept so the induced linear
    canonical map is available exactly.
    """

    values: np.ndarray
    config: ModelConfig
    quad: tuple[float, float, float] | None = None
    tame: TamePhase | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        L = self.config.L
        if v.shape != (L, L):
            raise ModelError(f"phase shape {v.shape} != ({L}, {L})")
        object.__setattr__(self, "values", v)

    def canonical_map(self) -> CanonicalMap:
        """The induced map on the index-unit time-frequency plane.

        For integer quadratics with beta a unit mod L the map is returned as
        an integer matrix acting on the torus (division by beta becomes the
        modular inverse), so inverses and compositions stay exact mod L.
        """
        if self.quad is not None:
            alpha, beta, gamma = self.quad
            if beta == 0:
                raise ModelError("degenerate quadratic phase (beta = 0)")
            L = self.config.L
            if gcd(int(beta) % L, L) == 1:
                binv = pow(int(beta) % L, -1, L)
                m = np.array([[binv, -int(gamma) * binv],
                              [int(alpha) * binv,
                               int(beta) - int(alpha) * int(gamma) * binv]])
                m = (m + L // 2) % L - L // 2
                return linear_map(m.astype(float), source="quadratic-phase",
                                  mod_L=L)
            m = np.array([[1 / beta, -gamma / beta],
                          [alpha / beta, beta - alpha * gamma / beta]])
            return linear_map(m, source="quadratic-phase")
        if self.tame is not None:
            return index_map_of_tame(self.tame, self.config)
        raise ModelError("phase has no canonical-map provenance")


def kn_phase(config: ModelConfig) -> DiscretePhase:
    """The Kohn-Nirenberg phase Phi[n, m] = n m / L (quadratic with beta = 1)."""
    return quadratic_phase(config, 0, 1, 0)


def quadratic_phase(config: ModelConfig, alpha: int, beta: int, gamma: int) -> DiscretePhase:
    """Integer quadratic phase (alpha n^2 + 2 beta n m + gamma m^2)/(2L).

    Integer coefficients and even L make exp(2 pi i Phi) L-periodic in both
    indices; beta must be nonzero for a nondegenerate canonical map and a
    unit mod L for exact unitarity of the flat-symbol FIO.
    """
    for name, val in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if val != int(val):
            raise ModelError(f"regime-A quadratic phase needs integer {name}, got {val}")
    L = config.L
    n = np.arange(L, dtype=float)
    N, M = np.meshgrid(n, n, indexing="ij")
    vals = (alpha * N ** 2 + 2 * beta * N * M + gamma * M ** 2) / (2 * L)
    return DiscretePhase(vals, config, quad=(float(alpha), float(beta), float(gamma)))


def index_map_of_tame(phi: TamePhase, config: ModelConfig) -> CanonicalMap:
    """chi of a tame phase rescaled to grid-index units.

    Regime B: index (k, m) corresponds to the continuous shift (k T/L, m/T);
    the continuous map is conjugated by that scaling, and so is its inverse,
    which is the phase's own inverse solve.  Regime A uses the toroidal
    scaling where Phi is sampled as Phi(n, m)/L, giving the same index-unit
    map as the quadratic formulas.  Both directions take arrays of points.
    """
    chi = canonical_map_of_phase(phi)
    if config.regime == "A":
        return chi
    T, L = config.T, config.L

    def in_index_units(f):
        def g(k, m):
            x, xi = f(k * T / L, m / T)
            return x * L / T, xi * T
        return g

    return CanonicalMap(in_index_units(chi.forward), source=f"index({chi.source})",
                        _inverse_fn=in_index_units(chi.inverse().forward))


def discrete_phase_from_tame(phi: TamePhase, config: ModelConfig) -> DiscretePhase:
    """Sample a tame phase on the model grid, in one broadcast call of phi.eval.

    Regime B samples Phi(x_n, xi_m) plus the half-turn correction m/2 that
    absorbs the -T/2 grid offset (so Phi(x, xi) = x xi reproduces the exact
    Kohn-Nirenberg phase).  Regime A samples Phi(n, wrap(m))/L, exact for
    integer quadratics and approximate otherwise.
    """
    L = config.L
    m_idx = np.arange(L)
    if config.regime == "B":
        x = config.time_grid()
        xi = config.freq_grid()
        vals = phi.eval(x[:, None], xi[None, :]) + m_idx / 2
    else:
        n = np.arange(L, dtype=float)
        mw = wrap_half(m_idx, L)
        vals = phi.eval(n[:, None], mw[None, :]) / L
    return DiscretePhase(vals, config, tame=phi)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def kn_quantize(sigma: SymbolGrid) -> OperatorMatrix:
    """Kohn-Nirenberg quantization; kernel T[n, n'] = L^-1 sum_m sigma[n, m] e^{2 pi i m (n-n')/L}."""
    L = sigma.config.L
    B = np.fft.ifft(sigma.values, axis=1)          # B[n, u] = L^-1 sum_m sigma e^{2 pi i m u/L}
    n = np.arange(L)
    T = B[n[:, None], (n[:, None] - n[None, :]) % L]
    return OperatorMatrix(T, sigma.config, tag="kn")


def kn_symbol_of(T: OperatorMatrix) -> SymbolGrid:
    """Exact inverse of kn_quantize: sigma[n, m] = sum_u T[n, (n-u) mod L] e^{-2 pi i m u / L}."""
    L = T.config.L
    n = np.arange(L)
    A = T.entries[n[:, None], (n[:, None] - n[None, :]) % L]
    return SymbolGrid(np.fft.fft(A, axis=1), T.config)


def fio_type1(phi: DiscretePhase, sigma: SymbolGrid) -> OperatorMatrix:
    """Type-I FIO: (T f)[n] = L^{-1/2} sum_m e^{2 pi i Phi[n, m]} sigma[n, m] (F f)[m]."""
    if phi.config.L != sigma.config.L:
        raise ModelError("phase/symbol size mismatch")
    A = np.exp(2j * np.pi * phi.values) * sigma.values
    return OperatorMatrix(np.fft.fft(A, axis=1) / phi.config.L, phi.config, tag="fio1")


def fio_type2(phi: DiscretePhase, tau: SymbolGrid) -> OperatorMatrix:
    """Type-II FIO, the adjoint-side oscillatory integral.

    Normalized so that fio_type2(phi, tau) equals adjoint(fio_type1(phi, rho))
    entrywise when tau[n, m] = conj(rho[m, n]).
    """
    if phi.config.L != tau.config.L:
        raise ModelError("phase/symbol size mismatch")
    B = np.exp(-2j * np.pi * phi.values.T) * tau.values
    return OperatorMatrix(np.fft.ifft(B, axis=0), phi.config, tag="fio2")


def type1_symbol_of(T: OperatorMatrix, phi: DiscretePhase) -> SymbolGrid:
    """The type-I symbol of T relative to the phase phi.

    From e^{2 pi i Phi} sigma_I = e^{2 pi i n m / L} sigma_KN (row-wise DFT
    expansions of the kernel agree), so sigma_I = e^{2 pi i (nm/L - Phi)} sigma_KN.
    """
    L = T.config.L
    n = np.arange(L, dtype=float)
    knp = np.outer(n, n) / L
    sig = kn_symbol_of(T)
    return SymbolGrid(np.exp(2j * np.pi * (knp - phi.values)) * sig.values, T.config)


def adjoint(T: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix(T.entries.conj().T, T.config, tag="adjoint")


def compose(T1: OperatorMatrix, T2: OperatorMatrix) -> OperatorMatrix:
    if T1.config.L != T2.config.L:
        raise ModelError("operator size mismatch")
    return OperatorMatrix(T1.entries @ T2.entries, T1.config, tag="product")


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def symbol_ones(config: ModelConfig) -> SymbolGrid:
    return SymbolGrid(np.ones((config.L, config.L)), config)


def symbol_multiplier(config: ModelConfig, values: np.ndarray) -> SymbolGrid:
    """Frequency-independent symbol sigma[n, m] = values[n] (a multiplication operator)."""
    v = np.asarray(values, dtype=complex)
    return SymbolGrid(np.repeat(v[:, None], config.L, axis=1), config)


def random_smooth_symbol(config: ModelConfig, rng: np.random.Generator,
                         bandwidth: int = 2) -> SymbolGrid:
    """Random trigonometric polynomial on Z_L^2 with modes |q| <= bandwidth,
    normalized to unit sup norm.  Smooth in the discrete sense: its KN
    operator is a short combination of small time-frequency shifts.

    The 2 bandwidth + 1 modes per axis must be distinct mod L, else
    ModelError.  They draw their real, then imaginary parts from rng in
    q1-major order."""
    L = config.L
    if not 0 <= bandwidth <= (L - 1) // 2:
        raise ModelError(f"symbol bandwidth must lie in [0, {(L - 1) // 2}] "
                         f"at L = {L}, got {bandwidth}")
    q = np.arange(-bandwidth, bandwidth + 1) % L
    z = rng.normal(size=(q.size, q.size, 2))
    c = np.zeros((L, L), dtype=complex)
    c[np.ix_(q, q)] = z[..., 0] + 1j * z[..., 1]
    vals = np.fft.ifft2(c) * L * L
    return SymbolGrid(vals / np.abs(vals).max(), config)


# ---------------------------------------------------------------------------
# metaplectic generators and words
# ---------------------------------------------------------------------------

def identity_operator(config: ModelConfig) -> OperatorMatrix:
    return OperatorMatrix(np.eye(config.L), config, tag="identity")


def chirp_operator(config: ModelConfig, c: int = 1) -> OperatorMatrix:
    """diag(exp(pi i c n^2 / L)), the unitary of GENERATORS["chirp"]."""
    n = np.arange(config.L)
    return OperatorMatrix(np.diag(np.exp(1j * np.pi * c * n ** 2 / config.L)),
                          config, tag="metaplectic")


def dft_operator(config: ModelConfig) -> OperatorMatrix:
    """Unitary DFT, the unitary of GENERATORS["dft"]."""
    return OperatorMatrix(dft_matrix(config.L), config, tag="metaplectic")


def dilation_operator(config: ModelConfig, u: int) -> OperatorMatrix:
    """f[n] -> f[u^{-1} n mod L], the unitary of GENERATORS["dilate"]."""
    L = config.L
    uinv = pow(_unit_mod(u, L), -1, L)
    P = np.zeros((L, L))
    n = np.arange(L)
    P[n, (uinv * n) % L] = 1.0
    return OperatorMatrix(P, config, tag="metaplectic")


def _int64(c: int, L: int) -> int:
    """c as an int, or ModelError when it overflows the int64 word matrices."""
    if not -2 ** 63 <= int(c) < 2 ** 63:
        raise ModelError(f"chirp argument {c} does not fit in int64")
    return int(c)


def _unit_mod(u: int, L: int) -> int:
    """u reduced mod L, or UnitError when u is not a unit mod L."""
    if gcd(int(u) % L, L) != 1:
        raise UnitError(f"dilation argument {u} is not a unit mod {L}")
    return int(u) % L


def multiplier_operator(config: ModelConfig, amp: float = 0.1) -> OperatorMatrix:
    """diag(1 + amp cos(2 pi n / L)), a smooth multiplication operator."""
    n = np.arange(config.L)
    return OperatorMatrix(np.diag(1 + amp * np.cos(2 * np.pi * n / config.L)),
                          config, tag="kn")


@dataclass(frozen=True)
class Generator:
    """A metaplectic generator: build(config, *arg) is its unitary and
    matrix(L, *arg) its integer symplectic matrix.  check(arg, L) validates
    and reduces the one integer argument; it is None for no argument."""

    build: Callable[..., OperatorMatrix]
    matrix: Callable[..., list]
    check: Callable[[int, int], int] | None = None


GENERATORS = {
    "dft": Generator(dft_operator, lambda L: [[0, 1], [-1, 0]]),
    "chirp": Generator(chirp_operator, lambda L, c: [[1, 0], [c, 1]], _int64),
    "dilate": Generator(dilation_operator, lambda L, u: [[u, 0], [0, pow(u, -1, L)]],
                        _unit_mod),
}


@dataclass(frozen=True)
class MetaplecticWord:
    """A word in the generators of GENERATORS: dft, chirp(c), dilate(u).

    Letters map to operator products in the same order:
    word [g1, g2] realizes U(g1) U(g2) and accumulates A(g1) A(g2).
    The accumulated matrix is tracked in SL(2, Z_L) (integer entries mod L,
    used for wrapped displacements) together with its real lift.
    """

    generators: tuple
    config: ModelConfig

    def __post_init__(self):
        gens = []
        for name, *args in self.generators:
            gen = GENERATORS.get(name)
            if gen is None or len(args) != (gen.check is not None):
                raise ModelError(f"unknown generator or wrong arguments {(name, *args)!r}")
            gens.append((name, *(gen.check(a, self.config.L) for a in args)))
        object.__setattr__(self, "generators", tuple(gens))

    def matrix_modL(self) -> np.ndarray:
        """Accumulated symplectic matrix with integer entries (not reduced)."""
        M = np.eye(2, dtype=np.int64)
        for name, *arg in self.generators:
            M = M @ np.array(GENERATORS[name].matrix(self.config.L, *arg), dtype=np.int64)
        return M


def metaplectic(word: MetaplecticWord) -> tuple[OperatorMatrix, CanonicalMap]:
    """Assemble the unitary of a generator word and its linear canonical map.

    The intertwining U pi(z) U^* = c pi(A z mod L) holds exactly for every
    generator (and hence every word) in regime A; the scalar c is unimodular
    and not tracked beyond that.
    """
    config = word.config
    U = np.eye(config.L, dtype=complex)
    for name, *arg in word.generators:
        U = U @ GENERATORS[name].build(config, *arg).entries
    chi = linear_map(word.matrix_modL().astype(float), source="metaplectic-word",
                     mod_L=config.L)
    return OperatorMatrix(U, config, tag="metaplectic"), chi
