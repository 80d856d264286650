"""Finite time-frequency model: signals on Z_L, shifts, STFT, unitary DFT.

Conventions
-----------
Signals are complex vectors indexed by n = 0, ..., L-1 with L even. Two
operating regimes share the same cyclic arithmetic:

* regime ``A`` -- the exact torus Z_L. Time-frequency shifts, the STFT and
  quadratic chirps are exact algebraic objects; every identity below holds
  to rounding.
* regime ``B`` -- a sampled line. Samples live at x_j = -T/2 + j*T/L and
  the DFT bin m carries the frequency wrap(m)/T in [-L/(2T), L/(2T)).
  Operations are the same cyclic ones; the regime only changes how grid
  indices are interpreted as continuous coordinates.

The time-frequency shift is pi(k, m) = M_m T_k,

    (pi(k, m) f)[n] = exp(2 pi i m n / L) * f[(n - k) mod L],

the STFT of f against a window g is V_g f[k, m] = <f, pi(k, m) g>, and the
DFT is unitary, (F f)[m] = L^{-1/2} sum_n f[n] exp(-2 pi i n m / L), so that
F^4 = I and metaplectic operators below come out exactly unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads these on first use; load them with the package so that their
# import counts as start-up, not as the first operation's time
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .errors import ModelError, WindowError

__all__ = [
    "ModelConfig", "Signal", "TFGrid",
    "tf_shift", "tf_shift_matrix", "stft", "dft_unitary", "dft_matrix",
    "periodized_gaussian", "delta", "random_signal", "wrap_half",
]


def wrap_half(x, L):
    """Reduce x (scalar or array) to the fundamental window [-L/2, L/2)."""
    return (np.asarray(x) + L / 2) % L - L / 2


def array_field(record, name: str, dtype, shape: tuple, what: str) -> None:
    """Store the field name of the frozen dataclass record as an array of
    dtype; raise ModelError "<what> shape ... != <shape>" unless it has the
    given shape."""
    v = np.asarray(getattr(record, name), dtype=dtype)
    if v.shape != shape:
        raise ModelError(f"{what} shape {v.shape} != {tuple(map(int, shape))}")
    object.__setattr__(record, name, v)


@dataclass(frozen=True)
class ModelConfig:
    """Model parameters: signal length L, regime, and domain width T (regime B).

    In regime B an omitted T defaults to sqrt(L), which makes the sample
    spacing T/L equal to the frequency spacing 1/T (symmetric grid).
    """

    L: int
    regime: str = "A"
    T: float | None = None

    def __post_init__(self):
        if self.regime not in ("A", "B"):
            raise ModelError(f"unknown regime {self.regime!r}")
        if self.L < 8 or self.L % 2 != 0:
            raise ModelError(f"L must be an even integer >= 8, got {self.L}")
        if self.regime == "B":
            T = float(self.T) if self.T is not None else float(np.sqrt(self.L))
            if not T > 0:
                raise ModelError(f"regime B needs T > 0, got {self.T}")
            object.__setattr__(self, "T", T)
        elif self.T is not None:
            raise ModelError("T is only meaningful in regime B")

    def time_grid(self) -> np.ndarray:
        """Sample positions: 0..L-1 in regime A, -T/2 + j*T/L in regime B."""
        j = np.arange(self.L)
        if self.regime == "A":
            return j.astype(float)
        return -self.T / 2 + j * self.T / self.L

    def freq_grid(self) -> np.ndarray:
        """Frequency of DFT bin m: wrap(m) in regime A, wrap(m)/T in regime B."""
        w = wrap_half(np.arange(self.L), self.L)
        return w if self.regime == "A" else w / self.T


@dataclass(frozen=True)
class Signal:
    """A length-L complex signal tied to a model config."""

    values: np.ndarray
    config: ModelConfig

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.config.L,):
            raise ModelError(f"signal length {v.shape} != (L,)=({self.config.L},)")
        if not np.all(np.isfinite(v.view(float))):
            raise ModelError("signal has non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class TFGrid:
    """An L x L array indexed by (time shift k, frequency shift m)."""

    values: np.ndarray
    config: ModelConfig

    def __post_init__(self):
        array_field(self, "values", complex, (self.config.L,) * 2, "grid")


def delta(config: ModelConfig, n: int = 0) -> Signal:
    """Unit impulse at index n."""
    v = np.zeros(config.L, dtype=complex)
    v[n % config.L] = 1.0
    return Signal(v, config)


def periodized_gaussian(config: ModelConfig) -> Signal:
    """The standard window: L-periodization of exp(-pi n^2 / L), unit norm.

    This discrete Gaussian is a fixed vector of the unitary DFT, which makes
    it the natural Schwartz-class surrogate: optimally balanced time and
    frequency concentration on the cyclic group.
    """
    n = np.arange(config.L, dtype=float)
    g = np.zeros(config.L)
    for j in range(-3, 4):
        g += np.exp(-np.pi * (n + j * config.L) ** 2 / config.L)
    return Signal(g / np.linalg.norm(g), config)


def random_signal(config: ModelConfig, rng: np.random.Generator) -> Signal:
    """Complex standard-normal signal drawn from rng."""
    v = rng.normal(size=config.L) + 1j * rng.normal(size=config.L)
    return Signal(v, config)


def tf_shift(f: Signal, k: int, m: int) -> Signal:
    """Time-frequency shift pi(k, m) f = M_m T_k f.  Exactly unitary."""
    return Signal(tf_shift_matrix(f.values, [k], [m])[0], f.config)


def tf_shift_matrix(f: np.ndarray, k, m) -> np.ndarray:
    """The (len(k), L) array whose row i is pi(k[i], m[i]) f, for integer
    shifts k, m; row i equals tf_shift(f, k[i], m[i]) bit for bit."""
    L = f.shape[0]
    k, m = np.asarray(k), np.asarray(m)
    n = np.arange(L)
    return (np.exp(2j * np.pi * (m % L)[:, None] * n / L)
            * f[(n[None, :] - k[:, None]) % L])


def stft(f: Signal, g: Signal) -> TFGrid:
    """Short-time Fourier transform V_g f[k, m] = <f, pi(k, m) g>.

    Computed one time shift at a time via length-L FFTs:
    row k of the result is the DFT of n -> f[n] * conj(g[(n-k) mod L]).
    """
    if f.config.L != g.config.L:
        raise ModelError("signal/window length mismatch")
    if g.norm == 0.0:
        raise WindowError("zero window")
    n = np.arange(f.config.L)
    G = np.conj(g.values[(n[None, :] - n[:, None]) % n.size])   # conj(g[(n - k) mod L])
    return TFGrid(np.fft.fft(f.values * G, axis=1), f.config)


def dft_unitary(f: Signal) -> Signal:
    """Unitary DFT, (F f)[m] = L^{-1/2} sum_n f[n] e^{-2 pi i n m / L}."""
    return Signal(np.fft.fft(f.values) / np.sqrt(f.config.L), f.config)


def dft_matrix(L: int) -> np.ndarray:
    """The unitary DFT as an L x L matrix."""
    return np.fft.fft(np.eye(L)) / np.sqrt(L)
