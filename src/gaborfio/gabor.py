"""Gabor frames on separable lattices: frame operator, tight window, analysis,
synthesis, and modulation-space norms of coefficient arrays.

The lattice is a Z x b Z inside Z_L x Z_L with a | L and b | L; lattice points
are enumerated time-major: index i = j * (L//b) + k  <->  lambda = (j*a, k*b).
All frames are reduced to Parseval form through the canonical tight window
w = S^{-1/2} g, so synthesis * analysis is exactly the identity and no dual
window is ever needed.

Lattice structure
-----------------
Write n_freq = L/b, n_time = L/a and split a time index as n = q + r*n_freq
with q < n_freq, r < b.  The modulations e^{2 pi i k b n / L} depend on n only
through q, which gives two exact factorizations (indices mod L):

* Walnut blocks.  S[n, n'] = 0 unless n = n' (mod n_freq); on the residue
  class q the frame operator is the b x b block

      S_q[r, r'] = n_freq * sum_j g[q + r n_freq - j a] conj(g[q + r' n_freq - j a]),

  so the frame bounds are the extreme eigenvalues over all blocks and the
  tight window on class q is S_q^{-1/2} g_q.
* Fold + FFT.  The analysis coefficient is a length-n_freq DFT of a fold,

      <f, pi(j a, k b) w> = FFT_q( sum_r conj(w[q + r n_freq - j a]) f[q + r n_freq] )[k],

  one batched (n_freq, n_time, b) @ (n_freq, b, M) product for M signals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockpool import map_blocks
from .errors import FrameDeficient, ModelError, WindowError
from .tfcore import ModelConfig, Signal, tf_shift_matrix, wrap_half

__all__ = [
    "Lattice", "GaborFrame", "CoefficientArray", "WeightSpec",
    "build_frame", "analysis", "synthesis", "modulation_norm",
    "atom_matrix", "analysis_matrix", "default_lattice",
]

# outputs per block of analysis_matrix on the block pool; the blocks write
# into the result, so this sets the work per block, not memory
ANALYSIS_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class Lattice:
    """Separable lattice aZ x bZ in Z_L^2."""

    a: int
    b: int
    config: ModelConfig

    def __post_init__(self):
        L = self.config.L
        if self.a <= 0 or self.b <= 0 or L % self.a or L % self.b:
            raise ModelError(f"lattice steps must divide L={L}, got a={self.a} b={self.b}")

    @property
    def n_time(self) -> int:
        return self.config.L // self.a

    @property
    def n_freq(self) -> int:
        return self.config.L // self.b

    @property
    def size(self) -> int:
        return self.n_time * self.n_freq

    @property
    def density(self) -> float:
        """Redundancy L/(ab); a frame requires density >= 1."""
        return self.config.L / (self.a * self.b)

    def points(self) -> np.ndarray:
        """(size, 2) array of lattice points (j*a, k*b), time-major order."""
        j, k = np.meshgrid(np.arange(self.n_time), np.arange(self.n_freq), indexing="ij")
        return np.stack([j.ravel() * self.a, k.ravel() * self.b], axis=1)


def default_lattice(config: ModelConfig, density: float = 4.0) -> Lattice:
    """Most nearly square lattice with ab = L/density (exact divisors required)."""
    if not density > 0:
        raise ModelError(f"lattice density must be > 0, got {density}")
    ab = config.L / density
    if ab != int(ab):
        raise ModelError(f"L/density = {ab} is not an integer")
    ab = int(ab)
    best = None
    for a in range(1, ab + 1):
        if ab % a or config.L % a or config.L % (ab // a):
            continue
        b = ab // a
        score = abs(np.log(a / b))
        # ties (a, b) vs (b, a) resolve to the time-coarser representative
        if best is None or score < best[0] - 1e-12 or (
                abs(score - best[0]) < 1e-12 and a > best[1]):
            best = (score, a, b)
    if best is None:
        raise ModelError(f"no divisor pair with ab = {ab} for L = {config.L}")
    return Lattice(best[1], best[2], config)


@dataclass(frozen=True)
class CoefficientArray:
    """Gabor coefficients indexed (time index j, frequency index k)."""

    values: np.ndarray
    lattice: Lattice

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        shape = (self.lattice.n_time, self.lattice.n_freq)
        if v.shape != shape:
            raise ModelError(f"coefficient shape {v.shape} != {shape}")
        object.__setattr__(self, "values", v)

    def ravel(self) -> np.ndarray:
        """Flatten in the canonical time-major order."""
        return self.values.ravel()


@dataclass(frozen=True)
class WeightSpec:
    """Polynomial weight v_s(z) = (1 + |z|^2)^(s/2).

    v_s is moderate rather than plainly submultiplicative: the sharp bound is
    Peetre's inequality v_s(z + w) <= 2^(s/2) v_s(z) v_s(w).
    """

    s: float = 0.0

    def value(self, points: np.ndarray, L: int) -> np.ndarray:
        """Evaluate the weight at (N, 2) points, wrapped to [-L/2, L/2)."""
        d = wrap_half(np.asarray(points, dtype=float), L)
        return (1.0 + (d ** 2).sum(axis=-1)) ** (self.s / 2)

    def on_lattice(self, lattice: Lattice) -> np.ndarray:
        vals = self.value(lattice.points(), lattice.config.L)
        return vals.reshape(lattice.n_time, lattice.n_freq)


@dataclass(frozen=True)
class GaborFrame:
    """A Gabor frame with its precomputed canonical tight (Parseval) window."""

    g: Signal
    lattice: Lattice
    tight: Signal
    bounds: tuple[float, float]

    @property
    def config(self) -> ModelConfig:
        return self.g.config

    def window(self, use_tight: bool = True) -> Signal:
        return self.tight if use_tight else self.g


def _rolled(window: np.ndarray, lat: Lattice) -> np.ndarray:
    """(n_time, L) array whose row j is the window translated by j*a."""
    L = lat.config.L
    n = np.arange(L)
    return window[(n[None, :] - lat.a * np.arange(lat.n_time)[:, None]) % L]


def atom_matrix(window: Signal, lattice: Lattice) -> np.ndarray:
    """L x size matrix whose columns are pi(lambda) w in lattice order."""
    k, m = lattice.points().T
    return tf_shift_matrix(window.values, k, m).T


def build_frame(g: Signal, lat: Lattice) -> GaborFrame:
    """Assemble the frame operator, extract bounds and the tight window.

    S = sum_lambda pi(lambda) g <., pi(lambda) g> splits into n_freq Walnut
    blocks of size b x b (module docstring); one batched eigendecomposition
    gives the frame bounds as the extreme eigenvalues over all blocks and the
    tight window S^{-1/2} g block by block.  Raises FrameDeficient when the
    lower bound sits at the relative noise floor (rank-deficient system).
    """
    if g.norm == 0.0:
        raise WindowError("zero window")
    nf, b = lat.n_freq, lat.b
    # G[q, r, j] = g[q + r n_freq - j a]
    G = _rolled(g.values, lat).reshape(lat.n_time, b, nf).transpose(2, 1, 0)
    S = nf * (G @ G.conj().transpose(0, 2, 1))
    evals, U = np.linalg.eigh(S)
    A_frame, B_frame = float(evals.min()), float(evals.max())
    if A_frame <= 1e-12 * B_frame:
        raise FrameDeficient(
            f"lower frame bound {A_frame:.3e} at noise floor of {B_frame:.3e} "
            f"(ab = {lat.a * lat.b} vs L = {lat.config.L})")
    g_q = g.values.reshape(b, nf).T[:, :, None]
    tight_q = (U * evals[:, None, :] ** -0.5) @ (U.conj().transpose(0, 2, 1) @ g_q)
    tight = tight_q[:, :, 0].T.ravel()
    return GaborFrame(g=g, lattice=lat, tight=Signal(tight, g.config),
                      bounds=(A_frame, B_frame))


def fold(window: Signal, lat: Lattice, X: np.ndarray):
    """The factors of the fold + FFT analysis of the columns of the L x M
    array X (module docstring): W[q] = conj(w[q + r n_freq - j a]) as an
    (n_freq, n_time, b) array and the views Xq[q] = X[q + r n_freq] as an
    (n_freq, b, M) array."""
    nf = lat.n_freq
    W = np.conj(_rolled(window.values, lat)).reshape(lat.n_time, lat.b, nf).transpose(2, 0, 1)
    return W, X.reshape(lat.b, nf, X.shape[1]).transpose(1, 0, 2)


def fold_product(W: np.ndarray, Xq: np.ndarray, out: np.ndarray, q=slice(None)) -> None:
    """out[j, q, :] = W[q] @ Xq[q] for the residues q, one GEMM per residue,
    into the (n_time, n_freq, M) array out."""
    np.matmul(W[q], Xq[q], out=out.transpose(1, 0, 2)[q])


def fold_fft(out: np.ndarray, j=slice(None)) -> None:
    """The FFT over q of the time rows j of out, in place: out[j, k, :] then
    holds the analysis at the lattice points (j a, k b)."""
    np.fft.fft(out[j], axis=1, out=out[j])


def analysis_matrix(window: Signal, lat: Lattice, X: np.ndarray) -> np.ndarray:
    """Analysis of every column of the L x M array X: the (size, M) array of
    <X[:, m], pi(lambda) w>, rows in lattice order (fold + FFT, module
    docstring)."""
    nf, nt = lat.n_freq, lat.n_time
    M = X.shape[1]
    W, Xq = fold(window, lat, X)
    out = np.empty((nt, nf, M), dtype=complex)
    # the batched product lands in out[j, q, :]: the FFT over q then runs in
    # place and leaves the rows in lattice order without a transposed copy.
    # Both run on the block pool in blocks of about ANALYSIS_BLOCK_ENTRIES
    # outputs, the product over residues q and the FFT over time rows j;
    # the product of one q and the FFT of one line are those of one call.
    q_step = max(1, ANALYSIS_BLOCK_ENTRIES // (nt * M))
    j_step = max(1, ANALYSIS_BLOCK_ENTRIES // (nf * M))
    map_blocks(lambda q: fold_product(W, Xq, out, slice(q, q + q_step)), range(0, nf, q_step))
    map_blocks(lambda j: fold_fft(out, slice(j, j + j_step)), range(0, nt, j_step))
    return out.reshape(nt * nf, M)


def analysis(frame: GaborFrame, f: Signal, use_tight: bool = True) -> CoefficientArray:
    """Coefficients <f, pi(lambda) w> over the lattice, via folded FFTs."""
    lat = frame.lattice
    c = analysis_matrix(frame.window(use_tight), lat, f.values[:, None])
    return CoefficientArray(c.reshape(lat.n_time, lat.n_freq), lat)


def synthesis(frame: GaborFrame, c: CoefficientArray) -> Signal:
    """sum_lambda c[lambda] pi(lambda) w; the adjoint of analysis."""
    lat = frame.lattice
    if c.lattice is not lat and (c.lattice.a, c.lattice.b, c.lattice.config.L) != (
            lat.a, lat.b, lat.config.L):
        raise ModelError("coefficient array does not match the frame lattice")
    env = np.tile(lat.n_freq * np.fft.ifft(c.values, axis=1), lat.b)
    out = (_rolled(frame.tight.values, lat) * env).sum(axis=0)
    return Signal(out, lat.config)


def modulation_norm(frame: GaborFrame, f: Signal, p: float, q: float,
                    weight: WeightSpec | None = None,
                    use_tight: bool = False) -> float:
    """Mixed-norm of the weighted Gabor coefficients.

    Inner p-norm runs over the time indices for each fixed frequency, the
    outer q-norm over the frequencies; p or q may be inf.  With p = q = 2,
    zero weight and the tight window this is exactly the l2 norm of f.
    """
    if p < 1 or q < 1:
        raise ModelError("p, q must be >= 1")
    weight = weight or WeightSpec()
    c = analysis(frame, f, use_tight=use_tight)
    wtd = np.abs(c.values) * weight.on_lattice(frame.lattice)
    if np.isinf(p):
        inner = wtd.max(axis=0)
    else:
        inner = (wtd ** p).sum(axis=0) ** (1 / p)
    if np.isinf(q):
        return float(inner.max())
    return float((inner ** q).sum() ** (1 / q))
